"""Exact arithmetic for rational fractions modulo integers.

Central objects: integer polynomials, reduced rational functions P/Q,
factored moduli, and the unit-modulus (or zero) value attached to f(n)
mod q through prime-power local factors recombined by CRT.  All phases
are exact Fractions; complex conversion happens at the caller's edge.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .exact import Cyclotomic, _fit, _narrow, as_exact, indexed_phase_sum


# ---------------------------------------------------------------------------
# integer polynomials


class IntPoly:
    """Polynomial with arbitrary-precision integer coefficients, constant first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def __call__(self, n: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def eval_mod(self, n: int, m: int) -> int:
        acc = 0
        n %= m
        for c in reversed(self.coeffs):
            acc = (acc * n + c) % m
        return acc

    def eval_mod_vec(self, ns: np.ndarray, m: int) -> np.ndarray:
        """Vectorized eval_mod: m < 2**31 for int64 ns, any m for Python ints."""
        acc = np.zeros_like(ns)
        nm = ns % m
        for c in reversed(self.coeffs):
            acc = (acc * nm + c % m) % m
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: Union["IntPoly", int]) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def compose(self, inner: "IntPoly") -> "IntPoly":
        """self(inner(X)) by Horner."""
        acc = IntPoly()
        for c in reversed(self.coeffs):
            acc = acc * inner + IntPoly([c])
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                term = f"{mag}X" + (f"^{i}" if i > 1 else "")
            if not bits:
                bits.append(("-" if c < 0 else "") + term)
            else:
                bits.append(("-" if c < 0 else "+") + term)
        return "".join(bits)


X = IntPoly([0, 1])
ONE_POLY = IntPoly([1])


# One Euclid for Z[X] and F_p[X] on trimmed coefficient lists, constant
# first.  p = 0 means Z and a prime p means F_p; the ring enters only where
# coefficients are reduced mod p and where a result is normalised.


def _trim(v: Sequence[int], p: int = 0) -> List[int]:
    """v as a list, reduced mod p when p > 0, without zero leading coefficients."""
    out = [c % p for c in v] if p else list(v)
    while out and not out[-1]:
        out.pop()
    return out


def _normal(v: Sequence[int], p: int = 0) -> List[int]:
    """The associate of v the ring names: primitive with a positive leading
    coefficient over Z, monic over F_p ([] for zero)."""
    v = _trim(v, p)
    if not v:
        return v
    if p:
        inv = pow(v[-1], -1, p)
        return [c * inv % p for c in v]
    c = math.gcd(*v) if v[-1] > 0 else -math.gcd(*v)
    return [x // c for x in v] if c != 1 else v


def _prem(a: List[int], b: List[int], p: int = 0) -> List[int]:
    """Pseudo-remainder lc(b)^k * a mod b, division-free; b nonzero."""
    r, lb, nb = a, b[-1], len(b) - 1
    while len(r) > nb:
        lr, shift = r[-1], len(r) - 1 - nb
        r = _trim([c * lb for c in r[:shift]]
                  + [r[shift + j] * lb - lr * b[j] for j in range(nb)], p)
    return r


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int = 0) -> List[int]:
    """gcd by the primitive remainder sequence, normalised; [] if both are zero."""
    a, b = _normal(a, p), _normal(b, p)
    while b:
        a, b = b, _normal(_prem(a, b, p), p)
    return a


def _poly_quo(a: Sequence[int], b: List[int], p: int = 0) -> List[int]:
    """a / b when b divides a (b normalised, so monic over F_p)."""
    r, lb, nb = list(a), b[-1], len(b) - 1
    out = [0] * max(len(r) - nb, 0)
    for shift in range(len(out) - 1, -1, -1):
        c, rest = divmod(r[shift + nb] % p if p else r[shift + nb], lb)
        if rest:
            raise ArithmeticError("inexact polynomial division")
        out[shift] = c
        for j, bj in enumerate(b):
            r[shift + j] -= c * bj
    if _trim(r, p):
        raise ArithmeticError("inexact polynomial division")
    return out


# ---------------------------------------------------------------------------
# rational functions in reduced form


class RationalFunction:
    """P/Q over Z in reduced form: coprime over Q, coprime integer contents,
    positive leading denominator coefficient."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE_POLY):
        num = num if isinstance(num, IntPoly) else IntPoly(num)
        den = den if isinstance(den, IntPoly) else IntPoly(den)
        if den.is_zero():
            raise ValueError("zero denominator")
        if not num.is_zero():
            g = _poly_gcd(num.coeffs, den.coeffs)
            if len(g) > 1:
                num = IntPoly(_poly_quo(num.coeffs, g))
                den = IntPoly(_poly_quo(den.coeffs, g))
            c = math.gcd(num.content(), den.content())
            if c > 1:
                num = IntPoly([x // c for x in num.coeffs])
                den = IntPoly([x // c for x in den.coeffs])
        else:
            num, den = IntPoly(), ONE_POLY
        if den.leading < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    @property
    def total_degree(self) -> int:
        return max(self.num.degree, 0) + self.den.degree

    def is_polynomial(self) -> bool:
        return self.den.degree == 0 and self.den.leading == 1

    def derivative(self) -> "RationalFunction":
        p, q = self.num, self.den
        return RationalFunction(p.derivative() * q - p * q.derivative(), q * q)

    def compose_affine(self, shift: int, scale: int = 1) -> "RationalFunction":
        """f(shift + scale*X)."""
        inner = IntPoly([shift, scale])
        return RationalFunction(self.num.compose(inner), self.den.compose(inner))

    def shift(self, r: int) -> "RationalFunction":
        return self.compose_affine(r, 1)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            fr = Fraction(other)
            other = RationalFunction(IntPoly([fr.numerator]), IntPoly([fr.denominator]))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        if len(self.num.coeffs) - self.num.coeffs.count(0) > 1:
            num = f"({num})"
        if len(self.den.coeffs) - self.den.coeffs.count(0) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RationalFunction({self})"


def shift_scale(f: RationalFunction, a: int, s: int, r: int) -> RationalFunction:
    """f(a + sX + r) - f(a + sX), exact and reduced."""
    return f.compose_affine(a + r, s) - f.compose_affine(a, s)


def add_linear(f: RationalFunction, ell: int) -> RationalFunction:
    """f + ell*X."""
    return f + RationalFunction(IntPoly([0, ell]))


_TOKEN = re.compile(r"\s*(?:(\d+)|(X)|(\^)|(\+)|(-)|(\*)|(\()|(\)))")


def _parse_poly(s: str) -> IntPoly:
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        depth = 0
        for i, ch in enumerate(s):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0 and i < len(s) - 1:
                break
        else:
            s = s[1:-1]
    acc = IntPoly()
    pos = 0
    sign = 1
    expect_term = True
    coeff: Optional[int] = None
    power: Optional[int] = None
    saw_x = False
    caret_pending = False

    def flush():
        nonlocal acc, sign, coeff, power, saw_x, expect_term
        if caret_pending:
            raise ValueError(f"dangling ^ in {s!r}")
        if coeff is None and not saw_x:
            raise ValueError(f"cannot parse polynomial {s!r}")
        c = sign * (1 if coeff is None else coeff)
        e = (power if power is not None else 1) if saw_x else 0
        term = [0] * e + [c]
        acc = acc + IntPoly(term)
        sign, coeff, power, saw_x, expect_term = 1, None, None, False, False

    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial {s!r} at {pos}")
        pos = m.end()
        num, x, caret, plus, minus, star, lpar, rpar = m.groups()
        if num is not None:
            if saw_x:
                if not caret_pending or power is not None:
                    raise ValueError(f"unexpected number in {s!r}")
                power = int(num)
                caret_pending = False
            else:
                if coeff is not None:
                    raise ValueError(f"unexpected number in {s!r}")
                coeff = int(num)
        elif x:
            if saw_x:
                raise ValueError(f"unexpected X in {s!r}")
            saw_x = True
        elif caret:
            if not saw_x or power is not None or caret_pending:
                raise ValueError(f"dangling ^ in {s!r}")
            caret_pending = True
        elif star:
            if coeff is None or saw_x:
                raise ValueError(f"dangling * in {s!r}")
        elif plus or minus:
            if expect_term and coeff is None and not saw_x:
                sign = -sign if minus else sign
            else:
                flush()
                if minus:
                    sign = -1
                expect_term = True
        elif lpar or rpar:
            raise ValueError(f"nested parentheses unsupported in {s!r}")
    flush()
    return acc


def parse_rational_function(text: str) -> RationalFunction:
    """Parse strings like '1/X', '(X^3+2X)/(X^2-1)', 'X^2/3', '-2X+1'."""
    depth = 0
    split = None
    for i, ch in enumerate(text):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "/" and depth == 0:
            if split is not None:
                raise ValueError(f"more than one top-level '/' in {text!r}")
            split = i
    if split is None:
        return RationalFunction(_parse_poly(text))
    return RationalFunction(_parse_poly(text[:split]), _parse_poly(text[split + 1:]))


# ---------------------------------------------------------------------------
# factored moduli


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, rng: random.Random) -> int:
    while True:
        c = rng.randrange(1, n)
        f = lambda v: (v * v + c) % n
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> Tuple[Tuple[int, int], ...]:
    """Prime factorization, ascending; trial division then Pollard rho."""
    if n <= 0:
        raise ValueError("can only factor positive integers")
    out: dict = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    rng = None      # seeded on first use; most inputs never reach rho
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = 49
        # a short trial-division sweep keeps rho away from tiny factors
        while d * d <= m and d < 10_000:
            if m % d == 0:
                stack += [d, m // d]
                break
            d += 2
        else:
            rng = rng or random.Random(0xA07E)
            d = _pollard_rho(m, rng)
            stack += [d, m // d]
    return tuple(sorted(out.items()))


class FactoredModulus:
    """A positive integer together with its certified prime factorization."""

    __slots__ = ("value", "factors")

    def __init__(self, value: int, factors: Optional[Sequence[Tuple[int, int]]] = None):
        value = int(value)
        if value < 1:
            raise ValueError("modulus must be >= 1")
        if factors is None:
            factors = factorize(value) if value > 1 else ()
        factors = tuple((int(p), int(e)) for p, e in factors)
        prod = 1
        last = 1
        for p, e in factors:
            if p <= last:
                raise ValueError("factors must be distinct and ascending")
            if e < 1 or not is_prime(p):
                raise ValueError(f"bad factor {p}^{e}")
            prod *= p ** e
            last = p
        if prod != value:
            raise ValueError("factorization does not multiply back to the value")
        self.value = value
        self.factors = factors

    @staticmethod
    def of(q: Union[int, "FactoredModulus"]) -> "FactoredModulus":
        if isinstance(q, FactoredModulus):
            return q
        return _factored_cached(int(q))

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def prime_powers(self) -> List[Tuple[int, int, int]]:
        """(p, e, p**e) triples."""
        return [(p, e, p ** e) for p, e in self.factors]

    def __eq__(self, other):
        return isinstance(other, FactoredModulus) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"FactoredModulus({self.value})"


@lru_cache(maxsize=4096)
def _factored_cached(q: int) -> FactoredModulus:
    return FactoredModulus(q)


# ---------------------------------------------------------------------------
# inverses and CRT


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a mod m in [0, m); raises ValueError if gcd(a, m) > 1."""
    if m < 1:
        raise ValueError("modulus must be positive")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} is not invertible mod {m}") from None


def crt_combine(pairs: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """Combine (residue, modulus) pairs with pairwise coprime moduli;
    returns (residue, product) with residue in [0, product)."""
    r, m = 0, 1
    for res, mod in pairs:
        if mod < 1:
            raise ValueError("moduli must be positive")
        if math.gcd(m, mod) != 1:
            raise ValueError("moduli are not pairwise coprime")
        inv = mod_inverse(m % mod, mod) if mod > 1 else 0
        r = r + m * ((res - r) * inv % mod)
        m *= mod
    return r % m, m


# ---------------------------------------------------------------------------
# the phase convention for rational fractions mod q


def is_well_defined(f: RationalFunction, q: Union[int, FactoredModulus]) -> bool:
    """True iff gcd(q, Q) = 1 in Z[X], i.e. gcd(q, content(Q)) = 1."""
    qv = int(FactoredModulus.of(q).value)
    return math.gcd(qv, f.den.content()) == 1


def _require_well_defined(f: RationalFunction, q: FactoredModulus) -> None:
    if not is_well_defined(f, q):
        raise ValueError(f"f={f} is not well-defined mod {q.value}")


def phase_fraction(f: RationalFunction, q: Union[int, FactoredModulus],
                   n: int) -> Optional[Fraction]:
    """Exact phase a/q of the value at n, or None at a pole.

    Per prime power p^e || q the local factor is zero when p | Q(n) and
    otherwise contributes c * P(n) * Q(n)^-1 mod p^e with c the inverse of
    q/p^e; local phases recombine to a single fraction with denominator q.
    """
    fq = FactoredModulus.of(q)
    _require_well_defined(f, fq)
    qv = fq.value
    if qv == 1:
        return Fraction(0)
    total = 0
    for p, _e, m in fq.prime_powers():
        qn = f.den.eval_mod(n, m)
        if qn % p == 0:
            return None
        pn = f.num.eval_mod(n, m)
        cof = qv // m
        local = pow(cof, -1, m) * pn * pow(qn, -1, m) % m
        total += local * cof
    return Fraction(total % qv, qv)


def eval_phase(f: RationalFunction, q: Union[int, FactoredModulus], n: int) -> Cyclotomic:
    """The unit-modulus (or zero) value at n as an exact Cyclotomic."""
    t = phase_fraction(f, q, n)
    return Cyclotomic.zero() if t is None else Cyclotomic.from_phase(t)


def _pow_mod_vec(base: np.ndarray, exp: int, m: int) -> np.ndarray:
    out = np.ones_like(base)
    b = base % m
    e = exp
    while e:
        if e & 1:
            out = out * b % m
        b = b * b % m
        e >>= 1
    return out


def phase_numerators(f: RationalFunction, q: Union[int, FactoredModulus],
                     ns) -> np.ndarray:
    """Phase numerators mod q for an integer array in one vectorized CRT pass;
    -1 marks poles.  Residues are int64 below 2^31, where every product fits,
    and Python ints from there on; the result is int64 where it fits."""
    fq = FactoredModulus.of(q)
    _require_well_defined(f, fq)
    qv = fq.value
    # from a list, numpy would turn ints in [2^63, 2^64) into floats
    ns = ns if isinstance(ns, np.ndarray) else _fit(ns)
    if ns.dtype.kind in "Ou":   # ints that may pass int64: f(n) mod q reads n mod q
        ns = ns.astype(object) % qv
    ns = ns.astype(np.int64 if qv < 1 << 31 else object, copy=False)
    total = np.zeros_like(ns)
    pole = np.zeros(ns.shape, dtype=bool)
    for p, e, m in fq.prime_powers():
        qn = f.den.eval_mod_vec(ns, m)
        pn = f.num.eval_mod_vec(ns, m)
        pole |= qn % p == 0
        phi_m1 = (m // p) * (p - 1) - 1
        inv = _pow_mod_vec(np.where(pole, 1, qn), phi_m1, m)
        cof = qv // m
        local = pow(cof, -1, m) * pn % m * inv % m
        total = (total + local * cof) % qv
    return _narrow(np.where(pole, -1, total))


class FractionPhase:
    """g(n) = e(f(n)/q), 0 at the poles of f mod q: callable per n, and
    numerators() gives a whole array of n in one phase_numerators pass."""

    __slots__ = ("f", "q")

    def __init__(self, f: RationalFunction, q: Union[int, FactoredModulus]):
        self.q = FactoredModulus.of(q)
        _require_well_defined(f, self.q)
        self.f = f

    def __call__(self, n: int) -> Cyclotomic:
        return eval_phase(self.f, self.q, n)

    def numerators(self, ns) -> np.ndarray:
        return phase_numerators(self.f, self.q, ns)


@dataclass(frozen=True)
class PhaseValues:
    """g at an array of n: exact phases g = e(values/modulus) with -1 where
    g = 0 (modulus >= 1), or complex floats (modulus 0)."""

    modulus: int
    values: np.ndarray

    @property
    def exact(self) -> bool:
        return self.modulus > 0

    def to_complex(self) -> np.ndarray:
        """complex(g) per element, rounded as Cyclotomic.to_complex rounds."""
        if not self.exact:
            return self.values
        v, L = self.values, self.modulus
        if L >= 1 << 61:    # 2v and 2L in Python ints: int64 would overflow
            v = v.astype(object)
        # the normal form's half-turn fold: e(t) = -e(t - 1/2) for t >= 1/2
        fold = 2 * v >= L
        t = np.where(fold, 2 * v - L, 2 * v) / (2 * L)
        ang = 2 * np.pi * t.astype(np.float64)
        z = np.cos(ang) + 1j * np.sin(ang)
        return np.where(v < 0, 0j, np.where(fold, -z, z))

    def take(self, idx) -> "PhaseValues":
        return PhaseValues(self.modulus, self.values[idx])

    def times_root(self, a: np.ndarray, D: int) -> "PhaseValues":
        """g(n) * e(a_n / D) per element."""
        if not self.exact:
            return PhaseValues(0, self.values * np.exp(2j * np.pi * (a % D) / D))
        L = math.lcm(self.modulus, D)
        v = self.values
        if L >= 1 << 62:    # terms below L, sums below 2L: Python ints past int64
            v, a = v.astype(object), a.astype(object)
        shifted = (a % D * (L // D) + v * (L // self.modulus)) % L
        return PhaseValues(L, _narrow(np.where(v >= 0, shifted, -1)))

    def times_conj(self, other: "PhaseValues") -> "PhaseValues":
        """g(n) * conj(h(n)) per element."""
        if not (self.exact and other.exact):
            return PhaseValues(0, self.to_complex() * np.conj(other.to_complex()))
        L = math.lcm(self.modulus, other.modulus)
        v, w = self.values, other.values
        if L >= 1 << 62:    # as in times_root
            v, w = v.astype(object), w.astype(object)
        diff = (v * (L // self.modulus) - w * (L // other.modulus)) % L
        return PhaseValues(L, _narrow(np.where((v < 0) | (w < 0), -1, diff)))

    def bucket_sums(self, buckets: np.ndarray,
                    weights: Optional[np.ndarray] = None) -> Dict[int, Union[Cyclotomic, complex]]:
        """bucket -> sum of weight * g(n) over its elements (integer weights,
        default 1); a bucket appears when it holds an element with g(n) != 0."""
        live = self.values >= 0 if self.exact else self.values != 0
        b, v = buckets[live], self.values[live]
        w = np.ones(b.size, dtype=np.int64) if weights is None else weights[live]
        if not b.size:
            return {}
        order = np.argsort(b, kind="stable")
        b, v, w = b[order], v[order], w[order]
        starts = np.flatnonzero(np.concatenate([[True], b[1:] != b[:-1]]))
        if not self.exact:
            return dict(zip(b[starts].tolist(), np.add.reduceat(v * w, starts).tolist()))
        return {int(b[i]): Cyclotomic.from_int_histogram(self.modulus, ww, exps=vv)
                for i, vv, ww in zip(starts, np.split(v, starts[1:]), np.split(w, starts[1:]))}

    def indexed_sum(self, table: Sequence, index: np.ndarray) -> Union[Cyclotomic, complex]:
        """sum over n of table[index[n]] * g(n): exact when g and every table
        entry are exact, otherwise complex, summed with math.fsum."""
        exact = [as_exact(v) for v in table]
        if self.exact and all(v is not None for v in exact):
            return indexed_phase_sum(exact, index, self.modulus, self.values)
        terms = np.array([complex(v) for v in table])[index] * self.to_complex()
        return complex(math.fsum(terms.real), math.fsum(terms.imag))


def phase_values(g: Callable[[int], object], ns) -> PhaseValues:
    """g at every n of an integer array.  A FractionPhase takes one
    phase_numerators pass over its modulus; any other callable is evaluated
    per n and is exact when every value is 0 or an exact root of unity."""
    ns = ns if isinstance(ns, np.ndarray) else _fit(ns)
    if isinstance(g, FractionPhase):
        return PhaseValues(g.q.value, g.numerators(ns))
    values = [g(int(n)) for n in ns]
    phases: List[Optional[Fraction]] = []
    for v in values:
        ex = as_exact(v)
        t = None if ex is None else ex.unit_phase()
        if t is None and (ex is None or not ex.is_zero()):
            return PhaseValues(0, np.array([complex(v) for v in values], dtype=complex))
        phases.append(t)
    L = math.lcm(1, *(t.denominator for t in phases if t is not None))
    return PhaseValues(L, np.array([-1 if t is None else t.numerator * (L // t.denominator)
                                    for t in phases], dtype=np.int64))


# ---------------------------------------------------------------------------
# reductions over F_p


def reduce_mod_p(f: RationalFunction, p: int) -> Tuple[List[int], List[int]]:
    """Coprime (P1, Q1) over F_p with Q1 monic; raises if Q vanishes mod p."""
    pp, qq = _trim(f.num.coeffs, p), _trim(f.den.coeffs, p)
    if not qq:
        raise ValueError(f"denominator of {f} vanishes identically mod {p}")
    if not pp:
        return [], [1]
    g = _poly_gcd(pp, qq, p)
    if len(g) > 1:
        pp, qq = _poly_quo(pp, g, p), _poly_quo(qq, g, p)
    inv = pow(qq[-1], -1, p)
    return [c * inv % p for c in pp], [c * inv % p for c in qq]


def reduces_to_quadratic_poly(f: RationalFunction, p: int, strict: bool = False) -> bool:
    """Whether f reduces mod p to a polynomial of degree <= 2 (== 2 if strict)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    p1, q1 = reduce_mod_p(f, p)
    if len(q1) != 1:
        return False
    deg = len(p1) - 1
    return deg == 2 if strict else deg <= 2


def squarefree_cofactor(f: RationalFunction, q: Union[int, FactoredModulus],
                        base: int, strict: bool = False) -> int:
    """Product of p || q with p not dividing the base and f not reducing to a
    quadratic polynomial mod p."""
    fq = FactoredModulus.of(q)
    _require_well_defined(f, fq)
    out = 1
    for p, e in fq.factors:
        if e != 1 or base % p == 0:
            continue
        if not reduces_to_quadratic_poly(f, p, strict=strict):
            out *= p
    return out


def rational_gcd(q: Union[int, FactoredModulus], g: RationalFunction) -> int:
    """Product of p | q where g is identically zero mod p (q squarefree).

    Raises if q is not squarefree or if g's denominator vanishes mod some p | q.
    """
    fq = FactoredModulus.of(q)
    if not fq.is_squarefree:
        raise ValueError("modulus must be squarefree")
    out = 1
    for p, _e in fq.factors:
        if not _trim(g.den.coeffs, p):
            raise ValueError(f"denominator of {g} vanishes identically mod {p}")
        if not _trim(g.num.coeffs, p):
            out *= p
    return out
