"""Exact arithmetic for rational fractions modulo integers.

Central objects: integer polynomials, reduced rational functions P/Q,
and the unit-modulus (or zero) value e(r/q) attached to f(n) mod q, where
r = P(n) * Q(n)^-1 mod q, zero where gcd(Q(n), q) > 1.  By CRT it is the
product of prime-power local factors, which phase_fraction computes and the
vectorized phase_numerators pass is checked against.  A modulus is a plain
int; its prime powers come from one cached factorize.  All phases are exact
Fractions; complex conversion happens at the caller's edge.
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

from .budget import BudgetError, enumeration_budget, require_budget
from .exact import (Cyclotomic, _fit, _narrow, _times, as_exact, indexed_phase_sums,
                    merge_keys)


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
        """Vectorized eval_mod: m < 2**31 for int64 ns, any m for Python ints.
        Horner over the nonzero coefficients and the constant term: a run of
        zeros between two of them multiplies by one power of n, so a dense
        polynomial costs one step per coefficient and a sparse one about
        log(gap) per gap."""
        acc = np.zeros_like(ns)
        nm = ns % m
        prev = len(self.coeffs)
        for i in reversed([i for i, c in enumerate(self.coeffs) if c or not i]):
            step = nm if prev - i == 1 else _pow_mod_vec(nm, prev - i, m)
            acc = (acc * step + self.coeffs[i] % m) % m
            prev = i
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


_DIVISION_OVER_BUDGET = "work of the polynomial division exceeds the enumeration budget"


def _divide(a: Sequence[int], b: List[int], p: int = 0, k: int = 0,
            left: Optional[int] = None) -> Tuple[List[int], List[int], int]:
    """(quotient, remainder, left) of lc(b)^k * a by b (b normalised, so
    monic over F_p), by long division on one list updated in place; every
    quotient coefficient must divide exactly.

    left is what the enumeration budget still allows (all of it when None),
    counted in 64-bit word products: scaling a costs len(a) * words(lc(b)^k),
    and a quotient coefficient c times the row b costs
    len(b) * words(c) * words(max |b|).  BudgetError before the scaling or
    a step that would take it below zero.
    """
    lb, nb = b[-1], len(b) - 1
    left = enumeration_budget() if left is None else left
    left -= len(a) * (1 + k * (abs(lb) - 1).bit_length() // 64)
    if left < 0:
        raise BudgetError(_DIVISION_OVER_BUDGET)
    row = len(b) * (1 + max(map(int.bit_length, b)) // 64)
    scale = lb ** k
    r = [c * scale for c in a]
    out = [0] * max(len(r) - nb, 0)
    for shift in range(len(out) - 1, -1, -1):
        c, rest = divmod(r[shift + nb] % p if p else r[shift + nb], lb)
        if rest:
            raise ArithmeticError("inexact polynomial division")
        out[shift] = c
        if c:
            left -= row * (1 + c.bit_length() // 64)
            if left < 0:
                raise BudgetError(_DIVISION_OVER_BUDGET)
            for j, bj in enumerate(b):
                r[shift + j] -= c * bj
    return out, _trim(r[:nb], p), left


def _prem(a: List[int], b: List[int], p: int = 0,
          left: Optional[int] = None) -> Tuple[List[int], int]:
    """(lc(b)^k * a mod b, left), k = deg a - deg b + 1; b normalised.  Each
    quotient coefficient of lc(b)^k * a by b is an integer, so the long
    division is exact and touches only deg b + 1 coefficients per step."""
    _quo, rem, left = _divide(a, b, p, max(len(a) - len(b) + 1, 0), left)
    return rem, left


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int = 0) -> List[int]:
    """gcd by the primitive remainder sequence, normalised; [] if both are
    zero.  The divisions share one enumeration budget."""
    a, b = _normal(a, p), _normal(b, p)
    left = enumeration_budget()
    while b:
        rem, left = _prem(a, b, p, left)
        a, b = b, _normal(rem, p)
    return a


def _poly_quo(a: Sequence[int], b: List[int], p: int = 0) -> List[int]:
    """a / b when b divides a (b normalised, so monic over F_p)."""
    quo, rem, _left = _divide(a, b, p)
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return quo


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


# One term: signs, a coefficient, a '*' and X^power, each part optional and
# each token after optional whitespace; _parse_poly enforces the rest.
_TERM = re.compile(r"(?P<signs>(?:\s*[-+])*)(?:\s*(?P<coeff>\d+))?(?:\s*(?P<star>\*))?"
                   r"(?:\s*(?P<x>X)(?:\s*\^\s*(?P<power>\d+))?)?")


def _parse_poly(s: str) -> IntPoly:
    """A sum of terms inside at most one outer pair of parentheses.  A term
    needs a coefficient or X, a '*' needs both, every term after the first
    starts with a sign, and its sign is -1 to the number of '-'."""
    s = s.strip()
    if s[:1] == "(" and s[-1:] == ")":
        s = s[1:-1]
    terms: Dict[int, int] = {}
    pos = 0
    while pos < len(s) or not terms:
        m = _TERM.match(s, pos)
        signs, coeff, star, x, power = m.groups()
        if not (coeff or x) or (star and not (coeff and x)) or (terms and not signs):
            raise ValueError(f"cannot parse polynomial {s!r} at {pos}")
        e = int(power or 1) if x else 0
        require_budget(e + 1, f"coefficients of the term X^{e}")
        terms[e] = terms.get(e, 0) + (-1) ** signs.count("-") * int(coeff or 1)
        pos = m.end()
    return IntPoly([terms.get(i, 0) for i in range(max(terms) + 1)])


def parse_rational_function(text: str) -> RationalFunction:
    """Parse strings like '1/X', '(X^3+2X)/(X^2-1)', 'X^2/3', '-2X+1': at most
    one '/', each side parsed by _parse_poly."""
    parts = text.split("/")
    if len(parts) > 2:
        raise ValueError(f"more than one '/' in {text!r}")
    return RationalFunction(*map(_parse_poly, parts))


# ---------------------------------------------------------------------------
# primes and prime powers


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _odd_part(n: int) -> Tuple[int, int]:
    """(d, s) with n = d * 2^s and d odd, for n >= 1."""
    s = (n & -n).bit_length() - 1
    return n >> s, s


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n >= 1."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """The strong Lucas probable-prime test of an odd n > 47 that is not a
    square, with Selfridge's parameters: the first D in 5, -7, 9, -11, ...
    with (D/n) = -1, P = 1 and Q = (1 - D)/4."""
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:      # gcd(D, n) > 1 and |D| < n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = _odd_part(n + 1)
    half = lambda v: (v if v % 2 == 0 else v + n) // 2     # v / 2 mod n, for v in [0, n)
    # U_k, V_k and Q^k mod n for the leading bits k of d, from k = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half((U + V) % n), half((D * U + V) % n), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Baillie-PSW: trial division by the primes up to 47, then a strong
    base-2 Fermat test and a strong Lucas test.  No composite is known to
    pass both, and none below 2^64 does."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = _odd_part(n - 1)
    x = pow(2, d, n)
    if x not in (1, n - 1):
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return math.isqrt(n) ** 2 != n and _strong_lucas(n)


def _pollard_rho(n: int, rng: random.Random, left: int) -> Tuple[int, int]:
    """(a proper factor of the composite n, left): Floyd's cycle search on
    v -> v^2 + c mod n.  left is what the enumeration budget still allows,
    counted in 64-bit word products: a step (three squarings mod n and one
    gcd) costs 4 * w^2 for n of w = 1 + n.bit_length() // 64 words.
    BudgetError before a step that would take it below zero."""
    cost = 4 * (1 + n.bit_length() // 64) ** 2
    while True:
        c = rng.randrange(1, n)
        f = lambda v: (v * v + c) % n
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            left -= cost
            if left < 0:
                raise BudgetError(f"Pollard rho steps to factor {n} exceed the "
                                  f"enumeration budget ({enumeration_budget()})")
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d, left


@lru_cache(maxsize=4096)
def factorize(n: int) -> Tuple[Tuple[int, int], ...]:
    """Prime factorization, ascending: trial division by the primes up to 47,
    then Pollard rho, whose steps over the whole factorization share one
    enumeration budget."""
    if n <= 0:
        raise ValueError("can only factor positive integers")
    out: dict = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    rng, left = None, 0     # set on first use; most inputs never reach rho
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        if rng is None:
            rng, left = random.Random(0xA07E), enumeration_budget()
        d, left = _pollard_rho(m, rng, left)
        stack += [d, m // d]
    return tuple(sorted(out.items()))


def prime_powers(q: int) -> List[Tuple[int, int, int]]:
    """(p, e, p**e) for each p^e || q, ascending; [] for q = 1."""
    if q < 1:
        raise ValueError("modulus must be >= 1")
    return [(p, e, p ** e) for p, e in factorize(q)]


# ---------------------------------------------------------------------------
# modular inverses


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a mod m in [0, m); raises ValueError if gcd(a, m) > 1."""
    if m < 1:
        raise ValueError("modulus must be positive")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} is not invertible mod {m}") from None


# ---------------------------------------------------------------------------
# the phase convention for rational fractions mod q


def is_well_defined(f: RationalFunction, q: int) -> bool:
    """True iff gcd(q, Q) = 1 in Z[X], i.e. gcd(q, content(Q)) = 1."""
    return math.gcd(q, f.den.content()) == 1


def _checked_prime_powers(f: RationalFunction, q: int) -> List[Tuple[int, int, int]]:
    """prime_powers(q), once f is checked to be well-defined mod q."""
    pps = prime_powers(q)
    if not is_well_defined(f, q):
        raise ValueError(f"f={f} is not well-defined mod {q}")
    return pps


def phase_fraction(f: RationalFunction, q: int, n: int) -> Optional[Fraction]:
    """Exact phase a/q of the value at n, or None at a pole.

    Per prime power p^e || q the local factor is zero when p | Q(n) and
    otherwise contributes c * P(n) * Q(n)^-1 mod p^e with c the inverse of
    q/p^e; local phases recombine to a single fraction with denominator q.
    """
    total = 0
    for p, _e, m in _checked_prime_powers(f, q):
        qn = f.den.eval_mod(n, m)
        if qn % p == 0:
            return None
        pn = f.num.eval_mod(n, m)
        cof = q // m
        local = pow(cof, -1, m) * pn * pow(qn, -1, m) % m
        total += local * cof
    return Fraction(total % q, q)


def eval_phase(f: RationalFunction, q: int, n: int) -> Cyclotomic:
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


def phase_numerators(f: RationalFunction, q: int, ns) -> np.ndarray:
    """Phase numerators P(n) * Q(n)^-1 mod q for an integer array in one
    vectorized pass mod q, Q(n) inverted as Q(n)^(phi(q) - 1); -1 marks the
    poles, where some p | q divides Q(n).  Residues are int64 below 2^31,
    where every product fits, and Python ints from there on; the result is
    int64 where it fits.  More than q values take the pass over [0, q) and
    gather it by n mod q."""
    pps = _checked_prime_powers(f, q)
    # from a list, numpy would turn ints in [2^63, 2^64) into floats
    ns = ns if isinstance(ns, np.ndarray) else _fit(ns)
    residues = slice(None)
    if ns.size > q:     # f(n) mod q reads n mod q: each residue once
        residues, ns = (ns % q).astype(np.intp, copy=False), np.arange(q)
    if ns.dtype.kind in "Ou":   # ints that may pass int64: f(n) mod q reads n mod q
        ns = ns.astype(object) % q
    ns = ns.astype(np.int64 if q < 1 << 31 else object, copy=False)
    if f.den.degree == 0:
        # a constant Q is a unit mod q, as f is well-defined: one inverse, no poles
        return _narrow(f.num.eval_mod_vec(ns, q) * pow(f.den.leading, -1, q) % q)[residues]
    qn = f.den.eval_mod_vec(ns, q)
    pole = np.zeros(ns.shape, dtype=bool)
    for p, _e, _m in pps:
        pole |= qn % p == 0
    phi = math.prod(m // p * (p - 1) for p, _e, m in pps)
    inv = _pow_mod_vec(np.where(pole, 1, qn), phi - 1, q)
    return _narrow(np.where(pole, -1, f.num.eval_mod_vec(ns, q) * inv % q))[residues]


class FractionPhase:
    """g(n) = e(f(n)/q), 0 at the poles of f mod q: callable per n, and
    numerators() gives a whole array of n in one phase_numerators pass."""

    __slots__ = ("f", "q")

    def __init__(self, f: RationalFunction, q: int):
        _checked_prime_powers(f, q)
        self.f = f
        self.q = q

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
        if v.size > L:  # each phase once, then a gather; the pole marker -1 reads 0j
            return np.append(PhaseValues(L, np.arange(L)).to_complex(), 0j)[v]
        if L >= 1 << 52:    # 2v and 2L in Python ints: a double holds them exactly to 2^53
            v = v.astype(object)
        # the normal form's half-turn fold: e(t) = -e(t - 1/2) for t >= 1/2
        fold = 2 * v >= L
        t = np.where(fold, 2 * v - L, 2 * v) / (2 * L)
        ang = 2 * np.pi * t.astype(np.float64)
        z = np.cos(ang) + 1j * np.sin(ang)
        return np.where(v < 0, 0j, np.where(fold, -z, z))

    def take(self, idx) -> "PhaseValues":
        return PhaseValues(self.modulus, self.values[idx])

    def times_conj(self, other: "PhaseValues") -> "PhaseValues":
        """g(n) * conj(h(n)) per element."""
        if not (self.exact and other.exact):
            return PhaseValues(0, self.to_complex() * np.conj(other.to_complex()))
        L = math.lcm(self.modulus, other.modulus)
        v, w = self.values, other.values
        if L >= 1 << 62:    # terms below L, differences above -L: Python ints past int64
            v, w = v.astype(object), w.astype(object)
        diff = (v * (L // self.modulus) - w * (L // other.modulus)) % L
        diff[(v < 0) | (w < 0)] = -1
        return PhaseValues(L, _narrow(diff))

    def bucket_sums(self, buckets: np.ndarray,
                    weights: Optional[np.ndarray] = None) -> Dict[int, Union[Cyclotomic, complex]]:
        """bucket -> sum of weight * g(n) over its elements (integer weights,
        default 1); a bucket appears when it holds an element with g(n) != 0.
        Exact sums count their distinct (bucket, phase) keys (_counted_sums);
        float sums are math.fsum per bucket."""
        if self.exact:
            return self._counted_sums([Cyclotomic.from_rational(1)], None, buckets, weights)
        live = self.values != 0
        w = 1 if weights is None else _fit(weights[live])
        return _fsum_buckets(buckets[live], self.values[live] * w)

    def indexed_sums(self, table: Sequence, index: np.ndarray,
                     buckets: Optional[np.ndarray] = None) -> Dict[int, Union[Cyclotomic, complex]]:
        """bucket -> sum over its n of table[index[n]] * g(n); buckets=None
        is one bucket 0, which appears even when empty, as Cyclotomic(0) or
        0j.  Exact when g and every table entry are exact (_counted_sums),
        otherwise complex, each bucket summed with math.fsum."""
        one = buckets is None
        buckets = np.zeros(len(index), dtype=np.int8) if one else buckets
        exact = [as_exact(v) for v in table]
        if self.exact and all(v is not None for v in exact):
            sums = self._counted_sums(exact, index, buckets, None)
            zero = Cyclotomic.zero()
        else:
            terms = np.array([complex(v) for v in table])[index] * self.to_complex()
            sums, zero = _fsum_buckets(buckets, terms), 0j
        return {0: sums.get(0, zero)} if one else sums

    def _counted_sums(self, table: Sequence[Cyclotomic], index: Optional[np.ndarray],
                      buckets: np.ndarray,
                      weights: Optional[np.ndarray]) -> Dict[int, Cyclotomic]:
        """bucket -> exact sum of weights[n] (default 1) * table[index[n]]
        (index None: table[0]) * g(n).  Equal keys (bucket, index, phase) are
        merged first, so only the distinct keys are expanded by their terms."""
        live = self.values >= 0
        T, L = len(table), self.modulus
        key = _fit(buckets[live])   # int64 before any product, or Python ints
        if index is not None:
            key = _times(key, T) + index[live]
        key = _times(key, L)
        key += self.values[live]
        key, counts = merge_keys(key, np.broadcast_to(np.int64(1), key.size)
                                 if weights is None else _fit(weights[live]))
        key, phases = key // L, key % L     # np.divmod has no loop for Python ints
        index = (key % T).astype(np.intp, copy=False)
        return indexed_phase_sums(table, index, L, phases, key // T, counts)

    def indexed_sum(self, table: Sequence, index: np.ndarray) -> Union[Cyclotomic, complex]:
        """sum over n of table[index[n]] * g(n): the one-bucket indexed_sums."""
        return self.indexed_sums(table, index)[0]


def _fsum_buckets(buckets: np.ndarray, terms: np.ndarray) -> Dict[int, complex]:
    """bucket -> sum of its complex terms, real and imaginary parts each by
    math.fsum (correctly rounded, so the order of the terms does not matter)."""
    if not terms.size:
        return {}
    order = np.argsort(buckets, kind="stable")
    b, terms = buckets[order], terms[order]
    bounds = np.flatnonzero(np.concatenate([[True], b[1:] != b[:-1], [True]])).tolist()
    return {int(b[s]): complex(math.fsum(terms.real[s:e]), math.fsum(terms.imag[s:e]))
            for s, e in zip(bounds, bounds[1:])}


def phase_values(g: Callable[[int], object], ns) -> PhaseValues:
    """g at every n of an integer array.  A FractionPhase takes one
    phase_numerators pass over its modulus; any other callable is evaluated
    per n and is exact when every value is 0 or an exact root of unity."""
    ns = ns if isinstance(ns, np.ndarray) else _fit(ns)
    if isinstance(g, FractionPhase):
        return PhaseValues(g.q, g.numerators(ns))
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


def reduces_to_quadratic_poly(f: RationalFunction, p: int) -> bool:
    """Whether f reduces mod p to a polynomial of degree <= 2."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    p1, q1 = reduce_mod_p(f, p)
    return len(q1) == 1 and len(p1) <= 3


def squarefree_cofactor(f: RationalFunction, q: int, base: int) -> int:
    """Product of p || q with p not dividing the base and f not reducing to a
    quadratic polynomial mod p."""
    out = 1
    for p, e, _m in _checked_prime_powers(f, q):
        if e != 1 or base % p == 0:
            continue
        if not reduces_to_quadratic_poly(f, p):
            out *= p
    return out


def rational_gcd(q: int, g: RationalFunction) -> int:
    """Product of p | q where g is identically zero mod p (q squarefree).

    Raises if q is not squarefree or if g's denominator vanishes mod some p | q.
    """
    pps = prime_powers(q)
    if any(e > 1 for _p, e, _m in pps):
        raise ValueError("modulus must be squarefree")
    out = 1
    for p, _e, _m in pps:
        if not _trim(g.den.coeffs, p):
            raise ValueError(f"denominator of {g} vanishes identically mod {p}")
        if not _trim(g.num.coeffs, p):
            out *= p
    return out
