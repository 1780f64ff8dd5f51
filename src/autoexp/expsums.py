"""Complete and incomplete exponential sums, correlations, and bound checkers.

Sums over rational-fraction phases are exact (phase histograms); complex
values appear only when a caller asks for them.  The check_* helpers compute
both sides of their bound and report ratios -- thresholds live in the
acceptance suite, except where the bound is an identity-level theorem
(geometric sums, van der Corput) and a violation means a genuine bug.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from .automata import Dfao
from .budget import BudgetError, require_budget
from .exact import Cyclotomic, int_range
from .modring import (PhaseValues, RationalFunction, mod_inverse, phase_numerators,
                      phase_values, prime_powers, rational_gcd,
                      reduces_to_quadratic_poly, shift_scale, squarefree_cofactor)


@dataclass(frozen=True)
class IntervalProgression:
    """{n : y < n <= y+x, n = a mod s}."""

    y: int
    x: int
    s: int = 1
    a: int = 0

    def __post_init__(self):
        if self.y < 0 or self.x < 1 or self.s < 1:
            raise ValueError("need y >= 0, x >= 1, s >= 1")
        if not 0 <= self.a < self.s:
            raise ValueError("residue must lie in [0, s)")

    @property
    def count(self) -> int:
        return (self.y + self.x - self.a) // self.s - (self.y - self.a) // self.s

    def values(self) -> np.ndarray:
        """The members in increasing order, after the budget check on their count."""
        require_budget(self.count, "region size")
        first = self.y + 1 + (self.a - (self.y + 1)) % self.s
        return int_range(first, self.y + self.x + 1, self.s)


def complete_sum(f: RationalFunction, q: int) -> Cyclotomic:
    """Exact sum of the fraction phases over one full period n mod q."""
    require_budget(q, "period q")
    phases = phase_numerators(f, q, np.arange(q, dtype=np.int64))
    return Cyclotomic.from_int_histogram(q, np.bincount(phases[phases >= 0], minlength=q))


def twisted_spectrum(f: RationalFunction, q: int) -> np.ndarray:
    """Complete sums of f + aX for every a mod q, in floats: entry a is the
    sum over n mod q of e((f(n) + a n)/q), poles dropped as in complete_sum.

    One phase_numerators pass gives v[n] = e(f(n)/q), and entry a is
    sum_n v[n] e(a n/q) = q * ifft(v)[a].
    """
    require_budget(q, "period q")
    phases = PhaseValues(q, phase_numerators(f, q, np.arange(q, dtype=np.int64)))
    return q * np.fft.ifft(phases.to_complex())


def weighted_sum(dfao: Dfao, f: RationalFunction, q: int,
                 region: IntervalProgression) -> Union[Cyclotomic, complex]:
    """Sum over the region of a_n times the fraction phase at n.

    Exact (Cyclotomic) when the automaton outputs are exact; complex otherwise.
    """
    prime_powers(q)     # rejects q < 1 before the region's budget check
    ns = region.values()
    # term by term: a_n shifted by the phase of n, poles dropped
    phases = PhaseValues(q, phase_numerators(f, q, ns))
    return phases.indexed_sum(dfao.values, dfao.output_index[dfao.states_at(ns)])


def correlation_sum(g: Callable[[int], object], x: int, y: int, h: int,
                    q: int, a: int) -> complex:
    """Two-point correlation sum of g(n) * conj(g(n+h)) over {y < n <= y+x,
    n = a mod q}."""
    ns = IntervalProgression(y, x, q, a % q if q > 1 else 0).values()
    # int64 values stay below 2^62, so only a shift that large can wrap
    z = phase_values(g, np.concatenate(
        [ns, ns + h if abs(h) < 1 << 62 else ns.astype(object) + h])).to_complex()
    u, v = z[:ns.size], z[ns.size:]
    # u * conj(v) one rounding at a time, as Python's complex product rounds
    return complex(math.fsum(u.real * v.real + u.imag * v.imag),
                   math.fsum(u.imag * v.real - u.real * v.imag))


# f(X + r) - f(X), built once per (f, r): a grid of sums repeats few of them
_difference = functools.lru_cache(maxsize=256)(lambda f, r: shift_scale(f, 0, 1, r))


def difference_sum(f: RationalFunction, q: int, r: int,
                   region: IntervalProgression) -> Cyclotomic:
    """Exact sum over the region of the phase of f(n+r) - f(n), built once
    symbolically and evaluated pointwise (zero where the symbolic difference
    fraction has a pole mod q)."""
    phases = phase_numerators(_difference(f, r), q, region.values())
    uniq, cnt = np.unique(phases[phases >= 0], return_counts=True)
    return Cyclotomic.from_int_histogram(q, cnt, exps=uniq)


# ---------------------------------------------------------------------------
# bound checkers


@dataclass
class WeilCheck:
    q: int
    sum_abs: float
    comparator: float
    ratio: float
    gcd_factor: int
    exact_sum: Cyclotomic


def check_weil(f: RationalFunction, q: int) -> WeilCheck:
    """|complete sum| against sqrt(q * (q, f')) for squarefree q; ratio only,
    no pass/fail here.  The exact sum rides along for callers that read it."""
    if any(e > 1 for _p, e, _m in prime_powers(q)):
        raise ValueError("modulus must be squarefree")
    total = complete_sum(f, q)
    s = abs(total)
    gf = rational_gcd(q, f.derivative())
    comparator = math.sqrt(q * gf)
    return WeilCheck(q, s, comparator, s / comparator, gf, total)


def check_gcd_lemma(f: RationalFunction, r: int, ell: int,
                    primes: Sequence[int]) -> List[dict]:
    """Violations of per-prime coprimality of f'(X+r) - f'(X) + ell.

    Primes failing the side conditions (p in Q_f, p | 2r, denominator of f or
    of the difference vanishing mod p) are skipped, matching the hypotheses.
    """
    if f.is_polynomial() and f.num.degree <= 2:
        raise ValueError("f must not be a polynomial of degree <= 2")
    d = f.derivative()
    gdiff = d.shift(r) - d + Fraction(ell)
    violations = []
    for p in primes:
        if (2 * r) % p == 0:
            continue
        if all(c % p == 0 for c in f.den.coeffs):
            continue
        if reduces_to_quadratic_poly(f, p):
            continue
        try:
            gv = rational_gcd(p, gdiff)
        except ValueError:
            continue
        if gv > 1:
            violations.append({"p": p, "gcd": gv, "r": r, "ell": ell})
    return violations


@dataclass
class QuadGeometricCheck:
    q: int
    r: int
    s: int
    x: int
    lhs: float
    comparator: float


def check_quadratic_geometric(f: RationalFunction, q: int, r: int, s: int,
                              a: int, y: int, x: int) -> QuadGeometricCheck:
    """Geometric-sum bound for quadratic f = (u/v) X^2: the difference sum over
    the progression is at most min(x/s + 1, 1/||2 u v^-1 r s / q||).

    Raises ArithmeticError on violation -- the bound is a theorem.
    """
    if (f.num.degree != 2 or any(f.num.coeffs[:2]) or f.den.degree != 0):
        raise ValueError("f must be (u/v) X^2")
    u = f.num.coeffs[2]
    v = f.den.coeffs[0]
    if math.gcd(u * q, v) != 1:
        raise ValueError("need gcd(u*q, v) = 1")
    region = IntervalProgression(y, x, s, a % s)
    lhs = abs(difference_sum(f, q, r, region))
    tnum = 2 * u * mod_inverse(v, q) % q * (r % q) % q * (s % q) % q
    dist = min(tnum / q, 1.0 - tnum / q)
    comparator = x / s + 1.0
    if dist > 0:
        comparator = min(comparator, 1.0 / dist)
    if lhs > comparator * (1.0 + 1e-9):
        raise ArithmeticError(
            f"geometric bound violated: {lhs} > {comparator} at q={q} r={r} s={s}")
    return QuadGeometricCheck(q, r, s, x, lhs, comparator)


# ---------------------------------------------------------------------------
# range scans


@dataclass
class SweepReport:
    """Plot-ready tabular result; rows already sorted by the sweep key.  A
    None cell is written as an empty CSV cell and as JSON null."""

    columns: Tuple[str, ...]
    rows: List[Tuple]
    metadata: Dict[str, object] = field(default_factory=dict)

    @staticmethod
    def _cell(v) -> str:
        if isinstance(v, float):
            return repr(v)
        return "" if v is None else str(v)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(self._cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "metadata": self.metadata,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
        }


# the exponent c of the reference envelope that pv_range_scan reports
C_DISPLAY = 1.0 / 32.0
# the y policies that name a multiple of q
_Y_TIMES_Q = {"q": 1, "10q": 10}


def pv_range_scan(dfao: Dfao, f: RationalFunction, qs: Sequence[int], theta: float,
                  y: Union[int, str] = 0) -> SweepReport:
    """For each modulus: x = ceil(q^theta), the weighted-sum ratio |S|/x over
    (y, y+x], and the reference envelope (1/q1 + q^2/(q1 x^2))^c, c = C_DISPLAY.
    y is an integer, or "q", "10q" or a decimal string."""
    if not theta > 0:
        raise ValueError("--theta must be positive")
    if isinstance(y, str) and y not in _Y_TIMES_Q and not y.isdecimal():
        raise ValueError(f"unknown y policy {y!r}")
    rows = []
    for q in sorted(qs):
        prime_powers(q)     # rejects q < 1 before q^theta
        try:
            x = math.ceil(q ** theta)
        except OverflowError:       # q^theta beyond float range
            raise BudgetError(f"x = q^theta for q = {q}, --theta {theta} "
                              "exceeds the enumeration budget") from None
        yv = _Y_TIMES_Q[y] * q if y in _Y_TIMES_Q else int(y)
        region = IntervalProgression(yv, x)
        s_abs = abs(weighted_sum(dfao, f, q, region))
        q1 = squarefree_cofactor(f, q, dfao.base)
        bound = (1.0 / q1 + q * q / (q1 * float(x) * x)) ** C_DISPLAY
        rows.append((q, x, yv, s_abs, s_abs / x, q1, bound))
    return SweepReport(
        columns=("q", "x", "y", "abs", "ratio", "q1", "bound"),
        rows=rows,
        metadata={"f": str(f), "automaton": dfao.name or "dfao",
                  "theta": theta, "c_display": C_DISPLAY},
    )
