"""Counting solutions of f_1(n_1) + ... + f_r(n_r) = m mod q over automatic sets.

The pipeline is exact end to end: per-coordinate value histograms (integer
counts of residues), their cyclic convolution, and a nested-loop brute-force
oracle for budget-feasible sizes.  `convolve` multiplies zero-padded float
spectra (`numpy.fft`, length 2^n >= 2q - 1) and rounds, but only when
Percival's bound on the rounding error of that FFT convolution (C. Percival,
Math. Comp. 72 (2003), Thm. 5.1) is below 1/2, so that rounding gives the
exact integers; otherwise it falls back to `cyclic_convolve`, big-integer
Kronecker packing.  `solution_table` builds each distinct histogram once,
takes its spectrum once (a histogram keeps it), and folds the histograms
into one convolution; every target m is read from the result.
Arguments at poles of f_j are excluded from the effective support (strict
mode raises instead); the main term uses the pole-adjusted support product.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .automata import Dfao
from .budget import require_budget
from .exact import Cyclotomic
from .modring import RationalFunction, phase_numerators, prime_powers

_ZERO = Cyclotomic.from_rational(0)
_ONE = Cyclotomic.from_rational(1)

# Percival's error model: every double operation is correct to the unit
# roundoff EPS, and every precomputed root of unity is within BETA of the
# exact one.  numpy's pocketfft forms each root as the complex product of two
# table entries, each from libm sin/cos of a rounded angle (a few EPS each),
# so |error| < 9 EPS; BETA = 16 EPS is stated with that margin.  Its
# power-of-two transform runs radix-4 and radix-2 passes; a radix-4 pass is
# two radix-2 levels whose inner twiddles are the exact +-1, +-i.
_EPS = 2.0 ** -53
_BETA = 2.0 ** -49


@dataclass(frozen=True)
class ValueHistogram:
    """counts[m] = #{n counted with f(n) = m mod q}; support_size = total mass.

    |counts|_2 and the float spectrum are taken on first use and kept, so a
    histogram repeated across a fold of convolutions is read once."""

    modulus: int
    counts: Tuple[int, ...]
    support_size: int

    def __post_init__(self):
        if len(self.counts) != self.modulus:
            raise ValueError("histogram length must equal the modulus")
        if sum(self.counts) != self.support_size:
            raise ValueError("support size must equal the total count")

    @functools.cached_property
    def l2(self) -> float:
        return _norm(self.counts)

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """The float FFT of the counts, zero-padded to the length 2^n >= 2q - 1
        that fft_convolve uses."""
        from numpy import fft       # `import numpy` leaves numpy.fft unloaded
        return fft.fft(np.array(self.counts, dtype=np.float64),
                       1 << (2 * self.modulus - 2).bit_length())


def _indicator_values(dfao: Dfao, q: int) -> np.ndarray:
    """0/1 membership of 1..q; rejects automata with outputs outside {0, 1}."""
    for v in dfao.values:
        if not isinstance(v, Cyclotomic) or v not in (_ZERO, _ONE):
            raise ValueError("set automaton must output exactly 0 or 1")
    picks = np.array([v == _ONE for v in dfao.values], dtype=np.int8)
    return picks[dfao.output_index][dfao.window_states(0, q)]


def _histogram(member: np.ndarray, f: RationalFunction, q: int,
               strict_poles: bool) -> ValueHistogram:
    ns = np.arange(1, q + 1, dtype=np.int64)
    vals = phase_numerators(f, q, ns)       # f(n) mod q, -1 at the poles
    if strict_poles and ((vals < 0) & (member == 1)).any():
        bad = ns[(vals < 0) & (member == 1)][:5]
        raise ValueError(f"pole of {f} mod {q} inside the set, e.g. n={bad.tolist()}")
    keep = (member == 1) & (vals >= 0)
    counts = np.bincount(vals[keep], minlength=q)
    return ValueHistogram(q, tuple(counts.tolist()), int(keep.sum()))


def value_histogram(dfao: Dfao, f: RationalFunction, q: int,
                    strict_poles: bool = False) -> ValueHistogram:
    """Distribution of f(n) mod q over {n in [1, q] : a_n = 1}, poles excluded."""
    return _histogram(_indicator_values(dfao, q), f, q, strict_poles)


def cyclic_convolve(h1: ValueHistogram, h2: ValueHistogram) -> ValueHistogram:
    """Exact cyclic convolution via Kronecker substitution in big integers."""
    if h1.modulus != h2.modulus:
        raise ValueError("histograms must share a modulus")
    q = h1.modulus
    bound = max(1, min(h1.support_size * max(h2.counts, default=0),
                       h2.support_size * max(h1.counts, default=0))) + 1
    slot = max(2, (bound.bit_length() + 7) // 8)
    a = int.from_bytes(b"".join(int(c).to_bytes(slot, "little") for c in h1.counts),
                       "little")
    b = int.from_bytes(b"".join(int(c).to_bytes(slot, "little") for c in h2.counts),
                       "little")
    prod = (a * b).to_bytes(2 * q * slot, "little")
    lin = [int.from_bytes(prod[i * slot:(i + 1) * slot], "little")
           for i in range(2 * q - 1)]
    counts = lin[:q]
    for i, c in enumerate(lin[q:]):
        counts[i] += c
    return ValueHistogram(q, tuple(counts), h1.support_size * h2.support_size)


def fft_error_bound(norm_x: float, norm_y: float, n: int) -> float:
    """Percival's bound on max_i |computed - exact| of the cyclic convolution
    of x and y by a length-2^n complex float FFT:
    |x|_2 |y|_2 ((1+EPS)^3n (1+EPS sqrt5)^(3n+1) (1+BETA)^3n - 1)."""
    growth = math.expm1(3 * n * math.log1p(_EPS)
                        + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5))
                        + 3 * n * math.log1p(_BETA))
    # the last factor covers the few roundings of this evaluation itself
    return norm_x * norm_y * growth * (1 + 2.0 ** -40)


def _norm(counts: Sequence[int]) -> float:
    """Euclidean norm, from the exact integer sum of squares."""
    try:
        return math.sqrt(sum(map(operator.mul, counts, counts)))
    except OverflowError:       # beyond float range: no FFT can be certified
        return math.inf


def fft_convolve(h1: ValueHistogram, h2: ValueHistogram) -> Optional[ValueHistogram]:
    """Exact cyclic convolution by a rounded float FFT, or None when Percival's
    bound does not certify the rounding (bound >= 1/2)."""
    if h1.modulus != h2.modulus:
        raise ValueError("histograms must share a modulus")
    q = h1.modulus
    n = (2 * q - 2).bit_length()        # 2^n >= 2q - 1: no wrap-around
    if not fft_error_bound(h1.l2, h2.l2, n) < 0.5:
        return None
    # every |entry| <= |x|_2 |y|_2 < 2^53 now, so the floats hold exact integers
    from numpy import fft
    prod = h1.spectrum * h2.spectrum    # inverted and rounded in place
    re = fft.ifft(prod, None, -1, None, prod).real[:2 * q - 1]     # (n, axis, norm, out)
    lin = np.rint(re, out=re).astype(np.int64)
    folded = lin[:q]
    folded[:q - 1] += lin[q:]
    counts = folded.tolist()
    mass = h1.support_size * h2.support_size
    if sum(counts) != mass:
        raise ArithmeticError(f"FFT convolution mod {q} has mass {sum(counts)}, "
                              f"not {mass}, inside Percival's bound")
    return ValueHistogram(q, tuple(counts), mass)


def convolve(h1: ValueHistogram, h2: ValueHistogram) -> ValueHistogram:
    """Exact cyclic convolution: the certified FFT where Percival's bound
    allows it, `cyclic_convolve` otherwise."""
    conv = fft_convolve(h1, h2)
    return cyclic_convolve(h1, h2) if conv is None else conv


@dataclass
class CongruenceCount:
    n_solutions: int
    modulus: int
    target: int
    support_sizes: Tuple[int, ...]
    main_term: Fraction            # pole-adjusted: prod(support)/q
    raw_set_size: int              # |S ∩ [1, q]| with no pole exclusion
    rel_error: Optional[float]     # N / main_term - 1; None when main_term is 0


@dataclass
class SolutionTable:
    """N[m] for every target m mod q: one convolution of the value histograms."""

    conv: ValueHistogram
    support_sizes: Tuple[int, ...]
    raw_set_size: int

    def count(self, m: int) -> CongruenceCount:
        q = self.conv.modulus
        n_sol = self.conv.counts[m % q]
        main = Fraction(math.prod(self.support_sizes), q)
        rel = float(n_sol / main - 1) if main else None
        return CongruenceCount(n_sol, q, m % q, self.support_sizes, main,
                               self.raw_set_size, rel)


def solution_table(fs: Sequence[RationalFunction], set_dfao: Dfao, q: int,
                   strict_poles: bool = False) -> SolutionTable:
    """The number of tuples (n_j) in the set with sum of f_j(n_j) = m mod q,
    for every m at once."""
    prime_powers(q)     # rejects q < 1 first
    if not fs:
        raise ValueError("need at least one fraction")
    require_budget(q, f"q = {q}")
    for f in fs:
        if f.is_polynomial() and f.num.degree <= 1:
            warnings.warn(f"f={f} is a linear or constant polynomial; "
                          "the equidistribution heuristic does not apply",
                          stacklevel=2)
    member = _indicator_values(set_dfao, q)
    hists = {f: _histogram(member, f, q, strict_poles) for f in dict.fromkeys(fs)}
    conv = hists[fs[0]]
    for f in fs[1:]:
        conv = convolve(conv, hists[f])
    return SolutionTable(conv, tuple(hists[f].support_size for f in fs),
                         int(member.sum()))


def count_solutions(fs: Sequence[RationalFunction], set_dfao: Dfao,
                    q: int, m: int, strict_poles: bool = False) -> CongruenceCount:
    """Exact number of tuples (n_j) in the set with sum of f_j(n_j) = m mod q."""
    return solution_table(fs, set_dfao, q, strict_poles).count(m)


def brute_force_count(fs: Sequence[RationalFunction], set_dfao: Dfao,
                      q: int, m: int) -> int:
    """Direct nested enumeration; must equal count_solutions exactly."""
    r = len(fs)
    require_budget(q ** r, f"q^r = {q}^{r}")
    member = _indicator_values(set_dfao, q)
    ns = np.arange(1, q + 1, dtype=np.int64)
    value_lists: List[List[int]] = []
    for f in fs:
        vals = phase_numerators(f, q, ns)
        value_lists.append([int(v) for v in vals[(member == 1) & (vals >= 0)]])
    target = m % q

    # plain nested loops, written recursively to support any r
    def rec(level: int, acc: int) -> int:
        if level == r - 1:
            want = (target - acc) % q
            return sum(1 for v in value_lists[level] if v == want)
        total = 0
        for v in value_lists[level]:
            total += rec(level + 1, (acc + v) % q)
        return total

    return rec(0, 0)
