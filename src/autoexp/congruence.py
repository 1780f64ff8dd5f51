"""Counting solutions of f_1(n_1) + ... + f_r(n_r) = m mod q over automatic sets.

The pipeline is exact end to end: per-coordinate value histograms (integer
counts of residues), their cyclic convolution, and a nested-loop brute-force
oracle for budget-feasible sizes.  `convolve` multiplies zero-padded float
spectra (`numpy.fft`, length 2^n >= 2q - 1) and rounds, but only when
Percival's bound on the rounding error of that FFT convolution (C. Percival,
Math. Comp. 72 (2003), Thm. 5.1) is below 1/2, so that rounding gives the
exact integers; otherwise it falls back to `cyclic_convolve`, big-integer
Kronecker packing.  A histogram holds its counts once, as one integer array.
`solution_table` builds each distinct histogram once, takes its spectrum
once (a histogram keeps it), and folds the histograms into one convolution,
each step in one complex buffer; every target m is read from the result.
Arguments at poles of f_j are excluded from the effective support (strict
mode raises instead); the main term uses the pole-adjusted support product.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .automata import Dfao
from .budget import require_budget
from .exact import Cyclotomic, _fit, _peak
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


class ValueHistogram:
    """counts[m] = #{n counted with f(n) = m mod q}; support_size = total mass.

    The counts are held once, as the read-only integer array `array`: int64,
    or Python ints where an entry passes int64 (exact._fit's rule); `counts`
    is a tuple view of it.  |counts|_2 and the float spectrum are taken on
    first use and kept, so a histogram repeated across a fold of
    convolutions is read once."""

    def __init__(self, modulus: int, counts, support_size: int):
        array = _fit(counts)
        if len(array) != modulus:
            raise ValueError("histogram length must equal the modulus")
        if _total(array) != support_size:
            raise ValueError("support size must equal the total count")
        array.flags.writeable = False
        self.modulus, self.array, self.support_size = modulus, array, support_size

    @property
    def counts(self) -> Tuple[int, ...]:
        return tuple(self.array.tolist())

    def __eq__(self, other):
        if not isinstance(other, ValueHistogram):
            return NotImplemented
        return (self.modulus == other.modulus and self.support_size == other.support_size
                and np.array_equal(self.array, other.array))

    @functools.cached_property
    def l2(self) -> float:
        return _norm(self.array)

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """The float FFT of the counts, zero-padded to the length 2^n >= 2q - 1
        that fft_convolve uses."""
        return _padded_fft(self.array)


def _padded_fft(counts: np.ndarray) -> np.ndarray:
    """The FFT of counts zero-padded to the length 2^n >= 2q - 1, taken in
    place in one complex buffer."""
    from numpy import fft       # `import numpy` leaves numpy.fft unloaded
    buf = np.zeros(1 << (2 * len(counts) - 2).bit_length(), dtype=np.complex128)
    buf.real[:len(counts)] = counts
    return fft.fft(buf, None, -1, None, buf)       # (n, axis, norm, out)


def _widened(counts: np.ndarray, peak: int) -> np.ndarray:
    """counts as int64 while a sum of len(counts) terms of size <= peak
    cannot wrap, as Python ints past that."""
    return counts if len(counts) * peak < 1 << 63 else counts.astype(object)


def _total(counts: np.ndarray) -> int:
    """The exact sum of an integer array."""
    return int(_widened(counts, _peak(counts)).sum())


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
    return ValueHistogram(q, np.bincount(vals[keep], minlength=q), int(keep.sum()))


def value_histogram(dfao: Dfao, f: RationalFunction, q: int,
                    strict_poles: bool = False) -> ValueHistogram:
    """Distribution of f(n) mod q over {n in [1, q] : a_n = 1}, poles excluded."""
    return _histogram(_indicator_values(dfao, q), f, q, strict_poles)


def cyclic_convolve(h1: ValueHistogram, h2: ValueHistogram) -> ValueHistogram:
    """Exact cyclic convolution via Kronecker substitution in big integers."""
    if h1.modulus != h2.modulus:
        raise ValueError("histograms must share a modulus")
    q = h1.modulus
    # every cyclic entry is below bound <= 2^(8 slot), so no slot carries
    bound = max(1, min(h1.support_size * _peak(h2.array),
                       h2.support_size * _peak(h1.array))) + 1
    slot = max(2, (bound.bit_length() + 7) // 8)
    a, b = (int.from_bytes(b"".join(c.to_bytes(slot, "little") for c in h.array.tolist()),
                           "little") for h in (h1, h2))
    # the linear product's slots q.. added onto slots 0.. fold it cyclically
    bits = 8 * slot * q
    prod = a * b
    folded = ((prod & ((1 << bits) - 1)) + (prod >> bits)).to_bytes(q * slot, "little")
    counts = [int.from_bytes(folded[i * slot:(i + 1) * slot], "little") for i in range(q)]
    return ValueHistogram(q, counts, h1.support_size * h2.support_size)


def fft_error_bound(norm_x: float, norm_y: float, n: int) -> float:
    """Percival's bound on max_i |computed - exact| of the cyclic convolution
    of x and y by a length-2^n complex float FFT:
    |x|_2 |y|_2 ((1+EPS)^3n (1+EPS sqrt5)^(3n+1) (1+BETA)^3n - 1)."""
    growth = math.expm1(3 * n * math.log1p(_EPS)
                        + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5))
                        + 3 * n * math.log1p(_BETA))
    # the last factor covers the few roundings of this evaluation itself
    return norm_x * norm_y * growth * (1 + 2.0 ** -40)


def _norm(counts: np.ndarray) -> float:
    """Euclidean norm, from the exact integer sum of squares."""
    squares = _widened(counts, _peak(counts) ** 2)
    try:
        return math.sqrt(int(squares @ squares))
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
    if h1 is h2:
        prod = h1.spectrum * h1.spectrum
    else:       # h1 may be a fold intermediate: its spectrum is used once, not kept
        prod = _padded_fft(h1.array)
        prod *= h2.spectrum
    # inverted, rounded and folded in place; the folded sums stay exact
    re = fft.ifft(prod, None, -1, None, prod).real[:2 * q - 1]
    np.rint(re, out=re)
    re[:q - 1] += re[q:]
    counts = re[:q].astype(np.int64)
    mass = h1.support_size * h2.support_size
    if _total(counts) != mass:
        raise ArithmeticError(f"FFT convolution mod {q} has mass {_total(counts)}, "
                              f"not {mass}, inside Percival's bound")
    return ValueHistogram(q, counts, mass)


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
        n_sol = int(self.conv.array[m % q])
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
