"""Counting solutions of f_1(n_1) + ... + f_r(n_r) = m mod q over automatic sets.

The pipeline is exact end to end: per-coordinate value histograms (integer
counts of residues), cyclic convolution through big-integer Kronecker
packing, and a nested-loop brute-force oracle for budget-feasible sizes.
Arguments at poles of f_j are excluded from the effective support (strict
mode raises instead); the main term uses the pole-adjusted support product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .automata import Dfao
from .budget import require_budget
from .exact import Cyclotomic
from .modring import RationalFunction, phase_numerators, prime_powers

_ZERO = Cyclotomic.from_rational(0)
_ONE = Cyclotomic.from_rational(1)


@dataclass
class ValueHistogram:
    """counts[m] = #{n counted with f(n) = m mod q}; support_size = total mass."""

    modulus: int
    counts: Tuple[int, ...]
    support_size: int

    def __post_init__(self):
        if len(self.counts) != self.modulus:
            raise ValueError("histogram length must equal the modulus")
        if sum(self.counts) != self.support_size:
            raise ValueError("support size must equal the total count")


def _indicator_values(dfao: Dfao, q: int) -> np.ndarray:
    """0/1 membership of 1..q; rejects automata with outputs outside {0, 1}."""
    for v in dfao.outputs:
        if not isinstance(v, Cyclotomic) or v not in (_ZERO, _ONE):
            raise ValueError("set automaton must output exactly 0 or 1")
    picks = np.array([1 if dfao.outputs[s] == _ONE else 0
                      for s in range(dfao.n_states)], dtype=np.int8)
    ns = np.arange(1, q + 1, dtype=np.int64)
    return picks[dfao.states_at(ns)]


def value_histogram(dfao: Dfao, f: RationalFunction, q: int,
                    strict_poles: bool = False) -> ValueHistogram:
    """Distribution of f(n) mod q over {n in [1, q] : a_n = 1}, poles excluded."""
    member = _indicator_values(dfao, q)
    ns = np.arange(1, q + 1, dtype=np.int64)
    vals = phase_numerators(f, q, ns)       # f(n) mod q, -1 at the poles
    if strict_poles and ((vals < 0) & (member == 1)).any():
        bad = ns[(vals < 0) & (member == 1)][:5]
        raise ValueError(f"pole of {f} mod {q} inside the set, e.g. n={bad.tolist()}")
    keep = (member == 1) & (vals >= 0)
    counts = np.bincount(vals[keep], minlength=q)
    return ValueHistogram(q, tuple(int(c) for c in counts), int(keep.sum()))


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


@dataclass
class CongruenceCount:
    n_solutions: int
    modulus: int
    target: int
    support_sizes: Tuple[int, ...]
    main_term: Fraction            # pole-adjusted: prod(support)/q
    raw_set_size: int              # |S ∩ [1, q]| with no pole exclusion
    rel_error: float


def count_solutions(fs: Sequence[RationalFunction], set_dfao: Dfao,
                    q: int, m: int, strict_poles: bool = False) -> CongruenceCount:
    """Exact number of tuples (n_j) in the set with sum of f_j(n_j) = m mod q."""
    prime_powers(q)     # rejects q < 1 first
    if not fs:
        raise ValueError("need at least one fraction")
    require_budget(q, f"q = {q}")
    for f in fs:
        if f.is_polynomial() and f.num.degree <= 1:
            warnings.warn(f"f={f} is a linear or constant polynomial; "
                          "the equidistribution heuristic does not apply",
                          stacklevel=2)
    hists = [value_histogram(set_dfao, f, q, strict_poles=strict_poles)
             for f in fs]
    conv = hists[0]
    for h in hists[1:]:
        conv = cyclic_convolve(conv, h)
    n_sol = conv.counts[m % q]
    supports = tuple(h.support_size for h in hists)
    main = Fraction(math.prod(supports), q)
    raw = int(_indicator_values(set_dfao, q).sum())
    rel = float(n_sol / main - 1) if main else math.inf
    return CongruenceCount(n_sol, q, m % q, supports, main, raw, rel)


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
