"""Exact complex arithmetic on finite sums of roots of unity.

A Cyclotomic value is a rational combination  sum_i (c_i / d) * e(a_i / L)
with e(t) = exp(2*pi*i*t), stored in one normal form:

- the half-turn e(t + 1/2) = -e(t) folds every phase into [0, 1/2), so the
  exponents are distinct, sorted and satisfy 0 <= 2*a_i < L;
- the numerators c_i are nonzero integers over one positive denominator d,
  with gcd(d, c_1, c_2, ...) = 1;
- L is the least modulus that carries the exponents (1 for a rational).

Exponents and numerators are int64 arrays while every magnitude is below
2^62 and arrays of Python integers (dtype=object) beyond that; the data
decide, not an option.  Sums, products and conjugates built along different
groupings of the same terms reach the same normal form, so equality of
normal forms can never be spuriously true and is exactly the "bit-for-bit"
notion the regrouping identities need.  exact_rational() reads the normal
form alone (it undoes the fold and sums Galois orbits as Ramanujan sums), so
its answer does not depend on how a value was built; None still means
"undecided here", not "irrational".

normal_forms() is the one normaliser: it folds, merges and reduces a whole
table of sums (bucket -> terms) in one batched pass; each constructor and
ring operation is a table of one bucket.  The merge of equal keys (bucket,
folded exponent) counts when the keys are dense -- non-negative int64 whose
span is at most the number of terms, with numerators whose int64 sum cannot
overflow -- and sorts otherwise; the data decide, not an option.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

Rational = Union[int, Fraction]

_HALF = Fraction(1, 2)
_TWO_PI = 2.0 * math.pi
_BIG = 1 << 62      # int64 entries stay below this, so one sum cannot overflow
_EXACT = 1 << 53    # every integer up to this converts to float64 exactly


def _peak(arr: np.ndarray) -> int:
    """Largest magnitude in an integer array (0 when empty)."""
    return int(np.abs(arr).max()) if arr.size else 0


def _fit(values) -> np.ndarray:
    """Exact integer array in the dtype its data need: int64 or Python ints."""
    # from a list, numpy would turn ints in [2^63, 2^64) into floats
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if _peak(arr) < _BIG:
        return arr.astype(np.int64, copy=False)
    return arr.astype(object, copy=False)


def int_range(start: int, stop: int, step: int = 1) -> np.ndarray:
    """np.arange of integers, int64 while every value stays below 2^62 (so
    a small shift cannot wrap) and Python ints beyond."""
    if max(abs(start), abs(stop)) < _BIG:
        return np.arange(start, stop, step, dtype=np.int64)
    return np.array(range(start, stop, step), dtype=object)


def _narrow(arr: np.ndarray) -> np.ndarray:
    """_fit for an array whose int64 entries are already below 2^62."""
    return _fit(arr) if arr.dtype == object else arr


def _scalar(v: int) -> np.ndarray:
    return np.array([v], dtype=np.int64 if -_BIG < v < _BIG else object)


def _over(arr: np.ndarray, d: int, peak: int) -> np.ndarray:
    """arr / d as floats, correctly rounded for any sizes, given |arr| <= peak.
    numpy divides int64 by first converting both sides to float, which is
    exact only up to 2^53; past that, Python ints divide and round once."""
    if d > _EXACT or peak > _EXACT:
        arr = arr.astype(object)
    return (arr / d).astype(np.float64, copy=False)


def _times(arr: np.ndarray, k: int) -> np.ndarray:
    """arr * k exactly, widening to Python ints where int64 could overflow."""
    if k == 1:
        return arr
    if arr.dtype != object and abs(k) * max(_peak(arr), 1) >= _BIG:
        arr = arr.astype(object)
    return arr * k


class Cyclotomic:
    """Immutable exact sum of rational multiples of roots of unity."""

    __slots__ = ("_mod", "_exps", "_nums", "_den")

    def __init__(self, modulus: int, exps: np.ndarray, nums: np.ndarray, den: int = 1):
        # the arrays must already be in normal form; build values through the
        # static constructors below
        self._mod = modulus
        self._exps = exps
        self._nums = nums
        self._den = den

    @staticmethod
    def _normal(modulus: int, exps: np.ndarray, nums: np.ndarray,
                den: int = 1) -> "Cyclotomic":
        """Normal form of sum_i nums[i]/den * e(exps[i]/modulus); exponents
        may repeat and lie anywhere in Z."""
        return normal_forms(modulus, np.zeros(exps.size, np.int64), exps, nums, den).get(0, _ZERO)

    # -- construction -------------------------------------------------

    @staticmethod
    def zero() -> "Cyclotomic":
        return _ZERO

    @staticmethod
    def from_rational(c: Rational) -> "Cyclotomic":
        c = Fraction(c)
        if not c:
            return Cyclotomic.zero()
        return Cyclotomic(1, _scalar(0), _scalar(c.numerator), c.denominator)

    @staticmethod
    def from_phase(t: Rational) -> "Cyclotomic":
        """e(t)."""
        t = Fraction(t)
        return Cyclotomic._normal(t.denominator, _scalar(t.numerator), _scalar(1))

    @staticmethod
    def root_of_unity(a: int, m: int) -> "Cyclotomic":
        """e(a/m)."""
        if m <= 0:
            raise ValueError("order must be positive")
        return Cyclotomic.from_phase(Fraction(a, m))

    @staticmethod
    def from_terms(pairs: Iterable) -> "Cyclotomic":
        """sum of c * e(t) over (t, c) pairs of rationals."""
        pairs = [(Fraction(t), Fraction(c)) for t, c in pairs]
        modulus = math.lcm(1, *(t.denominator for t, _ in pairs))
        den = math.lcm(1, *(c.denominator for _, c in pairs))
        exps = _fit([t.numerator * (modulus // t.denominator) for t, _ in pairs])
        nums = _fit([c.numerator * (den // c.denominator) for _, c in pairs])
        return Cyclotomic._normal(modulus, exps, nums, den)

    @staticmethod
    def from_int_histogram(modulus: int, hist, exps=None) -> "Cyclotomic":
        """sum over i of hist[i] * e(exps[i] / modulus), for integer counts
        hist; exps gives each entry's exponent (default: its index) and may
        repeat."""
        nums = _fit(hist)
        nz = nums.nonzero()[0]
        exps = nz if exps is None else _fit(exps)[nz]
        return Cyclotomic._normal(int(modulus), exps, nums[nz])

    def _lift(self, modulus: int, den: int) -> Tuple[np.ndarray, np.ndarray]:
        """(exponents, numerators) over a multiple of the modulus and of the
        denominator."""
        return (_times(self._exps, modulus // self._mod),
                _times(self._nums, den // self._den))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = as_exact(other)
        if other is None:
            return NotImplemented
        modulus = math.lcm(self._mod, other._mod)
        den = math.lcm(self._den, other._den)
        (a1, c1), (a2, c2) = self._lift(modulus, den), other._lift(modulus, den)
        return Cyclotomic._normal(modulus, np.concatenate([a1, a2]),
                                  np.concatenate([c1, c2]), den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self._mod, self._exps, -self._nums, self._den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = as_exact(other)
        if other is None:
            return NotImplemented
        modulus = math.lcm(self._mod, other._mod)
        a1, c1 = self._lift(modulus, self._den)
        a2, c2 = other._lift(modulus, other._den)
        if c1.dtype != object and _peak(c1) * _peak(c2) >= _BIG:
            c1 = c1.astype(object)
        return Cyclotomic._normal(modulus, np.add.outer(a1, a2).ravel(),
                                  np.multiply.outer(c1, c2).ravel(),
                                  self._den * other._den)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        return Cyclotomic._normal(self._mod, -self._exps, self._nums, self._den)

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums.size

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = as_exact(other)
        if other is None:
            return NotImplemented
        return (self._mod == other._mod and self._den == other._den
                and np.array_equal(self._exps, other._exps)
                and np.array_equal(self._nums, other._nums))

    def __hash__(self):
        return hash((self._mod, self._den, tuple(self._exps.tolist()),
                     tuple(self._nums.tolist())))

    def iter_terms(self) -> Iterator:
        """Yield (phase, coefficient) pairs by increasing phase in [0, 1/2);
        phase 0 carries the rational part."""
        m, d = self._mod, self._den
        return ((Fraction(a, m), Fraction(c, d))
                for a, c in zip(self._exps.tolist(), self._nums.tolist()))

    def unit_phase(self) -> Optional[Fraction]:
        """Phase t if the value is exactly e(t) or -e(t) (as e(t +- 1/2)); None otherwise.
        Zero also returns None."""
        if self._nums.size != 1 or self._den != 1:
            return None
        t = Fraction(int(self._exps[0]), self._mod)
        c = int(self._nums[0])
        if c == 1:
            return t
        if c == -1:
            return t + _HALF
        return None

    def to_complex(self) -> complex:
        if not self._nums.size:
            return 0j
        ang = _TWO_PI * _over(self._exps, self._mod, 0)    # 0 <= exps < mod
        w = _over(self._nums, self._den, _peak(self._nums))
        # math.fsum: correctly rounded, so no BLAS thread split can move it
        return complex(math.fsum(w * np.cos(ang)), math.fsum(w * np.sin(ang)))

    def __complex__(self):
        return self.to_complex()

    def __abs__(self):
        if self._nums.size == 1:    # |c/d e(t)| = |c|/d, correctly rounded
            return abs(int(self._nums[0])) / self._den
        return abs(self.to_complex())

    def exact_rational(self) -> Optional[Fraction]:
        """The exact rational value, when the normal form decides it.

        Undoing the half-turn fold (a negative coefficient at e(t) becomes a
        positive one at e(t + 1/2)) gives a positive coefficient vector over
        e(a/W).  The value is decided whenever that vector is constant on
        every Galois orbit {a : gcd(a, W) = d}, each orbit summing to the
        Ramanujan sum mu(W/d).  Returns None otherwise -- which means
        "undecided here", not "irrational".
        """
        from .modring import factorize

        modulus = self._mod * (1 + self._mod % 2)   # even: t + 1/2 has an exponent
        k, half = modulus // self._mod, modulus // 2
        unfolded = [(a * k + half, -c) if c < 0 else (a * k, c)
                    for a, c in zip(self._exps.tolist(), self._nums.tolist())]
        g = math.gcd(modulus, *(a for a, _ in unfolded))
        modulus //= g
        orbits: dict = {}
        for a, c in unfolded:
            orbits.setdefault(math.gcd(a // g, modulus), []).append(c)
        total = 0
        for d, coeffs in orbits.items():
            factors = factorize(modulus // d)
            phi = math.prod(p ** (e - 1) * (p - 1) for p, e in factors)
            if len(coeffs) != phi or any(c != coeffs[0] for c in coeffs):
                return None
            if all(e == 1 for _, e in factors):
                total += coeffs[0] * (-1) ** len(factors)
        return Fraction(total, self._den)

    def __repr__(self):
        if self.is_zero():
            return "Cyclotomic(0)"
        bits = [f"{c}" if t == 0 else f"{c}*e({t})" for t, c in self.iter_terms()]
        return "Cyclotomic(" + " + ".join(bits) + ")"


_EMPTY = np.zeros(0, dtype=np.int64)
_ZERO = Cyclotomic(1, _EMPTY, _EMPTY, 1)


def _firsts(labels: np.ndarray) -> np.ndarray:
    """Start index of each run of equal labels in a sorted array."""
    starts = np.ones(labels.size, dtype=bool)
    np.not_equal(labels[1:], labels[:-1], out=starts[1:])
    return starts.nonzero()[0]


def _spread(per_bucket: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """One value per bucket, repeated over the bucket's terms."""
    if per_bucket.size == 1:    # broadcasts as it is
        return per_bucket
    return np.repeat(per_bucket, np.diff(bounds))


def _dense(key: np.ndarray, nums: np.ndarray) -> bool:
    """Whether the merge can sum by slot: int64 keys, all non-negative, whose
    span (largest key + 1) is at most their number, and int64 numerators
    whose sum cannot overflow.  Then one vector of span slots costs no more
    than the keys themselves, and filling it is cheaper than sorting them."""
    return (key.size > 1 and key.dtype == np.int64 and nums.dtype == np.int64
            and int(key.min()) >= 0 and int(key.max()) < key.size
            and _peak(nums) * nums.size < _BIG)


def normal_forms(modulus: int, buckets: np.ndarray, exps: np.ndarray,
                 nums: np.ndarray, den: int = 1) -> Dict[int, Cyclotomic]:
    """bucket -> normal form of the sum of nums[i]/den * e(exps[i]/modulus)
    over the terms i in that bucket, for every bucket that holds a term, also
    when its terms cancel; a bucket with no terms is absent.  Exponents may
    repeat and lie anywhere in Z.  A single sum is the table whose buckets
    are all 0.

    One merge of the key bucket * L/2 + folded exponent serves every bucket;
    each bucket is then divided by the gcd of its exponents with L and of its
    numerators with the denominator.  The merge sums by slot (one bincount
    marks the occupied keys, one np.add.at sums their numerators) when the
    keys are non-negative int64 that span no more slots than there are terms
    and the int64 numerators cannot overflow; otherwise (object keys or
    numerators, moduli past 2^61, sparse keys) it sorts the keys and sums
    runs of equal keys.  Both give the same sorted keys and sums."""
    if 2 * modulus >= _BIG:
        exps = exps.astype(object)
    exps = exps % modulus
    if modulus % 2:     # the half-turn needs an even modulus
        exps, modulus = exps * 2, modulus * 2
    half = modulus // 2
    # e(a/L) = -e((a - L/2)/L) folds [0, L) into [0, L/2)
    fold = exps >= half
    exps = np.where(fold, exps - half, exps)
    nums = np.where(fold, -nums, nums)
    key = _times(buckets, half) + exps
    del buckets, exps   # the key carries both; free them before the merge
    if _dense(key, nums):   # sums by slot: key and nums come out sorted by key
        sums = np.zeros(int(key.max()) + 1, dtype=np.int64)
        np.add.at(sums, key, nums)
        key = np.flatnonzero(np.bincount(key))  # occupied slots, cancelled ones too
        nums = sums[key]
    elif key.size > 1:  # equal keys are summed, so their order does not matter
        order = key.argsort()
        key = key[order]    # one permuted copy at a time keeps the peak low
        nums = nums[order]
        del order
        starts = _firsts(key)
        if starts.size < key.size:
            if nums.dtype != object and _peak(nums) * nums.size >= _BIG:
                nums = nums.astype(object)
            key, nums = key[starts], np.add.reduceat(nums, starts)
    labels, exps = key // half, key % half
    firsts = _firsts(labels)
    out = dict.fromkeys(labels[firsts].tolist(), _ZERO)
    if not nums.all():      # cancelled terms go; a bucket left empty stays zero
        keep = nums != 0
        labels, exps, nums = labels[keep], exps[keep], nums[keep]
        firsts = _firsts(labels)
    if not firsts.size:
        return out
    bounds = np.concatenate([firsts, [nums.size]])
    g = np.gcd(np.gcd.reduceat(exps, firsts), modulus)
    exps = exps // _spread(g, bounds)
    dens = [1] * firsts.size
    if den > 1:
        k = np.gcd.reduceat(nums, firsts)
        k = np.gcd(k if den < _BIG else k.astype(object), den)
        nums = nums // _spread(k, bounds)
        dens = (den // k).tolist()
    bounds = bounds.tolist()
    # each value gets its own arrays: a view would keep the whole table's
    # arrays alive while any one of its values lives
    for b, m, d, s, e in zip(labels[firsts].tolist(),
                             (modulus // g).tolist(), dens, bounds, bounds[1:]):
        out[b] = Cyclotomic(m, _narrow(exps[s:e].copy()), _narrow(nums[s:e].copy()), d)
    return out


def indexed_phase_sums(values: Sequence[Cyclotomic], index: np.ndarray, modulus: int,
                       phases: np.ndarray, buckets: np.ndarray) -> Dict[int, Cyclotomic]:
    """bucket -> sum over the i in that bucket of values[index[i]] *
    e(phases[i] / modulus), skipping the pole marker phases[i] = -1, as one
    normal_forms call; a bucket appears when it holds a term.

    Every value is lifted once to one modulus W and one denominator d, and
    the terms of all values are concatenated; each i gathers the terms of
    its value by offset, so no value is padded to the widest one."""
    W = math.lcm(modulus, *(v._mod for v in values))
    den = math.lcm(1, *(v._den for v in values))
    lifted = [v._lift(W, den) for v in values]
    exps = np.concatenate([_EMPTY] + [a for a, _ in lifted])
    nums = np.concatenate([_EMPTY] + [c for _, c in lifted])
    sizes = np.array([v._nums.size for v in values], dtype=np.int64)
    live = phases >= 0
    idx = index[live]
    counts = sizes[idx]
    ends = np.cumsum(counts)
    # term t of element i sits at starts[index[i]] + t in the concatenation
    starts = np.cumsum(sizes) - sizes
    at = np.arange(ends[-1] if ends.size else 0) + np.repeat(starts[idx] - ends + counts,
                                                             counts)
    shifted = exps[at] + np.repeat(_times(phases[live], W // modulus), counts)
    return normal_forms(W, np.repeat(buckets[live], counts), shifted, nums[at], den)


def as_exact(value) -> Optional[Cyclotomic]:
    """Coerce rationals (numpy integers too) and Cyclotomics to Cyclotomic; None for floats."""
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, numbers.Rational):     # int(): numpy integers have numpy numerators
        return Cyclotomic.from_rational(Fraction(int(value.numerator), int(value.denominator)))
    return None
