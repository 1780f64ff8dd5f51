"""Property tests: Cyclotomic against the folded-dict reference in oracles.py.

Phases have denominators up to 60; coefficients include Fractions with
numerators of about 40 digits, so values also take the Python-integer
(dtype=object) path.
"""

import cmath
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402
import oracles  # noqa: E402
from autoexp import exact, modring  # noqa: E402
from autoexp.exact import Cyclotomic, normal_forms  # noqa: E402

phases = st.builds(Fraction, st.integers(-120, 120), st.integers(1, 60))
coeffs = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 6)))


@st.composite
def orbit_terms(draw):
    """Equal coefficients on the Galois orbit {a/m : gcd(a, m) = d}, which
    sums to a rational and so exercises the decided case of exact_rational."""
    m = draw(st.integers(1, 30))
    d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    c = draw(coeffs)
    return [(Fraction(a, m), c) for a in range(m) if math.gcd(a, m) == d]


term_lists = st.builds(lambda loose, orbits: loose + [t for o in orbits for t in o],
                       st.lists(st.tuples(phases, coeffs), max_size=8),
                       st.lists(orbit_terms(), max_size=2))


@st.composite
def regrouped(draw, terms):
    """The same sum written differently: shuffled, phases moved by whole
    turns or by a half turn with the sign flipped, coefficients split, and
    cancelling pairs inserted."""
    out = []
    for t, c in terms:
        move = draw(st.sampled_from(["keep", "turn", "half", "split"]))
        if move == "turn":
            out.append((t + draw(st.integers(-2, 2)), c))
        elif move == "half":
            out.append((t + Fraction(1, 2), -c))
        elif move == "split":
            part = draw(coeffs)
            out += [(t, part), (t, c - part)]
        else:
            out.append((t, c))
    for t in draw(st.lists(phases, max_size=2)):
        out += [(t, 1), (t + Fraction(1, 2), 1)]
    return draw(st.permutations(out))


def scale_of(terms):
    return 1.0 + sum(abs(float(c)) for _, c in terms)


@given(term_lists)
def test_queries_match_reference(terms):
    z = Cyclotomic.from_terms(terms)
    ref = oracles.folded_terms(terms)
    assert dict(z.iter_terms()) == ref
    assert [t for t, _ in z.iter_terms()] == sorted(ref)
    assert z.is_zero() == (not ref)
    assert z.unit_phase() == oracles.folded_unit_phase(ref)
    assert z.exact_rational() == oracles.folded_exact_rational(ref)
    assert abs(complex(z) - oracles.folded_complex(ref)) <= 1e-10 * scale_of(terms)


@given(st.data(), term_lists, term_lists)
def test_equality_and_hash_follow_reference(data, terms, other):
    z = Cyclotomic.from_terms(terms)
    same = Cyclotomic.from_terms(data.draw(regrouped(terms)))
    assert z == same and hash(z) == hash(same)
    w = Cyclotomic.from_terms(other)
    agree = oracles.folded_terms(terms) == oracles.folded_terms(other)
    assert (z == w) == agree
    if agree:
        assert hash(z) == hash(w)


@given(term_lists, term_lists, term_lists)
def test_ring_axioms(ta, tb, tc):
    a, b, c = (Cyclotomic.from_terms(t) for t in (ta, tb, tc))
    ref_ab = oracles.folded_product(oracles.folded_terms(ta), oracles.folded_terms(tb))
    assert dict((a * b).iter_terms()) == ref_ab
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert dict(a.conjugate().iter_terms()) == oracles.folded_conjugate(oracles.folded_terms(ta))
    assert (a - a).is_zero()


@given(phases, coeffs)
def test_single_term_constructors_reach_the_normal_form(t, c):
    assert Cyclotomic.from_phase(t) * c == Cyclotomic.from_terms([(t, c)])
    assert Cyclotomic.from_rational(c) == Cyclotomic.from_terms([(0, c)])


@given(st.integers(1, 60), st.lists(st.integers(-2, 2), min_size=1, max_size=60))
def test_histogram_matches_terms(modulus, counts):
    counts = counts[:modulus]
    hist = Cyclotomic.from_int_histogram(modulus, counts) * Fraction(1, 3)
    terms = Cyclotomic.from_terms((Fraction(a, modulus), Fraction(c, 3))
                                  for a, c in enumerate(counts))
    assert hist == terms


def test_moduli_beyond_int64():
    # phases over every prime up to 59: the common modulus passes 2^62, so the
    # exponents are held as Python ints
    primes = [p for p in range(2, 60) if all(p % d for d in range(2, p))]
    terms = [(Fraction(1, p), p) for p in primes] + [(Fraction(-2, 59 * 53), 10 ** 30)]
    z = Cyclotomic.from_terms(terms)
    ref = oracles.folded_terms(terms)
    assert dict(z.iter_terms()) == ref
    w = z * z.conjugate()
    ref_w = oracles.folded_product(ref, oracles.folded_conjugate(ref))
    assert dict(w.iter_terms()) == ref_w
    assert w.exact_rational() == oracles.folded_exact_rational(ref_w)
    assert abs(complex(w) - abs(complex(z)) ** 2) <= 1e-10 * scale_of(terms) ** 2
    assert w - z * z.conjugate() == 0
    # small int64 numerators and exponents over a denominator or modulus
    # beyond int64 (and beyond the float range) still convert to floats
    assert complex(Cyclotomic.from_rational(Fraction(1, 2 ** 64))) == 2.0 ** -64
    assert complex(Cyclotomic.from_rational(Fraction(-3, 10 ** 400))) == 0
    assert complex(Cyclotomic.from_rational(Fraction(10 ** 400 + 1, 10 ** 400))) == 1
    for t in (Fraction(1, 2 ** 64), Fraction(-5, 2 ** 64 + 1), Fraction(1, 10 ** 400)):
        z = Cyclotomic.from_phase(t) * Fraction(1, 2 ** 63)
        assert abs(complex(z) * 2 ** 63 - cmath.exp(2j * math.pi * t)) <= 1e-15


# moduli odd and even, 1, and past 2^61 (exponents held as Python ints)
table_moduli = st.sampled_from([1, 2, 3, 5, 12, 1009, 2018, 30030,
                                2 ** 61 + 1, 3 * 2 ** 61, 2 ** 64 + 2])
table_nums = st.one_of(st.integers(-3, 3), st.integers(2 ** 62 - 4, 2 ** 62 + 4),
                       st.integers(-2 ** 62 - 4, -2 ** 62 + 4))


@st.composite
def bucket_tables(draw):
    """(modulus, den, [(bucket, exponent, numerator)]): exponents anywhere in
    a few turns, numerators near 2^62, and pairs that cancel whole buckets;
    or dense tables of up to 200 rows with small numerators on L <= 12, whose
    keys mostly span fewer slots than there are terms."""
    if draw(st.booleans()):
        L, nums, size = draw(st.integers(1, 12)), st.integers(-3, 3), 200
    else:
        L, nums, size = draw(table_moduli), table_nums, 30
    exps = st.integers(-3 * L, 3 * L)
    rows = draw(st.lists(st.tuples(st.integers(0, 5), exps, nums), max_size=size))
    for b, a, c in draw(st.lists(st.tuples(st.integers(6, 8), exps, nums), max_size=4)):
        rows += [(b, a, c), (b, a + L, -c)]     # a bucket whose terms cancel
    den = draw(st.sampled_from([1, 3, 2 ** 70]))
    return L, den, draw(st.permutations(rows))


def _form(z):
    return (z._mod, z._den, z._exps.dtype, z._exps.tolist(), z._nums.dtype,
            z._nums.tolist(), hash(z))


def _spy_merges(monkeypatch):
    """[True for each counting merge, False for each sort merge] of
    normal_forms calls with two or more keys, from here on"""
    merges = []
    dense = exact._dense

    def spy(key, nums):
        counts = dense(key, nums)
        if key.size > 1:
            merges.append(counts)
        return counts

    monkeypatch.setattr(exact, "_dense", spy)
    return merges


def test_batched_normal_forms_equal_per_bucket_histograms(monkeypatch):
    merges = _spy_merges(monkeypatch)

    @given(bucket_tables())
    def check(table):
        L, den, rows = table
        b = np.array([r[0] for r in rows], dtype=np.int64)
        a = exact._fit([r[1] for r in rows])
        c = exact._fit([r[2] for r in rows])
        out = normal_forms(L, b, a, c, den)
        assert list(out) == sorted(set(b.tolist()))
        for key, z in out.items():
            mine = b == key
            one = Cyclotomic.from_int_histogram(L, c[mine], exps=a[mine]) * Fraction(1, den)
            assert _form(z) == _form(one)
            ref = oracles.folded_terms((Fraction(r[1], L), Fraction(r[2], den))
                                       for r in rows if r[0] == key)
            assert dict(z.iter_terms()) == ref

    check()
    # both merges ran, and each agreed with the reference
    assert True in merges and False in merges


def test_normal_forms_edge_cases(monkeypatch):
    merges = _spy_merges(monkeypatch)
    empty = np.zeros(0, dtype=np.int64)
    assert normal_forms(7, empty, empty, empty) == {}
    # every bucket cancels: each still appears, as zero
    out = normal_forms(6, np.array([4, 4, 9, 9]), np.array([1, 4, 2, 2]),
                       np.array([1, 1, 5, -5]))
    assert out == {4: Cyclotomic.zero(), 9: Cyclotomic.zero()}
    assert all(_form(z) == _form(Cyclotomic.zero()) for z in out.values())
    assert merges == [False]    # keys up to 29 for 4 terms: sorted
    # the same by counting: over L = 2, e(1/2) = -1 folds onto exponent 0,
    # so bucket 0 cancels and still appears, and bucket 1 sums 5 - 5 + 2
    out = normal_forms(2, np.array([0, 0, 1, 1, 1]), np.array([0, 1, 0, 0, 1]),
                       np.array([1, 1, 5, -5, -2]))
    assert out == {0: Cyclotomic.zero(), 1: Cyclotomic.from_rational(2)}
    assert _form(out[0]) == _form(Cyclotomic.zero())
    assert merges == [False, True]
    # numerators near 2^62 sum past int64 and come back when they cancel;
    # their keys are dense, but the int64 sum could overflow, so they sort
    # as Python ints
    big = np.array([2 ** 62 - 1, 2 ** 62 - 1, 5, 1 - 2 ** 62, 1 - 2 ** 62])
    out = normal_forms(1, np.array([0, 0, 1, 1, 1]), np.zeros(5, dtype=np.int64), big)
    assert out[0] == Cyclotomic.from_rational(2 ** 63 - 2) and out[0]._nums.dtype == object
    assert out[1] == Cyclotomic.from_rational(7 - 2 ** 63)
    out = normal_forms(1, np.array([0, 0]), np.zeros(2, dtype=np.int64), big[[0, 3]])
    assert out == {0: Cyclotomic.from_rational(0)}
    assert merges == [False, True, False, False]


def test_one_exact_bucket_sums_call_normalises_once(monkeypatch):
    calls = []

    def spy(modulus, buckets, *args):
        calls.append(buckets is None)
        return normal_forms(modulus, buckets, *args)

    # bucket_sums reaches the normaliser through exact.indexed_phase_sums
    monkeypatch.setattr(exact, "normal_forms", spy)
    g = modring.PhaseValues(1009, np.arange(-1, 2000, dtype=np.int64) % 1010 - 1)
    sums = g.bucket_sums(np.arange(2001) % 37)
    assert calls == [False]
    assert len(sums) == 37
    assert sums[5] == sum((Cyclotomic.root_of_unity(int(v), 1009)
                           for v in g.values[5::37] if v >= 0), Cyclotomic.zero())


# odd and even moduli, 1, past 2^31 (where an int32 key bucket * L would
# wrap) and past 2^62 (phases and keys held as Python ints)
sum_moduli = st.sampled_from([1, 2, 9, 1009, 2 ** 31 + 11, 2 ** 32, 3 * 2 ** 61 + 1,
                              2 ** 64 + 13])
phases_of_values = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def counted_tables(draw):
    """(L, phases, buckets, weights, table, index) for PhaseValues sums: a
    few distinct phases (the pole marker -1 among them) and buckets, so equal
    keys repeat, with buckets in [0, 3] (dense keys at small L) or up to 10^6
    (sparse keys); int32 or int64 buckets and indices; weights None or in
    {-1, 0, 1, 2}; a table of up to three exact values, zero among them."""
    L = draw(sum_moduli)
    pool = draw(st.lists(st.integers(-1, L - 1), min_size=1, max_size=4))
    size = draw(st.integers(0, 40))
    column = lambda values: st.lists(values, min_size=size, max_size=size)
    phases = np.array(draw(column(st.sampled_from(pool))),
                      dtype=np.int64 if L < 2 ** 62 else object)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    top = draw(st.sampled_from([3, 10 ** 6]))
    buckets = np.array(draw(column(st.integers(0, top))), dtype=dtype)
    weights = draw(st.none() | column(st.sampled_from([-1, 0, 1, 2])).map(np.array))
    table = draw(st.lists(st.lists(st.tuples(phases_of_values, coeffs), max_size=3)
                          .map(Cyclotomic.from_terms), min_size=1, max_size=3))
    index = np.array(draw(column(st.integers(0, len(table) - 1))), dtype=dtype)
    return L, phases, buckets, weights, table, index



def _term_by_term(L, phases, buckets, weights, table, index):
    """bucket -> folded terms of sum weight * table[index] * e(phase / L),
    one term at a time in Fractions, over the buckets that hold a term"""
    weights = [1] * len(phases) if weights is None else weights
    out = {}
    for p, b, w, i in zip(phases.tolist(), buckets.tolist(), list(weights), index.tolist()):
        if p >= 0 and table[i]:
            out.setdefault(b, []).extend((t + Fraction(p, L), c * int(w))
                                         for t, c in table[i].iter_terms())
    return {b: oracles.folded_terms(pairs) for b, pairs in out.items()}


def test_counted_sums_match_term_by_term_sums(monkeypatch):
    # bucket_sums and indexed_sums merge equal (bucket, index, phase) keys
    # before expanding them; the Fraction sums of every term do not
    merges = _spy_merges(monkeypatch)

    @given(counted_tables())
    def check(drawn):
        L, phases, buckets, weights, table, index = drawn
        g = modring.PhaseValues(L, phases)
        forms = lambda sums: {b: dict(z.iter_terms()) for b, z in sums.items()}
        one = [Cyclotomic.from_rational(1)]
        assert forms(g.bucket_sums(buckets, weights)) == _term_by_term(
            L, phases, buckets, weights, one, np.zeros(len(phases), dtype=np.int64))
        assert forms(g.indexed_sums(table, index, buckets)) == _term_by_term(
            L, phases, buckets, None, table, index)
        whole = g.indexed_sum(table, index)
        assert dict(whole.iter_terms()) == oracles.folded_terms(
            pair for pairs in _term_by_term(L, phases, 0 * index, None, table, index).values()
            for pair in pairs.items())

    check()
    assert True in merges and False in merges
