import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from autoexp import congruence
from autoexp.automata import Dfao, constant_one, thue_morse_even
from autoexp.budget import BudgetError
from autoexp.congruence import (SolutionTable, ValueHistogram, brute_force_count, convolve,
                                count_solutions, cyclic_convolve, fft_convolve,
                                fft_error_bound, solution_table,
                                value_histogram)
from autoexp.modring import parse_rational_function, phase_fraction

INV_X = parse_rational_function("1/X")
IDENT = parse_rational_function("X")


def test_histogram_identity_map():
    h = value_histogram(constant_one(), IDENT, 7)
    assert h.counts == (1,) * 7 and h.support_size == 7


def test_histogram_inverse_map():
    h = value_histogram(constant_one(), INV_X, 7)
    # n = 7 is the pole; 1..6 biject onto their inverses
    assert h.counts[0] == 0 and h.support_size == 6
    assert all(h.counts[m] == 1 for m in range(1, 7))


def test_histogram_evil_matches_oracle():
    want, support = oracles.histogram_evil_inv(101)
    # numpy integer outputs are exact 0 and 1, as Fractions are
    for tm in (thue_morse_even(), Dfao(2, [[0, 1], [1, 0]], np.array([1, 0]))):
        h = value_histogram(tm, INV_X, 101)
        assert list(h.counts) == want and h.support_size == support


@pytest.mark.parametrize("q", [45, 343])     # 3^2 * 5, and 7^3
def test_histogram_matches_phase_fraction_numerators(q):
    # poles (3 | X + 3, or 5 | X + 3, or 7 | X + 3) leave the support
    f = parse_rational_function("(X^2+1)/(X+3)")
    tm = thue_morse_even()
    want = [0] * q
    for n in range(1, q + 1):
        t = phase_fraction(f, q, n)
        if tm.evaluate(n) == 1 and t is not None:
            want[t.numerator * (q // t.denominator)] += 1
    h = value_histogram(tm, f, q)
    assert list(h.counts) == want and h.support_size == sum(want)


def test_histogram_rejects_non_indicator():
    bad = Dfao(2, [[0, 1], [1, 0]], [Fraction(1), Fraction(-1)])
    with pytest.raises(ValueError):
        value_histogram(bad, IDENT, 5)


def test_histogram_strict_poles():
    with pytest.raises(ValueError):
        value_histogram(constant_one(), INV_X, 7, strict_poles=True)


def test_convolution_identity_and_uniform():
    q = 9
    h = value_histogram(constant_one(), IDENT, q)
    delta = ValueHistogram(q, (1,) + (0,) * (q - 1), 1)
    assert cyclic_convolve(h, delta).counts == h.counts
    ones = ValueHistogram(q, (1,) * q, q)
    assert cyclic_convolve(ones, ones).counts == (q,) * q


def test_convolution_matches_direct_double_loop():
    rng = random.Random(3)
    for _ in range(40):
        q = 12
        c1 = [rng.randrange(0, 9) for _ in range(q)]
        c2 = [rng.randrange(0, 9) for _ in range(q)]
        h1 = ValueHistogram(q, tuple(c1), sum(c1))
        h2 = ValueHistogram(q, tuple(c2), sum(c2))
        out = cyclic_convolve(h1, h2)
        direct = [sum(c1[j] * c2[(m - j) % q] for j in range(q)) for m in range(q)]
        assert list(out.counts) == direct


def test_convolution_handles_large_exact_counts():
    q = 5
    big = 10 ** 12
    h = ValueHistogram(q, (big, 1, 0, 0, 0), big + 1)
    out = cyclic_convolve(h, h)
    assert out.counts[0] == big * big
    assert out.counts[1] == 2 * big


def test_kronecker_results_past_int64_stay_exact_through_the_table():
    # entries near 10^24 pass int64: the result holds Python ints, and the
    # table reads them back as Python ints
    big = 10 ** 12
    h = _hist([big + 3, 7, 0, 5, big])
    c = h.counts
    want = [sum(c[j] * c[(m - j) % 5] for j in range(5)) for m in range(5)]
    assert max(want) > 2 ** 63
    out = convolve(h, h)
    assert out.array.dtype == object and list(out.counts) == want
    table = SolutionTable(out, (h.support_size,) * 2, 5)
    for m in range(5):
        n = table.count(m).n_solutions
        assert type(n) is int and n == want[m]


def test_mass_and_norm_past_int64_stay_exact():
    # int64 entries whose sum, and whose sum of squares, pass int64
    top = 2 ** 62 - 1
    h = ValueHistogram(4, (top,) * 4, 4 * top)
    assert h.array.dtype == np.int64 and h.l2 == math.sqrt(4 * top * top)
    with pytest.raises(ValueError, match="support size"):
        ValueHistogram(4, (top,) * 4, 4 * top - 2 ** 64)
    out = cyclic_convolve(h, h)
    assert out.array.dtype == object and out.counts == (4 * top * top,) * 4
    assert out.l2 == math.sqrt(4 * (4 * top * top) ** 2)


def test_histograms_hold_one_read_only_int64_array():
    h = value_histogram(thue_morse_even(), INV_X, 101)
    assert h.array.dtype == np.int64 and not h.array.flags.writeable
    assert h.counts == tuple(h.array.tolist()) and all(type(c) is int for c in h.counts)
    assert h == _hist(list(h.counts)) and h != _hist([1] + [0] * 100)
    table = solution_table([INV_X] * 2, thue_morse_even(), 101)
    assert table.conv.array.dtype == np.int64
    assert type(table.count(0).n_solutions) is int


def test_convolution_modulus_mismatch():
    with pytest.raises(ValueError):
        cyclic_convolve(ValueHistogram(3, (1, 0, 0), 1),
                        ValueHistogram(4, (1, 0, 0, 0), 1))


def _hist(counts):
    return ValueHistogram(len(counts), tuple(counts), sum(counts))


@pytest.mark.parametrize("q", [1, 2, 3, 12, 101, 1024, 10007])
def test_fft_convolution_equals_kronecker_and_oracle(q):
    rng = random.Random(q)
    for top in (1, 50, 10 ** 4):
        h1 = _hist([rng.randrange(0, top + 1) for _ in range(q)])
        h2 = _hist([rng.randrange(0, top + 1) for _ in range(q)])
        fast = fft_convolve(h1, h2)
        assert fast is not None         # certified at these sizes
        assert fast == cyclic_convolve(h1, h2)
        assert list(fast.counts) == oracles.cyclic_convolve_int(h1.counts, h2.counts)


def test_uncertified_fft_falls_back_to_kronecker(monkeypatch):
    # |h|_2 is about 1.4e12, so Percival's bound is about 1e10, far above 1/2
    big = 10 ** 12
    h = _hist([big + 3, 7, 0, 5, big])
    norm = math.sqrt(sum(c * c for c in h.counts))
    assert fft_error_bound(norm, norm, 4) > 0.5      # 2^4 >= 2q - 1 = 9
    assert fft_convolve(h, h) is None
    calls = []

    def spy(h1, h2):
        calls.append((h1, h2))
        return cyclic_convolve(h1, h2)

    monkeypatch.setattr(congruence, "cyclic_convolve", spy)
    out = convolve(h, h)
    assert calls == [(h, h)]
    c = h.counts
    assert list(out.counts) == [sum(c[j] * c[(m - j) % 5] for j in range(5))
                                for m in range(5)]


def test_fft_error_bound_by_hand():
    # |x| = 3, |y| = 4, n = 10: to first order in EPS = 2^-53 and
    # BETA = 16 EPS, 12 * EPS * (3n + (3n + 1) sqrt5 + 3n * 16)
    want = 12 * 2.0 ** -53 * (30 + 31 * math.sqrt(5) + 30 * 16)
    assert fft_error_bound(3.0, 4.0, 10) == pytest.approx(want, rel=1e-9)
    assert fft_error_bound(0.0, 4.0, 10) == 0.0


def test_fft_mass_mismatch_raises(monkeypatch):
    import numpy.fft
    h = _hist([1, 2, 3, 4, 5])
    ifft = numpy.fft.ifft
    monkeypatch.setattr(numpy.fft, "ifft", lambda a, *args: ifft(a, *args) + 1)
    with pytest.raises(ArithmeticError, match="mass"):
        fft_convolve(h, h)


def test_solution_table_reads_every_target_from_one_convolution(monkeypatch):
    calls = []
    original = congruence._histogram

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(congruence, "_histogram", counting)
    fs = [INV_X, INV_X, parse_rational_function("X^3")]
    table = solution_table(fs, thue_morse_even(), 31)
    assert calls == [INV_X, parse_rational_function("X^3")]
    for m in range(31):
        assert table.count(m) == count_solutions(fs, thue_morse_even(), 31, m)
        assert table.count(m).n_solutions == brute_force_count(fs, thue_morse_even(), 31, m)


def test_a_repeated_histogram_is_transformed_once(monkeypatch):
    import numpy.fft
    calls = []
    for name in ("fft", "ifft"):
        def spy(a, *args, _name=name, _fn=getattr(numpy.fft, name)):
            calls.append(_name)
            return _fn(a, *args)
        monkeypatch.setattr(numpy.fft, name, spy)
    norm = congruence._norm
    monkeypatch.setattr(congruence, "_norm",
                        lambda counts: calls.append("norm") or norm(counts))
    fs = [INV_X, INV_X, INV_X]
    table = solution_table(fs, thue_morse_even(), 101)
    # fft(h) and |h|_2 once for h * h, fft(h * h) and |h * h|_2 for
    # (h * h) * h, one ifft per step
    assert sorted(calls) == ["fft", "fft", "ifft", "ifft", "norm", "norm"]
    for m in (0, 1, 50):
        assert table.count(m).n_solutions == brute_force_count(fs, thue_morse_even(), 101, m)


def test_count_solutions_exact_equidistribution():
    with pytest.warns(UserWarning):  # linear f triggers the advisory warning
        res = count_solutions([IDENT], constant_one(), 11, 4)
    assert res.n_solutions == 1
    assert res.main_term == Fraction(11, 11)


def test_count_solutions_two_inverses():
    # pairs of units with inv(a) + inv(b) = 0 mod 7: b = -a, six pairs
    import warnings
    res = count_solutions([INV_X, INV_X], constant_one(), 7, 0)
    assert res.n_solutions == 6


def test_count_warns_on_linear():
    with pytest.warns(UserWarning):
        count_solutions([IDENT, INV_X], constant_one(), 7, 0)


def test_count_matches_brute_force_random():
    rng = random.Random(5)
    fracs = [INV_X, parse_rational_function("(X^2+1)/X"),
             parse_rational_function("X^3")]
    sets = [constant_one(), thue_morse_even()]
    checked = 0
    while checked < 50:
        r = rng.randrange(1, 4)
        q = rng.choice((7, 11, 13, 31, 101)) if r <= 2 else rng.choice((7, 11, 13, 31))
        fs = [rng.choice(fracs) for _ in range(r)]
        s = rng.choice(sets)
        m = rng.randrange(0, q)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert count_solutions(fs, s, q, m).n_solutions == \
                brute_force_count(fs, s, q, m)
        checked += 1


def test_brute_force_budget():
    with pytest.raises(BudgetError):
        brute_force_count([INV_X] * 5, constant_one(), 101, 0)


def test_brute_force_empty_set():
    empty = Dfao(2, [[0, 0]], [Fraction(0)])
    assert brute_force_count([INV_X], empty, 11, 3) == 0
    assert count_solutions([INV_X], empty, 11, 3).n_solutions == 0


def test_total_mass_conservation():
    rng = random.Random(7)
    for _ in range(20):
        q = rng.choice((5, 7, 11))
        fs = [INV_X, parse_rational_function("X^3")]
        total = sum(count_solutions(fs, thue_morse_even(), q, m).n_solutions
                    for m in range(q))
        supports = count_solutions(fs, thue_morse_even(), q, 0).support_sizes
        assert total == math.prod(supports)


def test_permutation_invariance():
    fs = [INV_X, parse_rational_function("X^3"),
          parse_rational_function("(X^2+1)/X")]
    for m in (0, 1, 5):
        a = count_solutions(fs, thue_morse_even(), 31, m).n_solutions
        b = count_solutions(list(reversed(fs)), thue_morse_even(), 31, m).n_solutions
        assert a == b


def test_translation_covariance():
    # replacing f_1 by f_1 + c shifts the target by c
    c = 3
    f_shift = INV_X + Fraction(c)
    base = [INV_X, parse_rational_function("X^3")]
    shifted = [f_shift, parse_rational_function("X^3")]
    for m in (0, 2, 9):
        a = count_solutions(base, thue_morse_even(), 31, m).n_solutions
        b = count_solutions(shifted, thue_morse_even(), 31, m + c).n_solutions
        assert a == b


def test_composite_modulus_allowed():
    res = count_solutions([INV_X, INV_X], constant_one(), 15, 1)
    assert res.n_solutions == brute_force_count([INV_X, INV_X], constant_one(), 15, 1)
