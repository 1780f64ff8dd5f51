import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from autoexp import expsums
from autoexp.automata import constant_one, thue_morse_even
from autoexp.budget import BudgetError
from autoexp.congruence import count_solutions
from autoexp.exact import Cyclotomic
from autoexp.expsums import (IntervalProgression, check_gcd_lemma,
                             check_quadratic_geometric, check_weil,
                             complete_sum, correlation_sum, difference_sum,
                             pv_range_scan, twisted_spectrum, weighted_sum)
from autoexp.modring import (FractionPhase, IntPoly, RationalFunction,
                             add_linear, is_well_defined, parse_rational_function,
                             phase_fraction, phase_numerators, shift_scale)
from autoexp.presets import primes_upto

INV_X = parse_rational_function("1/X")


# -- interval progressions -----------------------------------------------------


def test_progression_cardinality_formula():
    rng = random.Random(1)
    for _ in range(300):
        y = rng.randrange(0, 100)
        x = rng.randrange(1, 200)
        s = rng.randrange(1, 7)
        a = rng.randrange(0, s)
        reg = IntervalProgression(y, x, s, a)
        vals = reg.values()
        assert len(vals) == reg.count
        assert all(y < n <= y + x and n % s == a for n in vals)


def test_progression_validation():
    with pytest.raises(ValueError):
        IntervalProgression(-1, 5)
    with pytest.raises(ValueError):
        IntervalProgression(0, 5, 3, 3)


def test_every_progression_is_sized_where_it_is_enumerated(monkeypatch):
    # 10^6 members against a budget of 1000: each sum stops before its array
    monkeypatch.setenv("AUTOEXP_BUDGET", "1000")
    big = IntervalProgression(0, 10 ** 6)
    for call in (lambda: big.values(),
                 lambda: weighted_sum(thue_morse_even(), INV_X, 101, big),
                 lambda: difference_sum(INV_X, 101, 1, big),
                 lambda: correlation_sum(FractionPhase(INV_X, 101), 10 ** 6, 0, 1, 1, 0),
                 lambda: correlation_sum(FractionPhase(INV_X, 2), 2 ** 70, 0, 0, 1, 0)):
        with pytest.raises(BudgetError, match="region size"):
            call()
    # the modulus is still checked first
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        weighted_sum(thue_morse_even(), INV_X, 0, big)


def test_primes_upto_edges(monkeypatch):
    assert primes_upto(-1) == primes_upto(0) == primes_upto(1) == []
    assert primes_upto(2) == [2] and primes_upto(30)[-1] == 29
    monkeypatch.setenv("AUTOEXP_BUDGET", "1000")
    with pytest.raises(BudgetError, match="sieve"):
        primes_upto(99999999999)


# -- complete sums ----------------------------------------------------------------


def test_complete_sum_inverse_is_minus_one():
    for p in (3, 7, 101, 499):
        assert complete_sum(INV_X, p).exact_rational() == -1


def test_complete_sum_constant():
    f = parse_rational_function("3")
    for q in (5, 12):
        s = complete_sum(f, q)
        want = Cyclotomic.from_phase(Fraction(3, q)) * q
        assert s == want


def test_complete_sum_kloosterman_q7():
    f = parse_rational_function("(X^2+1)/X")  # X + 1/X
    s = complete_sum(f, 7)
    direct = sum(cmath.exp(2j * cmath.pi * ((n + pow(n, -1, 7)) % 7) / 7)
                 for n in range(1, 7))
    z = complex(s)
    assert abs(z - direct) < 1e-12
    assert abs(z.imag) < 1e-12
    assert abs(z) <= 2 * math.sqrt(7) + 1e-12


def test_complete_sum_crt_product_exact():
    rng = random.Random(13)
    done = 0
    while done < 100:
        q1 = rng.randrange(2, 120)
        q2 = rng.randrange(2, 120)
        if math.gcd(q1, q2) != 1 or q1 * q2 > 10000:
            continue
        p = IntPoly([rng.randrange(-5, 6) for _ in range(3)])
        qq = IntPoly([rng.randrange(-5, 6) for _ in range(2)])
        if qq.is_zero() or p.is_zero():
            continue
        f = RationalFunction(p, qq)
        q = q1 * q2
        if not is_well_defined(f, q):
            continue
        total = complete_sum(f, q)
        # product of the twisted local complete sums, assembled independently
        local = Cyclotomic.from_rational(1)
        for m in (q1, q2):
            cof = q // m
            terms = []
            for n in range(m):
                qn = f.den.eval_mod(n, m)
                if math.gcd(qn, m) != 1:
                    continue
                num = pow(cof, -1, m) * f.num.eval_mod(n, m) * pow(qn, -1, m) % m
                terms.append((Fraction(num, m), Fraction(1)))
            local = local * Cyclotomic.from_terms(terms)
        assert total == local
        done += 1


# -- twisted spectra ---------------------------------------------------------------


@pytest.mark.parametrize("fs", ["1/X", "(X^2+1)/X", "X^3"])
def test_twisted_spectrum_is_the_exact_complete_sum_at_every_twist(fs):
    f = parse_rational_function(fs)
    # composite moduli where 1/X has several poles, prime powers included
    for q in primes_upto(61) + [12, 15, 49]:
        spectrum = twisted_spectrum(f, q)
        exact = [complete_sum(add_linear(f, a), q).to_complex() for a in range(q)]
        assert spectrum.shape == (q,)
        np.testing.assert_allclose(spectrum, exact, rtol=1e-9, atol=1e-9 * math.sqrt(q))


def test_kloosterman_spectrum_sum_and_parseval():
    # sum_a v-hat(a) = q v[0] = 0 and sum_a |v-hat(a)|^2 = q sum_x |v[x]|^2 = q (q - 1),
    # with K(0, 1; p) = sum_{x != 0} e(x^-1 / p) = -1 taken out
    for p in primes_upto(499):
        k = twisted_spectrum(INV_X, p)[1:]
        assert abs(k.sum() - 1) <= 1e-9
        assert float(np.sum(np.abs(k) ** 2)) == pytest.approx(p * p - p - 1, rel=1e-9)


def test_kloosterman_argmax_is_not_decided_by_rounding():
    for p in primes_upto(499)[1:]:
        top = np.sort(np.abs(twisted_spectrum(INV_X, p)[1:]))[-2:]
        assert top[1] - top[0] > 1e-6, p


def test_twisted_spectrum_checks_the_budget_before_the_period(monkeypatch):
    def unreachable(*args):
        raise AssertionError("enumerated past the budget")
    monkeypatch.setenv("AUTOEXP_BUDGET", "1000")
    monkeypatch.setattr(expsums, "phase_numerators", unreachable)
    with pytest.raises(BudgetError, match="period q"):
        twisted_spectrum(INV_X, 10 ** 12)


# -- weighted sums -----------------------------------------------------------------


def test_weighted_sum_constant_one_full_period():
    q = 101
    s = weighted_sum(constant_one(), INV_X, q, IntervalProgression(0, q))
    assert s.exact_rational() == -1
    assert s == complete_sum(INV_X, q)


def test_weighted_sum_pinned(pins):
    s = weighted_sum(thue_morse_even(), INV_X, 1009, IntervalProgression(0, 1009))
    pin = pins["weighted_tm_inv_q1009_x1009"]
    assert abs(complex(s) - complex(pin["re"], pin["im"])) < 1e-9


def test_weighted_sum_empty_region():
    s = weighted_sum(thue_morse_even(), INV_X, 7, IntervalProgression(0, 3, 5, 4))
    assert s.is_zero()


def test_an_empty_one_bucket_sum_is_its_modes_zero():
    from autoexp.automata import Dfao
    empty = IntervalProgression(0, 1, 3, 2)
    assert empty.count == 0
    s = weighted_sum(thue_morse_even(), INV_X, 7, empty)
    assert type(s) is Cyclotomic and s == Cyclotomic.zero()
    s = weighted_sum(Dfao(2, [[0, 1], [1, 0]], [1j, 2.0]), INV_X, 7, empty)
    assert type(s) is complex and s == 0j


def test_weighted_sum_float_outputs():
    from autoexp.automata import Dfao
    d = Dfao(2, [[0, 1], [1, 0]], [0.25 + 0.1j, -0.5])
    s = weighted_sum(d, INV_X, 11, IntervalProgression(0, 40))
    direct = sum(complex(d.evaluate(n)) *
                 complex(Cyclotomic.zero() if phase_fraction(INV_X, 11, n) is None
                         else Cyclotomic.from_phase(phase_fraction(INV_X, 11, n)))
                 for n in range(1, 41))
    assert abs(s - direct) < 1e-12


def test_weighted_sum_outputs_past_int64_match_per_n_sum():
    # the outputs' modulus 2^64 + 13 makes the common modulus W of the
    # output terms and the phases mod 101 pass int64
    from autoexp.automata import Dfao
    d = Dfao(2, [[0, 1], [1, 0]],
             [Cyclotomic.root_of_unity(1, 2 ** 64 + 13), Fraction(-1, 3)])
    s = weighted_sum(d, INV_X, 101, IntervalProgression(0, 300))
    want = Cyclotomic.zero()
    for n in range(1, 301):
        t = phase_fraction(INV_X, 101, n)
        if t is not None:
            want = want + d.evaluate(n) * Cyclotomic.from_phase(t)
    assert s == want


# -- correlations --------------------------------------------------------------------


def test_correlation_unit_g_h0_is_cardinality():
    g = lambda n: cmath.exp(2j * cmath.pi * (n * 0.37))
    reg = IntervalProgression(3, 50, 4, 1)
    u = correlation_sum(g, 50, 3, 0, 4, 1)
    assert abs(u - reg.count) < 1e-9


def test_correlation_periodic_shift():
    q = 31
    g = FractionPhase(INV_X, q)
    u = correlation_sum(g, 3 * q, 0, q, 1, 0)
    # g(n+q) = g(n); |g|^2 = 1 away from poles, 0 at them
    poles = sum(1 for n in range(1, 3 * q + 1) if n % q == 0)
    assert abs(u - (3 * q - poles)) < 1e-9


def test_correlation_pinned(pins):
    g = FractionPhase(INV_X, 101)
    u = correlation_sum(g, 101, 0, 5, 1, 0)
    pin = pins["correlation_inv_q101_h5"]
    assert abs(u - complex(pin["re"], pin["im"])) < 1e-9


def test_correlation_bounded_by_cardinality():
    rng = random.Random(17)
    for _ in range(50):
        q = rng.randrange(2, 40)
        g = FractionPhase(INV_X, q)
        x = rng.randrange(1, 120)
        h = rng.randrange(0, 25)
        s = rng.randrange(1, 5)
        a = rng.randrange(0, s)
        u = correlation_sum(g, x, 0, h, s, a)
        assert abs(u) <= IntervalProgression(0, x, s, a).count + 1e-9


# -- difference sums -----------------------------------------------------------------


def test_difference_sum_r0_counts_region():
    reg = IntervalProgression(0, 70, 2, 1)
    s = difference_sum(INV_X, 35, 0, reg)
    assert s.exact_rational() == reg.count


def test_difference_sum_pinned(pins):
    s = difference_sum(INV_X, 35, 3, IntervalProgression(0, 70, 2, 1))
    pin = pins["difference_inv_q35_r3_s2_a1_x70"]
    assert abs(complex(s) - complex(pin["re"], pin["im"])) < 1e-9


def test_difference_sum_pointwise_product_agreement():
    rng = random.Random(23)
    for _ in range(40):
        q = rng.randrange(2, 60)
        fs = rng.choice(("1/X", "(X^2+1)/X", "X^3", "(X+2)/(X^2+1)"))
        f = parse_rational_function(fs)
        if not is_well_defined(f, q):
            continue
        r = rng.randrange(0, 6)
        diff = shift_scale(f, 0, 1, r)
        for n in range(1, 40):
            t_sym = phase_fraction(diff, q, n)
            t1 = phase_fraction(f, q, n + r)
            t0 = phase_fraction(f, q, n)
            if t1 is not None and t0 is not None:
                assert t_sym == (t1 - t0) % 1


def test_difference_sum_quadratic_geometric_closed_form():
    # f = X^2: terms have phase (2nr + r^2)/q, a pure geometric progression
    f = parse_rational_function("X^2")
    q, r = 16, 1
    reg = IntervalProgression(0, 40, 1, 0)
    s = complex(difference_sum(f, q, r, reg))
    direct = sum(cmath.exp(2j * cmath.pi * ((2 * n * r + r * r) % q) / q)
                 for n in range(1, 41))
    assert abs(s - direct) < 1e-12


def test_quad_grid_builds_each_difference_once(monkeypatch):
    # 360 difference sums over 2 fractions and 5 shifts r
    from autoexp.presets import QUAD_GRID, run_quad_grid
    calls = []
    shift_scale = expsums.shift_scale
    monkeypatch.setattr(expsums, "shift_scale",
                        lambda *args: calls.append(args) or shift_scale(*args))
    expsums._difference.cache_clear()
    assert run_quad_grid()["cells"] == 360
    assert len(calls) == len(QUAD_GRID["fractions"]) * len(QUAD_GRID["r"]) == 10


# -- bound checkers -------------------------------------------------------------------


def test_check_weil_inverse():
    for p in (13, 101):
        row = check_weil(INV_X, p)
        assert abs(row.ratio - 1 / math.sqrt(p)) < 1e-12
        assert row.exact_sum.exact_rational() == -1


def test_check_weil_derivative_vanishes():
    p = 13
    f = RationalFunction(IntPoly([0, p]))  # pX: derivative = p = 0 mod p
    row = check_weil(f, p)
    assert row.comparator == pytest.approx(p)
    assert row.ratio <= 1 + 1e-12


def test_check_weil_kloosterman():
    f = parse_rational_function("(X^2+101)/X")
    row = check_weil(f, 101)
    assert row.sum_abs <= 2 * math.sqrt(101) + 1e-9


def test_check_weil_requires_squarefree():
    with pytest.raises(ValueError, match="modulus must be squarefree"):
        check_weil(INV_X, 12)


@pytest.mark.parametrize("q", [0, -5])
def test_modulus_below_one_is_rejected_by_every_entry(q):
    region = IntervalProgression(0, 10)
    for call in (lambda: complete_sum(INV_X, q),
                 lambda: twisted_spectrum(INV_X, q),
                 lambda: weighted_sum(thue_morse_even(), INV_X, q, region),
                 lambda: phase_numerators(INV_X, q, np.arange(10)),
                 lambda: FractionPhase(INV_X, q),
                 lambda: count_solutions([INV_X], thue_morse_even(), q, 1)):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            call()


def test_check_gcd_lemma_empty_for_good_fractions():
    ps = [p for p in primes_upto(199) if p >= 3]
    assert check_gcd_lemma(INV_X, 1, 0, ps) == []
    assert check_gcd_lemma(parse_rational_function("X^3"), 1, 2, ps) == []


def test_check_gcd_lemma_exempts_p_dividing_r():
    # r = p: the p | 2r side condition skips p entirely
    f = INV_X
    assert check_gcd_lemma(f, 7, 0, [7]) == []


def test_check_gcd_lemma_rejects_low_degree_polynomials():
    with pytest.raises(ValueError):
        check_gcd_lemma(parse_rational_function("X^2"), 1, 0, [5])


def test_quadratic_geometric_examples():
    f = parse_rational_function("X^2")
    # r = 0: comparator is the trivial count bound
    row = check_quadratic_geometric(f, 16, 0, 2, 1, 0, 100)
    assert row.lhs <= row.comparator
    assert row.comparator == pytest.approx(100 / 2 + 1)
    # u=v=1, q=16, r=1, s=1: phase step 2/16 = 1/8, comparator min(x+1, 8)
    for x in (4, 40, 400):
        row = check_quadratic_geometric(f, 16, 1, 1, 0, 0, x)
        assert row.comparator == pytest.approx(min(x + 1, 8.0))
        assert row.lhs <= row.comparator * (1 + 1e-9)
    # 2urs = 0 mod q: degenerate phase, trivial bound only
    row = check_quadratic_geometric(f, 16, 8, 2, 1, 0, 50)
    assert row.comparator == pytest.approx(50 / 2 + 1)


def test_quadratic_geometric_validates_shape():
    with pytest.raises(ValueError):
        check_quadratic_geometric(INV_X, 16, 1, 1, 0, 0, 10)
    with pytest.raises(ValueError):
        check_quadratic_geometric(parse_rational_function("X^2/3"), 9, 1, 1, 0, 0, 10)


# -- range scans ---------------------------------------------------------------------


def test_pv_scan_constant_one_full_period():
    rep = pv_range_scan(constant_one(), INV_X, [101, 257], theta=1.0)
    for row in rep.rows:
        q, x, yv, s_abs, ratio, q1, bound = row
        assert x == q and abs(s_abs - 1.0) < 1e-9
        assert ratio == pytest.approx(1.0 / q)


def test_pv_scan_abs_of_one_term_sum_is_exact():
    # f = 3 is constant, so S = e(3/q) * #{evil n <= x}: |S| is that count
    rep = pv_range_scan(thue_morse_even(), parse_rational_function("3"),
                        [1009, 10007, 100003], 0.75)
    evil = [sum(bin(n).count("1") % 2 == 0 for n in range(1, x + 1))
            for x in (math.ceil(q ** 0.75) for q in (1009, 10007, 100003))]
    assert evil == [90, 500, 2812]
    assert [row[3] for row in rep.rows] == evil


def test_pv_scan_row_order_and_columns():
    rep = pv_range_scan(thue_morse_even(), INV_X, [257, 101], theta=0.75)
    assert [r[0] for r in rep.rows] == [101, 257]
    assert rep.columns[0] == "q"


def test_pv_scan_matches_oracle(pins):
    rep = pv_range_scan(thue_morse_even(), INV_X, [1009], theta=0.75, y="q")
    row = rep.rows[0]
    pin = pins["pv_scan_tm_inv"]["1009"]["1009"]
    assert row[1] == pin["x"]
    assert row[4] == pytest.approx(pin["ratio"], rel=1e-9)


def test_sweep_report_csv_deterministic():
    rep1 = pv_range_scan(thue_morse_even(), INV_X, [101, 257], theta=0.6)
    rep2 = pv_range_scan(thue_morse_even(), INV_X, [101, 257], theta=0.6)
    assert rep1.to_csv() == rep2.to_csv()
    assert rep1.to_csv().splitlines()[0] == "q,x,y,abs,ratio,q1,bound"
