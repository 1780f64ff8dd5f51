import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from autoexp import expsums
from autoexp.exact import Cyclotomic, as_exact
from autoexp.modring import parse_rational_function


def test_rational_embedding():
    assert Cyclotomic.from_rational(3) + Cyclotomic.from_rational(-3) == 0
    assert Cyclotomic.from_rational(Fraction(1, 2)) * 2 == 1
    assert Cyclotomic.zero().is_zero()
    assert not Cyclotomic.from_rational(1).is_zero()


def test_half_turn_canonicalization():
    assert Cyclotomic.from_phase(Fraction(1, 2)) == Cyclotomic.from_rational(-1)
    # e(3/4) = -e(1/4)
    a = Cyclotomic.from_phase(Fraction(3, 4))
    b = Cyclotomic.from_phase(Fraction(1, 4)) * Fraction(-1)
    assert a == b
    # product of conjugate phases is 1
    t = Fraction(2, 7)
    assert Cyclotomic.from_phase(t) * Cyclotomic.from_phase(-t) == 1


def test_conjugate_and_abs():
    z = Cyclotomic.from_phase(Fraction(1, 3)) * 2 + Cyclotomic.from_rational(1)
    w = z * z.conjugate()
    assert abs(abs(z) ** 2 - complex(w).real) < 1e-12
    assert abs(complex(w).imag) < 1e-12


def test_root_of_unity_orders():
    for m in (1, 2, 3, 4, 6, 12):
        z = Cyclotomic.root_of_unity(1, m)
        prod = Cyclotomic.from_rational(1)
        for _ in range(m):
            prod = prod * z
        assert prod == 1


def test_full_orbit_sums_to_moebius():
    # sum of primitive m-th roots is mu(m)
    for m, mu in ((5, -1), (6, 1), (8, 0), (9, 0), (12, 0), (15, 1)):
        total = Cyclotomic.zero()
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                total = total + Cyclotomic.root_of_unity(a, m)
        assert total.exact_rational() == mu


def test_exact_rational_counts_backed():
    p = 13
    counts = np.ones(p, dtype=np.int64)
    counts[0] = 0
    z = Cyclotomic.from_int_histogram(p, counts)
    assert z.exact_rational() == -1
    assert abs(complex(z) - (-1)) < 1e-12
    uniform = Cyclotomic.from_int_histogram(p, np.full(p, 4, dtype=np.int64))
    assert uniform.exact_rational() == 0


def test_exact_rational_does_not_depend_on_construction(monkeypatch):
    # every histogram over moduli 1..10 with counts 0..2, built once along the
    # complete_sum route (phases -> dense count array) and once from the
    # counts and their exponents in reverse order
    hist = {}
    monkeypatch.setattr(expsums, "phase_numerators",
                        lambda f, q, ns: np.repeat(ns, hist["counts"]))
    f = parse_rational_function("X")
    mismatches = []
    for m in range(1, 11):
        down = np.arange(m - 1, -1, -1)
        for counts in itertools.product(range(3), repeat=m):
            hist["counts"] = counts
            via_counts = expsums.complete_sum(f, m).exact_rational()
            via_reversed = Cyclotomic.from_int_histogram(
                m, np.array(counts[::-1]), exps=down).exact_rational()
            if via_counts != via_reversed:
                mismatches.append((counts, via_counts, via_reversed))
    assert mismatches == []


def test_exact_rational_undecided_returns_none():
    assert Cyclotomic.from_phase(Fraction(1, 3)).exact_rational() is None


def test_to_complex_matches_cmath():
    rng = random.Random(1)
    for _ in range(50):
        terms = [(Fraction(rng.randrange(0, 60), 60), Fraction(rng.randrange(-5, 6)))
                 for _ in range(rng.randrange(1, 8))]
        z = Cyclotomic.from_terms(terms)
        direct = sum(float(c) * cmath.exp(2j * cmath.pi * float(t)) for t, c in terms)
        assert abs(complex(z) - direct) < 1e-10


def test_to_complex_rounds_rationals_past_2_to_53_correctly():
    # numpy's int64 division first rounds both sides to doubles; a Python int
    # division rounds the quotient once
    rng = random.Random(15)
    for _ in range(2000):
        n, d = rng.randrange(2 ** 53, 2 ** 62), rng.randrange(2 ** 53, 2 ** 62)
        for c in (Fraction(n, d), Fraction(-n, d), Fraction(n, 3), Fraction(3, d)):
            assert Cyclotomic.from_rational(c).to_complex() == c.numerator / c.denominator
            # times e(1/4) = i: sin(pi/2) is 1.0, so the imaginary part is w exactly
            assert (Cyclotomic.from_rational(c) * Cyclotomic.from_phase(Fraction(1, 4))
                    ).to_complex().imag == c.numerator / c.denominator


def test_histogram_construction():
    z = Cyclotomic.from_int_histogram(6, [2, 0, 0, 1])
    # e(3/6) = -1, so the value is 2 - 1 = 1
    assert z.exact_rational() == 1


def test_as_exact():
    assert as_exact(2) == Cyclotomic.from_rational(2)
    assert as_exact(Fraction(1, 3)) is not None
    assert as_exact(0.5) is None
    assert as_exact(1 + 2j) is None


def test_unit_phase_extraction():
    assert Cyclotomic.from_phase(Fraction(2, 5)).unit_phase() == Fraction(2, 5)
    # -e(1/5) is e(1/5 + 1/2) = e(7/10)
    z = Cyclotomic.from_phase(Fraction(1, 5)) * Fraction(-1)
    assert z.unit_phase() == Fraction(7, 10)
    assert Cyclotomic.zero().unit_phase() is None
    assert (Cyclotomic.from_rational(1) + 1).unit_phase() is None
