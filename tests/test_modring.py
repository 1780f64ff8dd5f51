import math
import random
from fractions import Fraction

import pytest

from autoexp import modring
from autoexp.budget import BudgetError
from autoexp.exact import Cyclotomic
from autoexp.modring import (FractionPhase, IntPoly, PhaseValues,
                             RationalFunction, add_linear, eval_phase,
                             factorize, is_prime, is_well_defined,
                             mod_inverse, parse_rational_function,
                             phase_fraction, phase_numerators, phase_values,
                             rational_gcd, reduces_to_quadratic_poly,
                             shift_scale, squarefree_cofactor)

X = IntPoly([0, 1])


def rf(num, den=(1,)):
    return RationalFunction(IntPoly(num), IntPoly(den))


# -- polynomials ------------------------------------------------------------


def test_intpoly_basics():
    p = IntPoly([1, 2, 3])
    assert p.degree == 2 and p(2) == 1 + 4 + 12
    assert IntPoly([0, 0]).is_zero() and IntPoly().degree == -1
    assert (p * IntPoly([0, 1])).coeffs == (0, 1, 2, 3)
    assert p.derivative().coeffs == (2, 6)
    assert str(IntPoly([1, -1, 2])) == "2X^2-X+1"


def test_intpoly_compose():
    p = IntPoly([0, 0, 1])  # X^2
    assert p.compose(IntPoly([1, 1])).coeffs == (1, 2, 1)  # (X+1)^2


# -- reduction --------------------------------------------------------------


def test_reduce_cancels_polynomial_factor():
    f = RationalFunction(IntPoly([0, 1, 1]), X)  # (X^2+X)/X
    assert f.num.coeffs == (1, 1) and f.den.coeffs == (1,)


def test_reduce_cancels_content():
    f = RationalFunction(IntPoly([2]), IntPoly([0, 4]))  # 2/(4X)
    assert f.num.coeffs == (1,) and f.den.coeffs == (0, 2)


def test_reduce_leaves_reduced_alone_and_is_idempotent():
    f = rf((1,), (0, 1))
    assert f.num.coeffs == (1,) and f.den.coeffs == (0, 1)
    rng = random.Random(7)
    for _ in range(50):
        p = IntPoly([rng.randrange(-6, 7) for _ in range(rng.randrange(1, 5))])
        q = IntPoly([rng.randrange(-6, 7) for _ in range(rng.randrange(1, 4))])
        if q.is_zero():
            continue
        f = RationalFunction(p, q)
        again = RationalFunction(f.num, f.den)
        assert again == f
        assert f.den.leading > 0


def test_reduction_work_counts_coefficient_growth(monkeypatch):
    # same degrees: over X + 1 the remainders stay +-1, over X + 2 they grow
    # to 2^30000, so only the first reduction fits a budget of 10^5
    monkeypatch.setenv("AUTOEXP_BUDGET", str(10 ** 5))
    f = rf([0] * 30000 + [1], [1, 1])
    assert f.num.degree == 30000 and f.den.coeffs == (1, 1)
    with pytest.raises(BudgetError, match="polynomial division"):
        rf([0] * 30000 + [1], [2, 1])
    with pytest.raises(BudgetError, match="polynomial division"):
        rf([0] * 30000 + [1], [1, 2])


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        rf((1,), (0,))


# -- parser -----------------------------------------------------------------


def test_parser_examples():
    assert parse_rational_function("1/X") == rf((1,), (0, 1))
    f = parse_rational_function("(X^3+2X)/(X^2-1)")
    assert f.num.coeffs == (0, 2, 0, 1) and f.den.coeffs == (-1, 0, 1)
    assert parse_rational_function("X^2/3") == rf((0, 0, 1), (3,))
    assert parse_rational_function("-2X+1") == rf((1, -2))
    assert parse_rational_function("2*X^2") == rf((0, 0, 2))
    assert parse_rational_function("--X") == rf((0, 1))
    assert parse_rational_function("+ - X") == rf((0, -1))
    assert parse_rational_function("2 * X ^ 3") == rf((0, 0, 0, 2))
    assert parse_rational_function("( X^2+1)") == rf((1, 0, 1))


def test_parser_rejects_garbage():
    for bad in ("", "X//X", "1/X/X", "X^", "((X))", "3*", "2**X", "3*+X",
                "*X", "X*2", "2X3", "X X", "1 2", "X^2^3", "(X))", "((X)", "X+",
                "-", "()", "(X/2)", "X^-1", "( X )"):
        with pytest.raises(ValueError):
            parse_rational_function(bad)


# -- moduli -----------------------------------------------------------------


def test_factorize_and_validation():
    assert factorize(600) == ((2, 3), (3, 1), (5, 2))
    assert factorize(15) == ((3, 1), (5, 1))
    big = 1000003 * 999983
    assert factorize(big) == ((999983, 1), (1000003, 1))
    with pytest.raises(ValueError):
        factorize(0)


def test_is_well_defined_never_factors_q(monkeypatch):
    def no_factoring(n):
        raise AssertionError("is_well_defined factored q")

    monkeypatch.setattr(modring, "factorize", no_factoring)
    assert is_well_defined(rf((1,), (0, 1)), (2 ** 61 - 1) * (2 ** 89 - 1))
    assert not is_well_defined(rf((1,), (0, 3)), 15)


def test_is_prime():
    assert is_prime(2) and is_prime(999983) and not is_prime(1)
    assert not is_prime(561)  # Carmichael
    # strong pseudoprimes to base 2 fail the Lucas test, strong Lucas
    # pseudoprimes fail the base-2 test, and squares are composite
    for n in (2047, 3277, 4033, 4681, 8321, 3215031751, 2152302898747,
              5459, 5777, 10877, 16109, 18971, 22499):
        assert not is_prime(n)
    assert not any(is_prime(p * p) for p in (53, 1009, 2 ** 61 - 1))


# strong pseudoprimes to all twelve prime bases 2..37, and their factors
PSP_37 = {318665857834031151167461: (399165290221, 798330580441),
          3317044064679887385961981: (1287836182261, 2575672364521)}


@pytest.mark.parametrize("n", sorted(PSP_37))
def test_strong_pseudoprimes_to_the_first_twelve_primes_are_composite(n):
    p1, p2 = PSP_37[n]
    assert p1 * p2 == n and is_prime(p1) and is_prime(p2)
    assert not is_prime(n)
    assert factorize(n) == ((p1, 1), (p2, 1))
    # at the hidden pole n = p1, 1/X has no phase mod n
    f = parse_rational_function("1/X")
    assert phase_numerators(f, n, [p1]).tolist() == [-1]
    assert phase_fraction(f, n, p1) is None


# -- inverses / CRT ---------------------------------------------------------


def test_mod_inverse():
    assert mod_inverse(2, 5) == 3
    with pytest.raises(ValueError):
        mod_inverse(3, 9)


# -- well-definedness and phases ---------------------------------------------


def test_is_well_defined():
    assert is_well_defined(parse_rational_function("1/X"), 15)
    assert not is_well_defined(parse_rational_function("1/(3X)"), 15)
    assert is_well_defined(parse_rational_function("X^2"), 60)


def test_phase_examples():
    f = parse_rational_function("1/X")
    assert phase_fraction(f, 5, 2) == Fraction(3, 5)
    assert phase_fraction(f, 5, 5) is None
    assert phase_fraction(f, 15, 2) == Fraction(8, 15)
    assert phase_fraction(f, 1, 123) == 0
    with pytest.raises(ValueError):
        phase_fraction(parse_rational_function("1/(3X)"), 15, 1)


def test_phase_periodicity_and_modulus():
    rng = random.Random(3)
    f = parse_rational_function("(X^2+1)/X")
    for _ in range(200):
        q = rng.randrange(2, 80)
        n = rng.randrange(0, 500)
        t1 = phase_fraction(f, q, n)
        assert t1 == phase_fraction(f, q, n + q)
        z = eval_phase(f, q, n)
        assert abs(abs(complex(z)) - (0.0 if t1 is None else 1.0)) < 1e-12


def test_phase_values_match_per_n_phases():
    # one phase_numerators pass against phase_fraction / eval_phase at each n
    import numpy as np
    rng = random.Random(29)
    cases = [("1/X", 101), ("1/X", 1009), ("(X^2+1)/X", 61),        # primes
             ("1/X", 3 ** 5), ("(X^3+2)/(X^2+1)", 2 ** 7),           # prime powers
             ("1/X", 45), ("(X^2+1)/X", 360), ("X^2/5", 1001),       # composite
             ("1/(X^2-2)", 2 ** 31 + 11),       # Python-int residues in phase_numerators
             ("X^2+1/X", 2 ** 55 + 3),         # past 2^53, a double rounds an int64
             ("X^3+1/X", 3 * 2 ** 61 + 1),     # 2 * numerator overflows int64
             ("(X^2+3)/X", 2 ** 64 + 13)]      # numerators past int64
    poles = 0
    for text, q in cases:
        f = parse_rational_function(text)
        g = FractionPhase(f, q)
        for _ in range(4):
            start = rng.randrange(0, 10 ** rng.randrange(1, 13))
            ns = np.arange(start, start + rng.randrange(1, 400))
            pv = phase_values(g, ns)
            assert pv.exact and pv.modulus == q
            want = [phase_fraction(f, q, int(n)) for n in ns]
            assert pv.values.tolist() == [-1 if t is None else t.numerator * (q // t.denominator)
                                          for t in want]
            # the float form rounds as the Cyclotomic of each value does, bit for bit
            z = [complex(eval_phase(f, q, int(n))) for n in ns]
            assert pv.to_complex().tolist() == z
            assert [g(int(n)) for n in ns[:25]] == [eval_phase(f, q, int(n)) for n in ns[:25]]
            poles += int((pv.values < 0).sum())
    assert poles > 0
    # a plain list mixing an int past 2^63 with a small one is read exactly
    # (numpy alone would make it float64)
    pv = phase_values(FractionPhase(parse_rational_function("1/X"), 101), [2 ** 63 + 1, 5])
    assert pv.values.tolist() == [pow(2 ** 63 + 1, -1, 101), pow(5, -1, 101)] == [10, 81]


@pytest.mark.parametrize("m1, m2", [(12, 18), (2 ** 31 + 11, 6), (3 * 2 ** 61 + 1, 5),
                                    (2 ** 64 + 13, 2 ** 64 + 13), (2 ** 64 + 13, 7)])
def test_phase_value_products_match_fractions(m1, m2):
    # g * e(a/D), as g * conj(e(-a/D)), and g * conj(h) against Fraction
    # arithmetic per element, on small int64 numerators whose common modulus
    # may pass int64
    import numpy as np
    rng = random.Random(m1 ^ m2)
    u = [rng.choice([-1, 0, 1, 5, rng.randrange(m1)]) for _ in range(40)]
    w = [rng.choice([-1, 0, 3, rng.randrange(m2)]) for _ in range(40)]
    a = [rng.randrange(-50, 50) for _ in range(40)]
    g = PhaseValues(m1, np.array(u, dtype=np.int64 if m1 < 2 ** 62 else object))
    h = PhaseValues(m2, np.array(w, dtype=np.int64 if m2 < 2 ** 62 else object))

    def numerators(pv, phases):
        return [-1 if t is None else int(t % 1 * pv.modulus) for t in phases]

    root = g.times_conj(PhaseValues(m2, -np.array(a, dtype=h.values.dtype) % m2))
    assert root.modulus % m1 == 0 and root.modulus % m2 == 0
    assert root.values.tolist() == numerators(root, [
        None if x < 0 else Fraction(x, m1) + Fraction(y, m2) for x, y in zip(u, a)])
    conj = g.times_conj(h)
    assert conj.values.tolist() == numerators(conj, [
        None if x < 0 or y < 0 else Fraction(x, m1) - Fraction(y, m2) for x, y in zip(u, w)])


def test_phase_values_classifies_plain_callables():
    import numpy as np
    ns = np.arange(5, 60)
    one = phase_values(lambda n: 1, ns)
    assert one.exact and one.modulus == 1 and not one.values.any()
    minus = phase_values(lambda n: -1, ns)      # -1 = e(1/2)
    assert minus.modulus == 2 and set(minus.values.tolist()) == {1}
    mixed = phase_values(lambda n: 0 if n % 3 == 0 else Cyclotomic.root_of_unity(n, 12), ns)
    assert mixed.exact and mixed.modulus == 12
    assert mixed.values.tolist() == [-1 if n % 3 == 0 else n % 12 for n in ns.tolist()]
    for g in (lambda n: Fraction(n % 5, 3), lambda n: 0.5 * n, lambda n: 1j ** n):
        pv = phase_values(g, ns)
        assert not pv.exact
        assert pv.to_complex().tolist() == [complex(g(int(n))) for n in ns]
    with pytest.raises(ValueError):
        FractionPhase(parse_rational_function("1/(3X)"), 15)


def test_phase_numerators_vector_matches_scalar():
    import numpy as np
    rng = random.Random(11)
    for _ in range(20):
        f = RationalFunction(
            IntPoly([rng.randrange(-5, 6) for _ in range(3)]),
            IntPoly([rng.randrange(-5, 6) for _ in range(2)] or [1]))
        if f.den.is_zero():
            continue
        q = rng.randrange(2, 200)
        if not is_well_defined(f, q):
            continue
        ns = np.arange(0, 150)
        vec = phase_numerators(f, q, ns)
        for n in range(0, 150, 17):
            t = phase_fraction(f, q, n)
            if t is None:
                assert vec[n] == -1
            else:
                assert Fraction(int(vec[n]), q) == t


def test_phase_numerators_evaluate_p_and_q_once(monkeypatch):
    # one pass mod q whatever its factorization: 30030 has six primes, and
    # a pass per prime power would evaluate twelve polynomials
    import numpy as np
    calls = []
    real = IntPoly.eval_mod_vec

    def counted(self, ns, m):
        calls.append(m)
        return real(self, ns, m)
    monkeypatch.setattr(IntPoly, "eval_mod_vec", counted)
    f = parse_rational_function("(X^3+2)/(X^2+1)")
    phase_numerators(f, 30030, np.arange(500))
    assert calls == [30030, 30030]


@pytest.mark.parametrize("text", ["X^2/3", "5X^3/7", "X^2-4X"])
@pytest.mark.parametrize("q", [1, 1000, 101 * 103, 2 ** 31 + 11, 2 ** 64 + 13])
def test_constant_denominator_is_inverted_once(monkeypatch, text, q):
    # P(n) times one scalar inverse of the constant Q, no poles: the same
    # numerators as the per-n CRT formula, int64 and Python-int residues
    import numpy as np
    f = parse_rational_function(text)
    assert f.den.degree == 0
    rng = random.Random(q)
    ns = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(60)] + [2 ** 64 + 5, -2 ** 70]
    want = [phase_fraction(f, q, n) for n in ns]
    calls = []
    real = IntPoly.eval_mod_vec

    def counted(self, ns, m):
        calls.append(self)
        return real(self, ns, m)
    monkeypatch.setattr(IntPoly, "eval_mod_vec", counted)
    got = phase_numerators(f, q, ns)
    assert calls == [f.num]     # Q is not evaluated per n
    assert [Fraction(int(v), q) for v in got] == want
    # int64 where every numerator fits, as for any other fraction
    assert got.dtype == (np.int64 if max(got.tolist()) < 2 ** 62 else object)


@pytest.mark.parametrize("q", [6, 14, 3 * (2 ** 31 + 11)])
def test_constant_denominator_sharing_a_prime_with_q_is_rejected(q):
    # content(Q) = 3 or 7 shares a prime with q: f is not well-defined mod q,
    # so every n would be a pole; both formulas refuse it
    import numpy as np
    for text in ("X^2/3", "5X^3/7"):
        f = parse_rational_function(text)
        if math.gcd(q, f.den.leading) == 1:
            continue
        with pytest.raises(ValueError, match="not well-defined"):
            phase_numerators(f, q, np.arange(5))
        with pytest.raises(ValueError, match="not well-defined"):
            phase_fraction(f, q, 1)


@pytest.mark.parametrize("q", [101, 101 * 103])
def test_sparse_fraction_against_power_oracle(q):
    # X^100000/(X+1) skips its 99,999 zero coefficients; the oracle is
    # n^100000 (n + 1)^-1 mod q by pow, a pole where n + 1 shares a prime with q
    import numpy as np
    ns = np.arange(0, 2000, 7)
    got = phase_numerators(parse_rational_function("X^100000/(X+1)"), q, ns)
    want = [-1 if math.gcd(n + 1, q) > 1 else pow(n, 100000, q) * pow(n + 1, -1, q) % q
            for n in ns.tolist()]
    assert got.tolist() == want
    assert -1 in want


def test_eval_mod_vec_with_zero_runs_matches_eval_mod():
    import numpy as np
    rng = random.Random(5)
    for _ in range(200):
        poly = IntPoly([rng.choice([0, 0, 0, rng.randrange(-50, 50)])
                        for _ in range(rng.randrange(0, 40))])
        m = rng.choice([1, 2, 97, 360, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 + 13])
        ns = [rng.randrange(0, 10 ** 6) for _ in range(20)]
        vec = poly.eval_mod_vec(np.array(ns, dtype=np.int64 if m < 2 ** 31 else object), m)
        assert vec.tolist() == [poly.eval_mod(n, m) for n in ns], (poly, m)


def test_crt_direct_formula_agreement_bulk():
    # exact agreement of the local-factor product with the direct formula
    from autoexp.presets import run_crt_consistency
    stats = run_crt_consistency(trials=10000, q_max=10000, seed=99)
    assert stats["checked"] == 10000


def test_quadratic_phase_identity():
    # phase(n+r) - phase(n) = u*inv(v)*(2nr+r^2)/q for f = (u/v) X^2
    for (u, v, q) in ((1, 1, 16), (1, 3, 101), (5, 7, 36)):
        f = RationalFunction(IntPoly([0, 0, u]), IntPoly([v]))
        inv_v = mod_inverse(v, q)
        for n in range(0, 40, 7):
            for r in (1, 2, 5):
                lhs = (phase_fraction(f, q, n + r) - phase_fraction(f, q, n)) % 1
                rhs = Fraction(u * inv_v * (2 * n * r + r * r) % q, q)
                assert lhs == rhs


# -- quadratic-reduction set and cofactors ------------------------------------


def test_reduces_to_quadratic():
    assert reduces_to_quadratic_poly(parse_rational_function("X^2"), 7)
    assert not reduces_to_quadratic_poly(parse_rational_function("1/X"), 7)
    f = RationalFunction(IntPoly([0, -1, 0, 1]), X)  # (X^3-X)/X -> X^2-1
    for p in (2, 3, 5, 11):
        assert reduces_to_quadratic_poly(f, p)
    # a constant has degree <= 2
    assert reduces_to_quadratic_poly(parse_rational_function("5"), 7)
    # X^3 falls to lower degree for no p (leading coefficient 1)
    assert not reduces_to_quadratic_poly(parse_rational_function("X^3"), 5)


def test_squarefree_cofactor():
    f = parse_rational_function("1/X")
    assert squarefree_cofactor(f, 15, 2) == 15
    assert squarefree_cofactor(f, 12, 2) == 3
    assert squarefree_cofactor(parse_rational_function("X^2"), 105, 2) == 1


def test_rational_gcd():
    assert rational_gcd(15, rf((0,))) == 15
    p = 13
    assert rational_gcd(p, rf((0, p))) == p
    # f = 1/X: f'(X+r) - f'(X) + ell stays nonzero mod p when p does not divide 2r
    f = parse_rational_function("1/X")
    d = f.derivative()
    for r in (1, 2):
        for ell in (0, 1, 3):
            gdiff = d.shift(r) - d + Fraction(ell)
            for p in (3, 5, 7, 11, 13):
                if (2 * r) % p == 0:
                    continue
                assert rational_gcd(p, gdiff) == 1
    with pytest.raises(ValueError, match="modulus must be squarefree"):
        rational_gcd(12, rf((1,)))


# -- symbolic operations ------------------------------------------------------


def test_derivative():
    f = parse_rational_function("1/X")
    assert f.derivative() == rf((-1,), (0, 0, 1))


def test_shift_scale_examples():
    sq = parse_rational_function("X^2")
    assert shift_scale(sq, 0, 1, 1) == rf((1, 2))  # 2X+1
    f = parse_rational_function("1/X")
    for r in (1, 3, 7):
        assert shift_scale(f, 0, 1, r) == rf((-r,), (0, r, 1))


def test_add_linear():
    f = parse_rational_function("1/X")
    g = add_linear(f, 2)  # (2X^2+1)/X
    assert g == rf((1, 0, 2), (0, 1))


def test_derivative_commutes_with_reduce():
    rng = random.Random(5)
    for _ in range(40):
        p = IntPoly([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 4))])
        q = IntPoly([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 3))])
        if q.is_zero():
            continue
        raw_num = p * IntPoly([2])
        raw_den = q * IntPoly([2])
        assert RationalFunction(raw_num, raw_den).derivative() == \
            RationalFunction(p, q).derivative()


def degree_sum(f):
    return max(f.num.degree, 0) + f.den.degree


def test_shift_scale_degree_bound():
    rng = random.Random(9)
    for _ in range(30):
        p = IntPoly([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 4))])
        q = IntPoly([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 3))])
        if q.is_zero():
            continue
        f = RationalFunction(p, q)
        g = shift_scale(f, rng.randrange(3), rng.randrange(1, 3), rng.randrange(1, 4))
        assert degree_sum(g) <= 2 * degree_sum(f)
