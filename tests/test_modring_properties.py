"""Property tests: the integer Euclid of modring against sympy, the printer
against the parser, and the vectorized phase pass against phase_fraction.

sympy is a test-only reference.  Pairs (P, Q) often share a planted factor
G over Z, or a factor that only appears mod p (G and G + p*K), so both the
Z and the F_p remainder sequences run past their first step.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from autoexp.modring import (IntPoly, RationalFunction, is_well_defined,  # noqa: E402
                             parse_rational_function, phase_fraction,
                             phase_numerators, reduce_mod_p)

SYM_X = sympy.Symbol("X")
PRIMES = (2, 3, 5, 7, 13, 101)

small = st.integers(-9, 9)
coeffs = st.one_of(small, small, st.integers(-10 ** 15, 10 ** 15))
polys = st.lists(coeffs, max_size=4).map(IntPoly)


@st.composite
def pairs(draw, p=None):
    """(P, Q) with Q nonzero; P = A*G and Q = B*G' where G' is G, or G + p*K
    when a prime p is given (a common factor mod p only)."""
    a, b = draw(polys), draw(polys)
    g = draw(st.lists(small, min_size=1, max_size=3).map(IntPoly))
    if draw(st.booleans()) or g.is_zero():
        g = IntPoly([1])
    g2 = g + draw(polys) * p if p is not None and draw(st.booleans()) else g
    num, den = a * g, b * g2
    if den.is_zero():
        den = g2 if not g2.is_zero() else IntPoly([1])
    return num, den


def sym(poly):
    return sum(c * SYM_X ** i for i, c in enumerate(poly.coeffs))


def coeffs_of(expr):
    """Rational coefficients of a polynomial in X, constant first, trimmed."""
    cs = [Fraction(int(c.p), int(c.q))
          for c in reversed(sympy.Poly(expr, SYM_X, domain="QQ").all_coeffs())]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


@given(pairs())
def test_rational_function_is_sympy_cancel(pq):
    num, den = pq
    f = RationalFunction(num, den)
    n_cs, d_cs = map(coeffs_of, sympy.fraction(sympy.cancel(sym(num) / sym(den))))
    # sympy leaves the content and the sign free: clear denominators, then
    # divide out the integer content with the sign of Q's leading coefficient
    lcm = math.lcm(*(c.denominator for c in n_cs + d_cs))
    n_cs, d_cs = [int(c * lcm) for c in n_cs], [int(c * lcm) for c in d_cs]
    c = math.gcd(*n_cs, *d_cs) * (1 if d_cs[-1] > 0 else -1)
    assert list(f.num.coeffs) == [x // c for x in n_cs]
    assert list(f.den.coeffs) == [x // c for x in d_cs]


@st.composite
def reduced_mod_p(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, RationalFunction(*draw(pairs(p)))


@given(reduced_mod_p())
def test_reduce_mod_p_is_sympy_gcd_over_fp(case):
    p, f = case
    pp = sympy.Poly(sym(f.num), SYM_X, modulus=p)
    qq = sympy.Poly(sym(f.den), SYM_X, modulus=p)
    if qq.is_zero:
        with pytest.raises(ValueError):
            reduce_mod_p(f, p)
        return
    if pp.is_zero:
        assert reduce_mod_p(f, p) == ([], [1])
        return
    g = pp.gcd(qq)
    p1, q1 = pp.exquo(g), qq.exquo(g)
    inv = pow(int(q1.LC()) % p, -1, p)
    want = tuple([int(c) * inv % p for c in reversed(r.all_coeffs())] for r in (p1, q1))
    assert reduce_mod_p(f, p) == want


@given(pairs())
def test_printed_fraction_parses_back(pq):
    f = RationalFunction(*pq)
    assert parse_rational_function(str(f)) == f


big_n = st.one_of(st.integers(0, 10 ** 4), st.integers(2 ** 62, 2 ** 70))


@given(pairs(), st.sampled_from([1, 12, 101, 3 ** 5, 2 ** 31 + 11, 3 * 2 ** 61 + 1,
                                  2 ** 64 + 13]),
       st.lists(big_n, min_size=1, max_size=12))
def test_phase_numerators_match_phase_fraction(pq, q, ns):
    # a plain list, as a caller would pass it: ints past 2^63 beside small ones
    f = RationalFunction(*pq)
    if not is_well_defined(f, q):
        return
    want = [phase_fraction(f, q, n) for n in ns]
    got = phase_numerators(f, q, ns)
    assert got.tolist() == [-1 if t is None else t.numerator * (q // t.denominator)
                            for t in want]
    # int64 where the numerators fit, Python ints beyond
    assert (got.dtype == object) == (max(got.tolist()) >= 2 ** 62)
