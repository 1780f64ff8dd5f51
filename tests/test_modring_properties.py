"""Property tests: the integer Euclid of modring against sympy, the printer
against the parser, the parser against the term grammar, and the vectorized
phase pass against phase_fraction.

sympy is a test-only reference.  Pairs (P, Q) often share a planted factor
G over Z, or a factor that only appears mod p (G and G + p*K), so both the
Z and the F_p remainder sequences run past their first step.
"""

import math
import random
import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from autoexp.budget import BudgetError  # noqa: E402
from autoexp.modring import (IntPoly, RationalFunction, _prem,  # noqa: E402
                             is_well_defined, parse_rational_function, phase_fraction,
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


@given(pairs())
def test_prem_is_sympy_prem(pq):
    # lc(Q)^(deg P - deg Q + 1) * P mod Q, the convention of sympy's prem
    num, den = pq
    rem, _left = _prem(list(num.coeffs), list(den.coeffs))
    assert [Fraction(c) for c in rem] == coeffs_of(sympy.prem(sym(num), sym(den), SYM_X))


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


@given(pairs(), st.sampled_from([1, 12, 101, 3 ** 5, 360, 30030, 2 ** 31 - 2,
                                  2 ** 31 + 11, 3 * 2 ** 61 + 1, 2 ** 64 + 13]),
       st.lists(big_n, min_size=1, max_size=12))
def test_phase_numerators_match_phase_fraction(pq, q, ns):
    # one pass mod q against the product of prime-power local factors, on
    # moduli with six primes (30030) and seven just below the int64 path's
    # limit 2^31 (2^31 - 2 = 2 * 3^2 * 7 * 11 * 31 * 151 * 331); a plain list,
    # as a caller would pass it: ints past 2^63 beside small ones
    f = RationalFunction(*pq)
    if not is_well_defined(f, q):
        return
    want = [phase_fraction(f, q, n) for n in ns]
    got = phase_numerators(f, q, ns)
    assert got.tolist() == [-1 if t is None else t.numerator * (q // t.denominator)
                            for t in want]
    # int64 where the numerators fit, Python ints beyond
    assert (got.dtype == object) == (max(got.tolist()) >= 2 ** 62)


# -- the fraction grammar ---------------------------------------------------

blank = st.sampled_from(["", " ", "\t"])


@st.composite
def term(draw, first):
    """One term as text, with the exponent and the coefficient it stands for."""
    signs = draw(st.lists(st.sampled_from("+-"), min_size=0 if first else 1, max_size=3))
    coeff = draw(st.none() | st.integers(0, 99))
    has_x = coeff is None or draw(st.booleans())
    power = draw(st.none() | st.integers(0, 12)) if has_x else None
    tokens = signs + ([] if coeff is None else [str(coeff)])
    if has_x:
        tokens += (["*"] if coeff is not None and draw(st.booleans()) else []) + ["X"]
        tokens += [] if power is None else ["^", str(power)]
    text = "".join(draw(blank) + tok for tok in tokens)
    e = (1 if power is None else power) if has_x else 0
    return text, e, (-1) ** signs.count("-") * (1 if coeff is None else coeff)


@st.composite
def side(draw):
    """A sum of one to five terms, maybe inside one pair of parentheses, as
    text and as the polynomial summed term by term."""
    terms = [draw(term(i == 0)) for i in range(draw(st.integers(1, 5)))]
    text = "".join(t for t, _, _ in terms)
    if draw(st.booleans()):
        text = "(" + text + ")"
    coeffs = {}
    for _, e, c in terms:
        coeffs[e] = coeffs.get(e, 0) + c
    return draw(blank) + text, IntPoly([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


@st.composite
def fraction(draw):
    """Text with at most one '/', and its numerator and denominator."""
    text, num = draw(side())
    if draw(st.booleans()):
        return text, num, IntPoly([1])
    den_text, den = draw(side())
    return text + draw(blank) + "/" + den_text, num, den


@given(fraction())
def test_parser_reads_the_term_grammar(case):
    text, num, den = case
    if den.is_zero():
        with pytest.raises(ValueError):
            parse_rational_function(text)
        return
    assert parse_rational_function(text) == RationalFunction(num, den)


@given(st.text(alphabet="0123456789X^+-*()/ \t", max_size=24))
def test_any_token_text_parses_or_is_a_value_error(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("AUTOEXP_BUDGET", "1000")
        try:
            parse_rational_function(text)
        except ValueError:
            pass
        except BudgetError:
            # only a term of degree past the budget may stop the parser
            assert any(int(d) >= 1000 for d in re.findall(r"\^\s*(\d+)", text))


def test_is_prime_is_sympy_isprime():
    # seeded odd n of 10 to 200 bits, and products of two primes of 5 to 100
    # bits
    from autoexp.modring import is_prime
    rng = random.Random(26)
    for _ in range(400):
        n = rng.getrandbits(rng.randrange(10, 201)) | 1
        assert is_prime(n) == sympy.isprime(n), n
    for _ in range(200):
        p, q = (sympy.nextprime(rng.getrandbits(rng.randrange(5, 101))) for _ in "pq")
        assert [is_prime(v) for v in (p, q, p * q)] == [sympy.isprime(v) for v in (p, q, p * q)]
    for n in sympy.primerange(2, 3000):
        assert is_prime(n)
    assert sum(map(is_prime, range(3000))) == sympy.primepi(3000)


def test_factorize_is_sympy_factorint():
    # seeded products of 1 to 5 primes from [53, 10^4), repeats allowed, times
    # 1, 1000003 or 2^61 - 1: past 47 every composite cofactor goes to Pollard
    # rho.  1093^2 and 3511^2 are base-2 Fermat pseudoprimes, which is_prime's
    # square check rejects and rho splits
    from autoexp.modring import factorize
    rng = random.Random(29)
    primes = list(sympy.primerange(53, 10 ** 4))
    ns = [53 ** 3, 1093 ** 2, 3511 ** 2]
    for _ in range(500):
        n = math.prod(rng.choice(primes) for _ in range(rng.randrange(1, 6)))
        ns.append(n * rng.choice((1, 1000003, 2 ** 61 - 1)))
    for n in ns:
        assert factorize(n) == tuple(sorted(sympy.factorint(n).items())), n
