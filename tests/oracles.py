"""Naive, independent reference computations used to pin fixture values.

Everything here is deliberately written the dumb way: digit strings via
format(n, 'b'), inverses via pow(n, -1, q), plain float sums, np.convolve
for exact integer convolutions.  Nothing imports the autoexp package.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

TWO_PI_I = 2j * math.pi


def evil(n):
    """True iff the binary digit sum of n is even."""
    return bin(n).count("1") % 2 == 0


def tm_sign(n):
    return -1 if bin(n).count("1") % 2 else 1


def e(phase_num, modulus):
    return cmath.exp(TWO_PI_I * phase_num / modulus)


def inv_phase(n, q):
    """Phase numerator of e_q(1/n), or None at a pole."""
    if math.gcd(n, q) != 1:
        return None
    return pow(n, -1, q)


# ---------------------------------------------------------------------------
# incomplete sums


def weighted_tm_inv_sum(q, y, x):
    """sum over y < n <= y+x, n evil, of e((1/n mod q)/q)."""
    total = 0.0 + 0.0j
    for n in range(y + 1, y + x + 1):
        if not evil(n):
            continue
        a = inv_phase(n, q)
        if a is None:
            continue
        total += e(a, q)
    return total


def correlation_inv(q, x, y, h, s, a):
    """sum over y < n <= y+x, n = a mod s, of g(n) * conj(g(n+h)),
    g(n) = e_q(1/n)."""
    total = 0.0 + 0.0j
    for n in range(y + 1, y + x + 1):
        if n % s != a % s:
            continue
        u = inv_phase(n, q)
        v = inv_phase(n + h, q)
        if u is None or v is None:
            continue
        total += e(u, q) * e(v, q).conjugate()
    return total


def difference_inv_sum(q, r, y, x, s, a):
    """sum of e_q(g(n)) over the progression, g = 1/(X+r) - 1/X = -r/(X^2+rX)."""
    total = 0.0 + 0.0j
    for n in range(y + 1, y + x + 1):
        if n % s != a % s:
            continue
        den = n * n + r * n
        if math.gcd(den, q) != 1:
            continue
        total += e((-r) * pow(den, -1, q) % q, q)
    return total


# ---------------------------------------------------------------------------
# block_11 synchronization failures


_B11 = {
    (0, "0"): 0, (0, "1"): 1,
    (1, "0"): 0, (1, "1"): 2,
    (2, "0"): 2, (2, "1"): 2,
}


def b11_walk(state, word):
    for ch in word:
        state = _B11[(state, ch)]
    return state


def sync_failure_counts_b11(x, lams):
    """count of n in (0, x] where some start state reads n and n-truncated
    to different end states, for each lambda in lams."""
    full = []
    for n in range(1, x + 1):
        w = format(n, "b")
        full.append((b11_walk(0, w), b11_walk(1, w), b11_walk(2, w)))
    out = {}
    for lam in lams:
        mod = 2 ** lam
        cnt = 0
        for n in range(1, x + 1):
            m = n % mod
            wt = format(m, "b") if m else ""
            te = (b11_walk(0, wt), b11_walk(1, wt), b11_walk(2, wt))
            if te != full[n - 1]:
                cnt += 1
        out[lam] = cnt
    return out


def sync_failures_by_walks(dfao, y, x, lams):
    """{lam: #{n in (y, y+x] : some start state reads (n)_k and (n mod k^lam)_k
    into different states}}, by one digit walk per n and start state.  Reads
    only dfao.base and the transition table."""
    k, trans = dfao.base, dfao.transitions.tolist()

    def walk(state, n):
        digits = []
        while n:
            n, d = divmod(n, k)
            digits.append(d)
        for d in reversed(digits):
            state = trans[state][d]
        return state

    starts = range(len(trans))
    full = [[walk(s, n) for s in starts] for n in range(y + 1, y + x + 1)]
    return {lam: sum(row != [walk(s, n % k ** lam) for s in starts]
                     for n, row in zip(range(y + 1, y + x + 1), full))
            for lam in lams}


# ---------------------------------------------------------------------------
# carry-property violations for the Thue-Morse sign cocycle


def carry_violation_counts_tm(lam, alpha, rhos, rs):
    """count of l in [0, 2^lam) admitting (n1, n2) in [0, 2^alpha)^2 with
    f(B)f(A) != f_t(B)f_t(A), f = tm_sign, f_t = tm_sign of (arg mod 2^(alpha+rho)),
    A = l*2^alpha + n1 + r, B = A + n2."""
    ka = 2 ** alpha
    out = {}
    for r in rs:
        for rho in rhos:
            mod = 2 ** (alpha + rho)
            cnt = 0
            for l in range(2 ** lam):
                base = l * ka + r
                bad = False
                for n1 in range(ka):
                    A = base + n1
                    fa = tm_sign(A) * tm_sign(A % mod)
                    for n2 in range(ka):
                        B = A + n2
                        if tm_sign(B) * tm_sign(B % mod) != fa:
                            bad = True
                            break
                    if bad:
                        break
                cnt += bad
            out[(r, rho)] = cnt
    return out


def cocycle_phase(tr, state, digits):
    """Phase in [0, 1) of the ordered product of the edge weights of the
    transducer tr along digits read from state: one step per digit through
    the plain arrays tr.weights and tr.dfao.transitions."""
    weights, trans = tr.weights.tolist(), tr.dfao.transitions.tolist()
    total = 0
    for d in digits:
        total += weights[state][d]
        state = trans[state][d]
    return Fraction(total % tr.weight_order, tr.weight_order)


def value_phase(tr, n):
    """Phase of the cocycle T(n): cocycle_phase along the base-k digits of n,
    most significant first, from tr.dfao.initial (n = 0 reads nothing)."""
    digits = []
    while n:
        n, d = divmod(n, tr.dfao.base)
        digits.append(d)
    return cocycle_phase(tr, tr.dfao.initial, digits[::-1])


def carry_violations_by_pairs(tr, lam, alpha, rho, r):
    """count of l in [0, k^lam) admitting (n1, n2) in [0, k^alpha)^2 with
    T(B)conj(T(A)) != T(B mod m)conj(T(A mod m)), m = k^(alpha+rho),
    A = l*k^alpha + n1 + r, B = A + n2, for any transducer tr: T(n) is
    e(value_phase(tr, n)), one digit walk per n, and no table is built."""
    k = tr.dfao.base
    ka, mod = k ** alpha, k ** (alpha + rho)
    phase = {}

    def T(n):
        if n not in phase:
            phase[n] = value_phase(tr, n)
        return phase[n]

    cnt = 0
    for l in range(k ** lam):
        bad = False
        for n1 in range(ka):
            A = l * ka + n1 + r
            for n2 in range(ka):
                B = A + n2
                if (T(B) - T(A) - T(B % mod) + T(A % mod)) % 1 != 0:
                    bad = True
                    break
            if bad:
                break
        cnt += bad
    return cnt


# ---------------------------------------------------------------------------
# congruence counting (S = evil numbers, f_j = 1/X)


def histogram_evil_inv(q):
    """counts[m] = #{n in [1,q] evil, gcd(n,q)=1, 1/n = m mod q}, support size."""
    h = [0] * q
    support = 0
    for n in range(1, q + 1):
        if not evil(n) or math.gcd(n, q) != 1:
            continue
        h[pow(n, -1, q)] += 1
        support += 1
    return h, support


def cyclic_convolve_int(h1, h2):
    q = len(h1)
    lin = np.convolve(np.asarray(h1, dtype=np.int64), np.asarray(h2, dtype=np.int64))
    out = lin[:q].copy()
    out[: len(lin) - q] += lin[q:]
    return [int(v) for v in out]


def congruence_count_evil_inv(q, m, r=3):
    h, support = histogram_evil_inv(q)
    conv = h
    for _ in range(r - 1):
        conv = cyclic_convolve_int(conv, h)
    return conv[m % q], support


def brute_congruence_evil_inv(q, m, r=3):
    vals = [pow(n, -1, q) for n in range(1, q + 1)
            if evil(n) and math.gcd(n, q) == 1]
    if r != 3:
        raise ValueError("oracle only does r=3")
    cnt = 0
    for a in vals:
        for b in vals:
            ab = a + b
            for c in vals:
                if (ab + c) % q == m:
                    cnt += 1
    return cnt


# ---------------------------------------------------------------------------
# exact root-of-unity sums as folded dicts (the reference normal form)

HALF = Fraction(1, 2)


def folded_terms(pairs):
    """sum of c * e(t) over (t, c) as {phase in [0, 1/2): nonzero Fraction},
    folding e(t + 1/2) = -e(t) one term at a time."""
    out = {}
    for t, c in pairs:
        t, c = Fraction(t) % 1, Fraction(c)
        if t >= HALF:
            t, c = t - HALF, -c
        new = out.get(t, 0) + c
        if new:
            out[t] = new
        else:
            out.pop(t, None)
    return out


def folded_product(x, y):
    return folded_terms((t1 + t2, c1 * c2)
                        for t1, c1 in x.items() for t2, c2 in y.items())


def folded_conjugate(x):
    return folded_terms((-t, c) for t, c in x.items())


def folded_complex(x):
    return sum(float(c) * cmath.exp(TWO_PI_I * float(t)) for t, c in x.items())


def folded_unit_phase(x):
    """t when the folded dict is exactly e(t) (or -e(t) = e(t + 1/2))."""
    if len(x) != 1:
        return None
    (t, c), = x.items()
    return {1: t, -1: t + HALF}.get(c)


def _prime_factors(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def folded_exact_rational(x):
    """Unfold negative coefficients back to t + 1/2, then sum each Galois
    orbit {a : gcd(a, L) = d} as mu(L/d) when its coefficients are equal and
    it is complete; None when some orbit is not."""
    unfolded = {}
    for t, c in x.items():
        if c < 0:
            t, c = (t + HALF) % 1, -c
        unfolded[t] = c
    lcm = 1
    for t in unfolded:
        lcm = lcm * t.denominator // math.gcd(lcm, t.denominator)
    orbits = {}
    for t, c in unfolded.items():
        a = t.numerator * (lcm // t.denominator)
        orbits.setdefault(math.gcd(a, lcm), []).append(c)
    total = Fraction(0)
    for d, coeffs in orbits.items():
        f = _prime_factors(lcm // d)
        phi = math.prod(p ** (e - 1) * (p - 1) for p, e in f.items())
        if len(coeffs) != phi or any(c != coeffs[0] for c in coeffs):
            return None
        if all(e == 1 for e in f.values()):
            total += coeffs[0] * (-1) ** len(f)
    return total


# ---------------------------------------------------------------------------
# the matrix van der Corput inequality


def vdc_sides(Z, R, k):
    """(lhs, rhs) of ||sum Z(n)||_F^2 <= ((x + k(R-1) + 1)/R) *
    sum_{|r|<R} (1-|r|/R) * Re sum_n tr(Z(n+kr)^H Z(n)), every shift r from
    -(R-1) to R-1 read on its own."""
    arr = np.asarray(Z, dtype=complex)
    x = arr.shape[0]
    lhs = float(np.linalg.norm(arr.sum(axis=0)) ** 2)
    total = 0.0
    r_max = int(math.ceil(R)) - 1
    for r in range(-r_max, r_max + 1):
        shift = k * r
        if abs(shift) >= x:
            continue
        if shift >= 0:
            corr = np.sum(np.conj(arr[shift:]) * arr[:x - shift])
        else:
            corr = np.sum(np.conj(arr[:x + shift]) * arr[-shift:])
        total += (1.0 - abs(r) / R) * corr.real
    return lhs, (x + k * (R - 1) + 1) / R * total
