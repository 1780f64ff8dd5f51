"""Digit cocycles, the matrix van der Corput inequality, carry-property
violation counting, and the exact stage decomposition of weighted sums into
two-point correlations.

A ScalarTransducer is a synchronizing base-k automaton whose edges carry
exact roots of unity; the product of edge weights along the digit word of n
is a unit-modulus cocycle T.  decompose_weyl replays the regrouping of a
weighted sum S_0 through stages S_1..S_5 by direct enumeration and verifies
every regrouping identity exactly, returning the synchronization- and
carry-failure sets that bound the error terms.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

# sync_failure_count stays bound here for callers (and bench/test_bench.py) that
# reach it through this module
from .automata import (Dfao, base_digits, find_synchronizing_word,  # noqa: F401
                       sync_failure_count, sync_failure_counts)
from .budget import BudgetError, enumeration_budget, require_budget
from .exact import Cyclotomic, as_exact, int_range
from .modring import PhaseValues, phase_values

StageValue = Union[Cyclotomic, complex]


class ScalarTransducer:
    """Synchronizing DFAO with a unit-complex weight e(phases[s][d]) per
    transition, held as weights[s, d] = phases[s][d] * D mod D, D = weight_order."""

    def __init__(self, dfao: Dfao, phases: Sequence[Sequence[Fraction]]):
        rows = [[Fraction(p) % 1 for p in row] for row in phases]
        if len(rows) != dfao.n_states or any(len(row) != dfao.base for row in rows):
            raise ValueError("one weight per state and digit required")
        if find_synchronizing_word(dfao) is None:
            raise ValueError("underlying automaton is not synchronizing")
        D = math.lcm(*(p.denominator for row in rows for p in row))
        self.dfao = dfao
        self.weights = np.array([[int(p * D) for p in row] for row in rows], dtype=np.int64)
        self.weights.flags.writeable = False
        self.weight_order = D

    @property
    def base(self) -> int:
        return self.dfao.base

    @functools.cached_property
    def product(self) -> Dfao:
        """The cocycle as an automaton over S*D states (D = weight_order):
        state s*D + j is state s with T = e(j/D), output that of state s, and
        digit d leads from it to delta(s, d)*D + (j + weights[s, d]) mod D."""
        dfao, D, (S, k) = self.dfao, self.weight_order, self.dfao.transitions.shape
        require_budget(S * D * k, "product automaton size S * D * k")
        j = np.arange(D).reshape(1, D, 1)
        trans = (dfao.transitions[:, None, :].astype(np.int64) * D
                 + (j + self.weights[:, None, :]) % D)
        outputs = [dfao.values[i] for i in dfao.output_index.tolist() for _ in range(D)]
        return Dfao(k, trans.reshape(S * D, k), outputs,
                    initial=dfao.initial * D, _check_initial_loop=False)

    def tables(self, limit: int) -> Tuple[np.ndarray, np.ndarray]:
        """(state, phase-index) int32 tables over [0, limit) read from the start."""
        return divmod(self.product.state_table(limit), self.weight_order)

    def __repr__(self):
        return (f"<ScalarTransducer states={self.dfao.n_states} "
                f"base={self.base} weight_order={self.weight_order}>")


def thue_morse_transducer() -> ScalarTransducer:
    """One-state base-2 cocycle with T(n) = (-1)^(binary digit sum)."""
    dfao = Dfao(2, [[0, 0]], [Fraction(1)], name="thue_morse")
    return ScalarTransducer(dfao, [[Fraction(0), Fraction(1, 2)]])


def digit_sum_transducer(k: int, m: int) -> ScalarTransducer:
    """One-state cocycle with T(n) = e(digit sum of n / m) in base k."""
    if m < 1:
        raise ValueError("m must be positive")
    require_budget(k, "digits per state k")
    dfao = Dfao(k, [[0] * k], [Fraction(1)], name=f"digit_sum({k},{m})")
    return ScalarTransducer(dfao, [[Fraction(d % m, m) for d in range(k)]])


# ---------------------------------------------------------------------------
# van der Corput inequality (matrix form)


@dataclass
class VdcCheck:
    lhs: float
    rhs: float
    slack: float


def vdc_inequality_check(Z, R: float, k: int = 1) -> VdcCheck:
    """Check ||sum Z(n)||_F^2 <= ((x + k(R-1) + 1)/R) * sum_{|r|<R} (1-|r|/R)
    * c_r on concrete data, c_r = Re sum_n tr(Z(n+kr)^H Z(n)).

    Z is a sequence of d x d matrices (scalars allowed).  Raises
    ArithmeticError if the inequality fails beyond float noise; that would
    mean a genuine bug, the bound holds for arbitrary matrices.

    The right side is read in Fejer form, from window sums and not one
    correlation per shift.  With Z = 0 outside [0, x), let
    F_n = sum over all j of ||sum_{a<n} Z(j + ka)||_F^2; expanding the square
    gives F_n = sum_{|r|<n} (n - |r|) c_r.  Each window sum is a difference
    of two rows of one prefix sum per residue class mod k.  Let N = ceil(R),
    theta = R - N + 1 in (0, 1] and nb = ceil(x/k), the longest class.
    R - |r| = theta (N - |r|) + (1 - theta) (N - 1 - |r|), so for N <= nb
    R * sum_{|r|<R} (1-|r|/R) c_r = theta F_N + (1 - theta) F_(N-1).
    For N > nb, c_r = 0 from |r| = nb on, and the same total is
    F_nb + (R - nb) * sum_rho ||sum_{n = rho mod k} Z(n)||_F^2, as
    sum_r c_r is that last sum.  Both forms add nonnegative terms only.
    The prefix sums are laid out as (rows, min(k, x), d^2) with
    rows <= 3 nb, so the work and memory are O(x d^2) whatever R and k are.
    """
    if R < 1 or k < 1:
        raise ValueError("need R >= 1 and k >= 1")
    arr = np.asarray(Z, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1, 1)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError("Z must be a sequence of square matrices")
    x, d = arr.shape[0], arr.shape[1]
    if x == 0:
        return VdcCheck(0.0, 0.0, 0.0)
    N = math.ceil(R)
    nb = (x - 1) // k + 1
    classes = min(k, x)
    w = min(N, nb)
    # ext[w - 1 + a] = sum of Z(rho + kb) over b < a, per class rho, for
    # a in [0, nb]; the w - 1 rows before are 0 and the w - 1 rows after
    # repeat the class totals, so ext[n:] - ext[:-n] holds every window
    # sum of length n <= w
    ext = np.zeros((nb + 2 * w - 1, classes, d * d), dtype=complex)
    body = ext[w:w + nb]
    body.reshape(nb * classes, d * d)[:x] = arr.reshape(x, d * d)
    np.add.accumulate(body, axis=0, out=body)
    ext[w + nb:] = ext[w + nb - 1]
    totals = ext[-1]
    whole = totals.sum(axis=0)
    lhs = float(np.vdot(whole, whole).real)

    def fejer(n: int) -> float:
        diff = ext[n:] - ext[:-n]
        return np.vdot(diff, diff).real

    theta = R - N + 1
    if N <= nb:
        weighted = theta * fejer(N)
        if theta < 1:
            weighted += (1 - theta) * fejer(N - 1)
    else:
        weighted = fejer(nb) + (R - nb) * np.vdot(totals, totals).real
    rhs = float((x + k * (R - 1) + 1) / R * (weighted / R))
    slack = rhs - lhs
    if slack < -1e-9 * max(1.0, rhs):
        raise ArithmeticError(f"van der Corput inequality violated: {lhs} > {rhs}")
    return VdcCheck(lhs, rhs, slack)


# ---------------------------------------------------------------------------
# carry-property violations


def carry_violation_count(tr: ScalarTransducer, lam: int, alpha: int, rho: int,
                          r: int = 0) -> int:
    """#{l in [0, k^lam) : some A = l*k^alpha + r + n1 and B = A + n2, with
    n1, n2 in [0, k^alpha), have T(B) conj(T(A)) differ from the product
    with both arguments truncated to alpha+rho digits}."""
    return carry_violation_counts(tr, lam, alpha, [rho], r)[0]


def check_carry_args(lam: int, alpha: int, rhos: Sequence[int], rs: Sequence[int]) -> None:
    """ValueError unless lam, alpha and every r are >= 0 and every rho lies in [0, lam)."""
    if lam < 0:
        raise ValueError("need lam >= 0")
    if alpha < 0 or any(r < 0 for r in rs):
        raise ValueError("need alpha >= 0 and r >= 0")
    if any(not 0 <= rho < lam for rho in rhos):
        raise ValueError("need 0 <= rho < lam")


def carry_violation_counts(tr: ScalarTransducer, lam: int, alpha: int,
                           rhos: Sequence[int], r: int = 0) -> List[int]:
    """[carry_violation_count(tr, lam, alpha, rho, r) for rho in rhos], from
    one weight table over the largest window and one change-point scan per
    distinct rho.

    Let dev[j] = (val[j] - val[j mod k^(alpha+rho)]) mod D, the phase index
    the truncation takes off T(j), and ka = k^alpha.  The two-point products
    of A and B differ exactly when dev[B] != dev[A], so block l is violated
    iff dev[A + n2] != dev[A] for some A = l*ka + r + n1 with n1 in [0, ka)
    and n2 in [1, ka).  That holds iff dev is not constant on the window
    W = [l*ka + r, l*ka + r + 2ka - 2].  (=>) A and A + n2 both lie in W.
    (<=) Take a change point dev[j] != dev[j+1] with j, j+1 in W.  If
    j < l*ka + r + ka, take A = j and n2 = 1.  Otherwise j and j+1 both lie
    within ka - 1 above A = l*ka + r + ka - 1, and dev[A] differs from at
    least one of them.  For ka = 1 the window is one entry and no block is
    violated.  With steps[i] = #{j < i : dev[j] != dev[j+1]}, dev is
    constant on W iff steps agrees at its two ends."""
    check_carry_args(lam, alpha, rhos, [r])
    if not rhos:
        return []
    k, e = tr.base, lam + 2 * alpha
    what, budget = f"k^(lam+2*alpha) = {k}^{e}", enumeration_budget()
    if e >= budget.bit_length():    # k^e >= 2^e > budget, known before k is raised to e
        raise BudgetError(f"{what} exceeds the enumeration budget ({budget})")
    require_budget(k ** e, what)
    ka, L = k ** alpha, k ** lam
    # the last window ends at top - 1; top >= k^(alpha+rho), as rho < lam
    top = (L + 1) * ka - 1 + r
    require_budget(top, "weight table length k^(lam+alpha) + r")
    val = tr.tables(top)[1]
    lo = np.arange(L) * ka + r
    steps = np.zeros(top, dtype=np.int32)   # may wrap; a window's two ends differ by < 2ka

    def count(rho: int) -> int:
        dev = np.resize(val[:k ** (alpha + rho)], top)
        np.subtract(val, dev, out=dev)
        dev %= tr.weight_order
        np.cumsum(dev[1:] != dev[:-1], dtype=np.int32, out=steps[1:])
        return int(np.count_nonzero(steps[lo + 2 * ka - 2] != steps[lo]))

    counts = {rho: count(rho) for rho in set(rhos)}
    return [counts[rho] for rho in rhos]


_ETA_FITS: Dict[tuple, Optional[float]] = {}


def eta_fit(dfao: Dfao) -> Optional[float]:
    """Least-squares decay exponent of sync-failure counts over (0, x],
    x = k^12, for lam = 1..8: count ~ x k^(-eta lam).

    None when there are fewer than two positive counts (e.g. a perfectly
    synchronizing one-state machine).  The counts read every start state and
    no output, so the fit is memoised on (base, transitions)."""
    k = dfao.base
    x, lams = k ** 12, range(1, 9)
    key = (k, dfao.transitions.tobytes())
    if key not in _ETA_FITS:
        pts = [(lam, math.log(c / x, k))
               for lam, c in zip(lams, sync_failure_counts(dfao, 0, x, lams)) if c > 0]
        _ETA_FITS[key] = None if len(pts) < 2 else max(
            0.0, -float(np.polyfit(*zip(*pts), 1)[0]))
    return _ETA_FITS[key]


# ---------------------------------------------------------------------------
# the stage decomposition


@dataclass
class WeylReport:
    exact: bool
    M: int
    R: int
    weight_order: int
    s0: StageValue
    s0_reconstructed: StageValue
    identity_s0: bool
    sync_failures: int
    identity_s1: bool
    identity_s3: bool
    identity_s4: bool
    carry_failures: Dict[int, int]
    s1: Dict[Tuple[int, int], StageValue]
    s2: Dict[Tuple[int, int], StageValue]
    s3: Dict[Tuple[int, int], StageValue]
    s4: Dict[Tuple[int, int, int], StageValue]
    s5: Dict[Tuple[int, int], StageValue]
    vdc_rows: List[Tuple[int, int, float, float, float]]
    eta_used: Optional[float]
    comparator: float
    s0_abs: float

    @property
    def comparator_exceeds(self) -> bool:
        return self.comparator >= self.s0_abs

    @property
    def identities_ok(self) -> bool:
        return (self.identity_s0 and self.identity_s1 and self.identity_s3
                and self.identity_s4)

    def rows(self) -> List[Tuple]:
        out: List[Tuple] = []
        for name, table in (("S1", self.s1), ("S2", self.s2), ("S3", self.s3),
                            ("S4", self.s4), ("S5", self.s5)):
            for key in sorted(table):
                z = complex(table[key])
                out.append((name, ":".join(str(i) for i in key),
                            z.real, z.imag, abs(z)))
        z = complex(self.s0)
        out.insert(0, ("S0", "-", z.real, z.imag, abs(z)))
        return out


def decompose_weyl(tr: ScalarTransducer, tau: Callable[[Cyclotomic, int], object],
                   g: Callable[[int], object], y: int, x: int,
                   lam1: int, lam2: int,
                   eta: Union[None, float, str] = "fit") -> WeylReport:
    """Replay the regrouping of S_0 = sum a_n g(n) into correlation sums,
    a_n = tau(T(q0,(n)_k), delta(q0,(n)_k)).

    Verifies, term by term: S_0 against the tau-weighted S_1 table; S_1
    against the mod-M regrouping of S_2 up to the explicit synchronization
    failure set; S_3 against the character expansion of S_2; S_4 against the
    truncated-cocycle combination of S_5 up to the explicit carry failure
    set.  States, weights and g are read once over the window
    (y, y + x + (R-1)M]: states and weights by Dfao.window_states on the
    cocycle automaton tr.product, g by phase_values (one phase_numerators
    pass for a FractionPhase).  The truncated states and weights, which
    depend only on n mod RM^2, come from one table over [0, RM^2).  The
    budget covers that window plus RM^2 and is checked before anything is
    allocated; it does not depend on y.  When g's values are zeros or exact
    roots of unity and tau returns exact values, every identity is checked
    in exact phase arithmetic; otherwise the stages are complex and the
    identities are checked to 1e-9 relative.
    Each of the S_1, S_3 and S_4 identities compares a stage table with one
    regrouped table, bucket by bucket, where a bucket missing from one table
    reads 0.  The regrouped table is one indexed sum: S_1 from S_2 and the
    sync correction, S_3 by the character expansion sum_j e(tj/D) v(m, j) of
    S_2, and S_4 by the expansion of S_5 and the carry correction.  A
    shift's S_4 is itself the expansion of its (residue, weight difference)
    table.  So S_1 and S_3 take one normalisation each and each shift r two,
    2 + 2R in all.  The exact verdict is == on two normal forms; a normal
    form is the coordinate vector of a value in the formal basis e(t), t in
    [0, 1/2).  (That == does not decide equality in Q(zeta_L) is a separate
    matter.)  In float mode each bucket is summed by math.fsum and compared
    with 1e-9 relative.
    The van der Corput inequality is checked on each S_3 sequence, and the
    comparator x M^-eta + sum_m sqrt((x/(RM)) sum |S_5|) is reported next
    to |S_0|; eta is "fit" (eta_fit), None (no M^-eta term) or a finite
    number, and anything else raises ValueError.  lam1 = lam2 = 0
    (M = R = 1) is a valid decomposition: each regrouping has a single
    class, and every identity still holds.
    """
    if lam1 < 0 or lam2 < 0:
        raise ValueError("need lam1 >= 0 and lam2 >= 0")
    if not (eta is None or eta == "fit"
            or isinstance(eta, numbers.Real) and math.isfinite(eta)):
        raise ValueError("eta must be 'fit' or a finite number")
    k = tr.base
    if y < 0 or x < 1:
        raise ValueError("need y >= 0 and x >= 1")
    # R*M^2 = k^(lam2 + 2 lam1) > x exactly when the exponent reaches x's digit count
    if lam2 + 2 * lam1 >= len(base_digits(x, k)) or k ** (lam2 + 2 * lam1) > x / 10:
        raise ValueError("need R*M^2 <= x/10")
    M = k ** lam1
    R = k ** lam2
    RM2 = R * M * M
    D = tr.weight_order
    S = tr.dfao.n_states
    span = x + (R - 1) * M
    require_budget(span + RM2, "window x + (R-1)M plus table RM^2")
    # (end state, weight index) over the window (y, y + span], n at index
    # n - (y + 1), and over [0, RM^2), where ns % RM^2 and ns % M index
    q_all, j_all = divmod(tr.product.window_states(y, span).astype(np.int64), D)
    st, val = tr.tables(RM2)

    g_all = phase_values(g, int_range(y + 1, y + span + 1))
    tau_vals = [tau(Cyclotomic.root_of_unity(j, D), q) for j in range(D) for q in range(S)]
    tau_ex = [as_exact(v) for v in tau_vals]
    exact = g_all.exact and all(v is not None for v in tau_ex)
    if exact:
        tau_list: List[StageValue] = tau_ex
        same = lambda a, b: a == b
    else:
        g_all = PhaseValues(0, g_all.to_complex())
        tau_list = [complex(v) for v in tau_vals]
        scale = max(1.0, float(np.abs(g_all.values[:x]).sum()))
        same = lambda a, b: abs(complex(a) - complex(b)) <= 1e-9 * scale
    g = g_all.take(slice(0, x))

    def regroup(values: List, buckets: np.ndarray, index: Optional[np.ndarray] = None,
                phases: Optional[np.ndarray] = None) -> Dict[int, StageValue]:
        """bucket -> sum of values[index[i]] * e(phases[i] / D): one side of an
        identity as one indexed sum (index defaults to one term per value,
        phases to 0)"""
        index = np.arange(len(values)) if index is None else index
        phases = np.zeros(len(values), dtype=np.int64) if phases is None else phases % D
        return PhaseValues(D, phases).indexed_sums(values, index, buckets)

    def expand(values: List, m: np.ndarray, w: np.ndarray) -> Dict[int, StageValue]:
        """the character expansion: values[i] in bucket m[i]*D + t at phase
        t*w[i], for every character t < D"""
        n, t = len(values), np.arange(D)
        return regroup(values, (m[:, None] * D + t).ravel(), np.repeat(np.arange(n), D),
                       (w[:, None] * t).ravel())

    def agree(a: Dict[int, StageValue], b: Dict[int, StageValue]) -> bool:
        """same in every bucket of the two tables; a missing bucket reads 0"""
        return all(same(a.get(c, 0), b.get(c, 0)) for c in a.keys() | b.keys())

    def keys(table: Dict[int, StageValue]) -> np.ndarray:
        return np.array(list(table), dtype=np.int64)

    j_n = j_all[:x]
    q_n = q_all[:x]
    mprime_n = (np.arange(x) + (y + 1) % RM2) % RM2     # ns % RM^2
    m_n = mprime_n % M
    trunc_q = st[m_n]
    sync_mask = q_n != trunc_q
    sync_failures = int(sync_mask.sum())

    # ---- S_0 directly, and S_1 per (weight value, end state); b1, b2 and b5
    # hold S_1, S_2 and S_5 by bucket (j*S + q, m*D + j and m')
    s0 = g.indexed_sum(tau_list, j_n * S + q_n)
    b1 = g.bucket_sums(j_n * S + q_n)
    s1 = {divmod(b, S): v for b, v in b1.items()}
    s0_rec = sum((tau_list[j * S + q] * v for (j, q), v in s1.items()), 0)
    identity_s0 = same(s0, s0_rec)

    # ---- S_2 per (residue mod M, weight value); S_1 from S_2 + sync failures
    b2 = g.bucket_sums(m_n * D + j_n)
    s2 = {divmod(b, D): v for b, v in b2.items()}
    # each failing n moves g(n) from (j, truncated end state) to (j, q_n)
    bad = np.flatnonzero(sync_mask)
    corr = g.take(np.tile(bad, 2)).bucket_sums(
        np.concatenate([j_n[bad] * S + q_n[bad], j_n[bad] * S + trunc_q[bad]]),
        np.repeat(np.array([1, -1]), bad.size))
    # S_1(j, q) = sum of S_2(m, j) over the residues m < M whose truncated
    # end state is q, plus the correction
    m2, j2 = np.divmod(keys(b2), D)
    identity_s1 = agree(regroup([*b2.values(), *corr.values()],
                                np.concatenate([j2 * S + st[m2], keys(corr)])), b1)
    # no later stage reads the end states or the sync failures: release them
    # before the shifts
    del q_all, q_n, trunc_q, sync_mask, bad

    # ---- S_3 per (residue, character), against the character expansion of S_2
    b3 = {m * D + t: v for t in range(D)
          for m, v in g.times_conj(PhaseValues(D, -t * j_n % D)).bucket_sums(m_n).items()}
    s3 = {divmod(b, D): v for b, v in b3.items()}
    # S_3(m, t) = sum over j of S_2(m, j) e(tj/D)
    identity_s3 = agree(expand(list(b2.values()), m2, j2), b3)

    # ---- S_4 / S_5 per shift r, with the carry failure sets
    s4: Dict[Tuple[int, int, int], StageValue] = {}
    s5: Dict[Tuple[int, int], StageValue] = {}
    carry_failures: Dict[int, int] = {}

    def shift_stage(r: int) -> bool:
        """S_4 and S_5 at shift r into s4 and s5, its carry failures into
        carry_failures, and whether its S_4 identity holds; the per-n arrays
        of the shift are released on return."""
        shift = r * M
        dval = (j_n - j_all[shift:shift + x]) % D
        dvt_table = (val - val[(np.arange(RM2) + shift) % RM2]) % D
        vt = dvt_table[mprime_n]
        fail_mask = dval != vt
        carry_failures[r] = int(fail_mask.sum())
        gc = g.times_conj(g_all.take(slice(shift, shift + x)))
        b5 = gc.bucket_sums(mprime_n)
        for b, v in b5.items():
            s5[(b, r)] = v
        # S_4'(m, j) sums gc over the n of residue m with dval = j, and
        # S_4(m, t, r) = sum over j of S_4'(m, j) e(tj/D): one expansion
        b4 = gc.bucket_sums(m_n * D + dval)
        m4, j4 = np.divmod(keys(b4), D)
        e4 = expand(list(b4.values()), m4, j4)
        # S_4 at (m, c, r) for every c of each residue of S_4' (an exact
        # class whose S_4' are all zero has no terms in the expansion)
        s4.update({(m, c, r): e4.get(m * D + c, Cyclotomic.zero())
                   for m in sorted(set(m4.tolist())) for c in range(D)})
        # C_4(m, j): each carry failure moves gc(n) from weight vt to dval
        bad = np.flatnonzero(fail_mask)
        c4 = gc.take(np.tile(bad, 2)).bucket_sums(
            np.tile(m_n[bad], 2) * D + np.concatenate([dval[bad], vt[bad]]),
            np.repeat(np.array([1, -1]), bad.size))
        # S_4(m, t, r) = sum over m' = m mod M of S_5(m', r) e(t dvt(m')/D),
        # plus sum over j of C_4(m, j) e(tj/D)
        m5, mc = keys(b5), keys(c4)
        return agree(expand(list(b5.values()) + list(c4.values()),
                            np.concatenate([m5 % M, mc // D]),
                            np.concatenate([dvt_table[m5], mc % D])), e4)

    # every shift is evaluated, so carry_failures and s4 cover each r
    identity_s4 = all([shift_stage(r) for r in range(R)])
    del mprime_n    # read by the shifts only

    # ---- van der Corput on each S_3 sequence (shift unit M, window R)
    vdc_rows: List[Tuple[int, int, float, float, float]] = []
    z_n = g.to_complex()
    for t in range(D):
        zt = z_n * np.exp(2j * np.pi * (t * j_n % D) / D)
        for m in range(M):
            Z = np.where(m_n == m, zt, 0j)
            chk = vdc_inequality_check(Z, R=float(R), k=M)
            vdc_rows.append((m, t, chk.lhs, chk.rhs, chk.slack))

    eta_used = eta_fit(tr.dfao) if eta == "fit" else eta
    comp = 0.0 if eta_used is None else x * M ** (-float(eta_used))
    for m in range(M):
        inner = 0.0
        for (mp, r), v in s5.items():
            if mp % M == m:
                inner += abs(complex(v))
        comp += math.sqrt(x / (R * M) * inner)
    s0_abs = abs(complex(s0))

    return WeylReport(
        exact=exact, M=M, R=R, weight_order=D,
        s0=s0, s0_reconstructed=s0_rec, identity_s0=identity_s0,
        sync_failures=sync_failures, identity_s1=identity_s1,
        identity_s3=identity_s3, identity_s4=identity_s4,
        carry_failures=carry_failures,
        s1=s1, s2=s2, s3=s3, s4=s4, s5=s5,
        vdc_rows=vdc_rows, eta_used=eta_used,
        comparator=comp, s0_abs=s0_abs,
    )
