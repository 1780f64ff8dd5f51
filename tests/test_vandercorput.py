import cmath
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from autoexp.automata import (Dfao, block_11, block_decompose_sum,
                              find_synchronizing_word, thue_morse_even)
from autoexp.budget import BudgetError
from autoexp.exact import Cyclotomic
from autoexp.expsums import correlation_sum
from autoexp.modring import FractionPhase, parse_rational_function
from autoexp.presets import (block_11_transducer, tau_evil, tau_pick, tau_sign,
                             weyl_grid_configs)
from autoexp.vandercorput import (ScalarTransducer, VdcCheck, carry_violation_count,
                                  carry_violation_counts, decompose_weyl,
                                  digit_sum_transducer, eta_fit,
                                  thue_morse_transducer, vdc_inequality_check)

INV_X = parse_rational_function("1/X")


# -- transducers -----------------------------------------------------------------


def test_transducer_requires_synchronizing():
    with pytest.raises(ValueError):
        ScalarTransducer(thue_morse_even(), [[Fraction(0)] * 2] * 2)


def test_thue_morse_cocycle_values():
    tr = thue_morse_transducer()
    for n in range(64):
        want = Fraction(bin(n).count("1") % 2, 2)
        assert oracles.value_phase(tr, n) == want


def test_cocycle_identity_random_splits():
    rng = random.Random(5)
    b11 = block_11()
    tr = ScalarTransducer(b11, [[Fraction(0), Fraction(1, 2)],
                                [Fraction(0), Fraction(0)],
                                [Fraction(1, 2), Fraction(1, 2)]])
    for _ in range(1000):
        u = [rng.randrange(2) for _ in range(rng.randrange(0, 8))]
        v = [rng.randrange(2) for _ in range(rng.randrange(0, 8))]
        q = rng.randrange(3)
        lhs = oracles.cocycle_phase(tr, q, u + v)
        rhs = (oracles.cocycle_phase(tr, q, u)
               + oracles.cocycle_phase(tr, b11.walk(q, u), v)) % 1
        assert lhs == rhs


def test_transducer_tables_match_walks():
    # the last one weights digit 0 at its start, so the cocycle automaton's
    # initial state is not fixed by digit 0
    for tr in (digit_sum_transducer(3, 3), block_11_transducer(),
               ScalarTransducer(Dfao(2, [[0, 0]], [Fraction(1)]),
                                [[Fraction(1, 3), Fraction(1, 2)]])):
        st, val = tr.tables(200)
        assert st.dtype == val.dtype == np.int32     # no int64 copy of the state table
        assert tr.product.n_states == tr.dfao.n_states * tr.weight_order
        for n in range(200):
            assert Fraction(int(val[n]), tr.weight_order) % 1 == oracles.value_phase(tr, n)
            assert st[n] == tr.dfao.state_at(n)


def random_transducer(rng):
    """A synchronizing transducer with S <= 4 states, base 2, 3 or 5, phases
    over D <= 12, and a nonzero weight on digit 0 of the initial state."""
    k = rng.choice((2, 3, 5))
    S = rng.randrange(1, 5)
    D = rng.randrange(2, 13)
    while True:
        trans = [[rng.randrange(S) for _ in range(k)] for _ in range(S)]
        trans[0][0] = 0
        if find_synchronizing_word(Dfao(k, trans, [0] * S)) is not None:
            break
    phases = [[Fraction(rng.randrange(D), D) for _ in range(k)] for _ in range(S)]
    phases[0][0] = Fraction(rng.randrange(1, D), D)
    return ScalarTransducer(Dfao(k, trans, [Fraction(s) for s in range(S)]), phases)


def test_product_tables_and_windows_match_per_n_walks():
    rng = random.Random(11)
    for _ in range(40):
        tr = random_transducer(rng)
        D = tr.weight_order
        S, k = tr.dfao.transitions.shape
        assert D <= 12 and tr.weights.shape == (S, k)
        assert tr.product.transitions.shape == (S * D, k)
        assert all(tr.product.outputs[i] is tr.dfao.outputs[i // D] for i in range(S * D))

        def want(n):
            return tr.dfao.state_at(n), oracles.value_phase(tr, n) * D

        st, val = tr.tables(150)
        assert [(st[n], val[n]) for n in range(150)] == [want(n) for n in range(150)]
        y = rng.choice((0, rng.randrange(10 ** 6), rng.randrange(2 ** 64, 2 ** 70)))
        x = rng.randrange(1, 80)
        q, j = divmod(tr.product.window_states(y, x), D)
        assert list(zip(q, j)) == [want(n) for n in range(y + 1, y + x + 1)]


def test_product_normalises_each_base_output_once(monkeypatch):
    # the S*D product outputs are the S base outputs, repeated D times each
    rng = random.Random(12)
    for _ in range(10):
        tr = random_transducer(rng)
        calls = []
        real = Dfao._norm_output

        def spy(v):
            calls.append(v)
            return real(v)
        monkeypatch.setattr(Dfao, "_norm_output", staticmethod(spy))
        product = tr.product
        monkeypatch.undo()
        S, D = tr.dfao.n_states, tr.weight_order
        assert product.n_states == S * D and len(calls) == S
        assert all(v is w for v, w in zip(calls, tr.dfao.outputs))


def test_product_shares_the_base_output_table():
    rng = random.Random(13)
    for i in range(20):
        tr = random_transducer(rng)
        if i % 2:   # base outputs that repeat one object
            shared = [Fraction(1), Fraction(-1)]
            base = tr.dfao
            dfao = Dfao(base.base, base.transitions, [shared[s % 2] for s in range(base.n_states)])
            tr = ScalarTransducer(dfao, [[Fraction(int(w), tr.weight_order) for w in row]
                                         for row in tr.weights])
        base, D = tr.dfao, tr.weight_order
        assert len(tr.product.values) == len(base.values)
        assert all(v is w for v, w in zip(tr.product.values, base.values))
        assert np.array_equal(tr.product.output_index, np.repeat(base.output_index, D))


def test_product_text_reads_each_distinct_value_once(monkeypatch):
    rng = random.Random(14)
    for _ in range(10):
        tr = random_transducer(rng)
        product, S = tr.product, tr.dfao.n_states
        calls = []
        real = Cyclotomic.exact_rational

        def spy(self):
            calls.append(self)
            return real(self)
        monkeypatch.setattr(Cyclotomic, "exact_rational", spy)
        text = product.to_text()
        monkeypatch.undo()
        assert len(calls) <= S
        assert text.count("\nstate ") == product.n_states


def test_transducer_rejects_a_ragged_weight_table():
    with pytest.raises(ValueError):
        ScalarTransducer(block_11(), [[0, 0], [0], [0, 0]])
    with pytest.raises(ValueError):
        ScalarTransducer(block_11(), [[0, 0], [0, 0]])


# -- van der Corput inequality ------------------------------------------------------


def test_vdc_r1_is_cauchy_schwarz():
    rng = np.random.default_rng(1)
    for _ in range(50):
        Z = rng.normal(size=(20, 2, 2)) + 1j * rng.normal(size=(20, 2, 2))
        chk = vdc_inequality_check(Z, R=1.0, k=1)
        assert chk.slack >= -1e-9 * max(1.0, chk.rhs)


def test_vdc_identity_matrices_closed_form():
    x = 37
    Z = np.ones((x, 1, 1), dtype=complex)
    chk = vdc_inequality_check(Z, R=1.0, k=1)
    assert chk.lhs == pytest.approx(x * x)
    assert chk.rhs == pytest.approx(x * (x + 1))


def test_vdc_scalar_list_accepted():
    chk = vdc_inequality_check([1.0, -1.0, 1.0, 1.0], R=2.0, k=1)
    assert chk.slack >= -1e-9
    # an empty sequence: both sides are 0
    assert vdc_inequality_check([], R=3.5, k=2) == VdcCheck(0.0, 0.0, 0.0)


def test_vdc_dimension_mismatch():
    with pytest.raises(ValueError):
        vdc_inequality_check(np.ones((4, 2, 3)), R=2.0, k=1)
    with pytest.raises(ValueError):
        vdc_inequality_check(np.ones((4, 1, 1)), R=0.5, k=1)


def test_vdc_random_unit_scalars():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = int(rng.integers(1, 80))
        Z = np.exp(2j * np.pi * rng.random(x))
        R = float(rng.uniform(1, 16))
        k = int(rng.integers(1, 5))
        chk = vdc_inequality_check(Z, R=R, k=k)
        assert chk.slack >= -1e-9 * max(1.0, chk.rhs)


def test_vdc_sides_match_the_two_sided_oracle():
    # the window-sum form against the oracle's sum over every shift
    # -(R-1)..R-1: integer and real R, ceil(R) up to and past the longest
    # class ceil(x/k), x = 1 and k > x, scalars and d x d matrices
    rng = np.random.default_rng(23)
    seen = set()
    for i in range(400):
        d = int(rng.integers(1, 4))
        x = 1 if i % 10 == 0 else int(rng.integers(1, 90))
        k = x + int(rng.integers(1, 5)) if i % 7 == 0 else int(rng.integers(1, 8))
        R = float(rng.uniform(1, 40)) if i % 2 else int(rng.integers(1, 40))
        Z = rng.normal(size=(x, d, d)) + 1j * rng.normal(size=(x, d, d))
        chk = vdc_inequality_check(Z, R=R, k=k)
        lhs, rhs = oracles.vdc_sides(Z, R, k)
        assert chk.lhs == pytest.approx(lhs, rel=1e-12)
        assert chk.rhs == pytest.approx(rhs, rel=1e-12)
        seen.add(("integer R" if R == int(R) else "real R",
                  "N <= nb" if math.ceil(R) <= -(-x // k) else "N > nb"))
        seen |= {"x = 1"} if x == 1 else set()
        seen |= {"k > x"} if k > x else set()
    assert seen >= {("integer R", "N <= nb"), ("integer R", "N > nb"), ("real R", "N <= nb"),
                    ("real R", "N > nb"), "x = 1", "k > x"}


@pytest.mark.parametrize("R, k", [(2 ** 62, 1), (2.0, 2 ** 62), (float(2 ** 62), 2 ** 62)])
def test_huge_r_and_k_cost_the_size_of_z(R, k):
    # every shift past ceil(x/k) correlates nothing: with k > x each entry is
    # its own class, and the right side is (x + k(R-1) + 1)/R * sum ||Z(n)||^2
    rng = np.random.default_rng(5)
    Z = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
    start = time.perf_counter()
    chk = vdc_inequality_check(Z, R=R, k=k)
    assert time.perf_counter() - start < 1.0
    lhs, _ = oracles.vdc_sides(Z, 1, 1)
    assert chk.lhs == pytest.approx(lhs, rel=1e-12)
    if k > 50:
        c0 = float(np.vdot(Z, Z).real)
        assert chk.rhs == pytest.approx((50 + k * (R - 1) + 1) / R * c0, rel=1e-12)


def test_vdc_check_allocates_the_size_of_z_whatever_r_and_k():
    # the prefix sums take (ceil(x/k) + 2w - 1) * min(k, x) rows of d^2 with
    # w <= ceil(x/k), at most 6x rows, and one window difference as many
    x, d = 3000, 2
    rng = np.random.default_rng(9)
    Z = rng.normal(size=(x, d, d)) + 1j * rng.normal(size=(x, d, d))
    bound = 12 * x * d * d * 16 + 64 * 1024
    for R in (1, 2.5, 40, float(x), 2.0 ** 62):
        for k in (1, 3, 1001, x - 1, x + 1, 2 ** 62):
            tracemalloc.start()
            try:
                vdc_inequality_check(Z, R=R, k=k)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound, (R, k, peak)


# -- carry property ------------------------------------------------------------------


def test_carry_alpha_zero_degenerate():
    # n1 = n2 = 0 forces both sides to |f|^2 = 1: no violations possible
    tr = thue_morse_transducer()
    for lam in (2, 4):
        assert carry_violation_count(tr, lam, 0, lam - 1, 0) == 0


def test_carry_constant_weights():
    base = Dfao(2, [[0, 1], [0, 2], [2, 2]],
                [Fraction(0), Fraction(0), Fraction(1)])
    tr = ScalarTransducer(base, [[0, 0]] * 3)
    assert carry_violation_count(tr, 6, 2, 3, 0) == 0


def test_carry_matches_oracle_small():
    tr = thue_morse_transducer()
    want = oracles.carry_violation_counts_tm(6, 2, rhos=(1, 2, 3), rs=(0, 3))
    for (r, rho), cnt in want.items():
        assert carry_violation_count(tr, 6, 2, rho, r) == cnt


def test_carry_counts_match_the_pair_oracle():
    # every rho < lam (shuffled, one repeated) and shifts r from 0 to past
    # k^(alpha+rho), on synchronizing transducers with S <= 3 and D <= 6
    rng = random.Random(19)
    seen = set()
    for _ in range(150):
        k, S, D = rng.choice((2, 3, 5)), rng.randrange(1, 4), rng.randrange(1, 7)
        while True:
            trans = [[rng.randrange(S) for _ in range(k)] for _ in range(S)]
            trans[0][0] = 0
            if find_synchronizing_word(Dfao(k, trans, [0] * S)) is not None:
                break
        tr = ScalarTransducer(
            Dfao(k, trans, [Fraction(s) for s in range(S)]),
            [[Fraction(rng.randrange(D), D) for _ in range(k)] for _ in range(S)])
        while True:
            lam, alpha = rng.randrange(1, 6), rng.randrange(3)
            if k ** (lam + 2 * alpha) <= 1500:
                break
        r = rng.choice((0, rng.randrange(k ** (lam + alpha) + 2)))
        rhos = rng.sample(range(lam), lam) + [rng.randrange(lam)]
        counts = carry_violation_counts(tr, lam, alpha, rhos, r)
        for rho, c in zip(rhos, counts):
            assert c == carry_violation_count(tr, lam, alpha, rho, r)
            assert c == oracles.carry_violations_by_pairs(tr, lam, alpha, rho, r)
            if alpha == 0:
                seen.add("alpha 0")
            elif c == 0:
                seen.add("zero, alpha >= 1")
            if c > 0:
                seen.add("positive")
    assert seen == {"alpha 0", "positive", "zero, alpha >= 1"}


def test_carry_counts_build_one_table_after_checking_every_rho(monkeypatch):
    calls = []
    real = ScalarTransducer.tables
    monkeypatch.setattr(ScalarTransducer, "tables",
                        lambda self, limit: calls.append(limit) or real(self, limit))
    tr = thue_morse_transducer()
    counts = carry_violation_counts(tr, 10, 3, [2, 3, 4, 5, 6], 7)
    assert len(calls) == 1
    assert counts == [carry_violation_count(tr, 10, 3, rho, 7) for rho in range(2, 7)]
    calls.clear()
    for rhos in ([10, 2, 3], [2, 3, 10], [2, -1]):
        with pytest.raises(ValueError, match="need 0 <= rho < lam"):
            carry_violation_counts(tr, 10, 3, rhos)
    assert calls == []
    assert carry_violation_counts(tr, 10, 3, []) == []


def test_carry_pinned_and_monotone(pins):
    tr = thue_morse_transducer()
    for r in (0, 1, 7):
        counts = [carry_violation_count(tr, 10, 3, rho, r) for rho in range(2, 7)]
        assert counts == [pins["carry_tm_lam10_alpha3"][f"r{r}_rho{rho}"]
                          for rho in range(2, 7)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_carry_validation_and_budget():
    tr = thue_morse_transducer()
    with pytest.raises(ValueError):
        carry_violation_count(tr, 3, 1, 3, 0)  # rho >= lam
    import os
    os.environ["AUTOEXP_BUDGET"] = "100"
    try:
        with pytest.raises(BudgetError):
            carry_violation_count(tr, 10, 3, 2, 0)
    finally:
        del os.environ["AUTOEXP_BUDGET"]


def test_sizes_checked_before_the_tables(monkeypatch):
    # k-entry rows, and a weight table of k^(lam+alpha) + r entries
    monkeypatch.setenv("AUTOEXP_BUDGET", "1000")
    with pytest.raises(BudgetError, match="digits per state k"):
        digit_sum_transducer(5000, 2)
    with pytest.raises(BudgetError, match="weight table length"):
        carry_violation_count(thue_morse_transducer(), 4, 1, 1, 5000)
    assert carry_violation_count(thue_morse_transducer(), 4, 1, 1, 900) >= 0


# -- eta fit ----------------------------------------------------------------------


def test_eta_fit():
    assert eta_fit(thue_morse_transducer().dfao) is None
    eta = eta_fit(block_11())
    assert eta is not None and eta > 0


def test_eta_fit_is_memoised_across_equal_automata(monkeypatch):
    import autoexp.vandercorput as vdc
    passes = []
    real = vdc.sync_failure_counts
    monkeypatch.setattr(vdc, "sync_failure_counts",
                        lambda *a: passes.append(a) or real(*a))
    monkeypatch.setattr(vdc, "_ETA_FITS", {})
    # the outputs do not enter the fit: a relabelled copy shares it
    b11 = block_11()
    twin = Dfao(2, b11.transitions, [Fraction(1, 3)] * b11.n_states)
    first = eta_fit(b11)
    assert eta_fit(twin) == first > 0
    assert len(passes) == 1


def test_carry_uniformity_in_r_logged():
    # logged, not asserted (beyond finiteness): shifted counts stay comparable
    tr = thue_morse_transducer()
    counts = {r: carry_violation_count(tr, 8, 3, 3, r) for r in (0, 1, 7, 101)}
    print(f"carry counts by shift r: {counts}")
    assert all(c >= 0 for c in counts.values())
    if counts[0]:
        ratio = max(counts.values()) / counts[0]
        print(f"max/base ratio over r: {ratio:.2f}")


# -- weyl decomposition -----------------------------------------------------------


def test_decompose_one_is_evil_count():
    tr = thue_morse_transducer()
    rep = decompose_weyl(tr, tau_evil, lambda n: 1, 0, 2000, 1, 1)
    assert rep.exact and rep.identities_ok
    evil = sum(1 for n in range(1, 2001) if bin(n).count("1") % 2 == 0)
    assert rep.s0.exact_rational() == evil
    assert rep.sync_failures == 0


def test_decompose_single_state_collapse():
    base = Dfao(2, [[0, 0]], [Fraction(1)])
    tr = ScalarTransducer(base, [[0, 0]])  # weight order 1: all stages collapse
    g = FractionPhase(INV_X, 31)
    rep = decompose_weyl(tr, lambda s, q: 1, g, 0, 400, 1, 1)
    assert rep.identities_ok
    direct = sum(complex(g(n)) for n in range(1, 401))
    assert abs(complex(rep.s0) - direct) < 1e-9
    assert set(rep.s1) == {(0, 0)}


def test_decompose_matches_weighted_sum():
    from autoexp.expsums import IntervalProgression, weighted_sum
    tr = thue_morse_transducer()
    g = FractionPhase(INV_X, 101)
    rep = decompose_weyl(tr, tau_evil, g, 0, 3000, 1, 1)
    direct = weighted_sum(thue_morse_even(), INV_X, 101, IntervalProgression(0, 3000))
    assert abs(complex(rep.s0) - complex(direct)) < 1e-9


def test_decompose_higher_order_characters():
    tr = digit_sum_transducer(2, 4)
    g = FractionPhase(INV_X, 41)
    rep = decompose_weyl(tr, tau_sign, g, 0, 2000, 1, 1)
    assert rep.exact and rep.identities_ok
    assert rep.weight_order == 4
    direct = sum(complex(g(n)) * cmath.exp(2j * cmath.pi * (bin(n).count("1") % 4) / 4)
                 for n in range(1, 2001))
    assert abs(complex(rep.s0) - direct) < 1e-9


def test_decompose_sync_failures_counted():
    from autoexp.presets import block_11_transducer, tau_pick
    tr = block_11_transducer()
    rep = decompose_weyl(tr, tau_pick(2), lambda n: 1, 0, 2000, 1, 1)
    assert rep.identities_ok
    assert rep.sync_failures > 0  # multi-state machine genuinely desynchronizes


def test_decompose_float_mode():
    tr = thue_morse_transducer()
    g = lambda n: 0.8 * cmath.exp(2j * cmath.pi * 0.618 * n)
    rep = decompose_weyl(tr, tau_evil, g, 0, 1500, 1, 1)
    assert not rep.exact
    assert rep.identities_ok
    direct = sum((1 if bin(n).count("1") % 2 == 0 else 0) * g(n)
                 for n in range(1, 1501))
    assert abs(complex(rep.s0) - direct) < 1e-8


@pytest.mark.parametrize("y", [2 * 10 ** 8, 10 ** 12, 2 ** 63 - 1000, 2 ** 64 + 7])
def test_decompose_far_offsets_match_per_n_sum(y):
    # the budget covers the window and RM^2, not y; S_0 against per-n walks
    tr = block_11_transducer()
    g = FractionPhase(INV_X, 101)
    rep = decompose_weyl(tr, tau_pick(2), g, y, 2000, 1, 1)
    assert rep.exact and rep.identities_ok
    want = Cyclotomic.zero()
    for n in range(y + 1, y + 2001):
        T = Cyclotomic.from_phase(oracles.value_phase(tr, n))
        want = want + tau_pick(2)(T, tr.dfao.state_at(n)) * g(n)
    assert rep.s0 == want


def test_decompose_precondition():
    tr = thue_morse_transducer()
    with pytest.raises(ValueError):
        decompose_weyl(tr, tau_evil, lambda n: 1, 0, 50, 1, 1)  # RM^2 > x/10


def test_decompose_comparator_and_rows(pins):
    tr = thue_morse_transducer()
    g = FractionPhase(INV_X, 1009)
    rep = decompose_weyl(tr, tau_evil, g, 0, 20000, 1, 1)
    assert rep.comparator_exceeds
    assert rep.eta_used is None  # one-state machine: no sync failures
    stages = {row[0] for row in rep.rows()}
    assert stages == {"S0", "S1", "S2", "S3", "S4", "S5"}
    for _, _, lhs, rhs, slack in rep.vdc_rows:
        assert slack >= -1e-9 * max(1.0, rhs)


# bucket_sums calls of decompose_weyl for thue_morse (D = 2) at M = R = 2, in
# order: S1, S2, sync correction, S3 (t = 0, 1), then per r: S5, S4' by
# (m, weight difference) and its carry correction C4.  At r = 0 every weight
# difference is 0, so the r = 1 tables (calls 9 and 10) are the ones altered.
# The identity checks do not go through bucket_sums, so they see the altered
# table.
@pytest.mark.parametrize("call, flag", [(0, "identity_s1"), (1, "identity_s1"),
                                        (3, "identity_s3"), (5, "identity_s4"),
                                        (9, "identity_s4"), (10, "identity_s4")])
@pytest.mark.parametrize("mode, how", [("exact", "drop"), ("float", "drop"),
                                       ("exact", "swap"), ("float", "swap")],
                         ids=["exact", "float", "exact-swap", "float-swap"])
def test_a_lost_stage_entry_fails_the_identities(monkeypatch, call, flag, mode, how):
    from autoexp.modring import PhaseValues
    bucket_sums = PhaseValues.bucket_sums
    tables = []

    def lossy(self, *args, **kwargs):
        table = bucket_sums(self, *args, **kwargs)
        if len(tables) == call and how == "drop":   # drop the largest entry
            del table[max(table, key=lambda b: abs(complex(table[b])))]
        elif len(tables) == call:
            # swap two values that differ beyond float noise: the total over
            # all buckets stays, so only a check that keeps buckets apart sees
            # it.  With D = M = 2, an even and an odd label lie in different
            # buckets of the identity that reads this table.
            a = min(table)
            b = min(c for c in table
                    if c % 2 != a % 2 and abs(complex(table[c]) - complex(table[a])) > 1e-3)
            table[a], table[b] = table[b], table[a]
        tables.append(table)
        return table

    monkeypatch.setattr(PhaseValues, "bucket_sums", lossy)
    g = FractionPhase(INV_X, 101)
    rep = decompose_weyl(thue_morse_transducer(), tau_evil,
                         g if mode == "exact" else lambda n: complex(g(n)), 0, 2000, 1, 1)
    assert rep.exact == (mode == "exact")
    assert not getattr(rep, flag)
    assert not rep.identities_ok


def test_each_identity_is_one_normalisation(monkeypatch):
    # S1 and S3 take one normal_forms call each, and each shift r two: its
    # character expansion S4 from S4', and its identity's expansion of S5 and
    # C4.  Every call is tagged with the nested helpers between indexed_sums
    # and decompose_weyl (False for the unbucketed S0).
    import sys
    from autoexp import exact
    from autoexp.modring import PhaseValues
    normal_forms, indexed_sums = exact.normal_forms, PhaseValues.indexed_sums
    calls, inside = [], []

    def count(*args):
        calls.extend(inside)
        return normal_forms(*args)

    def bucketed(self, table, index, buckets=None):
        frame, chain = sys._getframe(1), []
        while frame.f_code.co_name != "decompose_weyl":
            if not frame.f_code.co_name.startswith("<"):    # not a comprehension
                chain.append(frame.f_code.co_name)
            frame = frame.f_back
        inside.append(buckets is not None and " < ".join(chain))
        try:
            return indexed_sums(self, table, index, buckets)
        finally:
            inside.pop()

    monkeypatch.setattr(exact, "normal_forms", count)
    monkeypatch.setattr(PhaseValues, "indexed_sums", bucketed)
    g = FractionPhase(INV_X, 101)
    for tr, lam2 in ((thue_morse_transducer(), 2), (block_11_transducer(), 1)):
        calls.clear()
        rep = decompose_weyl(tr, tau_evil, g, 3, 4000, 1, lam2)
        assert rep.exact and rep.identities_ok
        # 2 + 2R normalisations, and no other bucketed one
        assert calls == [False, "regroup", "regroup < expand",
                         *["regroup < expand < shift_stage"] * (2 * rep.R)]


def _planted_g(tr, rng, y, x, M, R):
    """An exact g that is 0 except at n1, n1 + M, n2 = n1 + tM and n2 + M,
    with values 1, 1, 1 and -1, where t > 2 (so n1 + 2M is not in the
    support) and n1 and n2 have the same weight difference at shift M: at
    r = 1 the residue n1 mod M then has the terms +1 and -1 in one S4'
    bucket and no other, so its S4' are all zero.  Pairs with t != 0 mod RM,
    whose S5 classes differ, are preferred."""
    D = tr.weight_order
    j = lambda n: oracles.value_phase(tr, n) * D
    groups: dict = {}
    for n in range(y + 1, y + x + 1):
        groups.setdefault(((j(n) - j(n + M)) % D, n % M), []).append(n)
    pairs = [(n1, n2) for members in groups.values() for n1 in members for n2 in members
             if n2 - n1 >= 3 * M]
    n1, n2 = rng.choice([p for p in pairs if (p[1] - p[0]) % (R * M * M)] or pairs)
    plant = {n1: 1, n1 + M: 1, n2: 1, n2 + M: -1}
    return lambda n: plant.get(n, 0), n1


def test_identities_hold_on_random_transducers(monkeypatch):
    # random synchronizing transducers (bases 2, 3, 5; up to 4 states; D up
    # to 12), lam1, lam2 <= 1, offsets up to 2^64 + 7: every identity holds
    # exactly and with complex g; and moving one entry of one stage table to
    # another bucket fails them.  Planted g's give residues whose S4' are all
    # zero, so their expansion has no bucket there while S5 and C4 have one.
    from autoexp.modring import PhaseValues
    rng = random.Random(26)
    bucket_sums = PhaseValues.bucket_sums
    tables, alter = [], []

    def spy(self, *args, **kwargs):
        table = bucket_sums(self, *args, **kwargs)
        if alter and alter[0] == len(tables):     # move entry a to bucket b
            _, a, b = alter
            table[b] = table.get(b, 0) + table.pop(a)
        tables.append(table)
        return table

    monkeypatch.setattr(PhaseValues, "bucket_sums", spy)
    fracs = [parse_rational_function(f) for f in ("1/X", "X^2", "(X^2+1)/X")]
    zero_classes = 0
    for draw in range(30):
        tr = random_transducer(rng)
        k, D, S = tr.base, tr.weight_order, tr.dfao.n_states
        lam1, lam2 = rng.randrange(2), rng.randrange(2)
        M, R = k ** lam1, k ** lam2
        x = 10 * R * M * M + rng.randrange(300)
        y = rng.choice([0, rng.randrange(10 ** 12), 2 ** 64 + 7])
        tau = rng.choice([tau_sign, tau_evil, tau_pick(rng.randrange(S))])
        if R > 1 and draw % 2:
            g, n1 = _planted_g(tr, rng, y, x, M, R)
        else:
            g, n1 = FractionPhase(rng.choice(fracs), rng.choice([7, 41, 101, 1009])), None
        tables.clear()
        rep = decompose_weyl(tr, tau, g, y, x, lam1, lam2, eta=None)
        assert rep.exact and rep.identities_ok, draw
        clean = list(tables)
        if n1 is not None:
            assert all(rep.s4[(n1 % M, c, 1)] == 0 for c in range(D))
        # a residue whose S4 (so S4') are all zero, where S5 is not
        zero_classes += any(all(rep.s4[(m, c, r)] == 0 for c in range(D))
                            and any(v != 0 for (m5, r5), v in rep.s5.items()
                                    if m5 % M == m and r5 == r)
                            for m, _, r in rep.s4)
        fl = decompose_weyl(tr, tau, lambda n: complex(g(n)), y, x, lam1, lam2, eta=None)
        assert not fl.exact and fl.identities_ok
        # calls in order: S1, S2, the sync correction, S3 per character, then
        # per shift S5, S4' and C4.  A move within one residue mod M of an S5
        # table can leave every regrouping unchanged, so S5 moves change it.
        moves = {}
        for call, table in enumerate(clean):
            a = max(table, key=lambda c: abs(complex(table[c])), default=None)
            s5 = call >= 3 + D and (call - 3 - D) % 3 == 0
            targets = [b for b in table if b != a and not (s5 and (b - a) % M == 0)]
            if targets and table[a] != 0:
                moves[call] = a, targets
        call = rng.choice(sorted(moves))
        move = call, moves[call][0], rng.choice(moves[call][1])
        alter[:] = move
        tables.clear()
        bad = decompose_weyl(tr, tau, g, y, x, lam1, lam2, eta=None)
        alter.clear()
        assert bad.exact and not bad.identities_ok, (draw, move)
    assert zero_classes >= 1


@pytest.mark.parametrize("eta", [float("nan"), float("inf"), -float("inf"), "abc"])
def test_eta_is_fit_or_finite(eta):
    with pytest.raises(ValueError, match="eta must be 'fit' or a finite number"):
        decompose_weyl(thue_morse_transducer(), tau_evil, lambda n: 1, 0, 2000, 1, 1, eta=eta)


def _stage_tables(rep):
    return (rep.exact, rep.s0, rep.s1, rep.s2, rep.s3, rep.s4, rep.s5,
            rep.sync_failures, rep.carry_failures, rep.identities_ok)


def test_phase_object_matches_plain_callable():
    # the one-pass phase array and per-n evaluation of the same g give the
    # same exact stages, block totals and correlations
    grid = dict(weyl_grid_configs())
    klo = parse_rational_function("(X^2+1)/X")
    configs = [grid["tm-sign-klo61"], grid["b11-pick-eq257"], grid["ds24-sign-eq101"],
               grid["tm-evil-one-d"],
               dict(tr=block_11_transducer(), tau=tau_evil, g=FractionPhase(klo, 45),
                    y=7, x=3000, lam1=1, lam2=1)]
    for kw in configs:
        g = kw["g"]
        a = decompose_weyl(**kw, eta=None)
        b = decompose_weyl(**dict(kw, g=lambda n: g(n)), eta=None)
        assert a.exact and a.identities_ok
        assert _stage_tables(a) == _stage_tables(b)
        for dfao in (thue_morse_even(), block_11()):
            blk = block_decompose_sum(dfao, g, kw["y"], 600, 5)
            assert blk.exact and blk.total == block_decompose_sum(
                dfao, lambda n: g(n), kw["y"], 600, 5).total
        for h, s, a_res in ((0, 1, 0), (5, 3, 2), (61, 4, 1)):
            assert correlation_sum(g, 700, kw["y"], h, s, a_res) == correlation_sum(
                lambda n: g(n), 700, kw["y"], h, s, a_res)


def _assert_stage_parity(a, b):
    # float and exact stages agree entry by entry to 1e-12 of the sum's size;
    # a key missing from one side (an empty bucket) reads as 0
    tol = 1e-12 * max(1.0, abs(complex(a.s0)))
    assert abs(complex(a.s0) - complex(b.s0)) <= tol
    for ta, tb in ((a.s1, b.s1), (a.s2, b.s2), (a.s3, b.s3), (a.s4, b.s4), (a.s5, b.s5)):
        for key in set(ta) | set(tb):
            assert abs(complex(ta.get(key, 0)) - complex(tb.get(key, 0))) <= tol, key


def test_float_mode_matches_exact_mode():
    # complex(g) forces every stage and correction through the float path;
    # the b11 configs desynchronize and violate the carry property, so the
    # float sync and carry corrections are exercised
    grid = dict(weyl_grid_configs())
    for label in ("b11-pick-eq257", "b11-evil-eq101", "ds33-sign-eq41", "tm-sign-klo61"):
        kw = grid[label]
        g = kw["g"]
        a = decompose_weyl(**kw, eta=None)
        b = decompose_weyl(**dict(kw, g=lambda n: complex(g(n))), eta=None)
        assert a.exact and not b.exact
        assert a.identities_ok and b.identities_ok
        assert (a.sync_failures, a.carry_failures) == (b.sync_failures, b.carry_failures)
        if label.startswith("b11"):
            assert a.sync_failures > 0 and sum(a.carry_failures.values()) > 0
        _assert_stage_parity(a, b)


def test_block_and_weighted_sum_float_match_exact():
    from autoexp.automata import rudin_shapiro
    from autoexp.expsums import IntervalProgression, weighted_sum
    rs = rudin_shapiro()
    rs_c = Dfao(rs.base, rs.transitions, [complex(v) for v in rs.outputs], rs.initial)
    assert not all(isinstance(v, Cyclotomic) for v in rs_c.outputs)
    g = FractionPhase(INV_X, 257)
    for y, x, sigma in ((0, 600, 5), (31, 2000, 4)):
        a = block_decompose_sum(rs, g, y, x, sigma)
        b = block_decompose_sum(rs_c, g, y, x, sigma)
        assert a.exact and not b.exact
        tol = 1e-12 * max(1.0, abs(complex(a.total)))
        assert abs(complex(a.total) - b.total) <= tol
        assert abs(complex(a.direct_total) - b.direct_total) <= tol
    for region in (IntervalProgression(0, 3000), IntervalProgression(40, 2500, 3, 1)):
        a = weighted_sum(rs, INV_X, 257, region)
        b = weighted_sum(rs_c, INV_X, 257, region)
        assert isinstance(b, complex)
        assert abs(complex(a) - b) <= 1e-12 * max(1.0, abs(complex(a)))
