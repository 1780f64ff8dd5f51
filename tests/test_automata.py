import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from autoexp.automata import (Dfao, base_digits, block_11, block_decompose_sum,
                              builtin_sequences, constant_one, digit_sum_mod,
                              find_synchronizing_word, rudin_shapiro,
                              strongly_connected_components, sync_failure_count,
                              sync_failure_counts, thue_morse_even)
from autoexp.exact import Cyclotomic

ONE = Cyclotomic.from_rational(1)
ZERO = Cyclotomic.from_rational(0)


def random_dfao(rng, base=None, n_states=None, max_states=5):
    k = base or rng.choice((2, 2, 3, 4))
    n = n_states or rng.randrange(1, max_states)
    trans = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
    trans[0][0] = 0
    outs = [Fraction(rng.randrange(-2, 3)) for _ in range(n)]
    return Dfao(k, trans, outs)


# -- construction and evaluation ----------------------------------------------


def test_validation():
    with pytest.raises(ValueError):
        Dfao(1, [[0]], [1])
    with pytest.raises(ValueError):
        Dfao(2, [[0]], [1])  # missing digit column
    with pytest.raises(ValueError):
        Dfao(2, [[0, 1]], [1])  # target out of range
    with pytest.raises(ValueError):
        Dfao(2, [[1, 0], [0, 1]], [1, 0])  # digit 0 must fix the start
    for bad in (float("nan"), complex(0, float("inf")), -float("inf"), np.float64("nan")):
        with pytest.raises(ValueError, match="state 1 has a non-finite output"):
            Dfao(2, [[0, 1], [1, 0]], [1, bad])


@pytest.mark.parametrize("trans", [
    [[0, 1], [0]],          # ragged rows
    [[0, 1.5], [1, 0]],     # non-integer target
    [[0, "1"], [1, 0]],     # a string is not a target
    [[0, 2], [1, 0]],       # target >= number of states
])
def test_transition_table_is_checked_as_an_array(trans):
    with pytest.raises(ValueError):
        Dfao(2, trans, [1, 0])


def test_transitions_are_one_read_only_int32_array():
    d = Dfao(2, np.array([[0, 1], [1, 0]], dtype=np.int64), [1, 0])
    assert d.transitions.dtype == np.int32 and d.transitions.shape == (2, 2)
    with pytest.raises(ValueError):
        d.transitions[0, 1] = 0
    assert d.walk(0, [1, 1, 1]) == 1 and type(d.walk(0, [1])) is int


def test_thue_morse_examples():
    tm = thue_morse_even()
    assert tm.evaluate(0) == ONE
    assert tm.evaluate(3) == ONE
    got = [tm.evaluate(n) for n in range(1, 8)]
    want = [ZERO, ZERO, ONE, ZERO, ONE, ONE, ZERO]
    assert got == want


def test_truncated_evaluation():
    tm = thue_morse_even()
    assert tm.evaluate_truncated(5, 2) == ZERO  # 5 mod 4 = 1, odd digit sum
    assert tm.evaluate_truncated(5, 0) == tm.evaluate(0)
    rng = random.Random(2)
    for _ in range(100):
        d = random_dfao(rng)
        lam = rng.randrange(0, 5)
        n = rng.randrange(0, d.base ** lam) if lam else 0
        assert d.evaluate_truncated(n, lam) == d.evaluate(n)


@pytest.mark.parametrize("lam", [0, 3, 2 ** 70])
def test_truncated_evaluation_rejects_negative_n_as_evaluate_does(lam):
    tm = thue_morse_even()
    for evaluate in (tm.evaluate, lambda n: tm.evaluate_truncated(n, lam)):
        with pytest.raises(ValueError, match="n must be non-negative"):
            evaluate(-1)


def test_leading_zero_invariance():
    rng = random.Random(4)
    for _ in range(1000):
        d = random_dfao(rng)
        n = rng.randrange(0, 10 ** 4)
        pad = rng.randrange(0, 4)
        digits = [0] * pad + base_digits(n, d.base)
        assert d.outputs[d.walk(d.initial, digits)] == d.evaluate(n)


def test_state_table_matches_walks():
    rng = random.Random(6)
    for i in range(20):
        d = random_dfao(rng, base=(None, 5, 7)[i % 3])
        table = d.state_table(300)
        for n in range(0, 300, 13):
            assert table[n] == d.state_at(n)
        # every entry, at limits that end mid-level and on a power of the base
        for limit in (0, 1, 2, d.base, d.base + 1, d.base ** 3, rng.randrange(2, 400)):
            assert d.state_table(limit).tolist() == [d.state_at(n) for n in range(limit)]
        for s in range(d.n_states):
            t2 = d.state_table(100, start=s)
            for n in (0, 1, 17, 99):
                assert t2[n] == d.walk(s, base_digits(n, d.base))
    # padded_table reads the sigma-digit zero-padded word of m from each entry
    rng = random.Random(7)
    for _ in range(20):
        d = random_dfao(rng)
        sigma = rng.randrange(0, 5)
        entries = [rng.randrange(d.n_states) for _ in range(3)]
        tab = d.padded_table(entries, sigma)
        assert tab.shape == (3, d.base ** sigma)
        for i, e in enumerate(entries):
            for m in range(d.base ** sigma):
                digs = base_digits(m, d.base)
                assert tab[i, m] == d.walk(e, [0] * (sigma - len(digs)) + digs)


def test_digit_states_match_walks():
    # one digit-column walk against state_at, also where digit 0 moves the
    # initial state (so a leading zero would change the state) and past 2^64
    rng = random.Random(8)
    for i in range(60):
        k, n_states = rng.randrange(2, 6), rng.randrange(1, 7)
        trans = [[rng.randrange(n_states) for _ in range(k)] for _ in range(n_states)]
        initial = rng.randrange(n_states)
        loop = i % 2 == 0
        if loop:
            trans[initial][0] = initial
        elif n_states > 1:
            trans[initial][0] = (initial + 1) % n_states
        d = Dfao(k, trans, [0] * n_states, initial, _check_initial_loop=loop)
        near = [k ** e + o for e in range(1, 12) for o in (-1, 0, 1)]
        ns = [0, 1, k - 1] + near + [rng.randrange(10 ** 7) for _ in range(30)]
        got = d.digit_states(np.array(ns, dtype=np.int64))
        assert got.dtype == np.int32 and got.tolist() == [d.state_at(n) for n in ns]
        far = [0, 2 ** 62 - 1, 2 ** 62, 2 ** 64, k ** 45 - 1, k ** 45] + [
            2 ** 64 + rng.randrange(10 ** 6) for _ in range(20)]
        got = d.digit_states(np.array(far, dtype=object))
        assert got.tolist() == [d.state_at(n) for n in far]
    assert d.digit_states(np.zeros(0, dtype=np.int64)).tolist() == []
    with pytest.raises(ValueError, match="non-negative"):
        d.digit_states(np.array([3, -1]))


# (k, y, x): windows just below and past powers of k, far out, and past 2^64;
# every one is long enough for the climb to take sigma >= 2 digits per level,
# and the last ones reach down to levels that start between 0 and k^(sigma-1)
WINDOWS = [(2, 2 ** 20 - 2, 2 ** 20), (2, 3 * 2 ** 20 + 5, 2 ** 20 + 1),
           (2, 10 ** 12, 200000), (5, 5 ** 9 - 2, 5 ** 8 + 1), (5, 3 * 5 ** 9, 5 ** 8 + 1),
           *[(k, y, 3000) for k in (2, 3, 5) for y in (-1, 0, k ** 12 - 3, 2 ** 64 + 7)],
           *[(k, y, 50000) for k in (2, 3, 5) for y in (-1, 5, 12345, 2 ** 64 + 7)]]


@pytest.mark.parametrize("k, y, x", WINDOWS)
def test_window_states_from_every_start_in_at_most_20x_bytes(k, y, x):
    rng = random.Random(k * 1000 + x)
    d = Dfao(k, [[rng.randrange(4) for _ in range(k)] for _ in range(4)], [0] * 4,
             _check_initial_loop=False)     # digit 0 need not fix a start
    for s in range(d.n_states):
        tracemalloc.start()
        try:
            got = d.window_states(y, x, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (x,) and got.dtype == np.int32
        assert peak <= 20 * x, peak / x
        if y + x < 1 << 23:       # the same transitions read from s by digit columns
            from_s = Dfao(k, d.transitions, [0] * 4, s, _check_initial_loop=False)
            assert np.array_equal(got, from_s.digit_states(np.arange(y + 1, y + x + 1)))
        else:       # per-n walks at both ends and at every 97th n between
            picks = sorted({*range(50), *range(0, x, 97), *range(x - 50, x)})
            assert [got[i] for i in picks] == [
                d.walk(s, base_digits(y + 1 + i, k)) for i in picks]


@pytest.mark.parametrize("y, x", [(-2, 1), (-2 ** 70, 5), (0, 0), (7, -3), (-1, 0)])
def test_window_states_rejects_y_below_minus_one_and_empty_windows(y, x):
    with pytest.raises(ValueError, match="need y >= -1 and x >= 1"):
        block_11().window_states(y, x)


# -- builtins ------------------------------------------------------------------


def test_builtins():
    assert constant_one().evaluate(12345) == ONE
    ds = digit_sum_mod(2, 2)
    tm_sign = [1, -1, -1, 1, -1, 1, 1, -1]
    for n, want in enumerate(tm_sign):
        assert ds.evaluate(n) == Cyclotomic.from_rational(want)
    rs = rudin_shapiro()
    rs_vals = [1, 1, 1, -1, 1, 1, -1, 1]
    for n, want in enumerate(rs_vals):
        assert rs.evaluate(n) == Cyclotomic.from_rational(want)
    b11 = block_11()
    assert b11.evaluate(3) == ONE and b11.evaluate(5) == ZERO
    assert builtin_sequences("thue_morse_even").name == "thue_morse_even"
    with pytest.raises(ValueError):
        builtin_sequences("no_such_thing")


# -- strong connectivity ---------------------------------------------------------


def test_scc_strongly_connected():
    dec = strongly_connected_components(thue_morse_even())
    assert len(dec.components) == 1 and dec.is_final == (True,)


def test_scc_block_11():
    # {q0, q1} are mutually reachable (q0 -1-> q1 -0-> q0), so two components
    dec = strongly_connected_components(block_11())
    assert len(dec.components) == 2
    assert sum(dec.is_final) == 1
    final_comp = dec.is_final.index(True)
    assert dec.components[final_comp] == (2,)


def test_scc_chain():
    chain = Dfao(2, [[0, 1], [1, 1]], [Fraction(0), Fraction(1)])
    dec = strongly_connected_components(chain)
    assert len(dec.components) == 2
    finals = {dec.components[i][0] for i, f in enumerate(dec.is_final) if f}
    assert finals == {1}


# -- synchronization --------------------------------------------------------------


def test_synchronizing_words():
    word = find_synchronizing_word(block_11())
    ends = {block_11().walk(s, word) for s in range(3)}
    assert len(ends) == 1
    assert find_synchronizing_word(thue_morse_even()) is None
    assert find_synchronizing_word(constant_one()) == ()


def test_synchronizing_word_random_validity():
    rng = random.Random(8)
    found = 0
    for _ in range(200):
        d = random_dfao(rng)
        w = find_synchronizing_word(d)
        if w is None:
            continue
        found += 1
        assert len({d.walk(s, w) for s in range(d.n_states)}) == 1
    assert found > 50


def test_sync_failure_count_one_state():
    assert sync_failure_count(constant_one(), 0, 256, 3) == 0


def test_sync_failure_count_range_error():
    with pytest.raises(ValueError):
        sync_failure_count(block_11(), 0, 100, 7)  # 2^7 > 100


def test_sync_failure_count_lambda_zero():
    # lam = 0: truncated word is empty, mismatch iff some state moves
    d = block_11()
    cnt = sync_failure_count(d, 0, 64, 0)
    direct = 0
    for n in range(1, 65):
        digs = base_digits(n, 2)
        direct += any(d.walk(s, digs) != s for s in range(3))
    assert cnt == direct


def test_sync_failure_count_pinned(pins):
    assert sync_failure_count(block_11(), 0, 1024, 4) == pins["sync_block11_x1024_lam4"]


def test_sync_failure_monotone_in_lambda():
    d = block_11()
    counts = [sync_failure_count(d, 0, 4096, lam) for lam in range(1, 11)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_sync_failure_workers_fallback_agrees():
    d = block_11()
    assert sync_failure_count(d, 5, 500, 3) == oracles.sync_failures_by_walks(d, 5, 500, [3])[3]
    # offsets with prefix h >= 1 over K = 512, up to past int64
    for d in (block_11(), rudin_shapiro()):
        for y in (1000, 10 ** 12, 2 ** 64 + 7):
            want = oracles.sync_failures_by_walks(d, y, 300, [0, 3, 8])
            assert {lam: sync_failure_count(d, y, 300, lam) for lam in want} == want


def test_sync_failure_counts_one_table_pass_for_all_lambdas():
    rng = random.Random(8)
    for d in (block_11(), rudin_shapiro(), random_dfao(rng, base=3, n_states=4)):
        for y in (0, 1000, 10 ** 12):
            lams = [5, 0, 3, 1, 3]
            want = oracles.sync_failures_by_walks(d, y, 300, set(lams))
            assert sync_failure_counts(d, y, 300, lams) == [want[lam] for lam in lams]
    assert sync_failure_counts(block_11(), 0, 100, []) == []
    with pytest.raises(ValueError):
        sync_failure_counts(block_11(), 0, 100, [2, 7])     # 2^7 > 100


def test_sync_failure_count_random_automata():
    # kind 0: prefix h = 0; kind 1: h >= 1, straddling (h+1)*K; kinds 2, 3:
    # h >= 1 inside one block (K = the least power of the base >= x)
    rng = random.Random(14)
    no_zero_loop = 0
    for i in range(240):
        kind = i % 4
        d = random_dfao(rng, base=(2, 3, 5)[i % 3], max_states=6)
        no_zero_loop += any(row[0] != s for s, row in enumerate(d.transitions))
        x = rng.randrange(2, 120)
        lam = rng.randrange(0, len(base_digits(x, d.base)))
        K = d.base ** len(base_digits(x - 1, d.base))
        h = 0 if kind == 0 else rng.randrange(1, d.base ** rng.randrange(1, 41))
        lo, hi = (1, K) if kind == 0 else (K - x + 1, K) if kind == 1 else (0, K - x + 1)
        y = h * K + rng.randrange(lo, hi) - 1
        want = oracles.sync_failures_by_walks(d, y, x, [lam])[lam]
        assert sync_failure_count(d, y, x, lam) == want, (d.transitions, y, x, lam)
    assert no_zero_loop > 50


def test_sync_failure_counts_by_blocks_match_walks():
    # windows over many blocks with partial first and last blocks, windows that
    # are exactly one block, and windows that hold block 0, at y = 0, near
    # 10^12 and past 2^64; the lam lists repeat, are unsorted and hold 0
    rng = random.Random(18)
    seen = {"partial": 0, "one_block": 0, "block_0": 0, "many_blocks": 0}
    for i in range(30):
        k = (2, 3, 5)[i % 3]
        d = random_dfao(rng, base=k, max_states=5)
        kind = (i // 3) % 3
        x = rng.randrange(200, 3001)
        top = len(base_digits(x, k)) - 1        # k^top <= x < k^(top+1)
        base_y = (0, 10 ** 12, 2 ** 64)[i % 5 % 3]
        if kind == 0:           # y = 0, or a random offset near base_y
            y = 0 if base_y == 0 else base_y + rng.randrange(10 ** 4)
        elif kind == 1:         # one whole block of K = k^top
            x = k ** top
            y = max(base_y // x, 1) * x - 1
        else:                   # y < k^top: block 0 lies in the window
            y = rng.randrange(k ** top)
        lams = [rng.randrange(top + 1) for _ in range(4)] + [top, 0, top]
        want = oracles.sync_failures_by_walks(d, y, x, set(lams))
        assert sync_failure_counts(d, y, x, lams) == [want[lam] for lam in lams], \
            (d.transitions.tolist(), y, x, lams)
        for lam in set(lams) - {0}:
            K = k ** lam
            first, last = max((y + 1) // K, 1), (y + x) // K
            seen["partial"] += (y + 1) % K != 0 and (y + x + 1) % K != 0 and first < last
            seen["one_block"] += first == last
            seen["block_0"] += y + 1 < K
            seen["many_blocks"] += last - first > 10
    assert min(seen.values()) >= 5, seen


def test_sync_failure_counts_read_prefix_states_only(monkeypatch):
    # for lam >= 1 each start reads the states of the ceil(x/K) + 1 prefixes
    # at most, K = k^lam, plus its truncated table of K entries: never a table
    # as long as the window
    reads = []
    depth = [0]

    def spy(name):
        real = getattr(Dfao, name)

        def wrapped(self, *args, **kwargs):
            depth[0] += 1
            try:
                out = real(self, *args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:           # calls made by the counter itself
                reads.append((name, len(out)))
            return out
        monkeypatch.setattr(Dfao, name, wrapped)

    spy("window_states")
    spy("state_table")
    rng = random.Random(3)
    for d in (block_11(), rudin_shapiro(), random_dfao(rng, base=3, n_states=4),
              random_dfao(rng, base=5, n_states=3)):
        k, S = d.base, d.n_states
        for y in (0, 37, 10 ** 12, 2 ** 64 + 5):
            x = 3000
            for lam in range(1, len(base_digits(x, k))):
                K = k ** lam
                del reads[:]
                sync_failure_count(d, y, x, lam)
                prefixes = [n for name, n in reads if name == "window_states"]
                tables = [n for name, n in reads if name == "state_table"]
                assert len(prefixes) == S and max(prefixes) <= -(-x // K) + 1
                assert len(tables) == S and max(tables) == K


# -- block regrouping ---------------------------------------------------------------


def test_block_decompose_exact_and_classified():
    b11 = block_11()
    res = block_decompose_sum(b11, lambda n: 1, 0, 256, 3)
    assert res.exact
    assert res.total == res.direct_total
    # r in the final set iff reading r from every state lands in the absorbing
    # component; for block_11 that means binary r contains '11'
    for row in res.rows:
        want = "11" in format(row.r, "b") if row.r else False
        assert row.in_final_set == want


def test_block_decompose_strongly_connected_all_final():
    res = block_decompose_sum(thue_morse_even(), lambda n: 1, 0, 64, 2)
    assert all(row.in_final_set for row in res.rows)


def test_block_decompose_matches_direct_sum_random():
    rng = random.Random(12)
    for _ in range(200):
        d = random_dfao(rng)
        sigma = rng.randrange(1, 3)
        K = d.base ** sigma
        x = rng.randrange(K, K + 200)
        y = rng.randrange(0, 60)
        if rng.random() < 0.5:
            g = lambda n: Fraction(n % 5, 3)
        else:
            g = lambda n: complex(np.cos(n), np.sin(n))
        res = block_decompose_sum(d, g, y, x, sigma)
        if res.exact:
            assert res.total == res.direct_total
        else:
            assert abs(res.total - res.direct_total) <= 1e-12 * max(
                1.0, abs(res.direct_total))


def test_block_rows_equal_per_block_walks():
    # each row's entry state and final-set flag, read for all blocks by one
    # window per start state, against a walk of the prefix r from each state
    rng = random.Random(24)
    for y in (0, 10 ** 12, 2 ** 64 + 5):
        for _ in range(40):
            d = random_dfao(rng, base=rng.randrange(2, 6), n_states=rng.randrange(1, 6))
            final = strongly_connected_components(d).final_states()
            sigma = rng.randrange(3)
            K = d.base ** sigma
            x = rng.randrange(K, K + 100)
            res = block_decompose_sum(d, lambda n: 1, y, x, sigma)
            assert [row.r for row in res.rows] == list(range((y + 1) // K, (y + x) // K + 1))
            for row in res.rows:
                digits = base_digits(row.r, d.base)
                assert row.entry_state == d.walk(d.initial, digits)
                assert row.in_final_set == all(d.walk(s, digits) in final
                                               for s in range(d.n_states))
                assert type(row.entry_state) is int and type(row.in_final_set) is bool


@pytest.mark.parametrize("y", [0, 2 ** 64 + 5])
@pytest.mark.parametrize("g", [lambda n: Cyclotomic.root_of_unity(n % 7, 7),
                               lambda n: Fraction(n % 5, 3)], ids=["exact", "float"])
def test_block_check_fails_on_a_perturbed_block_route(monkeypatch, y, g):
    # the direct side reads no block table, so a block route that pairs one
    # block's states with the wrong n fails the check, exact or float
    padded_table = Dfao.padded_table

    def rolled(self, entries, sigma):
        tab = padded_table(self, entries, sigma).copy()
        tab[1] = np.roll(tab[1], 1)
        return tab

    res = block_decompose_sum(block_11(), g, y, 3000, 5)
    assert res.total == res.direct_total
    monkeypatch.setattr(Dfao, "padded_table", rolled)
    with pytest.raises(AssertionError, match="block regrouping failed to match the direct sum"):
        block_decompose_sum(block_11(), g, y, 3000, 5)


def test_block_decompose_walks_no_n(monkeypatch):
    # the direct states come from one digit-column walk, not a walk per n
    calls = []
    walk = Dfao.walk
    monkeypatch.setattr(Dfao, "walk", lambda self, *args: calls.append(1) or walk(self, *args))
    for y in (0, 10 ** 12, 2 ** 64 + 5):
        res = block_decompose_sum(block_11(), lambda n: 1, y, 3000, 5)
        assert res.exact and res.total == res.direct_total
    assert calls == []


def test_block_decompose_requires_small_block():
    with pytest.raises(ValueError):
        block_decompose_sum(thue_morse_even(), lambda n: 1, 0, 3, 2)


# -- text format -----------------------------------------------------------------


def test_text_round_trip(tmp_path):
    for d in (thue_morse_even(), block_11(), rudin_shapiro(), digit_sum_mod(3, 3)):
        path = tmp_path / "m.dfao"
        path.write_text(d.to_text(), encoding="utf-8")
        d2 = Dfao.load(path)
        assert d2.base == d.base and np.array_equal(d2.transitions, d.transitions)
        for n in range(20):
            assert abs(complex(d2.evaluate(n)) - complex(d.evaluate(n))) < 1e-12


def test_text_format_exact_for_rational_outputs(tmp_path):
    d = thue_morse_even()
    d2 = Dfao.from_text(d.to_text())
    assert d2.outputs == d.outputs
    # numpy integers are rationals; numpy bools and floats are not
    d3 = Dfao(2, [[0, 1], [1, 0]], np.array([1, 0]))
    assert d3.outputs == d.outputs and d3.to_text() == d.to_text()
    assert all(type(v) is Cyclotomic for v in d3.outputs)
    for outs in (np.array([True, False]), np.array([1.0, 0.0])):
        assert Dfao(2, [[0, 1], [1, 0]], outs).outputs == (1 + 0j, 0j)


def _assert_table(d):
    """values are d's distinct outputs in order of first use, output_index a
    read-only int32 array with one entry per state, and every per-state read
    goes through the two."""
    idx = d.output_index
    assert idx.dtype == np.int32 and idx.shape == (d.n_states,) and not idx.flags.writeable
    firsts = list(dict.fromkeys(idx.tolist()))
    assert firsts == list(range(len(d.values)))
    assert d.outputs == tuple(d.values[j] for j in idx.tolist())
    for n in range(40):
        assert d.evaluate(n) is d.values[idx[d.state_at(n)]]


def test_builtin_and_loaded_automata_hold_one_output_table():
    for d in (thue_morse_even(), rudin_shapiro(), block_11(), constant_one(),
              digit_sum_mod(3, 3), digit_sum_mod(2, 5)):
        _assert_table(d)
        assert len(d.values) == d.n_states     # the builtins share no output object
        d2 = Dfao.from_text(d.to_text())
        _assert_table(d2)
        assert d2.output_index.tolist() == d.output_index.tolist()
        assert d2.to_text() == d.to_text()


def test_output_table_stores_each_object_once_in_order_of_first_use():
    one, zero = Fraction(1), Fraction(0)
    trans = [[0, 1], [2, 3], [3, 0], [1, 2]]
    d = Dfao(2, trans, [zero, one, zero, zero])
    _assert_table(d)
    assert d.values == (ZERO, ONE) and d.output_index.tolist() == [0, 1, 0, 0]
    # a generator is read once, shared objects included
    g = Dfao(2, trans, (v for v in [one, one, zero, one]))
    _assert_table(g)
    assert g.values == (ONE, ZERO) and g.output_index.tolist() == [0, 0, 1, 0]
    assert Dfao(2, trans, (Fraction(s) for s in range(4))).outputs == tuple(
        Cyclotomic.from_rational(s) for s in range(4))


def test_numpy_array_outputs_keep_every_element():
    # iterating an array makes a new scalar per element; an id taken from a
    # freed scalar would be reused by the next one and merge two values
    S = 300
    trans = [[(2 * s) % S, (2 * s + 1) % S] for s in range(S)]
    for outs, want in ((np.arange(S) * 0.5 - 1j, [complex(s * 0.5, -1) for s in range(S)]),
                       (np.arange(S) % 7, [Cyclotomic.from_rational(s % 7) for s in range(S)])):
        d = Dfao(2, trans, outs)
        _assert_table(d)
        assert d.outputs == tuple(want)


def test_text_rejects_missing_transition():
    text = ("dfao v1 base=2 states=2 initial=0\n"
            "state 0 out=r:1/1\nstate 1 out=r:0/1\n"
            "t 0 0 0\nt 0 1 1\nt 1 0 1\n")
    with pytest.raises(ValueError):
        Dfao.from_text(text)


def test_text_rejects_bad_header_and_lines():
    with pytest.raises(ValueError):
        Dfao.from_text("dfao v2 base=2 states=1 initial=0\n")
    with pytest.raises(ValueError):
        Dfao.from_text("dfao v1 base=2 states=1 initial=0\nstate 0 out=r:1/1\n"
                       "t 0 0 0\nt 0 1 0\nbogus line\n")
