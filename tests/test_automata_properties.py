"""Property tests: Dfao.window_states against per-n digit walks, and the
text format round trip.

Random automata in bases 2, 3 and 5 (digit 0 need not fix a state), windows
of up to 300 terms at offsets up to 2^70, placed against K, the least power
of k >= x: below K, straddling a multiple of K, where the digits above the
lowest log_k(K) change inside the window, and between two multiples; and
windows of S*k^4 terms and more against Dfao.digit_states.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from autoexp.automata import Dfao, base_digits  # noqa: E402


@st.composite
def automata(draw):
    k = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 6))
    trans = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
                          min_size=n, max_size=n))
    return Dfao(k, trans, [0] * n, initial=draw(st.integers(0, n - 1)),
                _check_initial_loop=False)


@st.composite
def windows(draw, k):
    """(y, x) with the window (y, y+x] below K, across a multiple of K or
    between two, K = k^sigma the least power of k >= x."""
    x = draw(st.integers(1, 300))
    K = k ** len(base_digits(x - 1, k))     # the least power of k >= x
    place = draw(st.sampled_from(("h=0", "straddle", "inside")))
    if place == "h=0" and K > 1:        # y = -1 is the window of state_table
        return draw(st.integers(-1, K - 2)), x
    h = draw(st.integers(1, 2 ** 70 // K))
    if place == "straddle" and x > 1:
        m0 = draw(st.integers(K - x + 1, K - 1))
    else:
        m0 = draw(st.integers(0, K - x))
    return h * K + m0 - 1, x


@given(st.data())
def test_window_states_match_walks_from_every_start(data):
    d = data.draw(automata())
    y, x = data.draw(windows(d.base))
    words = [base_digits(n, d.base) for n in range(y + 1, y + x + 1)]
    for s in range(d.n_states):
        got = d.window_states(y, x, s)
        assert got.shape == (x,)
        assert got.tolist() == [d.walk(s, w) for w in words]
    assert d.window_states(y, x).tolist() == [d.walk(d.initial, w) for w in words]


@given(st.data())
def test_long_windows_match_digit_columns_from_every_start(data):
    # x >= S*k^4, so window_states climbs sigma >= 2 digits per level; small
    # y put the lowest levels between 0 and k^(sigma-1)
    d = data.draw(automata())
    k, S = d.base, d.n_states
    x = data.draw(st.integers(S * k ** 4, S * k ** 4 + 3000))
    y = data.draw(st.integers(-1, 3 * x) | st.integers(-1, 2 ** 62 - x))
    ns = np.arange(y + 1, y + x + 1, dtype=np.int64)
    for s in range(S):
        from_s = Dfao(k, d.transitions, [0] * S, s, _check_initial_loop=False)
        assert np.array_equal(d.window_states(y, x, s), from_s.digit_states(ns))


@given(st.data())
def test_text_round_trip_keeps_every_field(data):
    k = data.draw(st.sampled_from((2, 3, 5)))
    n = data.draw(st.integers(1, 6))
    trans = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
                               min_size=n, max_size=n))
    initial = data.draw(st.integers(0, n - 1))
    trans[initial][0] = initial        # the text format checks this loop
    outputs = data.draw(st.lists(st.fractions(max_denominator=10 ** 6),
                                 min_size=n, max_size=n))
    d = Dfao(k, trans, outputs, initial)
    d2 = Dfao.from_text(d.to_text())
    assert (d2.base, d2.initial, d2.outputs) == (d.base, d.initial, d.outputs)
    assert np.array_equal(d2.transitions, d.transitions)
