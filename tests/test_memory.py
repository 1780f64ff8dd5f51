"""Memory fences on the large-input kernels, measured with tracemalloc: each
holds little beyond its result.  Every kernel runs once untraced first, so
imports and caches do not count."""

import tracemalloc

from autoexp.automata import block_11, thue_morse_even
from autoexp.congruence import solution_table
from autoexp.modring import parse_rational_function
from autoexp.vandercorput import carry_violation_counts, thue_morse_transducer

MIB = 1 << 20


def _traced_peak(fn):
    """(fn(), the tracemalloc peak of that call in bytes)."""
    fn()
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_congruence_fold_holds_two_spectra_at_most():
    # one kept 2^18-point spectrum (4 MiB), one product buffer, small arrays
    inv_x = parse_rational_function("1/X")
    table, peak = _traced_peak(lambda: solution_table([inv_x] * 3, thue_morse_even(), 100003))
    assert table.count(1).n_solutions == 1249950481
    assert peak <= 15 * MIB, peak / MIB


def test_state_table_peaks_near_its_output():
    states, peak = _traced_peak(lambda: block_11().window_states(-1, 4 * 10 ** 6))
    assert states.nbytes == 16 * 10 ** 6
    assert peak <= 1.25 * states.nbytes, peak / states.nbytes


def test_carry_counts_read_int32_tables():
    counts, peak = _traced_peak(
        lambda: carry_violation_counts(thue_morse_transducer(), 16, 3, [2, 3, 4, 5, 6], 0))
    assert counts == [10923, 5461, 2731, 1365, 683]
    assert peak <= 12 * MIB, peak / MIB
