"""Fuzz of the command line, run in-process: any fraction text given to
--f ends in a result, or in exit code 1 or 2 with one line on stderr."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from autoexp import cli  # noqa: E402

tokens = st.one_of(st.sampled_from(list("0123456789X^+-*()/ ")),
                   st.integers(0, 10 ** 6).map(str),
                   st.integers(0, 10 ** 6).map(lambda e: f"X^{e}"))


@given(st.lists(tokens, max_size=12).map("".join))
def test_any_fraction_text_is_a_result_or_a_one_line_error(text):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        mp.setenv("AUTOEXP_BUDGET", "1000")
        code = cli.main(["sum", "--auto", "thue_morse_even", "--f=" + text,
                         "--q", "101", "--x", "10"])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().count("\n") == 1
    assert "Traceback" not in out.getvalue() + err.getvalue()
