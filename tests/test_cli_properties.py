"""Fuzz of the command line, run in-process: any fraction text given to
--f, and any value of any option of any subcommand drawn from a fixed pool,
ends in a result (with --json, JSON without NaN or Infinity), or in exit
code 1 or 2 with one line on stderr."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
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


# -- every subcommand and option, from the parser's own table ---------------

POOL = {
    int: [0, 1, 2, 3, -1, 101, 2 ** 63, 2 ** 70],
    float: [0.75, -1.0, 1e300, float("nan")],
    None: ["", "x", "1/X", "X^2", "1/X,1/X", "thue_morse_even", "block_11",
           "digit_sum_mod(2,3)", "thue_morse", "digit_sum(2,3)", "evil", "pick:0",
           "fit", "0,q", "crt", "quad-geometric", "conv-algebra", "weyl-exact",
           "no-such-property"],
}
# --out writes files; every preset already runs in the acceptance suite
NEVER = {"help", "out"}
SUBPARSERS = next(a for a in cli._build_parser()._actions if a.dest == "command").choices


@st.composite
def argvs(draw):
    """A subcommand with its required options and a random subset of the
    others, each value drawn from POOL by the option's type."""
    name = draw(st.sampled_from(sorted(set(SUBPARSERS) - {"preset"})))
    argv = [name]
    for action in SUBPARSERS[name]._actions:
        if not action.option_strings or action.dest in NEVER:
            continue
        # --trials always: its defaults (10^4 vdc trials) would dominate the run
        if not (action.required or action.dest == "trials" or draw(st.booleans())):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
            continue
        values = [0, 1, 3] if action.dest == "trials" else POOL[action.type]
        argv.append(f"{flag}={draw(st.sampled_from(values))}")   # '=' keeps -1 and '' values
    return argv


BIG = str(2 ** 70)
CARRY = ["carry-scan", "--transducer", "thue_morse", "--rho-list", "1"]
WEYL = ["weyl-decompose", "--transducer", "thue_morse", "--g-one", "--x", "100"]


@settings(max_examples=300)
@example(["correlate", "--f", "-1", "--q", str(2 ** 63), "--x", "99999999999", "--h", "0"])
@example(["correlate", "--f", "-1", "--q", "2", "--x", BIG, "--h", "0"])
@example(["verify-weil", "--f", "1/X", "--primes-max", "-1"])
@example(["verify-weil", "--f", "1/X", "--primes-max", "99999999999"])
@example(["verify-gcd", "--f-list", "1/X", "--r-list", "1", "--ell-list", "0",
          "--p-max", "-1"])
@example(CARRY + ["--lam", "4", "--alpha", "1", "--r-list", "5000"])
@example(["vdc-check", "--x-max", "99999999999", "--trials", "1"])
@example(["check", "--property", "crt", "--q-max", "2"])
@example(["check", "--property", "crt", "--q-max", "-1"])
@example(["eval", "--auto", "digit_sum_mod(2,3)", "--n", "1", "--lam", BIG])
@example(CARRY + ["--lam", BIG, "--alpha", "1"])
@example(CARRY + ["--lam", "4", "--alpha", BIG])
@example(["sync-scan", "--auto", "block_11", "--x", "100", "--lam-list", BIG])
@example(WEYL + ["--l1", BIG, "--l2", "1"])
@example(WEYL + ["--l1", "1", "--l2", BIG])
@example(["block-decompose", "--auto", "block_11", "--g-one", "--x", "100", "--sigma", BIG])
@example(["scan-pv", "--auto", "thue_morse_even", "--f", "1/X", "--q-list", "101",
          "--theta", "1e300"])
@example(["vdc-check", "--trials", "1", "--k-max", BIG])
@example(["check", "--property", "crt", "--trials", "1", "--seed", "-1"])
@example(["vdc-check", "--trials", "0", "--json"])
@example(["count-congruence", "--set", "thue_morse_even", "--f", "1/X", "--q", "1", "--json"])
@given(argvs())
def test_every_option_gives_a_result_or_a_one_line_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        mp.setenv("AUTOEXP_BUDGET", "100000")
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().count("\n") == 1
    elif "--json" in argv:      # JSON has no NaN or Infinity
        json.loads(out.getvalue(), parse_constant=_no_constant)
    assert "Traceback" not in out.getvalue() + err.getvalue()


def _no_constant(name):
    raise ValueError(f"{name} in JSON output")
