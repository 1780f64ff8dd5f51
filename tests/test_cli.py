import json
import time

import pytest

import oracles
from autoexp import cli, expsums, presets, vandercorput


def run(argv):
    return cli.main(argv)


def test_sum_ok(capsys):
    code = run(["sum", "--auto", "thue_morse_even", "--f", "1/X",
                "--q", "1009", "--x", "1009"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "re,im,abs"
    assert "17.2381" in out


def test_sum_at_a_pole_hidden_in_a_strong_pseudoprime(capsys):
    # q = 399165290221 * 798330580441 passes Miller-Rabin to the prime bases
    # 2..37; n = y + 1 is its first factor, so 1/n mod q does not exist and
    # the sum is 0
    code = run(["sum", "--auto", "constant_one", "--f", "1/X",
                "--q", "318665857834031151167461", "--y", "399165290220", "--x", "1"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["re,im,abs", "0.0,0.0,0.0"]


def test_sum_not_well_defined(capsys):
    code = run(["sum", "--auto", "thue_morse_even", "--f", "1/(3X)",
                "--q", "15", "--x", "10"])
    err = capsys.readouterr().err
    assert code == 1
    assert "not well-defined" in err


def test_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("AUTOEXP_BUDGET", "100")
    code = run(["carry-scan", "--transducer", "thue_morse", "--lam", "10",
                "--alpha", "3", "--rho-list", "2"])
    assert code == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("rho_list, rhos", [("", []), ("2,9,3", [2, 9, 3]), ("3,3", [3, 3])])
def test_carry_scan_rows_follow_the_rho_list(capsys, rho_list, rhos):
    tr = vandercorput.thue_morse_transducer()
    assert run(["carry-scan", "--transducer", "thue_morse", "--lam", "10", "--alpha", "3",
                "--rho-list", rho_list, "--r-list", "0,7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r,rho,count"
    assert lines[1:] == [f"{r},{rho},{vandercorput.carry_violation_count(tr, 10, 3, rho, r)}"
                         for r in (0, 7) for rho in rhos]


def test_carry_scan_rejects_a_rho_past_lam(capsys):
    assert run(["carry-scan", "--transducer", "thue_morse", "--lam", "10", "--alpha", "3",
                "--rho-list", "12,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: need 0 <= rho < lam\n"


def test_g_f_without_g_q_is_a_one_line_error(capsys):
    for argv in (["weyl-decompose", "--transducer", "thue_morse", "--x", "2000",
                  "--l1", "1", "--l2", "1"],
                 ["block-decompose", "--auto", "block_11", "--x", "256", "--sigma", "3"]):
        code = run(argv + ["--g-f", "1/X"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "--g-q" in err


CARRY = ["carry-scan", "--lam", "2", "--alpha", "1", "--rho-list", "1", "--transducer"]


@pytest.mark.parametrize("argv, budget, needle", [
    (["block-decompose", "--auto", "block_11", "--g-one", "--x", "10", "--sigma", "-1"],
     None, "sigma"),
    (["weyl-decompose", "--transducer", "thue_morse", "--g-one", "--x", "100",
      "--l1", "-1", "--l2", "1"], None, "lam1"),
    (["weyl-decompose", "--transducer", "thue_morse", "--g-one", "--x", "100",
      "--l1", "1", "--l2", "-1"], None, "lam2"),
    (CARRY + ["digit_sum(2,0)"], None, "m must be positive"),
    (CARRY + ["digit_sum(2,-3)"], None, "m must be positive"),
    (CARRY + ["digit_sum(2,3,4)"], None, "use digit_sum(k,m)"),
    (["vdc-check", "--x-max", "0"], None, "--x-max"),
    (["vdc-check", "--d-max", "0"], None, "--d-max"),
    (["vdc-check", "--k-max", "0"], None, "--k-max"),
    (["vdc-check", "--r-max", "0"], None, "--r-max"),
    (["eval", "--auto", "digit_sum_mod(2,3)", "--n", "3"], "abc", "AUTOEXP_BUDGET"),
    (["eval", "--auto", "digit_sum_mod(2,3)", "--n", "3"], "", "AUTOEXP_BUDGET"),
    (CARRY + ["digit_sum(x,3)"], None, "use digit_sum(k,m)"),
    (["scan-pv", "--auto", "thue_morse_even", "--f", "1/X", "--q-list", "101",
      "--theta", "-1"], None, "theta must be positive"),
    (["scan-pv", "--auto", "thue_morse_even", "--f", "1/X", "--q-list", "101",
      "--theta", "0"], None, "theta must be positive"),
    (["eval", "--auto", "digit_sum_mod(x,3)", "--n", "3"], None, "use digit_sum_mod(k,m)"),
    (["weyl-decompose", "--transducer", "thue_morse", "--g-one", "--x", "100",
      "--l1", "1", "--l2", "1", "--tau", "pick:x"], None, "use pick:STATE"),
    (["eval", "--auto", "digit_sum_mod(2,3", "--n", "3"], None, "use digit_sum_mod(k,m)"),
    (["eval", "--auto", "digit_sum_mod(2,3)))", "--n", "3"], None, "use digit_sum_mod(k,m)"),
    (["weyl-decompose", "--transducer", "thue_morse", "--g-one", "--x", "100",
      "--l1", "1", "--l2", "1", "--tau", "pick:99"], None, "a state in [0, 1)"),
    (["weyl-decompose", "--transducer", "thue_morse", "--g-one", "--x", "100",
      "--l1", "1", "--l2", "1", "--tau", "pick:-1"], None, "a state in [0, 1)"),
    (["check", "--property", "crt", "--q-max", "2"], None, "--q-max 2"),
    (["check", "--property", "crt", "--q-max", "-1"], None, "--q-max -1"),
    # exponents of 2^70 are compared with the digit count of x, never raised
    (["sync-scan", "--auto", "block_11", "--x", "100", "--lam-list", str(2 ** 70)],
     None, "lam exceeds"),
    (["weyl-decompose", "--transducer", "thue_morse", "--g-one", "--x", "100",
      "--l1", str(2 ** 70), "--l2", "1"], None, "R*M^2 <= x/10"),
    (["weyl-decompose", "--transducer", "thue_morse", "--g-one", "--x", "100",
      "--l1", "1", "--l2", str(2 ** 70)], None, "R*M^2 <= x/10"),
    (["block-decompose", "--auto", "block_11", "--g-one", "--x", "100",
      "--sigma", str(2 ** 70)], None, "k^sigma must not exceed x"),
    (["vdc-check", "--trials", "1", "--k-max", str(2 ** 70)], "100000", "--k-max"),
    (["vdc-check", "--trials", "3", "--r-max", str(2 ** 70)], "100000", "--r-max"),
    (["check", "--property", "crt", "--trials", "1", "--seed", "-1"], "100000", "--seed"),
    (["check", "--property", "conv-algebra", "--trials", "1", "--seed", "-1"], None, "--seed"),
    (["vdc-check", "--trials", "1", "--seed", "-1"], None, "--seed"),
    (["sync-scan", "--auto", "block_11", "--x", "100", "--lam-list", "7"],
     None, "lam exceeds floor(log_k(x)): lam = 7, x = 100, k = 2"),
    # JSON has no NaN or Infinity, and 1e400 reads as inf
    *[(["weyl-decompose", "--transducer", "thue_morse", "--g-one", "--x", "100",
        "--l1", "1", "--l2", "1", "--eta", eta, "--json"], None,
       "--eta must be 'fit' or a finite number") for eta in ("nan", "inf", "1e400", "abc")],
    # a run of no trials checks nothing: --trials is at least 1
    (["vdc-check", "--trials", "-1"], None, "--trials must be at least 1"),
    (["vdc-check", "--trials", "0", "--json"], None, "--trials must be at least 1"),
    (["check", "--property", "conv-algebra", "--trials", "-1"], None,
     "--trials must be at least 1"),
    (["check", "--property", "crt", "--trials", "-5"], None, "--trials must be at least 1"),
    # the options that choose g, and --f of verify-weil, are required
    (["block-decompose", "--auto", "block_11", "--x", "300", "--sigma", "3"], None,
     "specify --g-one or --g-f/--g-q"),
    (["block-decompose", "--auto", "block_11", "--x", "300", "--sigma", "3", "--g-f", "1/X"],
     None, "--g-f needs --g-q"),
    (["verify-weil", "--q-list", "7"], None, "specify --f or --kloosterman"),
    *[(["verify-weil", "--f", "1/X", "--q-list", "7", "--assert-exact", value], None,
       "--assert-exact must be a rational such as -1 or 3/7") for value in ("abc", "1/0")],
    *[(["block-decompose", "--auto", "block_11", "--g-one", "--x", "100", "--sigma", "2",
        "--y", y], None, "need y >= 0 and x >= 1") for y in ("-2", "-1")],
])
def test_bad_input_is_a_one_line_error_naming_it(capsys, monkeypatch, argv, budget, needle):
    if budget is not None:
        monkeypatch.setenv("AUTOEXP_BUDGET", budget)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err


KLOOSTERMAN = ["verify-weil", "--kloosterman", "--primes-max", "7"]
COUNT = ["count-congruence", "--set", "thue_morse_even", "--f", "1/X"]
WEYL = ["weyl-decompose", "--transducer", "thue_morse", "--g-one", "--x", "400",
        "--l1", "1", "--l2", "1"]


@pytest.mark.parametrize("argv, message", [
    (KLOOSTERMAN + ["--f", "X"], "--f does not apply to --kloosterman"),
    (KLOOSTERMAN + ["--q-list", "5"], "--q-list does not apply to --kloosterman"),
    (KLOOSTERMAN + ["--assert-exact", "-1"], "--assert-exact does not apply to --kloosterman"),
    (KLOOSTERMAN + ["--assert-exact", "abc", "--q-list", "5", "--f", "X"],
     "--f does not apply to --kloosterman"),
    (COUNT + ["--q", "7", "--q-list", "5,7"], "--q does not apply when --q-list is given"),
    (["check", "--property", "quad-geometric", "--trials", "5", "--seed", "9"],
     "--trials does not apply to --property quad-geometric"),
    (["check", "--property", "weyl-exact", "--seed", "9"],
     "--seed does not apply to --property weyl-exact"),
    (["check", "--property", "conv-algebra", "--q-max", "100"],
     "--q-max does not apply to --property conv-algebra"),
    (WEYL + ["--g-f", "1/X", "--g-q", "101"], "--g-f does not apply to --g-one"),
    (WEYL + ["--g-q", "101"], "--g-q does not apply to --g-one"),
    (["block-decompose", "--auto", "block_11", "--g-one", "--g-q", "7", "--x", "300",
      "--sigma", "3"], "--g-q does not apply to --g-one"),
    (["verify-weil", "--f", "1/X", "--q-list", "7", "--assert-real"],
     "--assert-real does not apply without --kloosterman"),
    (COUNT + ["--q", "7", "--all-m", "--m", "3"], "--m does not apply to --all-m"),
])
def test_an_option_left_unread_is_a_usage_error(capsys, argv, message):
    # these runs exited 0 with the option silently ignored, or 1 for check
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_options_that_are_read_still_run(capsys):
    assert run(KLOOSTERMAN) == 0
    assert capsys.readouterr().out.splitlines()[0] == "p,argmax_a,max_abs,bound,ratio,max_imag"
    # an empty --q-list reads as none given, so --q is the one that is read
    assert run(COUNT + ["--q", "7", "--q-list", ""]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("7,0,")
    assert run(KLOOSTERMAN + ["--assert-real"]) == 0
    assert run(WEYL) == 0
    # the presets that reach these subcommands
    for name in ("weil-grid", "exact-sums", "congruence-evil", "crt-check", "conv-algebra"):
        assert run(["preset", name, "--run"]) == 0
    capsys.readouterr()


def test_budget_checked_before_the_tables_are_allocated(capsys):
    # 2 * 10^10 entries would need tens of GiB; the budget stops both first
    for argv in (["weyl-decompose", "--transducer", "thue_morse", "--g-f", "1/X",
                  "--g-q", "101", "--x", "20000000000", "--l1", "1", "--l2", "1"],
                 ["block-decompose", "--auto", "block_11", "--g-f", "1/X",
                  "--g-q", "101", "--x", "20000000000", "--sigma", "8"],
                 ["sync-scan", "--auto", "block_11", "--x", "20000000000",
                  "--lam-list", "2"]):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("budget error") and err.count("\n") == 1


@pytest.mark.parametrize("argv, budget, needle", [
    # 10^11 n: hundreds of GiB of arrays unless the count is checked first
    (["correlate", "--f", "-1", "--q", str(2 ** 63), "--x", "99999999999", "--h", "0"],
     "100000", "region size"),
    (["correlate", "--f", "-1", "--q", "2", "--x", str(2 ** 70), "--h", "0"],
     "100000", "region size"),
    (["verify-weil", "--f", "1/X", "--primes-max", "99999999999"], "100000", "sieve"),
    (["verify-gcd", "--f-list", "1/X", "--r-list", "1", "--ell-list", "0",
      "--p-max", "99999999999"], "100000", "sieve"),
    # the primes <= 200 sum to 4,227 spectrum entries
    (["verify-weil", "--kloosterman", "--primes-max", "200"], "1000", "sum of the primes"),
    (["carry-scan", "--transducer", "thue_morse", "--lam", "4", "--alpha", "1",
      "--rho-list", "1", "--r-list", "5000"], "1000", "weight table length"),
    (CARRY + ["digit_sum(5000,2)"], "1000", "digits per state k"),
    (["vdc-check", "--x-max", "99999999999", "--trials", "1"], "100000", "--x-max"),
    (["carry-scan", "--transducer", "thue_morse", "--lam", str(2 ** 70), "--alpha", "1",
      "--rho-list", "1"], None, "k^(lam+2*alpha) = 2^" + str(2 ** 70 + 2)),
    (["carry-scan", "--transducer", "thue_morse", "--lam", "4", "--alpha", str(2 ** 70),
      "--rho-list", "1"], None, "k^(lam+2*alpha) = 2^" + str(2 ** 71 + 4)),
    (["scan-pv", "--auto", "thue_morse_even", "--f", "1/X", "--q-list", "101",
      "--theta", "1e300"], "100000", "--theta 1e+300"),
])
def test_sizes_are_checked_before_allocation(capsys, monkeypatch, argv, budget, needle):
    if budget is not None:
        monkeypatch.setenv("AUTOEXP_BUDGET", budget)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("budget error") and err.count("\n") == 1
    assert needle in err


def test_primes_below_two_are_an_empty_range(capsys):
    # no prime is <= -1: no rows and no violations, not a complex square root
    assert run(["verify-weil", "--f", "1/X", "--primes-max", "-1"]) == 0
    assert capsys.readouterr().out == "q,abs,comparator,ratio,gcd_factor\n"
    assert run(["verify-gcd", "--f-list", "1/X", "--r-list", "1", "--ell-list", "0",
                "--p-max", "-1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "1/X,1,0,0,"


def test_truncation_past_the_digits_of_n_reads_n(capsys):
    # k^lam > n for lam = 2^70: eval reads n itself, without the power
    assert run(["eval", "--auto", "digit_sum_mod(2,3)", "--n", "5", "--lam", str(2 ** 70)]) == 0
    truncated = capsys.readouterr().out
    assert run(["eval", "--auto", "digit_sum_mod(2,3)", "--n", "5"]) == 0
    assert truncated == capsys.readouterr().out


@pytest.mark.parametrize("lam", [[], ["--lam", "3"], ["--lam", str(2 ** 70)]],
                         ids=["no-lam", "lam-3", "lam-2^70"])
def test_negative_n_is_rejected_with_or_without_truncation(capsys, lam):
    assert run(["eval", "--auto", "thue_morse_even", "--n", "-1"] + lam) == 1
    err = capsys.readouterr().err
    assert err == "error: n must be non-negative\n"


def test_budget_checked_before_an_automaton_is_built(capsys, monkeypatch):
    # digit_sum_mod(2, m) has m states; digit_sum(2, m) a cocycle automaton
    # of 2m transitions
    monkeypatch.setenv("AUTOEXP_BUDGET", "100")
    for argv in (["eval", "--auto", "digit_sum_mod(2,200000)", "--n", "3"],
                 ["carry-scan", "--transducer", "digit_sum(2,200000)", "--lam", "2",
                  "--alpha", "1", "--rho-list", "1"]):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("budget error") and err.count("\n") == 1


@pytest.mark.parametrize("budget, f", [(None, "X^1000000000000"), ("1000", "X^200000")])
def test_budget_checked_before_a_term_is_built(capsys, monkeypatch, budget, f):
    # X^e is a list of e + 1 coefficients: 10^12 of them would need terabytes
    if budget is None:
        monkeypatch.delenv("AUTOEXP_BUDGET", raising=False)
    else:
        monkeypatch.setenv("AUTOEXP_BUDGET", budget)
    code = run(["sum", "--auto", "thue_morse_even", "--f", f, "--q", "101", "--x", "10"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("budget error") and err.count("\n") == 1


def test_weyl_with_lam1_lam2_zero_is_a_valid_decomposition(capsys):
    # M = R = 1: every regrouping has one class and every identity still holds
    code = run(["weyl-decompose", "--transducer", "thue_morse", "--tau", "evil",
                "--g-f", "1/X", "--g-q", "1009", "--x", "400", "--l1", "0", "--l2", "0",
                "--json"])
    meta = json.loads(capsys.readouterr().out)["metadata"]
    assert code == 0
    assert meta["identities_ok"] and (meta["M"], meta["R"]) == (1, 1)


@pytest.mark.parametrize("y", [2 ** 63 - 1000, 2 ** 64 + 7], ids=["2^63-1000", "2^64+7"])
def test_offsets_past_int64_match_per_n_sums(capsys, y):
    # per-n Python-int references: sum of evil(n) e((1/n mod 101)/101), and
    # the correlation of e((1/n mod 101)/101) at shift 5
    want = oracles.weighted_tm_inv_sum(101, y, 1000)
    common = ["--x", "1000", "--y", str(y), "--json"]
    g = ["--g-f", "1/X", "--g-q", "101"]
    argvs = {
        "sum": ["sum", "--auto", "thue_morse_even", "--f", "1/X", "--q", "101"],
        "correlate": ["correlate", "--f", "1/X", "--q", "101", "--h", "5"],
        "block-decompose": ["block-decompose", "--auto", "thue_morse_even",
                            "--sigma", "5"] + g,
        "weyl-decompose": ["weyl-decompose", "--transducer", "thue_morse",
                           "--l1", "1", "--l2", "1"] + g,
    }
    for name, argv in argvs.items():
        assert run(argv + common) == 0, capsys.readouterr().err
        obj = json.loads(capsys.readouterr().out)
        if name == "block-decompose":
            got = complex(obj["metadata"]["total_re"], obj["metadata"]["total_im"])
        else:
            got = complex(*obj["rows"][0][-3:-1])
        ref = oracles.correlation_inv(101, 1000, y, 5, 1, 0) if name == "correlate" else want
        assert abs(got - ref) < 1e-9 * 1000, name
        if name == "weyl-decompose":
            assert obj["metadata"]["identities_ok"]


@pytest.mark.parametrize("q", [2 ** 31 + 11, 3 * 2 ** 61 + 1, 2 ** 64 + 13],
                         ids=["2^31+11", "3*2^61+1", "2^64+13"])
def test_moduli_past_int64_match_per_n_sums(capsys, q):
    # Python-int residues in phase_numerators, and a common modulus L past
    # int64 in PhaseValues.times_root and times_conj (weyl-decompose)
    y, x = 777, 600
    want = oracles.weighted_tm_inv_sum(q, y, x)
    common = ["--x", str(x), "--y", str(y), "--json"]
    g = ["--g-f", "1/X", "--g-q", str(q)]
    argvs = {
        "sum": ["sum", "--auto", "thue_morse_even", "--f", "1/X", "--q", str(q)],
        "correlate": ["correlate", "--f", "1/X", "--q", str(q), "--h", "5"],
        "block-decompose": ["block-decompose", "--auto", "thue_morse_even",
                            "--sigma", "5"] + g,
        "weyl-decompose": ["weyl-decompose", "--transducer", "thue_morse",
                           "--l1", "1", "--l2", "1"] + g,
    }
    for name, argv in argvs.items():
        assert run(argv + common) == 0, capsys.readouterr().err
        obj = json.loads(capsys.readouterr().out)
        if name == "block-decompose":
            got = complex(obj["metadata"]["total_re"], obj["metadata"]["total_im"])
        else:
            got = complex(*obj["rows"][0][-3:-1])
        ref = oracles.correlation_inv(q, x, y, 5, 1, 0) if name == "correlate" else want
        assert abs(got - ref) < 1e-9 * x, name
        if name == "weyl-decompose":
            assert obj["metadata"]["identities_ok"]


def test_execute_reads_the_parser_defaults(capsys):
    # a RunConfig that leaves options out gets what the command line gets
    for argv, args in (
            (["verify-weil", "--f", "1/X"], {"f": "1/X"}),
            (["verify-gcd", "--f-list", "1/X,X^3", "--r-list", "1,2", "--ell-list", "0,1"],
             {"f_list": "1/X,X^3", "r_list": "1,2", "ell_list": "0,1"}),
            (["sum", "--auto", "thue_morse_even", "--f", "1/X", "--q", "101", "--x", "50"],
             {"auto": "thue_morse_even", "f": "1/X", "q": 101, "x": 50})):
        assert run(argv + ["--json"]) == 0
        via_argv = json.loads(capsys.readouterr().out)
        via_config = cli.execute(presets.RunConfig(argv[0], args)).to_json_obj()
        assert via_config == via_argv
    weil = cli.execute(presets.RunConfig("verify-weil", {"f": "1/X"}))
    assert len(weil.rows) == 46     # the primes up to 199
    gcd = cli.execute(presets.RunConfig("verify-gcd", {"f_list": "1/X", "r_list": "1",
                                                       "ell_list": "0"}))
    assert gcd.metadata["p_min"] == 5 and gcd.metadata["p_max"] == 199


def test_count_congruence_without_a_modulus_is_a_one_line_error(capsys):
    assert run(["count-congruence", "--set", "thue_morse_even", "--f", "1/X"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("f, code", [("X^100000/(X+1)", 0), ("X^100000/(2*X+1)", 2),
                                     ("X^100000/(X+2)", 2)])
def test_high_degree_fraction_gives_a_result_or_one_budget_line(capsys, monkeypatch, f, code):
    # reducing P/Q counts its word products against the budget as it goes:
    # over X + 1 the remainders stay small, over 2X + 1 and X + 2 they grow
    # to 2^100000, which the count refuses before the run gets long
    monkeypatch.delenv("AUTOEXP_BUDGET", raising=False)
    t0 = time.monotonic()
    assert run(["sum", "--auto", "thue_morse_even", "--f", f, "--q", "101", "--x", "1000"]) == code
    assert time.monotonic() - t0 < 30.0
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("budget error") and err.count("\n") == 1
    else:
        assert out.startswith("re,im,abs\n") and err == ""


def test_verify_weil_assert_exact_computes_each_sum_once(capsys, monkeypatch):
    calls = []
    complete_sum = expsums.complete_sum
    monkeypatch.setattr(expsums, "complete_sum", lambda f, q: calls.append(q) or complete_sum(f, q))
    assert run(["verify-weil", "--f", "1/X", "--q-list", "101,103", "--assert-exact", "-1"]) == 0
    assert calls == [101, 103]
    assert capsys.readouterr().out.startswith("q,abs,comparator,ratio,gcd_factor\n")


def test_verify_weil_checks_the_budget_before_the_period(capsys, monkeypatch):
    monkeypatch.setenv("AUTOEXP_BUDGET", "100")
    code = run(["verify-weil", "--f", "1/X", "--q-list", "100003"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("budget error") and err.count("\n") == 1


def test_verify_weil_without_f_or_kloosterman_is_a_one_line_error(capsys):
    assert run(["verify-weil"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--f" in err and "--kloosterman" in err


def test_scan_pv_reads_integer_y_policies(capsys):
    from autoexp.automata import thue_morse_even
    from autoexp.expsums import IntervalProgression, weighted_sum
    from autoexp.modring import parse_rational_function
    argv = ["scan-pv", "--auto", "thue_morse_even", "--f", "1/X", "--q-list", "101,103",
            "--theta", "0.8", "--json", "--y"]
    assert run(argv + ["0,5"]) == 0
    rows = [r for r in json.loads(capsys.readouterr().out)["rows"] if r[0] == "5"]
    assert [r[1] for r in rows] == [101, 103]
    for _, q, x, y, s_abs, *_ in rows:
        assert y == 5
        assert s_abs == abs(weighted_sum(thue_morse_even(), parse_rational_function("1/X"),
                                         q, IntervalProgression(5, x)))
    assert run(argv + ["5.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_unknown_preset(capsys):
    assert run(["preset", "definitely-not-a-preset"]) == 1


def test_every_preset_resolves():
    for name in presets.PRESETS:
        cfg = presets.preset(name)
        assert cfg.command in cli._HANDLERS


def test_preset_configurations_pin_the_experiments():
    pv = presets.preset("pv-thue-morse")
    assert pv.args["q_list"] == "1009,10007,100003"
    assert pv.args["theta"] == 0.75
    assert pv.args["y"] == "0,q,10q"
    weil = presets.preset("weil-grid")
    assert weil.args["primes_max"] == 499 and weil.args["kloosterman"]


def test_vdc_check_seeded_byte_identity(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["vdc-check", "--trials", "50", "--seed", "9"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_vdc_check_csv_prints_a_plain_float(capsys):
    assert run(["vdc-check", "--trials", "3"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "trials,min_rel_slack"
    trials, slack = row.split(",")
    assert trials == "3" and slack == repr(float(slack))


def test_preset_prints_config(capsys):
    assert run(["preset", "pv-thue-morse", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["rows"][0][0] == "scan-pv"


def test_preset_run_cheap_ones(capsys):
    for name in ("exact-sums", "carry-decay", "sync-decay", "crt-check",
                 "gcd-lemma"):
        assert run(["preset", name, "--run"]) == 0, name
        capsys.readouterr()


def test_csv_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["scan-pv", "--auto", "thue_morse_even", "--f", "1/X",
            "--q-list", "101,257", "--theta", "0.75", "--y", "0,q"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_pv_metadata_and_removed_options(capsys):
    argv = ["scan-pv", "--auto", "thue_morse_even", "--f", "1/X", "--q-list", "101",
            "--theta", "0.8", "--json"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["metadata"] == {
        "automaton": "thue_morse_even", "c_display": 0.03125, "f": "1/X", "theta": 0.8}
    for extra in (["--c-display", "0.5"], ["--timestamp"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + extra)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _no_constant(name):
    raise ValueError(f"{name} in JSON output")


def test_json_writes_null_where_no_relative_error_exists(capsys):
    # nothing of the set is in [1, q] at q = 1, so the main term is 0
    argv = ["count-congruence", "--set", "thue_morse_even", "--f", "1/X", "--q", "1"]
    assert run(argv + ["--json"]) == 0
    obj = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert obj["columns"][4] == "rel_error"
    assert obj["rows"] == [[1, 0, 0, 0.0, None, 0, ""]]
    assert run(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == "1,0,0,0.0,,0,"


def test_a_non_finite_json_value_is_a_one_line_error(capsys, monkeypatch):
    report = expsums.SweepReport(("v",), [(float("inf"),)])
    monkeypatch.setitem(cli._HANDLERS, "sync-word", lambda args: report)
    assert run(["sync-word", "--auto", "block_11"]) == 0
    assert capsys.readouterr().out == "v\ninf\n"
    assert run(["sync-word", "--auto", "block_11", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


def test_json_output(capsys):
    assert run(["eval", "--auto", "digit_sum_mod(2,2)", "--n", "3",
                "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["columns"] == ["n", "re", "im"]
    assert obj["rows"][0] == [3, 1.0, 0.0]


def test_correlate(capsys):
    assert run(["correlate", "--f", "1/X", "--q", "101", "--x", "101",
                "--h", "5"]) == 0
    out = capsys.readouterr().out
    assert "8.622355" in out


def test_verify_gcd_clean(capsys):
    assert run(["verify-gcd", "--f-list", "1/X", "--r-list", "1",
                "--ell-list", "0", "--p-min", "5", "--p-max", "61"]) == 0


def test_sync_word_and_block_decompose(capsys):
    assert run(["sync-word", "--auto", "block_11"]) == 0
    assert run(["block-decompose", "--auto", "block_11", "--x", "256",
                "--sigma", "3", "--g-one"]) == 0


def test_weyl_decompose_cli(capsys):
    assert run(["weyl-decompose", "--transducer", "thue_morse", "--tau", "evil",
                "--g-f", "1/X", "--g-q", "101", "--x", "2000",
                "--l1", "1", "--l2", "1", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["metadata"]["identities_ok"] is True


def test_vdc_check_cli(capsys):
    assert run(["vdc-check", "--trials", "200", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("trials,min_rel_slack")


def test_check_unknown_property(capsys):
    assert run(["check", "--property", "nope"]) == 1


def test_count_congruence_json(capsys):
    assert run(["count-congruence", "--set", "thue_morse_even", "--f",
                "1/X,1/X", "--q", "101", "--m", "0",
                "--brute-check-max", "101", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    row = obj["rows"][0]
    assert row[0] == 101 and row[2] == int(row[6])


def _all_m_rows(q, capsys):
    assert run(["count-congruence", "--set", "thue_morse_even", "--f", "1/X,1/X,1/X",
                "--q", str(q), "--all-m"]) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("q", [101, 1009])
def test_all_m_rows_equal_the_per_m_rows(capsys, q):
    header, *rows = _all_m_rows(q, capsys)
    assert len(rows) == q
    for m in range(q):
        # execute() reads the same defaults as the command line, without the parser
        one = cli.execute(presets.RunConfig("count-congruence", {
            "set": "thue_morse_even", "f": "1/X,1/X,1/X", "q": q, "m": m}))
        assert one.to_csv().splitlines() == [header, rows[m]]


def test_all_m_rows_equal_brute_force(capsys):
    from autoexp.automata import thue_morse_even
    from autoexp.congruence import brute_force_count
    from autoexp.modring import parse_rational_function
    fs = [parse_rational_function("1/X")] * 3
    rows = _all_m_rows(101, capsys)[1:]
    brute = [brute_force_count(fs, thue_morse_even(), 101, m) for m in range(101)]
    assert [int(row.split(",")[2]) for row in rows] == brute


def test_automaton_file_via_cli(tmp_path, capsys):
    from autoexp.automata import rudin_shapiro
    path = tmp_path / "rs.dfao"
    path.write_text(rudin_shapiro().to_text(), encoding="utf-8")
    assert run(["eval", "--auto", str(path), "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("3,-1.0")


def test_verify_weil_assert_exact_decides_composite_moduli(capsys):
    # the complete sums of X^2 mod 6 and mod 10 are exactly 0
    code = run(["verify-weil", "--f", "X^2", "--q-list", "6,10", "--assert-exact", "0"])
    assert code == 0, capsys.readouterr().err


ONE_STATE = "dfao v1 base=2 states=1 initial=0\nstate 0 out=r:1/1\nt 0 0 0\nt 0 1 0\n"
# lines whose int() or unpacking errors must name them
UNREADABLE_LINES = ("dfao v1 base=abc states=1 initial=0", "state zero out=r:1/1", "t 0 1 x",
                    "state 0 out=r:1", "state 0 out=c:1", "state 0 out=r:x/2")


@pytest.mark.parametrize("text, auto", [
    (ONE_STATE + "state 3 out=r:1/1\n", None),         # state index out of range
    (ONE_STATE + "t 5 1 0\n", None),                   # source state out of range
    (ONE_STATE + "t 0 1 0\n", None),                   # second line for one transition
    (ONE_STATE + "state 0 out=r:1/1\n", None),         # second output for one state
    (ONE_STATE.replace(" initial=0", " other=0"), None),   # header without initial=
    (ONE_STATE.replace("r:1/1", "r:1/0"), None),       # zero denominator: ArithmeticError
    (ONE_STATE.replace("states=1", "states=99999999999"), None),
    (ONE_STATE.replace("r:1/1", "c:nan,0"), None),     # non-finite outputs
    (ONE_STATE.replace("r:1/1", "c:inf,0"), None),
    (ONE_STATE.replace("r:1/1", "c:1e400,0"), None),
    (ONE_STATE.replace("base=2", "base=abc"), None),   # not a number
    (ONE_STATE.replace("state 0", "state zero"), None),
    (ONE_STATE.replace("t 0 1 0", "t 0 1 x"), None),
    (ONE_STATE.replace("r:1/1", "r:1"), None),         # an output missing a part
    (ONE_STATE.replace("r:1/1", "c:1"), None),
    (ONE_STATE.replace("r:1/1", "r:x/2"), None),
    (None, "digit_sum_mod(2)"),
    (None, "digit_sum_mod"),
    (None, "missing.dfao"),
])
def test_bad_automaton_is_a_one_line_error(tmp_path, capsys, text, auto):
    if text is not None:
        auto = str(tmp_path / "bad.dfao")
        with open(auto, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        auto = auto.replace("missing.dfao", str(tmp_path / "missing.dfao"))
    code = run(["eval", "--auto", auto, "--n", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    for line in (text or "").splitlines():
        if line in UNREADABLE_LINES:
            assert repr(line) in err, err
        elif "out=c:" in line:
            assert err.startswith("error: state 0 has a non-finite output"), err


@pytest.mark.parametrize("argv", [
    ["block-decompose", "--g-one", "--x", "100", "--sigma", "2"],
    ["sum", "--f", "1/X", "--q", "1009", "--x", "100", "--json"],
])
def test_a_nan_output_is_a_one_line_error_in_every_command(tmp_path, capsys, argv):
    # NaN != NaN failed the block check with a traceback before the load refused it
    auto = tmp_path / "nan.dfao"
    auto.write_text(ONE_STATE.replace("r:1/1", "c:nan,0"), encoding="utf-8")
    code = run(argv + ["--auto", str(auto)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: state 0 has a non-finite output (nan+0j)\n"


def test_budget_checked_before_the_sum_and_count_arrays(capsys):
    # 10^10 int64 entries would need 74.5 GiB; the budget stops both first
    for argv in (["sum", "--auto", "thue_morse_even", "--f", "1/X", "--q", "1009",
                  "--x", "10000000000"],
                 ["count-congruence", "--set", "thue_morse_even", "--f", "1/X",
                  "--q", "10000000000"]):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("budget error") and err.count("\n") == 1
