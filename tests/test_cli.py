import json

import pytest

import oracles
from autoexp import cli, presets


def run(argv):
    return cli.main(argv)


def test_sum_ok(capsys):
    code = run(["sum", "--auto", "thue_morse_even", "--f", "1/X",
                "--q", "1009", "--x", "1009"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "re,im,abs"
    assert "17.2381" in out


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


def test_g_f_without_g_q_is_a_one_line_error(capsys):
    for argv in (["weyl-decompose", "--transducer", "thue_morse", "--x", "2000",
                  "--l1", "1", "--l2", "1"],
                 ["block-decompose", "--auto", "block_11", "--x", "256", "--sigma", "3"]):
        code = run(argv + ["--g-f", "1/X"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "--g-q" in err


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


def test_automaton_file_via_cli(tmp_path, capsys):
    from autoexp.automata import rudin_shapiro
    path = tmp_path / "rs.dfao"
    rudin_shapiro().save(path)
    assert run(["eval", "--auto", str(path), "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("3,-1.0")


def test_verify_weil_assert_exact_decides_composite_moduli(capsys):
    # the complete sums of X^2 mod 6 and mod 10 are exactly 0
    code = run(["verify-weil", "--f", "X^2", "--q-list", "6,10", "--assert-exact", "0"])
    assert code == 0, capsys.readouterr().err


ONE_STATE = "dfao v1 base=2 states=1 initial=0\nstate 0 out=r:1/1\nt 0 0 0\nt 0 1 0\n"


@pytest.mark.parametrize("text, auto", [
    (ONE_STATE + "state 3 out=r:1/1\n", None),         # state index out of range
    (ONE_STATE + "t 5 1 0\n", None),                   # source state out of range
    (ONE_STATE.replace(" initial=0", " other=0"), None),   # header without initial=
    (ONE_STATE.replace("r:1/1", "r:1/0"), None),       # zero denominator: ArithmeticError
    (ONE_STATE.replace("states=1", "states=99999999999"), None),
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
