"""Tests of the benchmark itself: call lists, tracer and output checks.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import autoexp  # noqa: E402
from autoexp import cli, presets  # noqa: E402
from autoexp.presets import RunConfig  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

# cheap calls that still reach every traced module
SMALL_CALLS = [
    ("sum", RunConfig("sum", {"auto": "thue_morse_even", "f": "1/X", "q": 1009,
                              "x": 1009, "y": 10 ** 9})),
    ("count", RunConfig("count-congruence", {"set": "thue_morse_even",
                                             "f": "1/X,1/X", "q": 101, "m": 1})),
    ("sync", RunConfig("sync-scan", {"auto": "block_11", "x": 1024, "y": 0,
                                     "lam_list": "2,3"})),
    ("weyl", RunConfig("weyl-decompose", {"transducer": "thue_morse", "tau": "evil",
                                          "g_f": "1/X", "g_q": 101, "x": 400,
                                          "l1": 1, "l2": 1})),
    ("weil", RunConfig("verify-weil", {"f": "1/X", "primes_max": 30,
                                       "assert_exact": "-1"})),
]


def _snapshot():
    """Every attribute of every autoexp module and of the classes they define."""
    snap = {}
    for mod in tracer._autoexp_modules():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("autoexp"):
                for attr, raw in vars(value).items():
                    snap[(mod.__name__, name, attr)] = raw
    return snap


def _run_traced(calls):
    with tracer.Tracer() as tr:
        outs = [verify.normalize(cli.execute(cfg)) for _, cfg in calls]
    return outs, tr.metrics()


def test_workloads_cover_every_preset_once():
    used = [spec[1] for name in workloads.WORKLOADS
            for _, spec in workloads.WORKLOADS[name] if spec[0] == "preset"]
    assert sorted(used) == sorted(presets.PRESETS)
    assert len(set(workloads.all_labels())) == len(workloads.all_labels())


def test_seed_feeds_only_the_seeded_presets():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, workloads.DEFAULT_SEED)
        b = workloads.build(name, 7)
        for (label, ca), (_, cb) in zip(a, b):
            if label in workloads.SEEDED_PRESETS:
                assert ca.args["seed"] == workloads.DEFAULT_SEED and cb.args["seed"] == 7
            else:
                assert ca.args == cb.args


def test_tracer_restores_every_attribute():
    before = _snapshot()
    _run_traced(SMALL_CALLS)
    after = _snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_tracer_wraps_every_binding():
    original = autoexp.modring.phase_numerators
    with tracer.Tracer():
        wrapped = autoexp.modring.phase_numerators
        assert wrapped is not original
        assert autoexp.expsums.phase_numerators is wrapped
        assert autoexp.sync_failure_count is autoexp.vandercorput.sync_failure_count
        assert autoexp.exact.Cyclotomic.__radd__ is not autoexp.exact.Cyclotomic.__add__
    assert autoexp.expsums.phase_numerators is original


def test_traced_outputs_equal_untraced_and_counts_repeat():
    plain = [verify.normalize(cli.execute(cfg)) for _, cfg in SMALL_CALLS]
    outs1, m1 = _run_traced(SMALL_CALLS)
    outs2, m2 = _run_traced(SMALL_CALLS)
    assert outs1 == plain and outs2 == plain
    counts = {k: v for k, v in m1.items() if k.rsplit(".", 1)[1] in tracer.COUNT_STATS}
    assert counts == {k: m2[k] for k in counts}
    for module in ("modring", "exact", "automata", "expsums", "vandercorput",
                   "congruence", "cli"):
        assert any(v for k, v in counts.items()
                   if k.startswith(module + ".") and k.endswith(".calls")), module
    # the y = 1e9 offset sends states_at down the digit-walk path
    assert m1["automata.Dfao.states_at.walk_paths"] >= 1
    assert m1["automata.Dfao.walk.calls"] >= 1009


def test_self_times_partition_the_root_span():
    with tracer.Tracer() as tr:
        for _, cfg in SMALL_CALLS:
            cli.execute(cfg)
    # every span nests under cli.execute, so the self times of all layers
    # add up to its inclusive time, to the nanosecond
    stats = tr._stats
    assert sum(st.self_ns for st in stats.values()) == stats["cli.execute"].busy_ns
    assert stats["cli.execute"].calls == len(SMALL_CALLS)


def test_verification_flags_perturbed_results():
    expected = verify.load_expected()
    pins = verify.load_pins(ROOT)
    seed = workloads.DEFAULT_SEED
    good = copy.deepcopy(expected["calls"]["carry-decay"])
    assert verify.check("carry-decay", good, seed, expected, pins) == []

    count_off = copy.deepcopy(good)
    count_off["rows"][0][2] += 1
    assert verify.check("carry-decay", count_off, seed, expected, pins)

    weil = copy.deepcopy(expected["calls"]["weil-grid"])
    weil["rows"][3][2] *= 1 + 1e-12
    assert verify.check("weil-grid", weil, seed, expected, pins) == []
    weil["rows"][3][2] *= 1 + 1e-6
    assert verify.check("weil-grid", weil, seed, expected, pins)


def test_pins_catch_a_result_that_matches_nothing_else():
    pins = verify.load_pins(ROOT)
    sync = copy.deepcopy(verify.load_expected()["calls"]["sync-decay"])
    assert verify._pin_checks("sync-decay", sync, pins) == []
    sync["rows"][0][1] -= 1
    assert verify._pin_checks("sync-decay", sync, pins)


def test_foreign_seed_uses_pass_conditions():
    expected = verify.load_expected()
    pins = verify.load_pins(ROOT)
    cfg = dict(workloads.build("small-calls", 5))["conv-algebra"]
    out = verify.normalize(cli.execute(cfg))
    assert verify.check("conv-algebra", out, 5, expected, pins) == []
    out["rows"][0][0] = 199
    assert verify.check("conv-algebra", out, 5, expected, pins)


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == run.per_layer_metrics()
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_expected_results_cover_every_call(name):
    assert set(workloads.labels(name)) <= set(verify.load_expected()["calls"])


def test_verification_survives_a_changed_output_shape():
    expected = verify.load_expected()
    pins = verify.load_pins(ROOT)
    out = copy.deepcopy(expected["calls"]["pv-thue-morse"])
    out["rows"][0][1] = 12345          # a q the pins do not know
    assert verify.check("pv-thue-morse", out, workloads.DEFAULT_SEED, expected, pins)
    crt = {"columns": expected["calls"]["crt-check"]["columns"], "rows": [],
           "metadata": {}}
    assert verify.check("crt-check", crt, 5, expected, pins)
