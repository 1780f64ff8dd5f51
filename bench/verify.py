"""Checks every benchmark call's output.

Each output is compared with the result recorded once in ``expected.json``:
exact fields (integers, counts, booleans, exact rationals, which serialize as
strings) must be equal and floats must agree within relative 1e-9, the
tolerance of the acceptance pins.  The calls that the frozen oracle pins in
``tests/fixtures/oracle_pins.json`` cover are also checked against those
pins.  Under a seed other than the recorded one the seeded presets draw other
inputs, so they are checked by their own pass conditions instead.

``expected.json`` is never regenerated to absorb a behaviour change.
"""

import json
import math
import os

from workloads import DEFAULT_SEED, SEEDED_PRESETS

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
PINS_RELPATH = os.path.join("tests", "fixtures", "oracle_pins.json")

REL_TOL = 1e-9
ABS_TOL = 1e-12   # floats that are float noise around an exact zero


def normalize(report):
    """A SweepReport as plain JSON data, the form expected.json stores."""
    return json.loads(json.dumps(report.to_json_obj(), sort_keys=True, default=str))


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_pins(root):
    with open(os.path.join(root, PINS_RELPATH), encoding="utf-8") as fh:
        return json.load(fh)


def _close(want, got):
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare(want, got, path="$"):
    """List of mismatches between an expected and an actual JSON value."""
    if isinstance(want, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        return [] if _close(want, float(got)) else [f"{path}: {got!r} != {want!r}"]
    if type(want) is not type(got):
        return [f"{path}: type {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if sorted(want) != sorted(got):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in sorted(want) for m in compare(want[key], got[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in compare(w, g, f"{path}[{i}]")]
    return [] if want == got else [f"{path}: {got!r} != {want!r}"]


# -- pass conditions of the seeded presets under a foreign seed -------------

def _seeded_conditions(label, out, seed):
    rows = out["rows"]
    if label == "crt-check":
        checked, _q_max, got_seed = rows[0]
        ok = checked == 100 and got_seed == seed
    elif label == "vdc-fuzz":
        trials, min_rel_slack = rows[0]
        ok = trials == 10000 and min_rel_slack >= -1e-9 \
            and out["metadata"]["seed"] == seed
    elif label == "conv-algebra":
        trials, got_seed = rows[0]
        ok = trials == 200 and got_seed == seed
    else:
        raise KeyError(label)
    return [] if ok else [f"{label}: pass condition failed under seed {seed}: {rows}"]


# -- oracle pins ---------------------------------------------------------

def _pin_checks(label, out, pins):
    """Mismatches against the oracle pins, for the calls the pins cover."""
    cols = out["columns"]
    rows = [dict(zip(cols, row)) for row in out["rows"]]
    bad = []

    def expect(ok, what):
        if not ok:
            bad.append(f"{label}: oracle pin mismatch at {what}")

    if label == "pv-thue-morse":
        pv = pins["pv_scan_tm_inv"]
        for row in rows:
            pin = pv[str(row["q"])][str(row["y"])]
            expect(row["x"] == pin["x"], (row["q"], row["y"], "x"))
            expect(_close(pin["abs"], row["abs"]), (row["q"], row["y"], "abs"))
            expect(_close(pin["ratio"], row["ratio"]), (row["q"], row["y"], "ratio"))
        expect(len(rows) == 9, "row count")
    elif label == "congruence-evil":
        pin = pins["congruence_evil_inv_m1"]
        for row in rows:
            want = pin[str(row["q"])]
            expect(row["N"] == want["N"], (row["q"], "N"))
            expect(_close(want["rel_err"], row["rel_error"]), (row["q"], "rel_err"))
        brute = [row["brute"] for row in rows if row["q"] == 101]
        expect(brute == [str(pin["brute_101"])], "brute_101")
    elif label == "carry-decay":
        pin = pins["carry_tm_lam10_alpha3"]
        for row in rows:
            expect(row["count"] == pin[f"r{row['r']}_rho{row['rho']}"],
                   (row["r"], row["rho"]))
        expect(len(rows) == len(pin), "row count")
    elif label == "sync-decay":
        pin = pins["sync_block11_x65536"]
        expect({str(row["lam"]): row["count"] for row in rows} == pin, "counts")
    elif label == "weyl-exact":
        by_config = {row["config"]: row for row in rows}
        big = by_config.get("tm-evil-eq1009-big")
        expect(big is not None and _close(pins["weyl_s0_q1009_x100000"]["abs"],
                                          big["s0_abs"]), "tm-evil-eq1009-big s0_abs")
        expect(len(rows) == 20 and all(row["identities_ok"] == 1 for row in rows),
               "identities_ok")
    return bad


def check(label, out, seed, expected, pins):
    """Every problem found with one call's normalized output; [] if correct."""
    try:
        return _check(label, out, seed, expected, pins)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # an output whose shape changed fails the check, it does not stop the run
        return [f"{label}: output has an unexpected shape ({type(exc).__name__}: {exc})"]


def _check(label, out, seed, expected, pins):
    if label in SEEDED_PRESETS and seed != DEFAULT_SEED:
        want = expected["calls"][label]
        if out["columns"] != want["columns"]:
            return [f"{label}: columns {out['columns']} != {want['columns']}"]
        return _seeded_conditions(label, out, seed)
    problems = [f"{label}: {m}" for m in compare(expected["calls"][label], out)]
    return problems + _pin_checks(label, out, pins)
