"""Command-line front end: one executable, subcommand per operation.

Exit codes: 0 success, 1 validation or failed check, 2 resource budget or
an option that the other options given leave unread.
Output is a CSV table (deterministic, header + rows) or JSON with --json.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import warnings
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional

from . import automata, congruence, expsums, presets, vandercorput
from .budget import BudgetError
from .expsums import IntervalProgression, SweepReport
from .modring import FractionPhase, parse_rational_function
from .presets import RunConfig


class UnreadOption(ValueError):
    """An option that the other options given would leave unread: a usage
    error, exit code 2."""


def _parse_int_list(text: str) -> List[int]:
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def _int_params(text: str, count: int, error: str) -> List[int]:
    """The count comma-separated integers of text; ValueError(error) otherwise."""
    try:
        params = _parse_int_list(text)
    except ValueError:
        params = []
    if len(params) != count:
        raise ValueError(error)
    return params


def _km_params(source: str, name: str, error: str) -> List[int]:
    """k and m of source written exactly as name(k,m); ValueError(error) otherwise."""
    exact = source.startswith(name + "(") and source.endswith(")")
    return _int_params(source[len(name) + 1:-1] if exact else "", 2, error)


def _load_automaton(source: str) -> automata.Dfao:
    if os.path.sep in source or os.path.isfile(source) or source.endswith(".dfao"):
        try:
            return automata.Dfao.load(source)
        except OSError as exc:
            raise ValueError(f"cannot read automaton file {source!r}: {exc.strerror}") from None
    name, paren, _ = source.partition("(")
    if name.strip() == "digit_sum_mod":
        return automata.digit_sum_mod(*_km_params(
            source, "digit_sum_mod", f"use digit_sum_mod(k,m), not {source!r}"))
    if paren:
        raise ValueError(f"unknown parametrized automaton {source!r}")
    return automata.builtin_sequences(source)


def _load_transducer(source: str) -> vandercorput.ScalarTransducer:
    if source == "thue_morse":
        return vandercorput.thue_morse_transducer()
    if source.startswith("digit_sum("):
        return vandercorput.digit_sum_transducer(*_km_params(
            source, "digit_sum", f"bad transducer {source!r}; use digit_sum(k,m)"))
    raise ValueError(f"unknown transducer {source!r}; use thue_morse or digit_sum(k,m)")


def _tau_by_name(name: str, n_states: int):
    if name == "evil":
        return presets.tau_evil
    if name == "sign":
        return presets.tau_sign
    if name.startswith("pick:"):
        state, = _int_params(name[len("pick:"):], 1, f"bad output map {name!r}; use pick:STATE")
        if not 0 <= state < n_states:
            raise ValueError(f"pick:STATE needs a state in [0, {n_states}), not {state}")
        return presets.tau_pick(state)
    raise ValueError(f"unknown output map {name!r}; use evil, sign or pick:STATE")


def _g_from_args(args: Dict) -> object:
    if args["g_one"]:
        for key in ("g_f", "g_q"):
            if args[key] is not None:
                raise UnreadOption(f"--{key.replace('_', '-')} does not apply to --g-one")
        return presets.g_one
    if args["g_f"]:
        if args["g_q"] is None:
            raise ValueError("--g-f needs --g-q")
        return FractionPhase(parse_rational_function(str(args["g_f"])), int(args["g_q"]))
    raise ValueError("specify --g-one or --g-f/--g-q")


# ---------------------------------------------------------------------------
# command handlers (each takes the parsed-arg dict, returns a SweepReport)


def cmd_sum(args: Dict) -> SweepReport:
    dfao = _load_automaton(str(args["auto"]))
    f = parse_rational_function(str(args["f"]))
    region = IntervalProgression(int(args["y"]), int(args["x"]),
                                 int(args["s"]), int(args["a"]))
    val = expsums.weighted_sum(dfao, f, int(args["q"]), region)
    z = complex(val)
    return SweepReport(("re", "im", "abs"), [(z.real, z.imag, abs(z))],
                       {"f": str(f), "q": int(args["q"]),
                        "automaton": dfao.name or "dfao",
                        "region": [region.y, region.x, region.s, region.a]})


def cmd_correlate(args: Dict) -> SweepReport:
    f = parse_rational_function(str(args["f"]))
    q = int(args["q"])
    g = FractionPhase(f, q)
    u = expsums.correlation_sum(g, int(args["x"]), int(args["y"]),
                                int(args["h"]), int(args["prog_mod"]),
                                int(args["prog_res"]))
    return SweepReport(("re", "im", "abs"), [(u.real, u.imag, abs(u))],
                       {"f": str(f), "q": q, "h": int(args["h"])})


def cmd_verify_weil(args: Dict) -> SweepReport:
    p_min = int(args["primes_min"])
    p_max = int(args["primes_max"])
    assert_bound = args["assert_bound"]
    assert_real = bool(args["assert_real"])
    assert_exact = args["assert_exact"]
    rows = []
    if args["kloosterman"]:
        for key in ("f", "q_list", "assert_exact"):
            if args[key] is not None:
                raise UnreadOption(f"--{key.replace('_', '-')} does not apply to --kloosterman")
        worst = {}
        for p, a, s_abs, bound, im_abs in presets.kloosterman_grid(p_min, p_max):
            if assert_bound is not None and s_abs > float(assert_bound) * math.sqrt(p) + 1e-6:
                raise ArithmeticError(f"Weil bound violated at p={p}, a={a}: {s_abs}")
            if assert_real and im_abs >= 1e-9:
                raise ArithmeticError(f"Kloosterman sum not real at p={p}, a={a}")
            cur = worst.get(p)
            if cur is None or s_abs > cur[0]:
                worst[p] = (s_abs, a, bound, im_abs)
        for p in sorted(worst):
            s_abs, a, bound, im_abs = worst[p]
            rows.append((p, a, s_abs, bound, s_abs / bound, im_abs))
        return SweepReport(("p", "argmax_a", "max_abs", "bound", "ratio", "max_imag"),
                           rows, {"family": "aX + 1/X", "p_max": p_max})
    if assert_real:
        raise UnreadOption("--assert-real does not apply without --kloosterman")
    if args["f"] is None:
        raise ValueError("specify --f or --kloosterman")
    if assert_exact is not None:
        try:
            assert_exact = Fraction(str(assert_exact))
        except (ValueError, ZeroDivisionError):
            raise ValueError("--assert-exact must be a rational such as -1 or 3/7") from None
    f = parse_rational_function(str(args["f"]))
    qs = (_parse_int_list(args["q_list"]) if args["q_list"]
          else [p for p in presets.primes_upto(p_max) if p >= p_min])
    for q in qs:
        chk = expsums.check_weil(f, q)
        if assert_exact is not None:
            got = chk.exact_sum.exact_rational()
            if got != assert_exact:
                raise ArithmeticError(f"complete sum at q={q} is {got}, wanted {assert_exact}")
        if assert_bound is not None and chk.sum_abs > float(assert_bound) * chk.comparator + 1e-6:
            raise ArithmeticError(f"Weil ratio exceeded at q={q}: {chk.sum_abs}")
        rows.append((chk.q, chk.sum_abs, chk.comparator, chk.ratio, chk.gcd_factor))
    return SweepReport(("q", "abs", "comparator", "ratio", "gcd_factor"), rows,
                       {"f": str(f)})


def cmd_verify_gcd(args: Dict) -> SweepReport:
    f_list = [parse_rational_function(tok) for tok in str(args["f_list"]).split(",")]
    rs = _parse_int_list(args["r_list"])
    ells = _parse_int_list(args["ell_list"])
    ps = [p for p in presets.primes_upto(int(args["p_max"]))
          if p >= int(args["p_min"])]
    rows = []
    total = 0
    for f in f_list:
        for r in rs:
            for ell in ells:
                viols = expsums.check_gcd_lemma(f, r, ell, ps)
                total += len(viols)
                rows.append((str(f), r, ell, len(viols),
                             ";".join(str(v["p"]) for v in viols)))
    report = SweepReport(("f", "r", "ell", "violations", "primes"), rows,
                         {"p_min": int(args["p_min"]), "p_max": int(args["p_max"]),
                          "total_violations": total})
    if total:
        raise ArithmeticError(f"gcd lemma violated in {total} cells")
    return report


def cmd_scan_pv(args: Dict) -> SweepReport:
    dfao = _load_automaton(str(args["auto"]))
    f = parse_rational_function(str(args["f"]))
    qs = _parse_int_list(args["q_list"])
    theta = float(args["theta"])
    policies = [tok.strip() for tok in str(args["y"]).split(",")]
    rows = []
    for policy in policies:
        rep = expsums.pv_range_scan(dfao, f, qs, theta, y=policy)
        for row in rep.rows:
            rows.append((policy,) + row)
    rows.sort(key=lambda r: (r[1], r[0]))
    return SweepReport(("y_policy", "q", "x", "y", "abs", "ratio", "q1", "bound"),
                       rows, rep.metadata)


def cmd_count_congruence(args: Dict) -> SweepReport:
    dfao = _load_automaton(str(args["set"]))
    fs = [parse_rational_function(tok) for tok in str(args["f"]).split(",")]
    if args["q"] is None and not args["q_list"]:
        raise ValueError("specify --q or --q-list")
    if args["q"] is not None and args["q_list"]:
        raise UnreadOption("--q does not apply when --q-list is given")
    if args["all_m"] and args["m"] is not None:
        raise UnreadOption("--m does not apply to --all-m")
    qs = (_parse_int_list(args["q_list"]) if args["q_list"]
          else [int(args["q"])])
    strict = bool(args["strict_poles"])
    brute_max = int(args["brute_check_max"])
    rows = []
    for q in qs:
        if args["all_m"]:       # one convolution, read at every target
            table = congruence.solution_table(fs, dfao, q, strict_poles=strict)
            counts = [(m, table.count(m)) for m in range(q)]
        else:
            m = int(args["m"] or 0)
            counts = [(m, congruence.count_solutions(fs, dfao, q, m, strict_poles=strict))]
        for m, res in counts:
            brute = ""
            if brute_max and q <= brute_max:
                bf = congruence.brute_force_count(fs, dfao, q, m)
                if bf != res.n_solutions:
                    raise ArithmeticError(
                        f"brute force disagrees at q={q}, m={m}: {bf} != {res.n_solutions}")
                brute = str(bf)
            rows.append((q, m, res.n_solutions, float(res.main_term),
                         res.rel_error, res.raw_set_size, brute))
    return SweepReport(("q", "m", "N", "main_term", "rel_error", "set_size", "brute"),
                       rows, {"f": str(args["f"]), "set": dfao.name or "dfao"})


def cmd_vdc_check(args: Dict) -> SweepReport:
    stats = presets.run_vdc_fuzz(
        trials=int(args["trials"]),
        d_max=int(args["d_max"]), x_max=int(args["x_max"]),
        r_max=int(args["r_max"]), k_max=int(args["k_max"]),
        seed=int(args["seed"]))
    return SweepReport(("trials", "min_rel_slack"),
                       [(stats["trials"], stats["min_rel_slack"])],
                       {"seed": stats["seed"]})


def cmd_carry_scan(args: Dict) -> SweepReport:
    tr = _load_transducer(str(args["transducer"]))
    lam = int(args["lam"])
    alpha = int(args["alpha"])
    rhos = _parse_int_list(args["rho_list"])
    rs = _parse_int_list(args["r_list"])
    vandercorput.check_carry_args(lam, alpha, rhos, rs)
    rows = []
    for r in rs:
        counts = vandercorput.carry_violation_counts(tr, lam, alpha, rhos, r)
        rows.extend((r, rho, c) for rho, c in zip(rhos, counts))
    return SweepReport(("r", "rho", "count"), rows,
                       {"transducer": str(args["transducer"]),
                        "lam": lam, "alpha": alpha})


def cmd_sync_scan(args: Dict) -> SweepReport:
    dfao = _load_automaton(str(args["auto"]))
    x = int(args["x"])
    lams = _parse_int_list(args["lam_list"])
    counts = automata.sync_failure_counts(dfao, int(args["y"]), x, lams)
    return SweepReport(("lam", "count"), list(zip(lams, counts)),
                       {"automaton": dfao.name or "dfao", "x": x})


def cmd_weyl_decompose(args: Dict) -> SweepReport:
    tr = _load_transducer(str(args["transducer"]))
    tau = _tau_by_name(str(args["tau"]), tr.dfao.n_states)
    g = _g_from_args(args)
    eta = args["eta"]
    if eta is not None and eta != "fit":
        try:
            eta = float(eta)
        except ValueError:
            eta = math.nan
        if not math.isfinite(eta):
            raise ValueError("--eta must be 'fit' or a finite number")
    rep = vandercorput.decompose_weyl(tr, tau, g, int(args["y"]),
                                      int(args["x"]), int(args["l1"]),
                                      int(args["l2"]), eta=eta)
    rows = rep.rows()
    return SweepReport(("stage", "index", "re", "im", "abs"), rows, {
        "identities_ok": rep.identities_ok,
        "identity_s0": rep.identity_s0, "identity_s1": rep.identity_s1,
        "identity_s3": rep.identity_s3, "identity_s4": rep.identity_s4,
        "sync_failures": rep.sync_failures,
        "carry_failures": {str(k): v for k, v in rep.carry_failures.items()},
        "s0_abs": rep.s0_abs, "comparator": rep.comparator,
        "comparator_exceeds": rep.comparator_exceeds,
        "eta": rep.eta_used, "M": rep.M, "R": rep.R,
    })


def cmd_eval(args: Dict) -> SweepReport:
    dfao = _load_automaton(str(args["auto"]))
    n = int(args["n"])
    if args["lam"] is not None:
        val = dfao.evaluate_truncated(n, int(args["lam"]))
    else:
        val = dfao.evaluate(n)
    z = complex(val)
    return SweepReport(("n", "re", "im"), [(n, z.real, z.imag)],
                       {"automaton": dfao.name or "dfao"})


def cmd_sync_word(args: Dict) -> SweepReport:
    dfao = _load_automaton(str(args["auto"]))
    word = automata.find_synchronizing_word(dfao)
    text = "none" if word is None else "".join(str(d) for d in word)
    length = -1 if word is None else len(word)
    return SweepReport(("word", "length"), [(text, length)],
                       {"automaton": dfao.name or "dfao"})


def cmd_block_decompose(args: Dict) -> SweepReport:
    dfao = _load_automaton(str(args["auto"]))
    res = automata.block_decompose_sum(dfao, _g_from_args(args),
                                       int(args["y"]), int(args["x"]),
                                       int(args["sigma"]))
    rows = [(row.r, int(row.in_final_set), row.entry_state) for row in res.rows]
    z = complex(res.total)
    return SweepReport(("r", "in_final_set", "entry_state"), rows,
                       {"total_re": z.real, "total_im": z.imag,
                        "exact": res.exact, "sigma": res.sigma})


def cmd_check(args: Dict) -> SweepReport:
    prop = str(args["property"])
    if prop not in presets.PROPERTY_RUNNERS:
        raise ValueError(f"unknown property {prop!r}; "
                         f"known: {', '.join(sorted(presets.PROPERTY_RUNNERS))}")
    runner = presets.PROPERTY_RUNNERS[prop]
    kwargs = {key: int(args[key]) for key in ("trials", "q_max", "seed")
              if args[key] is not None}
    for key in kwargs:      # the options a property reads are its runner's parameters
        if key not in inspect.signature(runner).parameters:
            raise UnreadOption(f"--{key.replace('_', '-')} does not apply to --property {prop}")
    result = runner(**kwargs)
    if prop == "weyl-exact":
        rows = [(label, int(rep.identities_ok), rep.sync_failures,
                 rep.s0_abs, rep.comparator)
                for label, rep in result["reports"]]
        return SweepReport(("config", "identities_ok", "sync_failures",
                            "s0_abs", "comparator"), rows,
                           {"configs": result["configs"]})
    row = tuple(result.values())
    return SweepReport(tuple(result.keys()), [row], {"property": prop})


def cmd_preset(args: Dict) -> SweepReport:
    cfg = presets.preset(str(args["name"]))
    if args["run"]:
        return execute(cfg)
    return SweepReport(("command", "args"),
                       [(cfg.command, json.dumps(cfg.args, sort_keys=True))],
                       {"preset": str(args["name"])})


_HANDLERS = {
    "sum": cmd_sum,
    "correlate": cmd_correlate,
    "verify-weil": cmd_verify_weil,
    "verify-gcd": cmd_verify_gcd,
    "scan-pv": cmd_scan_pv,
    "count-congruence": cmd_count_congruence,
    "vdc-check": cmd_vdc_check,
    "carry-scan": cmd_carry_scan,
    "sync-scan": cmd_sync_scan,
    "weyl-decompose": cmd_weyl_decompose,
    "eval": cmd_eval,
    "sync-word": cmd_sync_word,
    "block-decompose": cmd_block_decompose,
    "check": cmd_check,
    "preset": cmd_preset,
}


def execute(config: RunConfig) -> SweepReport:
    """Run one subcommand; options the config leaves out take the parser's
    defaults, so a RunConfig and the command line read the same values."""
    if config.command not in _HANDLERS:
        raise ValueError(f"unknown subcommand {config.command!r}")
    return _HANDLERS[config.command]({**_defaults()[config.command], **config.args})


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="autoexp",
        description="automatic sequences against rational-fraction phases: "
                    "sums, correlations, carry/synchronization counters and "
                    "congruence counting")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON, not CSV")
        p.add_argument("--out", help="write output to this path")

    p = sub.add_parser("sum", help="weighted sum of a_n times the fraction phase")
    p.add_argument("--auto", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, default=0)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--a", type=int, default=0)
    common(p)

    p = sub.add_parser("correlate", help="two-point correlation of a fraction phase")
    p.add_argument("--f", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, default=0)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--prog-mod", dest="prog_mod", type=int, default=1)
    p.add_argument("--prog-res", dest="prog_res", type=int, default=0)
    common(p)

    p = sub.add_parser("verify-weil", help="complete sums against sqrt(q (q,f'))")
    p.add_argument("--f")
    p.add_argument("--kloosterman", action="store_true",
                   help="grid over the family aX + 1/X, a in [1, p)")
    p.add_argument("--primes-min", dest="primes_min", type=int, default=2)
    p.add_argument("--primes-max", dest="primes_max", type=int, default=199)
    p.add_argument("--q-list", dest="q_list")
    p.add_argument("--assert-bound", dest="assert_bound", type=float)
    p.add_argument("--assert-real", dest="assert_real", action="store_true")
    p.add_argument("--assert-exact", dest="assert_exact")
    common(p)

    p = sub.add_parser("verify-gcd", help="coprimality of derivative differences")
    p.add_argument("--f-list", dest="f_list", required=True)
    p.add_argument("--r-list", dest="r_list", required=True)
    p.add_argument("--ell-list", dest="ell_list", required=True)
    p.add_argument("--p-min", dest="p_min", type=int, default=5)
    p.add_argument("--p-max", dest="p_max", type=int, default=199)
    common(p)

    p = sub.add_parser("scan-pv", help="ratio scan over moduli at x = ceil(q^theta)")
    p.add_argument("--auto", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--q-list", dest="q_list", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--y", default="0", help="comma list of 0, q, 10q or integers")
    common(p)

    p = sub.add_parser("count-congruence", help="solution counts of sum f_j(n_j) = m")
    p.add_argument("--set", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--q-list", dest="q_list")
    p.add_argument("--m", type=int, help="the target m (default 0)")
    p.add_argument("--all-m", dest="all_m", action="store_true")
    p.add_argument("--strict-poles", dest="strict_poles", action="store_true")
    p.add_argument("--brute-check-max", dest="brute_check_max", type=int, default=0)
    common(p)

    p = sub.add_parser("vdc-check", help="randomized van der Corput inequality trials")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--d-max", dest="d_max", type=int, default=3)
    p.add_argument("--x-max", dest="x_max", type=int, default=200)
    p.add_argument("--r-max", dest="r_max", type=int, default=32)
    p.add_argument("--k-max", dest="k_max", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("carry-scan", help="carry-property violation counts")
    p.add_argument("--transducer", required=True)
    p.add_argument("--lam", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--rho-list", dest="rho_list", required=True)
    p.add_argument("--r-list", dest="r_list", default="0")
    common(p)

    p = sub.add_parser("sync-scan", help="synchronization failure counts per lambda")
    p.add_argument("--auto", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, default=0)
    p.add_argument("--lam-list", dest="lam_list", required=True)
    common(p)

    p = sub.add_parser("weyl-decompose", help="exact stage decomposition of a weighted sum")
    p.add_argument("--transducer", required=True)
    p.add_argument("--tau", default="evil")
    p.add_argument("--g-one", dest="g_one", action="store_true")
    p.add_argument("--g-f", dest="g_f")
    p.add_argument("--g-q", dest="g_q", type=int)
    p.add_argument("--y", type=int, default=0)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--l1", type=int, required=True)
    p.add_argument("--l2", type=int, required=True)
    p.add_argument("--eta", default="fit")
    common(p)

    p = sub.add_parser("eval", help="evaluate an automaton at n")
    p.add_argument("--auto", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", type=int)
    common(p)

    p = sub.add_parser("sync-word", help="find a synchronizing word")
    p.add_argument("--auto", required=True)
    common(p)

    p = sub.add_parser("block-decompose", help="exact regrouping mod k^sigma")
    p.add_argument("--auto", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, default=0)
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--g-one", dest="g_one", action="store_true")
    p.add_argument("--g-f", dest="g_f")
    p.add_argument("--g-q", dest="g_q", type=int)
    common(p)

    p = sub.add_parser("check", help="run a named property check")
    p.add_argument("--property", required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--q-max", dest="q_max", type=int)
    p.add_argument("--seed", type=int)
    common(p)

    p = sub.add_parser("preset", help="show or run an acceptance preset")
    p.add_argument("name")
    p.add_argument("--run", action="store_true")
    common(p)

    return top


@lru_cache(maxsize=1)
def _defaults() -> Dict[str, Dict]:
    """subcommand -> {option: default}, read once from the parser."""
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    return {name: {a.dest: a.default for a in p._actions if a.default is not argparse.SUPPRESS}
            for name, p in sub.choices.items()}


def _warning_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    args = vars(ns)
    command = args.pop("command")
    json_out = args.pop("json", False)
    out_path = args.pop("out", None)
    try:
        with warnings.catch_warnings():     # a warning is one line, not a source excerpt
            warnings.showwarning = _warning_line
            report = execute(RunConfig(command, args))
        # allow_nan=False: JSON has no NaN or Infinity, so a non-finite value
        # is an error here, not invalid output
        text = (json.dumps(report.to_json_obj(), sort_keys=True, default=str,
                           allow_nan=False) + "\n" if json_out else report.to_csv())
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except UnreadOption as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {out_path}: {exc.strerror}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
