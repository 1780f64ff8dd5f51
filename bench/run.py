"""autoexp benchmark: time labelled calls through ``autoexp.cli.execute`` on
one named workload, check every output, and print the metrics.

    python3 bench/run.py --workload weyl --seed 1 --seconds 35 --trace 0

Run it from the repository root; the package is imported from ``src/``.
Each pass over the workload's calls runs in a fresh single-threaded process
(OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1, AUTOEXP_BUDGET unset).

``--trace 0`` times set-up several times and then runs untraced passes while
another pass fits in ``--seconds``; it reports the end-to-end metrics as
medians over samples.  ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics of ``tracer.LAYERS``, the untraced wall
time of each call, and the tracing overhead.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it holds the details: every sample, every failed check, and
the Python, numpy and OpenBLAS versions, the commit, nproc and load average.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0      # every child process ends this long after the start

END_TO_END = (
    ("wall_s", "s"),          # median wall time of one pass, tracing off
    ("cpu_s", "s"),           # user + system CPU time of that pass
    ("setup_s", "s"),         # fresh interpreter -> import autoexp -> configs built
    ("peak_rss_mib", "MiB"),  # ru_maxrss of the pass process
)


class BenchError(RuntimeError):
    """The harness itself could not produce a result."""


def per_layer_metrics():
    """[(name, unit, better)] reported by ``--trace 1``, in output order."""
    out = [(f"{layer.name}.{stat}",) + tracer.STAT_UNITS[stat]
           for layer in tracer.LAYERS for stat in layer.stats]
    out += [(f"cli.execute.{label}.wall_s", "s", "lower")
            for label in workloads.all_labels()]
    out += [("trace.overhead_frac", "ratio", "lower"),
            ("fail_frac", "ratio", "lower")]
    return out


# -- child processes ----------------------------------------------------------

def _import_package():
    sys.path.insert(0, SRC)
    import autoexp

    if os.path.dirname(os.path.dirname(os.path.abspath(autoexp.__file__))) != SRC:
        raise BenchError(f"imported autoexp from {autoexp.__file__}, not {SRC}")
    return autoexp


def _blas_version():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def child_setup(args):
    _import_package()
    workloads.build(args.workload, args.seed)


def child_pass(args):
    _import_package()
    import numpy as np
    from autoexp import cli

    import verify

    calls = workloads.build(args.workload, args.seed)
    expected = verify.load_expected()
    pins = verify.load_pins(ROOT)

    outputs = []
    with tracer.Tracer() if args.trace else contextlib.nullcontext() as spans:
        cpu0 = _cpu_s()
        start = time.perf_counter()
        for label, cfg in calls:
            t0 = time.perf_counter()
            try:
                out, err = cli.execute(cfg), None
            except Exception as exc:  # a failed call is counted, the pass goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            outputs.append((label, out, err, time.perf_counter() - t0))
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0

    results = []
    for label, out, err, dt in outputs:
        if err is not None:
            problems = [f"{label}: raised {err}"]
        else:
            problems = verify.check(label, verify.normalize(out), args.seed,
                                    expected, pins)
        results.append({"label": label, "wall_s": dt, "problems": problems})
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": results,
        "layers": spans.metrics() if spans is not None else None,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas_version(),
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "autoexp_budget": os.environ.get("AUTOEXP_BUDGET"),
        },
    }))


# -- parent -----------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    env.pop("AUTOEXP_BUDGET", None)
    # imports read cached bytecode, as an installed package's would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=SRC, PYTHONHASHSEED="0")
    return env


class Parent:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = _child_env()

    def child(self, mode, trace=0):
        """Run one child process to its end; its parsed last line, if any."""
        cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--trace", str(trace)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a child process")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            return None
        try:
            return json.loads(lines[-1])
        except ValueError:
            raise BenchError(f"{mode} child printed no result line") from None

    def timed_setup(self):
        t0 = time.perf_counter()
        self.child("setup")
        return time.perf_counter() - t0

    def run(self):
        self.child("setup")  # warm-up: writes bytecode caches, not timed
        if self.args.trace:
            return self.traced()
        return self.untraced()

    def untraced(self):
        setup = [self.timed_setup() for _ in range(SETUP_SAMPLES)]
        passes = []
        begin = time.monotonic()
        while True:
            passes.append(self.child("pass"))
            now = time.monotonic()
            per_pass = (now - begin) / len(passes)
            if now - begin + per_pass > self.args.seconds \
                    or now + per_pass > self.deadline - 5:
                break
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        return passes, {"setup_s": setup}, metrics

    def traced(self):
        base = self.child("pass", trace=0)
        traced = self.child("pass", trace=1)
        passes = [base, traced]
        values = dict(traced["layers"])
        base_calls = {c["label"]: c["wall_s"] for c in base["calls"]}
        for label in workloads.all_labels():
            values[f"cli.execute.{label}.wall_s"] = base_calls.get(label, 0.0)
        values["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1.0
        attempted, failed, _ = _tally(passes)
        values["fail_frac"] = failed / attempted
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better in per_layer_metrics()}
        extra = {"moves": {layer.name: list(layer.moves) for layer in tracer.LAYERS}}
        return passes, extra, metrics


def _tally(passes):
    calls = [c for p in passes for c in p["calls"]]
    problems = [m for c in calls for m in c["problems"]]
    failed = sum(1 for c in calls if c["problems"])
    return len(calls), failed, problems


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def parent_main(args):
    if not os.path.isfile(os.path.join(SRC, "autoexp", "__init__.py")):
        print(f"error: no autoexp package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    parent = Parent(args)
    load_start = os.getloadavg()
    try:
        passes, extra, metrics = parent.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, problems = _tally(passes)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg": {"start": load_start, "end": os.getloadavg()},
        "env": passes[0]["env"],
        "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                    "peak_rss_mib": p["peak_rss_mib"],
                    "calls": {c["label"]: c["wall_s"] for c in p["calls"]}}
                   for p in passes],
        "problems": problems[:50],
        **extra,
    }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child == "setup":
        child_setup(args)
        return 0
    if args.child == "pass":
        child_pass(args)
        return 0
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
