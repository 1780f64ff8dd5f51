"""An outside tracer: wraps the public entry points of each autoexp layer,
records per-layer counts and span times, and puts every original back.

Nothing in the package is edited.  A function is replaced at every binding
inside ``autoexp`` (``expsums`` and ``congruence`` import names with
``from ... import``); a method is replaced on its class.  Each span's self
time is its duration minus the time covered by traced child spans.
"""

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _size_of_arg(index, name, measure):
    def size(args, kwargs):
        return args, kwargs, measure(_arg(args, kwargs, index, name))
    return size


def _size_pairs(args, kwargs):
    # from_terms iterates its input once; hand it a list so it can be counted
    pairs = _arg(args, kwargs, 0, "pairs")
    if not isinstance(pairs, (list, tuple)):
        pairs = list(pairs)
        if "pairs" in kwargs:
            kwargs = dict(kwargs, pairs=pairs)
        else:
            args = (pairs,) + tuple(args[1:])
    return args, kwargs, len(pairs)


@dataclass(frozen=True)
class Layer:
    """One traced entry point.

    ``name`` prefixes the metric names, ``module`` is the autoexp module that
    defines the entry point, ``attrs`` the attribute paths wrapped into this
    one stat, ``stats`` the stats reported, and ``moves`` the end-to-end
    metric and workload each stat should move.  ``size``, for layers with a
    size stat, maps the call's (args, kwargs) to (args, kwargs, size added).
    """

    name: str
    module: str
    attrs: tuple
    stats: tuple
    moves: tuple
    size: Optional[Callable] = None


_WEYL = ("wall_s@weyl",)
_SMALL = ("wall_s@small-calls",)
_LARGE = ("wall_s@large-inputs",)
_WEYL_MEM = ("wall_s@weyl", "peak_rss_mib@weyl")
_LARGE_MEM = ("wall_s@large-inputs", "peak_rss_mib@large-inputs")

LAYERS = (
    Layer("modring.phase_numerators", "modring", ("phase_numerators",),
          ("calls", "self_s", "elements"), _SMALL, _size_of_arg(2, "ns", np.size)),
    Layer("modring.RationalFunction.init", "modring", ("RationalFunction.__init__",),
          ("calls", "self_s"), _SMALL),
    Layer("modring.eval_phase", "modring", ("eval_phase",),
          ("calls", "self_s"), _WEYL),
    Layer("modring.phase_fraction", "modring", ("phase_fraction",),
          ("calls", "self_s"), _WEYL),
    Layer("exact.Cyclotomic.from_terms", "exact", ("Cyclotomic.from_terms",),
          ("calls", "self_s", "terms_in"), _WEYL_MEM, _size_pairs),
    Layer("exact.Cyclotomic.from_int_histogram", "exact",
          ("Cyclotomic.from_int_histogram",),
          ("calls", "self_s", "terms_in"), _WEYL_MEM, _size_of_arg(1, "hist", len)),
    Layer("exact.Cyclotomic.add", "exact", ("Cyclotomic.__add__", "Cyclotomic.__radd__"),
          ("calls", "self_s"), _WEYL_MEM),
    Layer("exact.Cyclotomic.mul", "exact", ("Cyclotomic.__mul__", "Cyclotomic.__rmul__"),
          ("calls", "self_s"), _WEYL_MEM),
    Layer("exact.Cyclotomic.eq", "exact", ("Cyclotomic.__eq__",),
          ("calls", "self_s"), _WEYL_MEM),
    Layer("exact.Cyclotomic.to_complex", "exact", ("Cyclotomic.to_complex",),
          ("calls", "self_s"), _SMALL),
    Layer("exact.Cyclotomic.exact_rational", "exact", ("Cyclotomic.exact_rational",),
          ("calls", "self_s", "decided_frac"), _SMALL),
    Layer("automata.Dfao.walk", "automata", ("Dfao.walk",),
          ("calls", "self_s"), _LARGE),
    Layer("automata.Dfao.states_at", "automata", ("Dfao.states_at",),
          ("calls", "self_s", "walk_paths"), _LARGE),
    Layer("automata.sync_failure_count", "automata", ("sync_failure_count",),
          ("calls", "self_s", "walk_paths"), _LARGE),
    Layer("automata.Dfao.state_table", "automata", ("Dfao.state_table",),
          ("calls", "self_s", "elements"), _LARGE_MEM, _size_of_arg(1, "limit", int)),
    Layer("automata.block_decompose_sum", "automata", ("block_decompose_sum",),
          ("calls", "self_s"), _WEYL),
    Layer("expsums.complete_sum", "expsums", ("complete_sum",),
          ("calls", "self_s", "p50_us", "p99_us"), _SMALL),
    Layer("expsums.weighted_sum", "expsums", ("weighted_sum",),
          ("calls", "self_s", "elements"), _LARGE,
          _size_of_arg(3, "region", lambda region: region.count)),
    Layer("expsums.difference_sum", "expsums", ("difference_sum",),
          ("calls", "self_s"), _SMALL),
    Layer("vandercorput.decompose_weyl", "vandercorput", ("decompose_weyl",),
          ("calls", "self_s"), _WEYL),
    Layer("vandercorput.eta_fit", "vandercorput", ("eta_fit",),
          ("calls", "busy_s"), _WEYL),
    Layer("vandercorput.vdc_inequality_check", "vandercorput", ("vdc_inequality_check",),
          ("calls", "self_s"), _SMALL),
    Layer("vandercorput.ScalarTransducer.tables", "vandercorput",
          ("ScalarTransducer.tables",), ("calls", "self_s", "elements"), _LARGE,
          _size_of_arg(1, "limit", int)),
    Layer("vandercorput.carry_violation_count", "vandercorput", ("carry_violation_count",),
          ("calls", "self_s"), _LARGE),
    Layer("congruence.value_histogram", "congruence", ("value_histogram",),
          ("calls", "self_s"), _LARGE),
    Layer("congruence.cyclic_convolve", "congruence", ("cyclic_convolve",),
          ("calls", "self_s", "slots"), _LARGE,
          _size_of_arg(0, "h1", lambda hist: hist.modulus)),
    Layer("congruence.count_solutions", "congruence", ("count_solutions",),
          ("calls", "busy_s"), _LARGE),
    # self time of the CLI layer: argument handling and the preset runners'
    # own loops, everything no other span covers
    Layer("cli.execute", "cli", ("execute",), ("calls", "self_s"),
          _SMALL + _LARGE),
)

STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "busy_s": ("s", "lower"),
    "elements": ("count", "lower"),
    "terms_in": ("count", "lower"),
    "slots": ("count", "lower"),
    "walk_paths": ("count", "lower"),
    "decided_frac": ("ratio", "higher"),
    "p50_us": ("us", "lower"),
    "p99_us": ("us", "lower"),
}

# stats that must repeat exactly between two traced runs of the same inputs
COUNT_STATS = ("calls", "elements", "terms_in", "slots", "walk_paths", "decided_frac")

_STATE_TABLE = "automata.Dfao.state_table"


class _Stat:
    __slots__ = ("calls", "self_ns", "busy_ns", "active", "size", "walk_paths",
                 "decided", "samples")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.busy_ns = 0
        self.active = 0
        self.size = 0
        self.walk_paths = 0
        self.decided = 0
        self.samples = []


def _autoexp_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "autoexp" or name.startswith("autoexp."))]


class Tracer:
    """Context manager: wraps every entry point in ``LAYERS`` on enter and
    restores the originals on exit.  ``metrics()`` gives per-layer stats."""

    def __init__(self):
        self._stats = {layer.name: _Stat() for layer in LAYERS}
        self._stack = []
        self._patched = []          # (owner, attribute, original object)

    # -- install / restore ------------------------------------------------

    def __enter__(self):
        import autoexp  # noqa: F401  (loads every submodule)

        modules = _autoexp_modules()
        try:
            for layer in LAYERS:
                home = sys.modules["autoexp." + layer.module]
                for path in layer.attrs:
                    self._install(layer, home, path, modules)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _install(self, layer, home, path, modules):
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(home, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(layer, raw.__func__))
            else:
                replacement = self._wrap(layer, raw)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            return
        original = getattr(home, path)
        wrapper = self._wrap(layer, original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, name, original))
                    setattr(module, name, wrapper)

    def _wrap(self, layer, fn):
        stat = self._stats[layer.name]
        stack = self._stack
        clock = time.perf_counter_ns
        size = layer.size
        marks_parent = layer.name == _STATE_TABLE
        counts_walks = "walk_paths" in layer.stats
        counts_decided = "decided_frac" in layer.stats
        keeps_samples = "p50_us" in layer.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if size is not None:
                args, kwargs, n = size(args, kwargs)
                stat.size += n
            frame = [0, False]      # [child span ns, saw a state_table child]
            stack.append(frame)
            outer = stat.active == 0
            stat.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.active -= 1
                stack.pop()
                stat.calls += 1
                stat.self_ns += dt - frame[0]
                if outer:
                    stat.busy_ns += dt
                if stack:
                    stack[-1][0] += dt
                    if marks_parent:
                        stack[-1][1] = True
                if counts_walks and not frame[1]:
                    stat.walk_paths += 1
                if keeps_samples:
                    stat.samples.append(dt)
            if counts_decided and result is not None:
                stat.decided += 1
            return result

        return traced

    # -- results ------------------------------------------------------------

    def metrics(self):
        """{"<layer>.<stat>": value} for every layer and stat in LAYERS."""
        out = {}
        for layer in LAYERS:
            st = self._stats[layer.name]
            for stat in layer.stats:
                out[f"{layer.name}.{stat}"] = _stat_value(st, stat)
        return out


def _percentile_us(samples, pct):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, -(-pct * len(ordered) // 100) - 1))
    return ordered[rank] / 1e3


def _stat_value(st, stat):
    if stat == "calls":
        return st.calls
    if stat == "self_s":
        return st.self_ns / 1e9
    if stat == "busy_s":
        return st.busy_ns / 1e9
    if stat in ("elements", "terms_in", "slots"):
        return st.size
    if stat == "walk_paths":
        return st.walk_paths
    if stat == "decided_frac":
        return st.decided / st.calls if st.calls else 0.0
    if stat == "p50_us":
        return _percentile_us(st.samples, 50)
    if stat == "p99_us":
        return _percentile_us(st.samples, 99)
    raise KeyError(stat)
