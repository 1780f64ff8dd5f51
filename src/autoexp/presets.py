"""Canonical experiment configurations and property-check runners.

Each acceptance experiment is runnable as one preset invocation; the preset
table maps names to the exact subcommand configuration, and the run_*
functions below hold the randomized / grid checks that do not reduce to a
single library call.  The CLI and the test suite share this module so the
tested configuration and the shipped configuration cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from . import automata, congruence, expsums, modring, vandercorput
from .budget import require_budget
from .exact import Cyclotomic
from .modring import (FractionPhase, IntPoly, RationalFunction,
                      parse_rational_function, phase_fraction)


@dataclass
class RunConfig:
    """A subcommand name plus its parsed flags."""

    command: str
    args: Dict[str, object] = field(default_factory=dict)


_SEED = 20260810

PRESETS: Dict[str, RunConfig] = {
    "exact-sums": RunConfig("verify-weil", {
        "f": "1/X", "primes_min": 3, "primes_max": 499,
        "assert_exact": "-1"}),
    "weil-grid": RunConfig("verify-weil", {
        "kloosterman": True, "primes_min": 2, "primes_max": 499,
        "assert_bound": 2.0, "assert_real": True}),
    "crt-check": RunConfig("check", {
        "property": "crt", "trials": 100, "q_max": 10000, "seed": _SEED}),
    "vdc-fuzz": RunConfig("vdc-check", {
        "trials": 10000, "d_max": 3, "x_max": 200, "r_max": 32, "k_max": 4,
        "seed": _SEED}),
    "gcd-lemma": RunConfig("verify-gcd", {
        "f_list": "1/X,X^3,(X^2+1)/X", "r_list": "1,2,5",
        "ell_list": "0,1,3", "p_min": 5, "p_max": 199}),
    "quad-bound": RunConfig("check", {"property": "quad-geometric"}),
    "pv-thue-morse": RunConfig("scan-pv", {
        "auto": "thue_morse_even", "f": "1/X",
        "q_list": "1009,10007,100003", "theta": 0.75, "y": "0,q,10q"}),
    "congruence-evil": RunConfig("count-congruence", {
        "set": "thue_morse_even", "f": "1/X,1/X,1/X",
        "q_list": "101,1009,10007", "m": 1, "brute_check_max": 101}),
    "carry-decay": RunConfig("carry-scan", {
        "transducer": "thue_morse", "lam": 10, "alpha": 3,
        "rho_list": "2,3,4,5,6", "r_list": "0,1,7"}),
    "sync-decay": RunConfig("sync-scan", {
        "auto": "block_11", "x": 65536, "lam_list": "2,3,4,5,6,7,8,9,10"}),
    "weyl-exact": RunConfig("check", {"property": "weyl-exact"}),
    "conv-algebra": RunConfig("check", {
        "property": "conv-algebra", "trials": 200, "seed": _SEED}),
}


def preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}")
    return PRESETS[name]


def primes_upto(n: int) -> List[int]:
    """The primes <= n, from a sieve of n + 1 flags checked against the budget."""
    if n < 2:
        return []
    require_budget(n + 1, "prime sieve length")
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


# ---------------------------------------------------------------------------
# Kloosterman grid (complete sums of aX + 1/X)


def kloosterman_grid(p_min: int, p_max: int):
    """Yield (p, a, |S|, 2*sqrt(p), |Im S|) over all primes and a in [1, p),
    every a of one prime read from one float spectrum of 1/X; the spectra's
    total length is checked against the budget before the first one."""
    inv_x = parse_rational_function("1/X")
    primes = [p for p in primes_upto(p_max) if p >= p_min]
    require_budget(sum(primes), "total spectrum length (sum of the primes)")
    for p in primes:
        spectrum = expsums.twisted_spectrum(inv_x, p).tolist()
        for a in range(1, p):
            s = spectrum[a]
            yield p, a, abs(s), 2.0 * math.sqrt(p), abs(s.imag)


# ---------------------------------------------------------------------------
# property runners


def _rng(seed: int, trials: int) -> np.random.Generator:
    """The random draws of a property runner, after its trial count and seed
    are checked."""
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, not {trials}")
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, not {seed}")
    return np.random.default_rng(seed)


def run_crt_consistency(trials: int = 100, q_max: int = 10000,
                        seed: int = _SEED) -> dict:
    """Random (f, coprime q1*q2, n): the local-factor product phase must equal
    the direct-formula phase P(n) * Q(n)^-1 mod q whenever gcd(Q(n), q) = 1."""
    rng = _rng(seed, trials)
    checked = 0
    attempts = 0
    while checked < trials:
        attempts += 1
        if attempts > 100 * trials:
            raise ValueError(f"could not generate {trials} CRT test cases "
                             f"with q1 * q2 <= --q-max {q_max}")
        dp = int(rng.integers(0, 4))
        dq = int(rng.integers(0, 3))
        p_coeffs = [int(c) for c in rng.integers(-9, 10, dp + 1)]
        q_coeffs = [int(c) for c in rng.integers(-9, 10, dq + 1)]
        if not any(q_coeffs) or not any(p_coeffs):
            continue
        f = RationalFunction(IntPoly(p_coeffs), IntPoly(q_coeffs))
        q1 = int(rng.integers(2, 90))
        q2 = int(rng.integers(2, max(3, q_max // q1)))
        if math.gcd(q1, q2) != 1 or q1 * q2 > q_max:
            continue
        q = q1 * q2
        if not modring.is_well_defined(f, q):
            continue
        n = int(rng.integers(0, 3 * q))
        if math.gcd(f.den(n), q) != 1:
            continue
        got = phase_fraction(f, q, n)
        want = Fraction(f.num(n) * pow(f.den(n), -1, q) % q, q)
        if got != want:
            raise AssertionError(
                f"CRT mismatch for f={f}, q={q1}*{q2}, n={n}: {got} != {want}")
        checked += 1
    return {"checked": checked, "q_max": q_max, "seed": seed}


def run_vdc_fuzz(trials: int = 10000, d_max: int = 3, x_max: int = 200,
                 r_max: int = 32, k_max: int = 4, seed: int = _SEED) -> dict:
    """Random matrix sequences through the van der Corput inequality."""
    for option, top in (("--d-max", d_max), ("--x-max", x_max), ("--r-max", r_max),
                        ("--k-max", k_max)):
        if top < 1:
            raise ValueError(f"{option} must be at least 1")
    require_budget(x_max * d_max * d_max, "entries per trial --x-max * --d-max^2")
    for option, top in (("--r-max", r_max), ("--k-max", k_max)):
        if top >= 2 ** 63:
            raise ValueError(f"{option} must be below 2^63, the range of its random draws")
    rng = _rng(seed, trials)
    min_rel_slack = math.inf
    for i in range(trials):
        d = int(rng.integers(1, d_max + 1))
        x = int(rng.integers(1, x_max + 1))
        k = int(rng.integers(1, k_max + 1))
        if i % 2:
            R = float(rng.integers(1, r_max + 1))
        else:
            R = float(rng.uniform(1.0, r_max))
        if i % 3 == 0:
            # unit-modulus scalars on the diagonal of a d x d zero matrix
            Z = np.zeros((x, d, d), dtype=complex)
            Z.reshape(x, d * d)[:, ::d + 1] = np.exp(2j * np.pi * rng.random(x))[:, None]
        else:
            # the real part drawn first, as a + 1j*b draws it
            Z = np.empty((x, d, d), dtype=complex)
            Z.real = rng.normal(size=(x, d, d))
            Z.imag = rng.normal(size=(x, d, d))
        chk = vandercorput.vdc_inequality_check(Z, R=R, k=k)
        rel = chk.slack / max(1.0, chk.rhs)
        min_rel_slack = min(min_rel_slack, rel)
    # a plain float: numpy 2 would write np.float64(...) into the CSV
    return {"trials": trials, "min_rel_slack": float(min_rel_slack), "seed": seed}


QUAD_GRID = {
    "fractions": ("X^2", "X^2/3"),
    "q": (16, 101, 1024),
    "r": (0, 1, 2, 5, 10),
    "s": (1, 2, 3, 4),
    "x": (100, 1000, 5000),
}


def run_quad_grid() -> dict:
    """Geometric bound for quadratic phases over the full acceptance grid."""
    cells = 0
    worst = 0.0
    for fs in QUAD_GRID["fractions"]:
        f = parse_rational_function(fs)
        for q in QUAD_GRID["q"]:
            for r in QUAD_GRID["r"]:
                for s in QUAD_GRID["s"]:
                    for x in QUAD_GRID["x"]:
                        a = 0 if s == 1 else 1
                        row = expsums.check_quadratic_geometric(
                            f, q, r, s, a, 0, x)
                        cells += 1
                        if row.comparator:
                            worst = max(worst, row.lhs / row.comparator)
    return {"cells": cells, "worst_lhs_over_comparator": worst}


def run_conv_algebra(trials: int = 200, seed: int = _SEED) -> dict:
    """Exact convolution algebra: commutativity, associativity, mass, identity."""
    rng = _rng(seed, trials)
    for _ in range(trials):
        q = int(rng.integers(2, 50))
        def rand_hist():
            counts = rng.integers(0, 7, q)
            return congruence.ValueHistogram(q, counts, int(counts.sum()))
        h1, h2, h3 = rand_hist(), rand_hist(), rand_hist()
        c12 = congruence.cyclic_convolve(h1, h2)
        if c12 != congruence.cyclic_convolve(h2, h1):
            raise AssertionError("convolution is not commutative")
        left = congruence.cyclic_convolve(c12, h3)
        right = congruence.cyclic_convolve(h1, congruence.cyclic_convolve(h2, h3))
        if left != right:
            raise AssertionError("convolution is not associative")
        if int(c12.array.sum()) != h1.support_size * h2.support_size:
            raise AssertionError("convolution does not conserve mass")
        delta = congruence.ValueHistogram(q, (1,) + (0,) * (q - 1), 1)
        if congruence.cyclic_convolve(h1, delta) != h1:
            raise AssertionError("delta at 0 is not the convolution identity")
    return {"trials": trials, "seed": seed}


# ---------------------------------------------------------------------------
# the 20-configuration exact Weyl grid


g_one = FractionPhase(RationalFunction(IntPoly()), 1)     # e(0) = 1 for every n


def tau_evil(sigma: Cyclotomic, state: int):
    return (sigma + 1) * Fraction(1, 2)


def tau_sign(sigma: Cyclotomic, state: int):
    return sigma


def tau_pick(target: int):
    def tau(sigma: Cyclotomic, state: int):
        return sigma if state == target else Fraction(0)
    return tau


def _tm():
    return vandercorput.thue_morse_transducer()


def block_11_transducer() -> vandercorput.ScalarTransducer:
    dfao = automata.block_11()
    H = Fraction(1, 2)
    return vandercorput.ScalarTransducer(
        dfao, [[Fraction(0), H], [Fraction(0), Fraction(0)], [H, H]])


def weyl_grid_configs() -> List[Tuple[str, dict]]:
    """The exact-reconstruction grid: (label, decompose_weyl kwargs)."""
    inv_x = parse_rational_function("1/X")
    klo = parse_rational_function("(X^2+1)/X")
    cfgs: List[Tuple[str, dict]] = []

    def add(label, tr, tau, g, y, x, l1, l2):
        cfgs.append((label, dict(tr=tr, tau=tau, g=g, y=y, x=x,
                                 lam1=l1, lam2=l2)))

    add("tm-evil-one-a", _tm(), tau_evil, g_one, 0, 2000, 1, 1)
    add("tm-evil-one-b", _tm(), tau_evil, g_one, 0, 2000, 2, 1)
    add("tm-evil-one-c", _tm(), tau_evil, g_one, 0, 2000, 1, 2)
    add("tm-evil-one-d", _tm(), tau_evil, g_one, 997, 4096, 2, 2)
    add("tm-evil-eq101-a", _tm(), tau_evil, FractionPhase(inv_x, 101), 0, 2000, 1, 1)
    add("tm-evil-eq101-b", _tm(), tau_evil, FractionPhase(inv_x, 101), 0, 5000, 2, 1)
    add("tm-evil-eq101-c", _tm(), tau_evil, FractionPhase(inv_x, 101), 50, 3000, 1, 2)
    add("tm-sign-eq101", _tm(), tau_sign, FractionPhase(inv_x, 101), 0, 3000, 1, 1)
    add("tm-sign-klo61", _tm(), tau_sign, FractionPhase(klo, 61), 10, 2500, 1, 1)
    add("tm-evil-eq1009-a", _tm(), tau_evil, FractionPhase(inv_x, 1009), 0, 20000, 1, 1)
    add("tm-evil-eq1009-b", _tm(), tau_evil, FractionPhase(inv_x, 1009), 0, 20000, 2, 2)
    add("tm-evil-eq1009-big", _tm(), tau_evil, FractionPhase(inv_x, 1009), 0, 100000, 1, 1)
    add("ds24-sign-eq101", vandercorput.digit_sum_transducer(2, 4), tau_sign,
        FractionPhase(inv_x, 101), 0, 4000, 1, 1)
    add("ds24-sign-one", vandercorput.digit_sum_transducer(2, 4), tau_sign,
        g_one, 0, 2000, 1, 1)
    add("ds33-sign-one", vandercorput.digit_sum_transducer(3, 3), tau_sign,
        g_one, 0, 3000, 1, 1)
    add("ds33-sign-eq41", vandercorput.digit_sum_transducer(3, 3), tau_sign,
        FractionPhase(inv_x, 41), 0, 3000, 1, 1)
    add("b11-pick-one", block_11_transducer(), tau_pick(2), g_one, 0, 3000, 1, 1)
    add("b11-pick-eq101", block_11_transducer(), tau_pick(2), FractionPhase(inv_x, 101),
        0, 5000, 1, 1)
    add("b11-pick-eq257", block_11_transducer(), tau_pick(2), FractionPhase(inv_x, 257),
        31, 8192, 2, 1)
    add("b11-evil-eq101", block_11_transducer(), tau_evil, FractionPhase(inv_x, 101),
        0, 4000, 1, 1)
    return cfgs


def run_weyl_exact_grid() -> dict:
    """Run decompose_weyl on the whole grid; every identity must hold exactly."""
    results = []
    for label, kwargs in weyl_grid_configs():
        rep = vandercorput.decompose_weyl(**kwargs)
        results.append((label, rep))
        if not rep.identities_ok:
            raise AssertionError(f"stage identity failed in config {label}")
    return {
        "configs": len(results),
        "reports": results,
    }


PROPERTY_RUNNERS = {
    "crt": run_crt_consistency,
    "quad-geometric": run_quad_grid,
    "conv-algebra": run_conv_algebra,
    "weyl-exact": run_weyl_exact_grid,
}
