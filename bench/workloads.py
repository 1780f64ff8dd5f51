"""The benchmark's call lists: each workload is a fixed list of labelled calls
into ``autoexp.cli.execute``.

The twelve acceptance presets appear exactly once across the three
workloads; the extra CLI calls push the same layers to larger inputs.  Specs
are plain data so the parent process can name metrics without importing the
package; ``build`` turns them into ``RunConfig`` objects.
"""

DEFAULT_SEED = 20260810  # the presets' own seed; expected.json was recorded with it

# presets whose random draws come from the workload seed
SEEDED_PRESETS = ("crt-check", "vdc-fuzz", "conv-algebra")

_LAMS_2_10 = "2,3,4,5,6,7,8,9,10"

# label -> ("preset", name) or ("cli", command, args as the CLI parser
# would produce them)
WORKLOADS = {
    # A few calls with huge exact intermediates: Cyclotomic arithmetic and
    # scalar eval_phase dominate, the automata layer is under 3%.
    "weyl": [
        ("weyl-exact", ("preset", "weyl-exact")),
        ("block-decompose-b11", ("cli", "block-decompose", {
            "auto": "block_11", "x": 20000, "y": 0, "sigma": 8,
            "g_f": "1/X", "g_q": 1009})),
    ],
    # ~32k tiny calls: per-call overhead of phase_numerators,
    # RationalFunction construction and the vdc check.
    "small-calls": [
        ("weil-grid", ("preset", "weil-grid")),
        ("exact-sums", ("preset", "exact-sums")),
        ("crt-check", ("preset", "crt-check")),
        ("gcd-lemma", ("preset", "gcd-lemma")),
        ("quad-bound", ("preset", "quad-bound")),
        ("vdc-fuzz", ("preset", "vdc-fuzz")),
        ("conv-algebra", ("preset", "conv-algebra")),
    ],
    # Few calls on arrays of 1e5..4e6 elements and offsets up to 1e12:
    # dense state tables and Python digit walks side by side.
    "large-inputs": [
        ("pv-thue-morse", ("preset", "pv-thue-morse")),
        ("congruence-evil", ("preset", "congruence-evil")),
        ("carry-decay", ("preset", "carry-decay")),
        ("sync-decay", ("preset", "sync-decay")),
        ("sync-scan-far", ("cli", "sync-scan", {
            "auto": "block_11", "y": 10 ** 12, "x": 200000, "lam_list": "8"})),
        ("sync-scan-dense", ("cli", "sync-scan", {
            "auto": "block_11", "y": 0, "x": 4194304, "lam_list": _LAMS_2_10})),
        ("count-congruence-q100003", ("cli", "count-congruence", {
            "set": "thue_morse_even", "f": "1/X,1/X,1/X", "q": 100003, "m": 1})),
        ("carry-scan-lam16", ("cli", "carry-scan", {
            "transducer": "thue_morse", "lam": 16, "alpha": 3,
            "rho_list": "2,3,4,5,6", "r_list": "0"})),
        ("sum-far", ("cli", "sum", {
            "auto": "thue_morse_even", "f": "1/X", "q": 1000003,
            "x": 31623, "y": 10000030, "s": 1, "a": 0})),
    ],
}


def labels(workload):
    return [label for label, _ in WORKLOADS[workload]]


def all_labels():
    return [label for name in WORKLOADS for label in labels(name)]


def build(workload, seed):
    """[(label, RunConfig)] for one workload; imports the package."""
    from autoexp import presets

    out = []
    for label, spec in WORKLOADS[workload]:
        if spec[0] == "preset":
            cfg = presets.preset(spec[1])
            args = dict(cfg.args)
            if spec[1] in SEEDED_PRESETS:
                args["seed"] = seed
            out.append((label, presets.RunConfig(cfg.command, args)))
        else:
            out.append((label, presets.RunConfig(spec[1], dict(spec[2]))))
    return out
