"""Record the expected output of every benchmark call, once.

    python3 bench/record_expected.py

Runs every call of every workload under the presets' seed and writes
bench/expected.json.  It refuses to overwrite an existing file: the expected
results are never regenerated to absorb a behaviour change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import verify  # noqa: E402
import workloads  # noqa: E402


def main():
    if os.path.exists(verify.EXPECTED_PATH):
        print(f"error: {verify.EXPECTED_PATH} exists; expected results are "
              "recorded once and never regenerated", file=sys.stderr)
        return 1
    from autoexp import cli

    calls = {}
    for name in workloads.WORKLOADS:
        for label, cfg in workloads.build(name, workloads.DEFAULT_SEED):
            calls[label] = verify.normalize(cli.execute(cfg))
    with open(verify.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "calls": calls}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
