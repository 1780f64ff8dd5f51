"""Every walkthrough in demos/ and every ```python block of README.md runs to
completion without writing to stderr."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.S | re.M)


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    return done


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_clean(demo):
    _run([str(demo)])


def test_readme_library_tour_runs_clean():
    assert README_BLOCKS
    for block in README_BLOCKS:
        _run(["-c", block])


def test_package_runs_as_a_module():
    # python -m autoexp works from a checkout on PYTHONPATH, not installed
    assert _run(["-m", "autoexp", "--help"]).stdout.startswith("usage:")
