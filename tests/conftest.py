import json
import pathlib
import sys

import pytest

try:
    from hypothesis import settings
except ImportError:     # the property tests skip themselves without it
    settings = None

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))  # makes `import oracles` work from anywhere

# one deterministic Hypothesis profile for the whole suite: the same examples
# on every run, no wall-clock deadline, no example database
if settings is not None:
    settings.register_profile("autoexp", derandomize=True, deadline=None,
                              max_examples=200, database=None)
    settings.load_profile("autoexp")

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


@pytest.fixture(scope="session")
def pins():
    return json.loads((HERE / "fixtures" / "oracle_pins.json").read_text())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
