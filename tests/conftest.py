"""Shared test fixtures: the acceptance checklist recorder, and the
hypothesis profile the suite runs under."""

import pytest
from hypothesis import settings

# The same examples on every run, so two runs of one tree print the same
# log; ``--hypothesis-profile=default`` brings back random exploration.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

_CHECKLIST = []


@pytest.fixture(scope="session")
def checklist():
    """Record one ``[criterion N] PASS/FAIL: detail`` line per check.

    The recording function returns ``passed`` so tests can write
    ``assert checklist(n, passed, detail)``; lines are printed immediately
    and replayed in the terminal summary, where they stay visible even for
    passing tests under default capture.
    """

    def record(num: int, passed: bool, detail: str) -> bool:
        line = f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {detail}"
        _CHECKLIST.append(line)
        print(line)
        return passed

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CHECKLIST:
        terminalreporter.section("acceptance checklist")
        for line in _CHECKLIST:
            terminalreporter.write_line(line)
