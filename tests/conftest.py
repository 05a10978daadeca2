"""Shared fixtures and hypothesis profiles, plus a terminal section listing
the acceptance verdicts."""

import pytest
from hypothesis import settings

# Every other property test sets its own example count; the metamorphic
# relations, a few whole runs each, the batched-against-per-trial coherent
# property and the block-against-stepwise clock walk take theirs from the
# profile: a few in Tier-1, a larger sweep under `--hypothesis-profile=sweep`.
settings.register_profile("default", max_examples=5)
settings.register_profile("sweep", max_examples=100)

_ACCEPTANCE_LINES = []


@pytest.fixture
def verdict():
    """Record one PASS/FAIL line per acceptance check and return the flag so
    the caller can `assert verdict(...)` in a single statement."""

    def _record(num: int, ok: bool, detail: str) -> bool:
        _ACCEPTANCE_LINES.append(
            f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
        return ok

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
