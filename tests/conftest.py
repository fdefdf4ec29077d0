import os
from pathlib import Path

import numpy as np
import pytest

import tracealign
from tracealign import EventLog, Trace

# Criterion results recorded by tests/test_acceptance.py, printed at the
# end of the run so every criterion gets one visible pass/fail line.
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"{status}  {name}{suffix}")


def cli_env() -> dict[str, str]:
    """Environment in which a fresh interpreter imports this checkout's package."""
    src = str(Path(tracealign.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def assert_refused(call, error: type, message: str) -> None:
    """``call()`` raises exactly ``error``, not a subclass, with exactly ``message``."""
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def random_log(
    rng: np.random.Generator,
    n_traces: int = 4,
    min_len: int = 2,
    max_len: int = 8,
    alphabet: tuple[str, ...] = ("a", "b", "c", "d"),
) -> EventLog:
    traces = []
    for i in range(n_traces):
        n = int(rng.integers(min_len, max_len + 1))
        labels = [alphabet[int(rng.integers(len(alphabet)))] for _ in range(n)]
        traces.append(Trace(f"t{i}", labels))
    return EventLog(traces)
