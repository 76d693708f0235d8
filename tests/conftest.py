"""Shared pytest plumbing: the acceptance-criterion reporting hook, the
no-process-left-running guard and the CPU-affinity fixtures.

Each acceptance test records one "criterion N: PASS/FAIL" line through the
criterion_report fixture; the lines are echoed in a dedicated section of the
terminal summary so the verdicts are visible even for passing tests.  Every
test fails if it leaves a child process running, as a sweep's worker pool
that was not shut down would.  ``one_cpu`` and ``two_cpus`` pin the test
process to the first one or two CPUs of its affinity set, as ``taskset``
would, so a sweep runs in-process or on a pool of two workers; ``pinned(n)``
does so for a block.
"""

import contextlib
import multiprocessing
import os

import pytest

_lines: list[str] = []


@pytest.fixture(autouse=True)
def no_process_left_running():
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes left running: {left}"


@contextlib.contextmanager
def _pinned(n: int):
    """Pin this process to the first ``n`` CPUs of its affinity set, as
    ``taskset`` would, and yield them; skip the test if there are fewer."""
    before = os.sched_getaffinity(0)
    if len(before) < n:
        pytest.skip(f"needs {n} CPUs")
    cpus = sorted(before)[:n]
    os.sched_setaffinity(0, cpus)
    try:
        yield cpus
    finally:
        os.sched_setaffinity(0, before)


@pytest.fixture
def pinned():
    return _pinned


@pytest.fixture
def one_cpu():
    with _pinned(1) as cpus:
        yield cpus


@pytest.fixture
def two_cpus():
    with _pinned(2) as cpus:
        yield cpus


@pytest.fixture
def criterion_report():
    def record(num: int, ok: bool, detail: str) -> None:
        line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
        _lines.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if not _lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _lines:
        terminalreporter.write_line(line)
