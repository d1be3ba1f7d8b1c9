"""Shared test plumbing: per-criterion summary lines for the release gate,
and BLAS thread-count fixtures."""

import re

import pytest

from rareweak import _blas

_results: dict[int, bool] = {}
_details: dict[int, str] = {}


def _record_detail(n: int, text: str):
    _details[n] = text


@pytest.fixture
def note():
    """Lets an acceptance test attach a measured-values line to its verdict."""
    return _record_detail


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if m:
        _results[int(m.group(1))] = report.passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_results):
        verdict = "PASS" if _results[n] else "FAIL"
        extra = _details.get(n, "")
        terminalreporter.write_line(
            f"criterion {n:2d}: {verdict}" + (f" - {extra}" if extra else ""))


@pytest.fixture
def two_blas_threads():
    """Every managed OpenBLAS copy at two threads for the test, restored after."""
    controls = _blas._thread_controls()
    before = [get() for _, get in controls]
    for setter, _ in controls:
        setter(2)
    yield
    for (setter, _), n in zip(controls, before):
        setter(n)


@pytest.fixture
def blas_threads_seen(monkeypatch):
    """record(owner, name) patches owner.name to note the BLAS thread counts
    at each call, in the list it returns."""
    def record(owner, name):
        seen, fn = [], getattr(owner, name)

        def recording(*args, **kwargs):
            seen.append(_blas.thread_counts())
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
        return seen
    return record
