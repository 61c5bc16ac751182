"""Shared pytest fixtures."""

import gc
import sys

import pytest


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.failed:
        item.failed = True  # read by no_cyclic_garbage at teardown
    return report


@pytest.fixture
def no_cyclic_garbage(request):
    """Fail the test if its body leaves anything only the cyclic collector can free.

    The collector is off while the test runs, so every object the test
    drops must be freed by reference counting alone. A failure's traceback
    holds frames in cycles, so a test that failed is not checked again at
    teardown, and the traceback pytest keeps of the last failure (for
    postmortem debugging, until the next test body starts) is dropped here,
    so it is not charged to this test either.
    """
    for name in ("last_exc", "last_type", "last_value", "last_traceback"):
        sys.__dict__.pop(name, None)
    gc.collect()
    gc.disable()
    try:
        yield
        leaked = gc.collect()
        assert leaked == 0 or getattr(request.node, "failed", False), "the test left unreachable reference cycles"
    finally:
        gc.enable()
