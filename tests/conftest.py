"""Shared pytest fixtures."""

import gc

import pytest


@pytest.fixture
def no_cyclic_garbage():
    """Fail the test if its body leaves anything only the cyclic collector can free.

    The collector is off while the test runs, so every object the test
    drops must be freed by reference counting alone.
    """
    gc.collect()
    gc.disable()
    try:
        yield
        assert gc.collect() == 0, "the test left unreachable reference cycles"
    finally:
        gc.enable()
