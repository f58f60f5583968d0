from contextlib import contextmanager

import pytest

from bindcore import debug_enabled, enable_debug


@contextmanager
def debug_set(on):
    """Run a block in debug mode `on`, restoring the old mode after it."""
    prev = debug_enabled()
    enable_debug(on)
    try:
        yield
    finally:
        enable_debug(prev)


@pytest.fixture
def debug_mode():
    """Run a test with debug instrumentation on, restoring the old mode."""
    with debug_set(True):
        yield
