"""Run a callable with room for very deep recursion.

Normalization and lifting recurse once per syntax node, so terms with long
spines need more stack than a default thread provides.  The work runs on a
dedicated thread with a large stack and a raised recursion limit.

The recursion limit is interpreter-wide, so overlapping calls share it: it is
raised when the first call starts and restored when the last one ends.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Callable

__all__ = ["call_with_deep_stack"]

_STACK_BYTES = 512 * 1024 * 1024  # the deep thread's stack
_RECURSION_LIMIT = 1_000_000  # the limit while a deep call runs

_lock = threading.Lock()  # guards `_active`, `_saved_limit` and the stack size
_active = 0  # deep calls running
_saved_limit = 0  # the recursion limit before the first of them started


def _enter() -> None:
    global _active, _saved_limit
    with _lock:
        if _active == 0:
            _saved_limit = sys.getrecursionlimit()
        _active += 1
        if _RECURSION_LIMIT > sys.getrecursionlimit():
            sys.setrecursionlimit(_RECURSION_LIMIT)


def _leave() -> None:
    global _active
    with _lock:
        _active -= 1
        if _active == 0:
            sys.setrecursionlimit(_saved_limit)


def call_with_deep_stack(fn: Callable[..., Any], *args: Any) -> Any:
    outcome: list = []

    def runner() -> None:
        _enter()
        try:
            outcome.append((True, fn(*args)))
        except BaseException as exc:  # re-raised on the calling thread
            outcome.append((False, exc))
        finally:
            _leave()

    with _lock:  # the stack size is process-wide too
        old_size = threading.stack_size(_STACK_BYTES)
        try:
            thread = threading.Thread(target=runner, name="bindcore-deep")
            thread.start()
        finally:
            threading.stack_size(old_size)
    thread.join()
    ok, value = outcome.pop()
    if ok:
        return value
    try:
        raise value
    finally:
        del value  # the traceback holds this frame: break the cycle
