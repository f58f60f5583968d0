"""Lifting helpers for optional values and sequences.

Both are definable from `box` and `box_apply2`; the application forms
themselves (`box_apply`, `box_apply2`) live in `core` and are re-exported
here.
"""

from __future__ import annotations

from typing import Optional, Sequence, TypeVar

from .core import BoxVal, box, box_apply, box_apply2

A = TypeVar("A")

__all__ = ["box_apply", "box_apply2", "box_opt", "box_list"]


def box_opt(o: Optional[BoxVal[A]]) -> BoxVal[Optional[A]]:
    """Turn an optional box into a box of an optional value."""
    if o is None:
        return box(None)
    # optional values carry no wrapper here, so the lift is the identity
    return o


def box_list(items: Sequence[BoxVal[A]]) -> BoxVal[list[A]]:
    """Turn a sequence of boxes into a box of a list, preserving order."""
    out: BoxVal[list[A]] = box([])
    for item in reversed(list(items)):
        out = box_apply2(lambda x, rest: [x, *rest], item, out)
    return out
