"""The box application forms, re-exported from `core`.

This module defines nothing of its own.  It stays because
`bench/layers.py` times `combinators.box_apply2` by that name.
"""

from __future__ import annotations

from .core import box_apply, box_apply2

__all__ = ["box_apply", "box_apply2"]
