"""Variable binding with fast substitution, plus a System F demonstration.

The core API lives here: variables (`new_var`), boxes (`box`, `box_var`,
`apply_box`, `box_apply`, `box_apply2`, `unbox`), and binders (`bind_var`,
`subst`, `unbind`).  The `systemf`, `typecheck`, `oracle`, `parser`, and
`cli` submodules build a complete Church-style System F implementation on
top; `systemf.update_names` recomputes the binder names of a term.
"""

from .core import *  # noqa: F403
from .core import __all__
