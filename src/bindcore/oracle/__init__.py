"""Independent reference implementations used as differential-test ground truth.

`named` holds the naive name-based terms with capture-avoiding substitution
and a reference normalizer; `debruijn` the canonical index form deciding
alpha-equivalence; `typer` reference type inference on named terms.  None
of them imports the binding core.  `convert` bridges the two worlds and is
the only module here that may.
"""

from . import convert, debruijn, named, typer

__all__ = ["named", "debruijn", "typer", "convert"]
