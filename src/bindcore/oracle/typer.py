"""Reference type inference for named System F terms.

The plain textbook rules on named terms: a context maps term names to
types and each binder extends a copy of it, a specialisation substitutes
with the capture-avoiding `named.subst_ty`, and two types are equal when
their de Bruijn forms are (`debruijn.alpha_eq_ty`).  Like the rest of the
oracle it never imports the binding core, so it can serve as ground truth
for `bindcore.typecheck`.
"""

from __future__ import annotations

from .debruijn import alpha_eq_ty
from .named import (
    Abs,
    App,
    Lam,
    Spe,
    TAll,
    TArr,
    Te,
    TVar,
    Ty,
    Var,
    free_ty,
    free_ty_te,
    subst_ty,
    subst_ty_te,
)

__all__ = ["OracleTypeError", "infer"]


class OracleTypeError(Exception):
    """A named term has no type in the given context."""


def infer(ctx: dict[str, Ty], t: Te) -> Ty:
    """The type of `t` in `ctx`, a map from term names to types."""
    match t:
        case Var(x):
            if x not in ctx:
                raise OracleTypeError(f"unbound term name {x}")
            return ctx[x]
        case Abs(x, a, b):
            return TArr(a, infer({**ctx, x: a}, b))
        case App(f, u):
            fa = infer(ctx, f)
            if not isinstance(fa, TArr):
                raise OracleTypeError("applying a term whose type is no arrow")
            if not alpha_eq_ty(fa.dom, infer(ctx, u)):
                raise OracleTypeError("argument type differs from the domain")
            return fa.cod
        case Lam(x, b):
            # the bound type name must not occur free in the context; if it
            # does, the binder shadows it, so rename the binder apart
            taken = set().union(*(free_ty(a) for a in ctx.values()))
            if x in taken:
                taken |= free_ty_te(b)
                y = x
                while y in taken:
                    y += "'"
                b, x = subst_ty_te(b, x, TVar(y)), y
            return TAll(x, infer(ctx, b))
        case Spe(f, a):
            fa = infer(ctx, f)
            if not isinstance(fa, TAll):
                raise OracleTypeError("specialising a term whose type is no quantifier")
            return subst_ty(fa.body, fa.var, a)
    raise TypeError(f"not a term: {t!r}")
