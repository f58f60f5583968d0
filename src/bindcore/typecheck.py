"""Bidirectional type checking for Church-style System F.

`infer` synthesizes a type, `check` validates a term against one.  Failures
raise `TypeCheckError` carrying a stable error code from the closed
enumeration below, so callers (notably the command-line driver) can report
machine-readable diagnostics.

Both entry points take a `Context`, a list of (variable, type) pairs with
the nearest binding first.  Each converts it once to a dict from variable
key to type, keeping the nearest binding of each key; below the entry
point the checker adds one entry for each term binder it opens and removes
it when the binder's body is done.  `unbind` opens every binder on a
globally fresh variable, so an added key is never in the dict already and
no shadowing arises: a lookup is one dict access and no binder copies the
context.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .core import Var, bind_var, eq_vars, subst, unbind, unbind2, unbox
from .systemf import (
    Te,
    TeAbs,
    TeApp,
    TeLam,
    TeSpe,
    TeVar,
    Ty,
    TyAll,
    TyArr,
    eq_ty,
    lift_ty,
)

__all__ = [
    "Context",
    "ErrorCode",
    "TypeCheckError",
    "find_ctxt",
    "infer",
    "check",
]

# ordered, most recent binding first; lookups compare variable keys
Context = list[tuple[Var, Ty]]
# the checker's own context: variable key to type, one entry per key
_Keyed = dict[int, Ty]


class ErrorCode(Enum):
    VARIABLE_NOT_IN_CONTEXT = "variable-not-in-context"
    EXPECTED_ARROW = "expected-arrow"
    EXPECTED_QUANTIFIER = "expected-quantifier"
    TYPE_MISMATCH_VAR = "type-mismatch-var"
    TYPE_MISMATCH_ABS = "type-mismatch-abs"
    TYPE_MISMATCH_SPE = "type-mismatch-spe"
    NOT_TYPABLE = "not-typable"


class TypeCheckError(Exception):
    def __init__(self, code: ErrorCode, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def find_ctxt(x: Var, ctx: Context) -> Optional[Ty]:
    """The nearest type bound to `x`, or None."""
    for y, a in ctx:
        if eq_vars(x, y):
            return a
    return None


def _keyed(ctx: Context) -> _Keyed:
    # the nearest binding wins: it is entered last
    return {x.key: a for x, a in reversed(ctx)}


def infer(ctx: Context, t: Te) -> Ty:
    """Synthesize the type of a term, or raise `TypeCheckError`."""
    return _infer(_keyed(ctx), t)


def check(ctx: Context, t: Te, a: Ty) -> None:
    """Check a term against a type, or raise `TypeCheckError`."""
    _check(_keyed(ctx), t, a)


# `_infer` and `_check` own their dict: after an error it is dropped, so
# entries need no removal on that path.


def _infer(ctx: _Keyed, t: Te) -> Ty:
    match t:
        case TeVar(x):
            a = ctx.get(x.key)
            if a is None:
                raise TypeCheckError(
                    ErrorCode.VARIABLE_NOT_IN_CONTEXT,
                    "[infer] variable not in context...",
                )
            return a
        case TeAbs(a, f):
            x, body = unbind(f)
            ctx[x.key] = a
            b = _infer(ctx, body)
            del ctx[x.key]
            return TyArr(a, b)
        case TeApp(fn, u):
            match _infer(ctx, fn):
                case TyArr(a, b):
                    _check(ctx, u, a)
                    return b
                case _:
                    raise TypeCheckError(
                        ErrorCode.EXPECTED_ARROW,
                        "[infer] expected arrow type...",
                    )
        case TeLam(f):
            x, body = unbind(f)
            a = _infer(ctx, body)
            return TyAll(unbox(bind_var(x, lift_ty(a))))
        case TeSpe(fn, b):
            match _infer(ctx, fn):
                case TyAll(f):
                    return subst(f, b)
                case _:
                    raise TypeCheckError(
                        ErrorCode.EXPECTED_QUANTIFIER,
                        "[infer] expected quantifier...",
                    )
    raise TypeError(f"not a term: {t!r}")


def _check(ctx: _Keyed, t: Te, a: Ty) -> None:
    match (t, a):
        case (TeVar(x), b):
            found = ctx.get(x.key)
            if found is None:
                raise TypeCheckError(
                    ErrorCode.VARIABLE_NOT_IN_CONTEXT,
                    "[check] variable not in context...",
                )
            if not eq_ty(found, b):
                raise TypeCheckError(
                    ErrorCode.TYPE_MISMATCH_VAR,
                    "[check] type mismatch... (var)",
                )
        case (TeAbs(c, f), TyArr(dom, cod)):
            if not eq_ty(c, dom):
                raise TypeCheckError(
                    ErrorCode.TYPE_MISMATCH_ABS,
                    "[check] type mismatch... (abs)",
                )
            x, body = unbind(f)
            ctx[x.key] = dom
            _check(ctx, body, cod)
            del ctx[x.key]
        case (TeApp(fn, u), b):
            arg_ty = _infer(ctx, u)
            _check(ctx, fn, TyArr(arg_ty, b))
        case (TeLam(f1), TyAll(f2)):
            _, body, body_ty = unbind2(f1, f2)
            _check(ctx, body, body_ty)
        case (TeSpe(), expected):
            if not eq_ty(_infer(ctx, t), expected):
                raise TypeCheckError(
                    ErrorCode.TYPE_MISMATCH_SPE,
                    "[check] type mismatch... (spe)",
                )
        case _:
            raise TypeCheckError(
                ErrorCode.NOT_TYPABLE,
                "[check] not typable...",
            )
