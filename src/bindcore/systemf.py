"""Church-style System F: syntax, normalization, printing, and equality.

Types bind types (quantifiers), terms bind terms (abstractions), and terms
bind types (type abstractions), so this exercises every binding shape the
core supports.  Constructors starting with an underscore are the *smart*
constructors operating on boxed operands; the bare dataclasses are the
finished syntax used for pattern matching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    Binder,
    BoxVal,
    Var,
    bind_var,  # unused here; `bench/layers.py` wraps `systemf.bind_var` by name
    box_apply,
    box_apply2,
    box_binder,
    box_var,
    eq_binder,
    eq_vars,
    name_of,
    subst,
    unbind,
    unbox,
)

__all__ = [
    "Ty",
    "TyVar",
    "TyArr",
    "TyAll",
    "Te",
    "TeVar",
    "TeAbs",
    "TeApp",
    "TeLam",
    "TeSpe",
    "_TyVar",
    "_TyArr",
    "_TyAll",
    "_TeVar",
    "_TeAbs",
    "_TeApp",
    "_TeLam",
    "_TeSpe",
    "lift_ty",
    "lift_te",
    "hnf",
    "nf",
    "StepBudgetExceeded",
    "print_ty",
    "print_te",
    "eq_ty",
    "eq_te",
    "update_names",
]


# --- abstract syntax -------------------------------------------------------


@dataclass(eq=False, slots=True)
class TyVar:
    var: Var["Ty"]


@dataclass(eq=False, slots=True)
class TyArr:
    dom: "Ty"
    cod: "Ty"


@dataclass(eq=False, slots=True)
class TyAll:
    binder: Binder["Ty", "Ty"]


Ty = Union[TyVar, TyArr, TyAll]


@dataclass(eq=False, slots=True)
class TeVar:
    var: Var["Te"]


@dataclass(eq=False, slots=True)
class TeAbs:
    ty: "Ty"
    binder: Binder["Te", "Te"]


@dataclass(eq=False, slots=True)
class TeApp:
    fn: "Te"
    arg: "Te"


@dataclass(eq=False, slots=True)
class TeLam:
    binder: Binder["Ty", "Te"]


@dataclass(eq=False, slots=True)
class TeSpe:
    fn: "Te"
    ty: "Ty"


Te = Union[TeVar, TeAbs, TeApp, TeLam, TeSpe]


# --- smart constructors ----------------------------------------------------

_TyVar = box_var
_TeVar = box_var


def _TyArr(a: BoxVal[Ty], b: BoxVal[Ty]) -> BoxVal[Ty]:
    return box_apply2(TyArr, a, b)


def _TyAll(f: BoxVal[Binder[Ty, Ty]]) -> BoxVal[Ty]:
    return box_apply(TyAll, f)


def _TeAbs(a: BoxVal[Ty], f: BoxVal[Binder[Te, Te]]) -> BoxVal[Te]:
    return box_apply2(TeAbs, a, f)


def _TeApp(t: BoxVal[Te], u: BoxVal[Te]) -> BoxVal[Te]:
    return box_apply2(TeApp, t, u)


def _TeLam(f: BoxVal[Binder[Ty, Te]]) -> BoxVal[Te]:
    return box_apply(TeLam, f)


def _TeSpe(t: BoxVal[Te], a: BoxVal[Ty]) -> BoxVal[Te]:
    return box_apply2(TeSpe, t, a)


# --- lifting ---------------------------------------------------------------


def lift_ty(a: Ty) -> BoxVal[Ty]:
    """Re-open a finished type so its variables become bindable again."""
    match a:
        case TyVar(x):
            return box_var(x)
        case TyArr(dom, cod):
            return _TyArr(lift_ty(dom), lift_ty(cod))
        case TyAll(f):
            return _TyAll(box_binder(lift_ty, f))
    raise TypeError(f"not a type: {a!r}")


def lift_te(t: Te) -> BoxVal[Te]:
    """Re-open a finished term so its variables become bindable again."""
    match t:
        case TeVar(x):
            return box_var(x)
        case TeAbs(a, f):
            return _TeAbs(lift_ty(a), box_binder(lift_te, f))
        case TeApp(fn, arg):
            return _TeApp(lift_te(fn), lift_te(arg))
        case TeLam(f):
            return _TeLam(box_binder(lift_te, f))
        case TeSpe(fn, a):
            return _TeSpe(lift_te(fn), lift_ty(a))
    raise TypeError(f"not a term: {t!r}")


# --- normalization ---------------------------------------------------------


class StepBudgetExceeded(Exception):
    """Raised when a bounded normalization runs out of beta steps."""

    def __init__(self, steps: int) -> None:
        super().__init__(f"beta-step budget of {steps} exhausted")
        self.steps = steps


def hnf(t: Te) -> Te:
    """Head normal form, right-to-left call-by-value, never under binders.

    May diverge on ill-typed input; type-check first.
    """
    match t:
        case TeApp(fn, arg):
            v = hnf(arg)
            match hnf(fn):
                case TeAbs(_, f):
                    return hnf(subst(f, v))
                case h:
                    return TeApp(h, v)
        case TeSpe(fn, a):
            match hnf(fn):
                case TeLam(f):
                    return hnf(subst(f, a))
                case h:
                    return TeSpe(h, a)
    return t


@dataclass(eq=False, slots=True)
class _Val:
    """A value substituted for a variable: one cell shared by all its uses."""

    v: Te
    reached: int = 0  # the second reach replaces `v` by its normal form


def nf(t: Te, max_steps: Optional[int] = None) -> Te:
    """Full beta-normal form, reducing under binders.

    Normalization by evaluation.  `ev` evaluates right to left, argument
    first; it leaves abstractions as they stand and substitutes each
    argument as a `_Val` cell.  `rb` reads a value back into a box and
    evaluates each body it opens.  A cell's value is normalized the second
    time the cell is reached, so a function used many times has its body
    evaluated at most twice.  Terminates on well-typed terms.  `max_steps`
    bounds the beta steps, all counted, raising `StepBudgetExceeded`.
    """
    steps = itertools.count(1)

    def beta() -> None:
        if max_steps is not None and next(steps) > max_steps:
            raise StepBudgetExceeded(max_steps)

    def ev(t: Te) -> Te:
        tt = type(t)
        if tt is TeApp:
            u = ev(t.arg)
            fn = ev(t.fn)
            if type(fn) is TeAbs:
                beta()
                return ev(subst(fn.binder, _Val(u)))
            return TeApp(fn, u)
        if tt is TeSpe:
            fn = ev(t.fn)
            if type(fn) is TeLam:
                beta()
                return ev(subst(fn.binder, t.ty))
            return TeSpe(fn, t.ty)
        if tt is _Val:
            t.reached += 1
            if t.reached == 2:
                t.v = unbox(rb(t.v))
            return t.v
        if tt is TeVar or tt is TeAbs or tt is TeLam:
            return t
        raise TypeError(f"not a term: {t!r}")

    def rb(v: Te) -> BoxVal[Te]:
        tt = type(v)
        if tt is TeAbs:
            return _TeAbs(lift_ty(v.ty), box_binder(lambda b: rb(ev(b)), v.binder))
        if tt is TeLam:
            return _TeLam(box_binder(lambda b: rb(ev(b)), v.binder))
        if tt is TeApp:
            return _TeApp(rb(v.fn), rb(v.arg))
        if tt is TeSpe:
            return _TeSpe(rb(v.fn), lift_ty(v.ty))
        return box_var(v.var)

    return unbox(rb(ev(t)))


# --- printing --------------------------------------------------------------

# Canonical grammar, emitted exactly (single spaces only where shown):
#   A ::= ident | "(" A " => " A ")" | "all " ident "." A
#   t ::= ident | "fun " ident ":" A "." t | "(" t " " t ")"
#       | "Lam " ident "." t | "(" t " [" A "])"
# The unicode form uses the symbols below instead of the keywords.

_UNI = {"arrow": " ⇒ ", "forall": "∀", "lam": "λ", "tlam": "Λ"}
_ASC = {"arrow": " => ", "forall": "all ", "lam": "fun ", "tlam": "Lam "}


def print_ty(a: Ty, ascii: bool = False) -> str:
    """Render a type on the canonical grammar (unicode unless `ascii`)."""
    sym = _ASC if ascii else _UNI

    def go(a: Ty) -> str:
        match a:
            case TyVar(x):
                return name_of(x)
            case TyArr(dom, cod):
                return f"({go(dom)}{sym['arrow']}{go(cod)})"
            case TyAll(f):
                x, body = unbind(f)
                return f"{sym['forall']}{name_of(x)}.{go(body)}"
        raise TypeError(f"not a type: {a!r}")

    return go(a)


def print_te(t: Te, ascii: bool = False) -> str:
    """Render a term on the canonical grammar (unicode unless `ascii`)."""
    sym = _ASC if ascii else _UNI

    def go(t: Te) -> str:
        match t:
            case TeVar(x):
                return name_of(x)
            case TeAbs(a, f):
                x, body = unbind(f)
                return f"{sym['lam']}{name_of(x)}:{print_ty(a, ascii)}.{go(body)}"
            case TeApp(fn, arg):
                return f"({go(fn)} {go(arg)})"
            case TeLam(f):
                x, body = unbind(f)
                return f"{sym['tlam']}{name_of(x)}.{go(body)}"
            case TeSpe(fn, a):
                return f"({go(fn)} [{print_ty(a, ascii)}])"
        raise TypeError(f"not a term: {t!r}")

    return go(t)


# --- alpha-equality --------------------------------------------------------


def eq_ty(a: Ty, b: Ty) -> bool:
    """Structural type equality modulo renaming of bound variables."""
    if a is b:
        return True
    match (a, b):
        case (TyVar(x1), TyVar(x2)):
            return eq_vars(x1, x2)
        case (TyArr(d1, c1), TyArr(d2, c2)):
            return eq_ty(d1, d2) and eq_ty(c1, c2)
        case (TyAll(f1), TyAll(f2)):
            return eq_binder(eq_ty, f1, f2)
    return False


def eq_te(t: Te, u: Te) -> bool:
    """Structural term equality modulo renaming of bound variables."""
    if t is u:
        return True
    match (t, u):
        case (TeVar(x1), TeVar(x2)):
            return eq_vars(x1, x2)
        case (TeAbs(a1, f1), TeAbs(a2, f2)):
            return eq_ty(a1, a2) and eq_binder(eq_te, f1, f2)
        case (TeApp(t1, u1), TeApp(t2, u2)):
            return eq_te(t1, t2) and eq_te(u1, u2)
        case (TeLam(f1), TeLam(f2)):
            return eq_binder(eq_te, f1, f2)
        case (TeSpe(t1, a1), TeSpe(t2, a2)):
            return eq_te(t1, t2) and eq_ty(a1, a2)
    return False


def update_names(t: Te) -> Te:
    """Recompute the stored names of all binders in a term.

    Substitution never renames, so a term that went through substitutions
    can display two distinct variables under the same name.  Sealing a box
    names its binders outermost first, against the final names of the
    variables free in each body, so relifting the term and sealing it once
    settles every name.  The result is a new term, alpha-equal to the input.
    """
    return unbox(lift_te(t))
