"""Church-style System F: syntax, normalization, printing, and equality.

Types bind types (quantifiers), terms bind terms (abstractions), and terms
bind types (type abstractions), so this exercises every binding shape the
core supports.  Constructors starting with an underscore are the *smart*
constructors operating on boxed operands; the bare dataclasses are the
finished syntax used for pattern matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Union

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
_TyArr = partial(box_apply2, TyArr)
_TyAll = partial(box_apply, TyAll)
_TeAbs = partial(box_apply2, TeAbs)
_TeApp = partial(box_apply2, TeApp)
_TeLam = partial(box_apply, TeLam)
_TeSpe = partial(box_apply2, TeSpe)


# --- lifting ---------------------------------------------------------------


def _lift(v: Union[Ty, Te], body: Callable[[Te], BoxVal[Te]]) -> BoxVal:
    # one walk over types and terms: re-box `v`, applying `body` to each
    # term body it opens; a type's bodies are types and are lifted as such
    tv = type(v)
    if tv is TeApp:
        return _TeApp(_lift(v.fn, body), _lift(v.arg, body))
    if tv is TeVar or tv is TyVar:
        return box_var(v.var)
    if tv is TeAbs:
        return _TeAbs(_lift(v.ty, body), box_binder(body, v.binder))
    if tv is TeLam:
        return _TeLam(box_binder(body, v.binder))
    if tv is TeSpe:
        return _TeSpe(_lift(v.fn, body), _lift(v.ty, body))
    if tv is TyArr:
        return _TyArr(_lift(v.dom, body), _lift(v.cod, body))
    if tv is TyAll:
        return _TyAll(box_binder(lift_ty, v.binder))
    raise TypeError(f"not a type or term: {v!r}")


def lift_ty(a: Ty) -> BoxVal[Ty]:
    """Re-open a finished type so its variables become bindable again."""
    return _lift(a, lift_te)


def lift_te(t: Te) -> BoxVal[Te]:
    """Re-open a finished term so its variables become bindable again."""
    return _lift(t, lift_te)


# --- normalization ---------------------------------------------------------


class StepBudgetExceeded(Exception):
    """Raised when a bounded normalization runs out of beta steps."""

    def __init__(self, steps: int) -> None:
        super().__init__(f"beta-step budget of {steps} exhausted")
        self.steps = steps


@dataclass(eq=False, slots=True)
class _Val:
    """A value substituted for a variable: one cell shared by all its uses."""

    v: Te
    reached: int = 0  # the second reach replaces `v` by its normal form


def _beta(budget: list) -> None:
    # `budget` is [beta steps taken, their bound or None]
    budget[0] += 1
    if budget[1] is not None and budget[0] > budget[1]:
        raise StepBudgetExceeded(budget[1])


def _ev(t: Te, budget: list) -> Te:
    tt = type(t)
    if tt is TeApp:
        u = _ev(t.arg, budget)
        fn = _ev(t.fn, budget)
        if type(fn) is TeAbs:
            _beta(budget)
            return _ev(subst(fn.binder, _Val(u)), budget)
        return TeApp(fn, u)
    if tt is TeSpe:
        fn = _ev(t.fn, budget)
        if type(fn) is TeLam:
            _beta(budget)
            return _ev(subst(fn.binder, t.ty), budget)
        return TeSpe(fn, t.ty)
    if tt is _Val:
        t.reached += 1
        if t.reached == 2:
            t.v = unbox(_lift(t.v, partial(_rb, budget)))
        return t.v
    if tt is TeVar or tt is TeAbs or tt is TeLam:
        return t
    raise TypeError(f"not a term: {t!r}")


def _rb(budget: list, t: Te) -> BoxVal[Te]:
    # readback: evaluate a term and lift its value, reading back each body
    return _lift(_ev(t, budget), partial(_rb, budget))


def nf(t: Te, max_steps: Optional[int] = None) -> Te:
    """Full beta-normal form, reducing under binders.

    Normalization by evaluation.  Evaluation (`_ev`) goes right to left,
    argument first; it leaves abstractions as they stand and substitutes
    each argument as a `_Val` cell.  Readback (`_rb`) is the lifting walk
    of `lift_te`, except that each binder body it opens is evaluated and
    read back in turn.  A cell's value is normalized the second time the
    cell is reached, so a function used many times has its body evaluated
    at most twice.  Terminates on well-typed terms.  `max_steps` bounds
    the beta steps, all counted, raising `StepBudgetExceeded`.
    """
    return unbox(_rb([0, max_steps], t))


# --- printing --------------------------------------------------------------

# Canonical grammar, emitted exactly (single spaces only where shown):
#   A ::= ident | "(" A " => " A ")" | "all " ident "." A
#   t ::= ident | "fun " ident ":" A "." t | "(" t " " t ")"
#       | "Lam " ident "." t | "(" t " [" A "])"
# The unicode form uses the symbols below instead of the keywords.

_UNI = {"arrow": " ⇒ ", "forall": "∀", "lam": "λ", "tlam": "Λ"}
_ASC = {"arrow": " => ", "forall": "all ", "lam": "fun ", "tlam": "Lam "}


def _print(root: Union[Ty, Te], ascii: bool) -> str:
    # one walk over types and terms: `todo` holds the nodes and the text
    # still to emit, the next one last; text goes to `out`, joined once
    sym = _ASC if ascii else _UNI
    out: list[str] = []
    todo: list = [root]
    while todo:
        n = todo.pop()
        tn = type(n)
        if tn is str:
            out.append(n)
        elif tn is TeVar or tn is TyVar:
            out.append(name_of(n.var))
        elif tn is TeApp:
            todo += (")", n.arg, " ", n.fn, "(")
        elif tn is TyArr:
            todo += (")", n.cod, sym["arrow"], n.dom, "(")
        elif tn is TeSpe:
            todo += ("])", n.ty, " [", n.fn, "(")
        elif tn is TeAbs:
            x, body = unbind(n.binder)
            todo += (body, ".", n.ty, ":", name_of(x), sym["lam"])
        elif tn is TyAll or tn is TeLam:
            x, body = unbind(n.binder)
            todo += (body, ".", name_of(x), sym["forall" if tn is TyAll else "tlam"])
        else:
            raise TypeError(f"not a type or term: {n!r}")
    return "".join(out)


def print_ty(a: Ty, ascii: bool = False) -> str:
    """Render a type on the canonical grammar (unicode unless `ascii`)."""
    return _print(a, ascii)


def print_te(t: Te, ascii: bool = False) -> str:
    """Render a term on the canonical grammar (unicode unless `ascii`)."""
    return _print(t, ascii)


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
