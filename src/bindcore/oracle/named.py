"""Reference System F terms with plain string names.

This is the naive representation: binders store names, substitution renames
on capture risk.  It is deliberately independent of the binding core (it
must never import it) so it can serve as ground truth in differential
tests.  Term names and type names live in separate namespaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = [
    "Ty",
    "TVar",
    "TArr",
    "TAll",
    "Te",
    "Var",
    "Abs",
    "App",
    "Lam",
    "Spe",
    "free_te",
    "free_ty",
    "free_ty_te",
    "subst_te",
    "subst_ty",
    "subst_ty_te",
    "BudgetExceeded",
    "oracle_nf",
]


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TArr:
    dom: "Ty"
    cod: "Ty"


@dataclass(frozen=True)
class TAll:
    var: str
    body: "Ty"


Ty = Union[TVar, TArr, TAll]


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Abs:
    var: str
    ty: "Ty"
    body: "Te"


@dataclass(frozen=True)
class App:
    fn: "Te"
    arg: "Te"


@dataclass(frozen=True)
class Lam:
    var: str  # binds a type name
    body: "Te"


@dataclass(frozen=True)
class Spe:
    fn: "Te"
    ty: "Ty"


Te = Union[Var, Abs, App, Lam, Spe]


# --- free names ------------------------------------------------------------


def free_te(t: Te) -> set[str]:
    """Free term names of a term."""
    match t:
        case Var(x):
            return {x}
        case Abs(x, _, b):
            return free_te(b) - {x}
        case App(f, u):
            return free_te(f) | free_te(u)
        case Lam(_, b):
            return free_te(b)
        case Spe(f, _):
            return free_te(f)
    raise TypeError(f"not a term: {t!r}")


def free_ty(a: Ty) -> set[str]:
    """Free type names of a type."""
    match a:
        case TVar(x):
            return {x}
        case TArr(d, c):
            return free_ty(d) | free_ty(c)
        case TAll(x, b):
            return free_ty(b) - {x}
    raise TypeError(f"not a type: {a!r}")


def free_ty_te(t: Te) -> set[str]:
    """Free type names of a term (annotations and specializations)."""
    match t:
        case Var(_):
            return set()
        case Abs(_, a, b):
            return free_ty(a) | free_ty_te(b)
        case App(f, u):
            return free_ty_te(f) | free_ty_te(u)
        case Lam(x, b):
            return free_ty_te(b) - {x}
        case Spe(f, a):
            return free_ty_te(f) | free_ty(a)
    raise TypeError(f"not a term: {t!r}")


def _fresh(name: str, taken: set[str]) -> str:
    while name in taken:
        name += "'"
    return name


# --- capture-avoiding substitution ------------------------------------------


def subst_ty(a: Ty, x: str, c: Ty) -> Ty:
    """Substitute type `c` for type name `x` in type `a`."""
    match a:
        case TVar(y):
            return c if y == x else a
        case TArr(d, co):
            return TArr(subst_ty(d, x, c), subst_ty(co, x, c))
        case TAll(y, b):
            if y == x:
                return a
            if y in free_ty(c) and x in free_ty(b):
                y2 = _fresh(y, free_ty(c) | free_ty(b))
                b = subst_ty(b, y, TVar(y2))
                return TAll(y2, subst_ty(b, x, c))
            return TAll(y, subst_ty(b, x, c))
    raise TypeError(f"not a type: {a!r}")


def subst_te(t: Te, x: str, u: Te) -> Te:
    """Substitute term `u` for term name `x` in term `t`."""
    match t:
        case Var(y):
            return u if y == x else t
        case Abs(y, a, b):
            if y == x:
                return t
            if y in free_te(u) and x in free_te(b):
                y2 = _fresh(y, free_te(u) | free_te(b))
                b = subst_te(b, y, Var(y2))
                return Abs(y2, a, subst_te(b, x, u))
            return Abs(y, a, subst_te(b, x, u))
        case App(f, w):
            return App(subst_te(f, x, u), subst_te(w, x, u))
        case Lam(y, b):
            # a type binder can capture type names free in `u`
            if y in free_ty_te(u) and x in free_te(b):
                y2 = _fresh(y, free_ty_te(u) | free_ty_te(b))
                b = subst_ty_te(b, y, TVar(y2))
                return Lam(y2, subst_te(b, x, u))
            return Lam(y, subst_te(b, x, u))
        case Spe(f, a):
            return Spe(subst_te(f, x, u), a)
    raise TypeError(f"not a term: {t!r}")


def subst_ty_te(t: Te, x: str, c: Ty) -> Te:
    """Substitute type `c` for type name `x` in term `t`."""
    match t:
        case Var(_):
            return t
        case Abs(y, a, b):
            return Abs(y, subst_ty(a, x, c), subst_ty_te(b, x, c))
        case App(f, u):
            return App(subst_ty_te(f, x, c), subst_ty_te(u, x, c))
        case Lam(y, b):
            if y == x:
                return t
            if y in free_ty(c) and x in free_ty_te(b):
                y2 = _fresh(y, free_ty(c) | free_ty_te(b))
                b = subst_ty_te(b, y, TVar(y2))
                return Lam(y2, subst_ty_te(b, x, c))
            return Lam(y, subst_ty_te(b, x, c))
        case Spe(f, a):
            return Spe(subst_ty_te(f, x, c), subst_ty(a, x, c))
    raise TypeError(f"not a term: {t!r}")


# --- reference normalizer ----------------------------------------------------


class BudgetExceeded(Exception):
    """The reference normalizer ran out of beta steps."""

    def __init__(self, steps: int) -> None:
        super().__init__(f"oracle beta-step budget of {steps} exhausted")
        self.steps = steps


def oracle_nf(t: Te, max_steps: int = 1_000_000) -> Te:
    """Beta-normal form by naive substitution.

    Same strategy as the main normalizer (arguments first, right-to-left,
    then under binders); bounded so it stays total on bad input.
    """
    remaining = max_steps

    def beta() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining < 0:
            raise BudgetExceeded(max_steps)

    def go(t: Te) -> Te:
        match t:
            case Var(_):
                return t
            case Abs(x, a, b):
                return Abs(x, a, go(b))
            case App(f, u):
                u2 = go(u)
                f2 = go(f)
                if isinstance(f2, Abs):
                    beta()
                    return go(subst_te(f2.body, f2.var, u2))
                return App(f2, u2)
            case Lam(x, b):
                return Lam(x, go(b))
            case Spe(f, a):
                f2 = go(f)
                if isinstance(f2, Lam):
                    beta()
                    return go(subst_ty_te(f2.body, f2.var, a))
                return Spe(f2, a)
        raise TypeError(f"not a term: {t!r}")

    return go(t)
