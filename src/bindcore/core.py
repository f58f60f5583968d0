"""Variables, boxed values, and binders with two-phase substitution closures.

A value "under construction" lives in a box that tracks its free variables.
Binding a variable (`bind_var`) or sealing a box (`unbox`) runs *phase one*
of every closure inside: each variable occurrence resolves its key to an
environment slot index exactly once.  The substitution function stored in a
binder is pure *phase two*: it writes one slot and re-runs the body closure,
which only performs slot-indexed reads and constant work per node.  No name
or key is ever consulted during substitution, so capture cannot arise and
substitution stays cheap no matter how often the binder is applied.

Binder names are chosen in phase one too, outermost first: a binder keeps
its variable's name without the trailing digits and takes the smallest
suffix that no variable free in its body shows under its final name.  So a
freshly sealed value never shows two variables under one name;
substitution does not rename.

Debug instrumentation (slot-lookup counter, environment owner tags) is
enabled by setting the BINDCORE_DEBUG environment variable to any non-empty
value, or at runtime via `enable_debug`.  The mode is read when a box is
sealed, so every closure and environment of one seal runs in one mode.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Collection, Generic, TypeVar, Union

T = TypeVar("T")
A = TypeVar("A")
B = TypeVar("B")
C = TypeVar("C")

__all__ = [
    "Var",
    "Binder",
    "Closed",
    "Open",
    "BoxVal",
    "BindDebugError",
    "new_var",
    "name_of",
    "eq_vars",
    "box",
    "box_var",
    "apply_box",
    "box_apply",
    "box_apply2",
    "bind_var",
    "unbox",
    "subst",
    "unbind",
    "unbind2",
    "eq_binder",
    "box_binder",
    "binder_info",
    "is_closed",
    "occur",
    "box_vars",
    "enable_debug",
    "debug_enabled",
    "phase1_lookup_count",
]


class BindDebugError(RuntimeError):
    """An internal invariant was violated while debug checks were active."""


# --- debug instrumentation -------------------------------------------------

_debug = bool(os.environ.get("BINDCORE_DEBUG"))


class _Stats:
    __slots__ = ("lookups",)

    def __init__(self) -> None:
        self.lookups = 0


_stats = _Stats()


def enable_debug(on: bool = True) -> None:
    """Toggle debug instrumentation at runtime.

    The mode is read when `unbox` seals a box, so it applies to boxes
    sealed after the call; binders sealed before keep the mode they were
    sealed in.
    """
    global _debug
    _debug = bool(on)


def debug_enabled() -> bool:
    return _debug


def phase1_lookup_count() -> int:
    """Total key-to-slot lookups performed so far (debug mode only)."""
    return _stats.lookups


# --- environments ----------------------------------------------------------

# An environment is a fixed-size slot store, a plain list.  Slots below a
# box's bound count belong to variables bound inside it; the remaining slots
# hold free variables and are assigned at unbox time.  A substitution writes
# its slot in a copy.  In debug mode the store is a `_DebugEnv` instead.


class _DebugEnv(list):
    """A debug-mode slot store: each slot carries the key of the variable
    that owns it, and every read is checked against it."""

    __slots__ = ("owners",)

    def __init__(self, values: list, owners: list) -> None:
        super().__init__(values)
        self.owners = owners

    def copy(self) -> "_DebugEnv":
        return _DebugEnv(self, self.owners.copy())

    def read(self, slot: int, key: int) -> Any:
        owner = self.owners[slot]
        if owner != key:
            raise BindDebugError(f"slot {slot} owned by key {owner}, read as key {key}")
        return self[slot]


# --- variables and boxes ---------------------------------------------------

_keys = itertools.count()  # atomic under CPython; sole shared mutable state


class Var(Generic[T]):
    """A free variable: a globally unique key plus a display name.

    `name` is the name the variable was given and renders as; a binder of
    the variable keeps the name without its trailing digits and picks the
    smallest free suffix (see `bind_var`).  `mkfree` injects the variable
    into its syntax type; `self_box` is the variable's boxed form, computed
    once at creation.
    """

    __slots__ = ("key", "name", "mkfree", "self_box")

    key: int
    name: str
    mkfree: Callable[["Var[T]"], T]
    self_box: "Open[T]"

    def __init__(self, key, name, mkfree):
        self.key = key
        self.name = name
        self.mkfree = mkfree

    def __repr__(self) -> str:
        return f"<var {name_of(self)}#{self.key}>"


@dataclass(eq=False, slots=True)
class Binder(Generic[A, B]):
    """A bound slot in a value of type B, substituted by calling `value`.

    `occurs` tells whether the bound variable is used at all; `rank` is the
    number of free variables remaining in the body.
    """

    name: str
    occurs: bool
    rank: int
    mkfree: Callable[[Var[A]], A]
    value: Callable[[A], B]

    def __repr__(self) -> str:
        return f"<binder {self.name} occurs={self.occurs} rank={self.rank}>"


@dataclass(eq=False, slots=True)
class Closed(Generic[T]):
    """A box with no free variables."""

    value: T


@dataclass(eq=False, slots=True)
class Open(Generic[T]):
    """A box with free variables, evaluated through a two-phase closure.

    `vars` is strictly ascending by key; `bound` counts environment slots
    already reserved for variables bound inside the box.  `closure` takes a
    table from each free variable's key to its (slot, display name) pair and
    returns a function evaluating the content in a slot store.
    """

    vars: tuple[Var, ...]
    bound: int
    closure: Callable[[dict], Callable[[list], T]]


BoxVal = Union[Closed[T], Open[T]]


def new_var(mkfree: Callable[[Var[T]], T], name: str) -> Var[T]:
    """Create a fresh variable whose occurrences render as `name`."""
    if not name:
        raise ValueError("variable name must be non-empty")
    v: Var[T] = Var(next(_keys), name, mkfree)
    key = v.key

    def phase1(vp: dict, _key=key) -> Callable[[list], T]:
        if _debug:
            _stats.lookups += 1
            slot = vp[_key][0]
            return lambda env: env.read(slot, _key)
        # a default, not a closure cell: a sealed value keeps one per occurrence
        return lambda env, slot=vp[_key][0]: env[slot]

    v.self_box = Open((v,), 0, phase1)
    return v


def name_of(v: Var) -> str:
    return v.name


def eq_vars(v1: Var, v2: Var) -> bool:
    return v1.key == v2.key


def box(value: T) -> BoxVal[T]:
    """Inject a value containing no library variables into a box."""
    return Closed(value)


def box_var(v: Var[T]) -> BoxVal[T]:
    """The boxed form of a variable (memoized on the variable)."""
    return v.self_box


_key = attrgetter("key")


def _merge_vars(a: tuple[Var, ...], b: tuple[Var, ...]) -> tuple[Var, ...]:
    # key-sorted union of two sorted, non-empty variable tuples; short pairs,
    # most of nf's readback, are fastest in the plain loop at the end
    la, lb = len(a), len(b)
    if la > 3 or lb > 3:
        if a[-1].key < b[0].key:
            return a + b
        if b[-1].key < a[0].key:
            return b + a
        if la > lb:
            a, b, la, lb = b, a, lb, la
        if la == 1:
            k = a[0].key
            i = bisect_left(b, k, key=_key)
            if i < lb and b[i].key == k:
                return b
            return b[:i] + a + b[i:]
        if 8 * la <= lb:
            # place each variable of the much shorter a into b by bisection,
            # and copy the runs of b between them as slices
            out: list[Var] = []
            lo = 0
            for v in a:
                k = v.key
                i = bisect_left(b, k, lo, key=_key)
                out += b[lo:i]
                if i == lb or b[i].key != k:
                    out.append(v)
                lo = i
            out += b[lo:]
            return tuple(out)
    # short sides, or sides of like length: one pass over both
    out = []
    i = j = 0
    while i < la and j < lb:
        ka, kb = a[i].key, b[j].key
        if ka == kb:
            out.append(a[i])
            i += 1
            j += 1
        elif ka < kb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _check_sorted(vs: tuple[Var, ...]) -> None:
    for i in range(1, len(vs)):
        if vs[i - 1].key >= vs[i].key:
            raise BindDebugError(f"variable list not strictly sorted: {vs}")


def box_apply2(f: Callable[[A, B], C], a: BoxVal[A], b: BoxVal[B]) -> BoxVal[C]:
    """Apply a plain two-argument function to two boxed arguments.

    This is the one application primitive: `apply_box` and `box_apply` are
    instances of it.
    """
    # A sealed value keeps one phase-two closure per node, so these bind
    # their captures as defaults: a defaults tuple is smaller than the closure
    # cells it replaces.
    if isinstance(a, Closed):
        if isinstance(b, Closed):
            return Closed(f(a.value, b.value))
        av = a.value
        bcl = b.closure

        def phase1_r(vp):
            b2 = bcl(vp)
            return lambda env, f=f, av=av, b2=b2: f(av, b2(env))

        return Open(b.vars, b.bound, phase1_r)
    if isinstance(b, Closed):
        bv = b.value
        acl = a.closure

        def phase1_l(vp):
            a2 = acl(vp)
            return lambda env, f=f, a2=a2, bv=bv: f(a2(env), bv)

        return Open(a.vars, a.bound, phase1_l)
    acl = a.closure
    bcl = b.closure

    def phase1(vp):
        a2 = acl(vp)
        b2 = bcl(vp)
        return lambda env, f=f, a2=a2, b2=b2: f(a2(env), b2(env))

    merged = _merge_vars(a.vars, b.vars)
    if _debug:
        _check_sorted(merged)
    return Open(merged, max(a.bound, b.bound), phase1)


def _call(f: Callable[[A], B], a: A) -> B:
    return f(a)


def apply_box(f: BoxVal[Callable[[A], B]], a: BoxVal[A]) -> BoxVal[B]:
    """Apply a boxed function to a boxed argument."""
    return box_apply2(_call, f, a)


def box_apply(f: Callable[[A], B], a: BoxVal[A]) -> BoxVal[B]:
    """Apply a plain (variable-free) function to a boxed argument."""
    return apply_box(box(f), a)


def _index_of(vs: tuple[Var, ...], key: int) -> int:
    i = bisect_left(vs, key, key=_key)
    return i if i < len(vs) and vs[i].key == key else -1


def _binder_name(prefix: str, taken: Collection[str]) -> str:
    # keep the prefix, pick the smallest suffix (none < 0 < 1 < ...) whose
    # rendering is not in `taken`, the names shown by the variables left
    # free in the body
    if prefix and prefix not in taken:
        return prefix
    i = 0
    while f"{prefix}{i}" in taken:
        i += 1
    return f"{prefix}{i}"


def _bound_body(cl: Callable, vp: dict, slot: int, key: int) -> Callable[[list], Any]:
    # phase one of a binder body whose bound variable lives in `slot`; in
    # debug mode the body first tags the slot with the variable's key
    body = cl(vp)
    if not _debug:
        return body

    def tagged(env):
        env.owners[slot] = key
        return body(env)

    return tagged


def bind_var(x: Var[A], b: BoxVal[B]) -> BoxVal[Binder[A, B]]:
    """Bind a variable in a box, producing a boxed binder.

    The binder's name is chosen when the box is sealed, once the names of
    the variables left free in the body are final, so that it clashes with
    none of them.  Binding a box's last free variable leaves nothing open,
    so that binder is sealed by `unbox` at once.
    """
    mkfree = x.mkfree
    prefix = x.name.rstrip("0123456789")
    if isinstance(b, Closed):
        v = b.value
        return Closed(Binder(_binder_name(prefix, ()), False, 0, mkfree, lambda _a: v))
    vs = b.vars
    n = b.bound
    cl = b.closure
    key = x.key
    idx = _index_of(vs, key)
    if idx < 0:
        # bound variable absent from the body: constant binder, still open
        rank = len(vs)

        def phase1_skip(vp):
            name = _binder_name(prefix, {vp[v.key][1] for v in vs})
            body2 = cl(vp)

            def phase2(env):
                v = body2(env)
                return Binder(name, False, rank, mkfree, lambda _a: v)

            return phase2

        return Open(vs, n, phase1_skip)
    # x occurs in the body: reserve the next bound slot
    rest = vs[:idx] + vs[idx + 1:]
    rank = len(rest)
    slot = n

    def phase1(vp):
        name = _binder_name(prefix, {vp[v.key][1] for v in rest})
        # the one table of this seal: enter x for the body, then restore the
        # entry of an outer x that shares the key, if any
        outer = vp.get(key)
        vp[key] = (slot, name)
        body = _bound_body(cl, vp, slot, key)
        if outer is None:
            del vp[key]
        else:
            vp[key] = outer

        def phase2(env):
            def value(a):
                env2 = env.copy()
                env2[slot] = a
                return body(env2)

            return Binder(name, True, rank, mkfree, value)

        return phase2

    if not rest:
        # x was the last free variable: this Open has no variables and is
        # sealed at once
        return Closed(unbox(Open(rest, n + 1, phase1)))
    return Open(rest, n + 1, phase1)


def unbox(b: BoxVal[T]) -> T:
    """Seal a box; its free variables are left free in the result."""
    if isinstance(b, Closed):
        return b.value
    vs = b.vars
    n = b.bound
    vp = {}
    for i, v in enumerate(vs):
        vp[v.key] = (n + i, name_of(v))
    phase2 = b.closure(vp)
    env = [None] * n + [v.mkfree(v) for v in vs]
    if _debug:
        env = _DebugEnv(env, [None] * n + [v.key for v in vs])
    return phase2(env)


def subst(b: Binder[A, B], a: A) -> B:
    """Substitute the bound variable of a binder with a value."""
    if _debug:
        before = _stats.lookups
        out = b.value(a)
        if _stats.lookups != before:
            raise BindDebugError(
                f"{_stats.lookups - before} slot lookups during substitution"
            )
        return out
    return b.value(a)


def unbind(b: Binder[A, B]) -> tuple[Var[A], B]:
    """Open a binder by substituting a fresh variable named after it."""
    x = new_var(b.mkfree, b.name)
    return x, subst(b, x.mkfree(x))


def unbind2(b1: Binder[A, B], b2: Binder[A, C]) -> tuple[Var[A], B, C]:
    """Open two binders with one shared fresh variable."""
    x = new_var(b1.mkfree, b1.name)
    arg = x.mkfree(x)
    return x, subst(b1, arg), subst(b2, arg)


def eq_binder(
    eq: Callable[[B, B], bool], b1: Binder[A, B], b2: Binder[A, B]
) -> bool:
    """Compare two binder bodies after substituting one shared fresh variable."""
    _, t1, t2 = unbind2(b1, b2)
    return eq(t1, t2)


def box_binder(
    lift: Callable[[B], BoxVal[B]], b: Binder[A, B]
) -> BoxVal[Binder[A, B]]:
    """Re-box a binder: open it, lift the body, and bind the variable again."""
    x, body = unbind(b)
    return bind_var(x, lift(body))


def binder_info(b: Binder) -> tuple[str, bool, int]:
    return b.name, b.occurs, b.rank


def is_closed(b: BoxVal) -> bool:
    return isinstance(b, Closed)


def occur(x: Var, b: BoxVal) -> bool:
    return isinstance(b, Open) and _index_of(b.vars, x.key) >= 0


def box_vars(b: BoxVal) -> tuple[Var, ...]:
    """The free variables of a box, strictly ascending by key."""
    return b.vars if isinstance(b, Open) else ()
