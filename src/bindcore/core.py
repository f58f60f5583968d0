"""Variables, boxed values, and binders with two-phase substitution closures.

A value "under construction" lives in a box that tracks its free variables.
Binding a variable (`bind_var`) or sealing a box (`unbox`) runs *phase one*
of every closure inside: each variable occurrence resolves its key to an
environment slot index exactly once.  Slots are levels within the seal: the
free variables take the first ones, and each binder whose variable occurs
takes the next one for its body.  The substitution function stored in a
binder is pure *phase two*: it appends its value to the environment and
re-runs the body closure, which only performs slot-indexed reads and
constant work per node.  No name or key is ever consulted during
substitution, so capture cannot arise and substitution stays cheap no
matter how often the binder is applied.  The phase two of a variable
occurrence is its slot's reader, which every occurrence of that slot
shares, and no phase-two closure keeps a closure cell: captures are bound
as defaults.  So a sealed value keeps one function and its defaults per
application node.

Binder names are chosen in phase one too, outermost first: a binder keeps
its variable's name without the trailing digits and takes the smallest
suffix that no variable free in its body shows under its final name.  So a
freshly sealed value never shows two variables under one name;
substitution does not rename.  Each seal keeps, beside its key-to-slot
table, a count of the names its entries show and, per prefix, a suffix
below which every suffix is shown.  A binder whose body has every entry of
the table free is named from these in amortised constant time, so a
telescope is named in near-linear time; any other binder collects the
names its body shows, at a cost linear in their number.

Debug instrumentation (a slot-lookup counter and a check of each lookup) is
enabled by setting the BINDCORE_DEBUG environment variable to any non-empty
value, or at runtime via `enable_debug`.  The mode is read when a box is
sealed and decides only what the seal checks: phase two, and the plain list
it runs in, are one program in both modes.
"""

from __future__ import annotations

import itertools
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from operator import attrgetter, itemgetter
from typing import Callable, Collection, Generic, TypeVar, Union

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
_lookups = 0  # key-to-slot lookups made in debug mode


class _Substituting(threading.local):
    # set on a thread while a debug-mode `subst` runs there
    on = False


_substituting = _Substituting()


def enable_debug(on: bool = True) -> None:
    """Toggle debug instrumentation at runtime.

    The mode is read when `unbox` seals a box, so it applies to boxes
    sealed after the call, and decides only what the seal checks; `subst`
    reads it to check that no lookup runs during a substitution, and
    `box_apply2` to check each merged variable list.
    """
    global _debug
    _debug = bool(on)


def debug_enabled() -> bool:
    return _debug


def phase1_lookup_count() -> int:
    """Total key-to-slot lookups performed so far (debug mode only)."""
    return _lookups


# --- environments ----------------------------------------------------------

# An environment is a plain list with one entry per slot in scope: the
# sealed box's free variables, in key order, then the value of each enclosing
# binder whose variable occurs, outermost first.  A substitution appends its
# value in a copy.  Every occurrence of a slot, in any seal, reads it with
# that slot's one reader, `_readers[slot]`.


# --- variables and boxes ---------------------------------------------------

# Shared by all threads, and safe to use from any of them:
_keys = itertools.count()  # atomic under CPython


class _Readers(dict):
    # slot to its reader, `env[slot]`: every occurrence of a slot in every
    # seal shares one.  `setdefault` is atomic under the GIL, so threads that
    # miss the same slot at once all get the reader stored first.  It grows
    # to the deepest slot any seal has used, about 120 bytes a slot.
    def __missing__(self, slot: int) -> Callable[[list], object]:
        return self.setdefault(slot, itemgetter(slot))


_readers = _Readers()


@dataclass(eq=False, slots=True)
class Var(Generic[T]):
    """A free variable: a globally unique key plus a display name.

    `name` is the name the variable was given and renders as; a binder of
    the variable keeps the name without its trailing digits and picks the
    smallest free suffix (see `bind_var`).  `mkfree` injects the variable
    into its syntax type; `phase1` is the phase one of its boxed form,
    shared by every `box_var` of it: it looks up the variable's slot in the
    seal's table and returns the slot's shared reader, `env[slot]`.
    """

    key: int
    name: str
    mkfree: Callable[["Var[T]"], T]
    phase1: Callable[[dict], Callable[[list], T]]

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

    `vars` is strictly ascending by key.  `closure` takes a seal's table (a
    `_Seal`) from each variable in scope's key to its (slot, display name)
    pair and returns a function evaluating the content in an environment.
    """

    vars: tuple[Var, ...]
    closure: Callable[[dict], Callable[[list], T]]


BoxVal = Union[Closed[T], Open[T]]


class _Seal(dict):
    """The table of one seal: each variable in scope, by key, to its (slot,
    display name) pair.

    `shown` counts the entries per name they show.  `low` maps a prefix to a
    suffix below which every suffix is shown: a name `p` + `str(i)` can only
    be shown by a variable whose prefix is `p`, so `low[p]` is broken only
    when a `p`-name leaves `shown`, and whoever removes it restores `low[p]`.
    `depth` is the number of slots in scope, the slot the next binder takes.
    `debug` is the mode the seal was made in; it decides only whether each
    lookup is counted and checked: phase two is one program.  `unbox` makes
    the one instance of each seal and sets all four.
    """

    __slots__ = ("shown", "low", "depth", "debug")


def new_var(mkfree: Callable[[Var[T]], T], name: str) -> Var[T]:
    """Create a fresh variable whose occurrences render as `name`."""
    if not name:
        raise ValueError("variable name must be non-empty")
    key = next(_keys)

    def phase1(vp: _Seal, _key=key) -> Callable[[list], T]:
        global _lookups
        slot = vp[_key][0]
        if vp.debug:  # count the lookup and check that no substitution runs
            _lookups += 1
            if _substituting.on:
                raise BindDebugError(f"slot lookup of key {_key} during substitution")
        return _readers[slot]

    return Var(key, name, mkfree, phase1)


def name_of(v: Var) -> str:
    return v.name


def eq_vars(v1: Var, v2: Var) -> bool:
    return v1.key == v2.key


def box(value: T) -> BoxVal[T]:
    """Inject a value containing no library variables into a box."""
    return Closed(value)


def box_var(v: Var[T]) -> BoxVal[T]:
    """The boxed form of a variable, a new box on each call."""
    return Open((v,), v.phase1)


_key = attrgetter("key")


def _merge_vars(a: tuple[Var, ...], b: tuple[Var, ...]) -> tuple[Var, ...]:
    # key-sorted union of two sorted, non-empty variable tuples
    la, lb = len(a), len(b)
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
    # sides of like length: one pass over both
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
    # A box keeps one phase-one closure per node and a sealed value one
    # phase-two closure, so both bind their captures as defaults: a defaults
    # tuple is smaller than the closure cells it replaces.
    if isinstance(a, Closed):
        if isinstance(b, Closed):
            return Closed(f(a.value, b.value))

        def phase1_r(vp, f=f, av=a.value, bcl=b.closure):
            b2 = bcl(vp)
            return lambda env, f=f, av=av, b2=b2: f(av, b2(env))

        return Open(b.vars, phase1_r)
    if isinstance(b, Closed):

        def phase1_l(vp, f=f, acl=a.closure, bv=b.value):
            a2 = acl(vp)
            return lambda env, f=f, a2=a2, bv=bv: f(a2(env), bv)

        return Open(a.vars, phase1_l)

    def phase1(vp, f=f, acl=a.closure, bcl=b.closure):
        a2 = acl(vp)
        b2 = bcl(vp)
        return lambda env, f=f, a2=a2, b2=b2: f(a2(env), b2(env))

    merged = _merge_vars(a.vars, b.vars)
    if _debug:
        _check_sorted(merged)
    return Open(merged, phase1)


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


def _binder_name(prefix: str, taken: Collection[str], i: int = 0) -> tuple[str, int]:
    # keep the prefix, pick the smallest suffix (none < 0 < 1 < ...) whose
    # rendering is not in `taken`, the names shown by the variables left
    # free in the body; every suffix below i must be taken.  Returns the
    # name and its suffix, -1 for none.
    if prefix and prefix not in taken:
        return prefix, -1
    while f"{prefix}{i}" in taken:
        i += 1
    return f"{prefix}{i}", i


def _unshow(shown: dict[str, int], name: str) -> None:
    n = shown[name]
    if n == 1:
        del shown[name]
    else:
        shown[name] = n - 1


def bind_var(x: Var[A], b: BoxVal[B]) -> BoxVal[Binder[A, B]]:
    """Bind a variable in a box, producing a boxed binder.

    Every open box gets one phase one.  It names the binder once the names
    of the variables left free in the body are final, so that it clashes
    with none of them.  When the body's free variables are every entry of
    the seal's table (`len(rest) == len(vp)`, since `rest` is a subset),
    the name comes from the seal's name tables in amortised constant time,
    as in a telescope; otherwise it costs the number of those variables.
    An absent variable makes a constant binder.  An occurring one takes the
    seal's next slot; it updates the tables and the depth for its body and
    restores them after it, as it does its own entry.  Binding a box's
    last free variable leaves nothing open, so that binder is sealed by
    `unbox` at once.
    """
    mkfree = x.mkfree
    prefix = x.name.rstrip("0123456789")
    if isinstance(b, Closed):
        v = b.value
        return Closed(
            Binder(_binder_name(prefix, ())[0], False, 0, mkfree, lambda _a, v=v: v)
        )
    vs = b.vars
    key = x.key
    idx = _index_of(vs, key)
    occurs = idx >= 0
    rest = vs[:idx] + vs[idx + 1:] if occurs else vs

    # captures are defaults, as in `box_apply2`'s phase one
    def phase1(vp, prefix=prefix, key=key, occurs=occurs, rest=rest,
               rank=len(rest), cl=b.closure, mkfree=mkfree):
        shown = vp.shown
        low = vp.low
        back = low.get(prefix, 0)
        if len(rest) == len(vp):
            # rest covers the table, so it shows the names in `shown`
            name, i = _binder_name(prefix, shown, back)
        else:
            name, i = _binder_name(prefix, {vp[v.key][1] for v in rest})[0], -1
        if not occurs:
            body = cl(vp)

            def phase2(env, name=name, body=body, rank=rank, mkfree=mkfree):
                v = body(env)
                return Binder(name, False, rank, mkfree, lambda _a, v=v: v)

            return phase2
        if i >= 0:
            # suffixes up to i are shown in the body, and up to i - 1 again
            # once x's entry is gone
            low[prefix] = i + 1
            back = i
        # the one table of this seal: enter x for the body, then restore the
        # entry of an outer x that shares the key, if any
        outer = vp.get(key)
        slot = vp.depth
        vp[key] = (slot, name)
        vp.depth = slot + 1
        shown[name] = shown.get(name, 0) + 1
        if outer is not None:
            # the outer entry's name has x's prefix and is hidden in the body
            _unshow(shown, outer[1])
            low[prefix] = 0
        body = cl(vp)
        vp.depth = slot
        _unshow(shown, name)
        if outer is None:
            del vp[key]
        else:
            vp[key] = outer
            shown[outer[1]] = shown.get(outer[1], 0) + 1
        low[prefix] = back

        def phase2(env, name=name, body=body, rank=rank, mkfree=mkfree):
            return Binder(name, True, rank, mkfree, partial(_extend, body, env))

        return phase2

    if not rest:
        # x was the last free variable: this Open has no variables and is
        # sealed at once
        return Closed(unbox(Open(rest, phase1)))
    return Open(rest, phase1)


def _extend(body: Callable[[list], B], env: list, a: object) -> B:
    # a binder's substitution: its body in the environment with `a` appended
    return body([*env, a])


def unbox(b: BoxVal[T]) -> T:
    """Seal a box; its free variables are left free in the result."""
    if isinstance(b, Closed):
        return b.value
    vs = b.vars
    vp = _Seal()
    vp.low = {}
    vp.shown = shown = {}
    vp.depth = len(vs)
    vp.debug = _debug
    for i, v in enumerate(vs):
        name = v.name
        vp[v.key] = (i, name)
        shown[name] = shown.get(name, 0) + 1
    return b.closure(vp)([v.mkfree(v) for v in vs])


def subst(b: Binder[A, B], a: A) -> B:
    """Substitute the bound variable of a binder with a value.

    In debug mode, a lookup on this thread during it raises `BindDebugError`.
    """
    if _debug:
        was = _substituting.on
        _substituting.on = True
        try:
            return b.value(a)
        finally:
            _substituting.on = was
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
