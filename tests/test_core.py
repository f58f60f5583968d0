import itertools
import random
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bindcore import (
    BindDebugError,
    Binder,
    Closed,
    Open,
    apply_box,
    bind_var,
    binder_info,
    box,
    box_apply,
    box_apply2,
    box_binder,
    box_var,
    box_vars,
    eq_binder,
    eq_vars,
    is_closed,
    name_of,
    new_var,
    occur,
    phase1_lookup_count,
    subst,
    unbind,
    unbind2,
    unbox,
)
from bindcore.core import _index_of, _merge_vars
from conftest import debug_set
from gen import leaf_free, least_free_name, random_box, var_pool

mk = leaf_free


# --- variables ----------------------------------------------------------------


def _lone_binder_name(v) -> str:
    # the name a binder of v takes when nothing is free in its body
    return unbox(bind_var(v, box(0))).name


def test_new_var_basic():
    x = new_var(mk, "X")
    assert name_of(x) == "X"
    assert _lone_binder_name(x) == "X"


def test_name_suffix_split():
    # a binder keeps the name without its trailing digits
    v = new_var(mk, "x17")
    assert name_of(v) == "x17"
    assert _lone_binder_name(v) == "x"
    # "x0" is distinct from bare "x" as a variable, not as a binder
    v0 = new_var(mk, "x0")
    assert name_of(v0) == "x0"
    assert _lone_binder_name(v0) == "x"
    # digits only: an empty prefix takes the suffix 0
    d = new_var(mk, "42")
    assert name_of(d) == "42"
    assert _lone_binder_name(d) == "0"


def test_new_var_rejects_empty_name():
    with pytest.raises(ValueError):
        new_var(mk, "")


def test_fresh_keys_distinct():
    a = new_var(mk, "x")
    b = new_var(mk, "x")
    assert a.key != b.key
    assert not eq_vars(a, b)
    assert eq_vars(a, a)


def test_key_uniqueness_bulk():
    n = 200_000
    keys = {new_var(mk, "k").key for _ in range(n)}
    assert len(keys) == n


def test_keys_monotonic():
    vs = [new_var(mk, "m") for _ in range(100)]
    assert all(vs[i].key < vs[i + 1].key for i in range(99))


@given(st.from_regex(r"[A-Za-z_]+[0-9]*", fullmatch=True))
def test_name_render_round_trip(name):
    # a variable renders as the name it was given, leading zeros included
    assert name_of(new_var(mk, name)) == name


# --- boxes ----------------------------------------------------------------------


def test_box_unit_law():
    assert unbox(box(42)) == 42
    assert is_closed(box(42))


def test_box_var_unboxes_to_mkfree():
    x = new_var(mk, "x")
    assert unbox(box_var(x)) == ("var", x)


def test_box_var_is_an_open_box_of_the_variable():
    # built anew on each call: a variable keeps no box pointing back at it
    x = new_var(mk, "x")
    b = box_var(x)
    assert isinstance(b, Open)
    assert box_vars(b) == (x,)
    assert unbox(b) == ("var", x)


def test_apply_box_closed_closed():
    assert unbox(apply_box(box(lambda n: n + 1), box(1))) == 2
    assert is_closed(apply_box(box(lambda n: n + 1), box(1)))


def test_apply_box_union_of_vars():
    x, y = new_var(mk, "x"), new_var(mk, "y")
    pair = lambda a: lambda b: ("pair", a, b)
    b = apply_box(apply_box(box(pair), box_var(x)), box_var(y))
    assert box_vars(b) == tuple(sorted((x, y), key=lambda v: v.key))
    assert unbox(b) == ("pair", ("var", x), ("var", y))
    # sharing one variable on both sides does not duplicate it
    b2 = apply_box(apply_box(box(pair), box_var(x)), box_var(x))
    assert box_vars(b2) == (x,)


# ascending by key, as every box's variable tuple is
_POOL = tuple(new_var(mk, "m") for _ in range(64))


def _as_vars(indices) -> tuple:
    return tuple(_POOL[i] for i in sorted(set(indices)))


_index = st.integers(0, len(_POOL) - 1)
_subset = st.lists(_index, min_size=1, max_size=len(_POOL))


@st.composite
def _var_pairs(draw):
    # two sorted, non-empty variable tuples from one pool, in a drawn shape
    shape = draw(st.sampled_from(["any", "disjoint", "equal", "one-variable", "few"]))
    if shape == "few":
        # a few variables against many, sharing one: the bisecting merge
        few = draw(st.lists(_index, min_size=2, max_size=4, unique=True))
        many = draw(st.lists(_index, min_size=40, max_size=len(_POOL)))
        a, b = _as_vars(few), _as_vars(many + few[:1])
    elif shape == "disjoint":
        c = _as_vars(draw(st.lists(_index, min_size=2, unique=True)))
        cut = draw(st.integers(1, len(c) - 1))
        a, b = c[:cut], c[cut:]
    else:
        a = _as_vars(draw(_subset))
        if shape == "equal":
            b = a
        elif shape == "one-variable":
            b = _as_vars([draw(_index)])
        else:
            b = _as_vars(draw(_subset))  # most such pairs interleave
    return draw(st.sampled_from([(a, b), (b, a)]))


@settings(max_examples=400)
@given(_var_pairs())
def test_merge_vars_is_the_sorted_union(pair):
    a, b = pair
    merged = _merge_vars(a, b)
    expected = tuple(sorted({v.key: v for v in a + b}.values(), key=lambda v: v.key))
    assert merged == expected
    assert all(any(v is u for u in a + b) for v in merged)  # the original objects
    assert all(u.key < v.key for u, v in zip(merged, merged[1:]))


@settings(max_examples=200)
@given(_subset, st.integers(-1, len(_POOL)))
def test_index_of_agrees_with_a_scan(indices, probe):
    vs = _as_vars(indices)
    key = _POOL[probe].key if 0 <= probe < len(_POOL) else (
        _POOL[0].key - 1 if probe < 0 else _POOL[-1].key + 1
    )
    scan = next((i for i, v in enumerate(vs) if v.key == key), -1)
    assert _index_of(vs, key) == scan


# --- binders --------------------------------------------------------------------


def test_bind_identity():
    x = new_var(mk, "x")
    b = unbox(bind_var(x, box_var(x)))
    assert binder_info(b) == ("x", True, 0)
    for v in [("lit", 1), ("var", x)]:
        assert subst(b, v) == v


def test_bind_closed_body():
    x = new_var(mk, "x")
    b = unbox(bind_var(x, box(("k",))))
    assert binder_info(b) == ("x", False, 0)
    assert subst(b, ("u1",)) == ("k",)
    assert subst(b, ("u2",)) == ("k",)


def test_bind_absent_variable():
    x, y = new_var(mk, "x"), new_var(mk, "y")
    bb = bind_var(x, box_var(y))
    assert isinstance(bb, Open)
    assert box_vars(bb) == (y,)
    b = unbox(bb)
    assert b.occurs is False
    assert b.rank == 1
    assert subst(b, ("anything",)) == ("var", y)


def test_bind_with_remaining_vars():
    x, y = new_var(mk, "x"), new_var(mk, "y")
    pair = lambda a: lambda b: ("pair", a, b)
    body = apply_box(apply_box(box(pair), box_var(x)), box_var(y))
    bb = bind_var(x, body)
    assert isinstance(bb, Open)
    assert box_vars(bb) == (y,)
    b = unbox(bb)
    assert b.occurs is True
    assert b.rank == 1
    assert subst(b, ("lit", 7)) == ("pair", ("lit", 7), ("var", y))


def test_binder_reentrant():
    x, y = new_var(mk, "x"), new_var(mk, "y")
    pair = lambda a: lambda b: ("pair", a, b)
    body = apply_box(apply_box(box(pair), box_var(x)), box_var(y))
    outer = unbox(bind_var(y, bind_var(x, body)))
    # substituting the outer binder twice yields two independent inner binders
    inner1 = subst(outer, ("y1",))
    inner2 = subst(outer, ("y2",))
    assert subst(inner1, ("x1",)) == ("pair", ("x1",), ("y1",))
    assert subst(inner2, ("x2",)) == ("pair", ("x2",), ("y2",))
    # and the first inner binder still works after the second was used
    assert subst(inner1, ("x3",)) == ("pair", ("x3",), ("y1",))


def test_bind_same_var_twice_shadows():
    x = new_var(mk, "x")
    inner = bind_var(x, box_var(x))
    outer = unbox(bind_var(x, inner))
    assert outer.occurs is False
    inner_binder = subst(outer, ("ignored",))
    assert subst(inner_binder, ("v",)) == ("v",)


def test_inner_binder_of_a_free_variable_restores_its_slot():
    # x is bound inside and free after it; sealing resolves the inner binder's
    # occurrence first, so the outer occurrence must see x's own entry again
    x, y = new_var(mk, "x"), new_var(mk, "y")
    pair = lambda a: lambda b: ("pair", a, b)
    inner = bind_var(x, apply_box(apply_box(box(pair), box_var(x)), box_var(y)))
    body = apply_box(apply_box(box(pair), inner), box_var(x))
    tag, binder, last = unbox(body)
    assert last == ("var", x)
    assert subst(binder, ("i",)) == ("pair", ("i",), ("var", y))
    outer = unbox(bind_var(x, body))
    tag, binder, last = subst(outer, ("o",))
    assert last == ("o",)
    assert subst(binder, ("i",)) == ("pair", ("i",), ("var", y))


def test_unbind_names_and_identity():
    x = new_var(mk, "x")
    b = unbox(bind_var(x, box_var(x)))
    x2, body = unbind(b)
    assert name_of(x2).startswith("x")
    assert body == ("var", x2)
    assert eq_vars(x2, body[1])


def test_unbind2_shares_one_fresh_variable():
    x = new_var(mk, "x")
    ident = unbox(bind_var(x, box_var(x)))
    const = unbox(bind_var(new_var(mk, "y"), box(("k",))))
    v, b1, b2 = unbind2(ident, ident)
    assert b1 == ("var", v) and b2 == ("var", v)
    v2, c1, c2 = unbind2(const, ident)
    assert c1 == ("k",)
    assert c2 == ("var", v2)


def test_eq_binder():
    x = new_var(mk, "x")
    ident1 = unbox(bind_var(x, box_var(x)))
    y = new_var(mk, "y")
    ident2 = unbox(bind_var(y, box_var(y)))
    const = unbox(bind_var(new_var(mk, "z"), box(("k",))))
    eq = lambda a, b: a == b
    assert eq_binder(eq, ident1, ident2)
    assert eq_binder(eq, ident1, ident1)
    assert not eq_binder(eq, ident1, const)


def test_box_binder_round_trip_preserves_occurs():
    x = new_var(mk, "x")
    lift = lambda v: box(v) if not isinstance(v, tuple) or v[0] != "var" else box_var(v[1])
    const = unbox(bind_var(x, box(("k",))))
    again = unbox(box_binder(lift, const))
    assert again.occurs is False
    assert subst(again, ("w",)) == ("k",)
    ident = unbox(bind_var(x, box_var(x)))
    again2 = unbox(box_binder(lift, ident))
    assert again2.occurs is True
    assert subst(again2, ("w",)) == ("w",)


def test_occur_and_is_closed():
    x = new_var(mk, "x")
    assert occur(x, box_var(x))
    assert not occur(x, box(1))
    assert not occur(x, bind_var(x, box_var(x)))
    assert is_closed(bind_var(x, box_var(x)))


# --- renaming at bind time -------------------------------------------------------


def test_binder_renamed_against_free_clash():
    x1 = new_var(mk, "x")
    x2 = new_var(mk, "x")
    pair = lambda a: lambda b: ("pair", a, b)
    body = apply_box(apply_box(box(pair), box_var(x1)), box_var(x2))
    b = unbox(bind_var(x1, body))
    assert b.name == "x0"


def test_binder_name_minimal_suffix():
    # bound variable "x2" with no clashes stores the bare prefix
    x = new_var(mk, "x2")
    b = unbox(bind_var(x, box_var(x)))
    assert b.name == "x"
    # a clash on "x" and "x0" skips to "x1"
    a = new_var(mk, "x")
    c = new_var(mk, "x0")
    pair = lambda p: lambda q: lambda r: ("triple", p, q, r)
    body = apply_box(
        apply_box(apply_box(box(pair), box_var(x)), box_var(a)), box_var(c)
    )
    b2 = unbox(bind_var(x, body))
    assert b2.name == "x1"


def test_binders_named_outermost_first():
    # the inner binder avoids the name its free x is shown under once the
    # outer binder is named, "x", not the name x was created with, "x2"
    x = new_var(mk, "x2")
    y = new_var(mk, "x")
    outer = unbox(bind_var(x, bind_var(y, box_var(x))))
    inner = subst(outer, ("lit", 0))
    assert (outer.name, inner.name) == ("x", "x0")


def _tuple_box(vs):
    # a box of the tuple of the variables vs
    out = box(())
    for v in vs:
        out = apply_box(apply_box(box(lambda t: lambda a: t + (a,)), out), box_var(v))
    return out


def _telescope(ws, body):
    # bind ws over body, the first outermost
    for w in reversed(ws):
        body = bind_var(w, body)
    return body


def _names(b, n):
    # the names of n nested binders, the outermost first
    out = []
    for _ in range(n):
        out.append(b.name)
        b = subst(b, ("lit", 0))
    return out


def test_sibling_binders_reuse_a_suffix():
    # each sibling is named as if the other were not there: the name it takes
    # is free again once its body is sealed
    z = new_var(mk, "x")
    a, b = new_var(mk, "x"), new_var(mk, "x3")
    pair = lambda p: lambda q: ("pair", p, q)
    left = bind_var(a, _tuple_box([a, z]))
    right = bind_var(b, _tuple_box([b, z]))
    outer = unbox(bind_var(z, apply_box(apply_box(box(pair), left), right)))
    _, l, r = subst(outer, ("lit", 0))
    assert (outer.name, l.name, r.name) == ("x", "x0", "x0")
    # and so does each level of two sibling telescopes
    ws, us = [new_var(mk, "x") for _ in range(3)], [new_var(mk, "x") for _ in range(3)]
    left = _telescope(ws, _tuple_box([z, *ws]))
    right = _telescope(us, _tuple_box([z, *us]))
    outer = unbox(bind_var(z, apply_box(apply_box(box(pair), left), right)))
    _, l, r = subst(outer, ("lit", 0))
    assert _names(l, 3) == _names(r, 3) == ["x0", "x1", "x2"]


def test_binder_names_around_a_free_x7_bound_again_inside():
    # v is free, shown as x7, and bound twice inside: in there x7 is free to
    # take, and after it is shown again.  y stays free in every body, so the
    # binders of v are sealed with the rest, not one by one.
    v, y = new_var(mk, "x7"), new_var(mk, "y")
    ws = [new_var(mk, "x") for _ in range(8)]
    us = [new_var(mk, "x") for _ in range(9)]
    pair = lambda p: lambda q: ("pair", p, q)
    inner = _telescope(ws, _tuple_box([v, y, *ws]))
    shadowed = bind_var(v, apply_box(apply_box(box(pair), box_var(v)), bind_var(v, inner)))
    after = _telescope(us, _tuple_box([v, y, *us]))
    _, outer, rest = unbox(apply_box(apply_box(box(pair), shadowed), after))
    _, _, again = subst(outer, ("lit", 0))
    assert (outer.name, again.name) == ("x", "x")
    assert _names(subst(again, ("lit", 1)), 8) == ["x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7"]
    assert _names(rest, 9) == ["x", "x0", "x1", "x2", "x3", "x4", "x5", "x6", "x8"]


# Nested boxes of pairs and binders, drawn as trees over the variables in
# scope: ("var", k) is the k-th of them (modulo their number), ("scope",) a
# tuple of all of them, ("bind", n, body) binds a fresh variable named
# _NAMES[n] and ("rebind", k, body) binds the k-th again, under its key.  The
# variables in scope at the root are named after a subset of _NAMES.  The
# names cover shared prefixes, an empty prefix ("42"), the distinct names x7
# and x007, and two variables named x.
_NAMES = ("x", "x", "x0", "x7", "x007", "x12", "42", "y")
_trees = st.recursive(
    st.one_of(
        st.just(("lit",)),
        st.just(("scope",)),
        st.tuples(st.just("var"), st.integers(0, 15)),
    ),
    lambda kids: st.one_of(
        st.tuples(st.just("pair"), kids, kids),
        st.tuples(st.just("bind"), st.integers(0, len(_NAMES) - 1), kids),
        st.tuples(st.just("rebind"), st.integers(0, 15), kids),
    ),
    max_leaves=20,
)


def _resolve(tree, scope):
    # the tree with variables in place of indices: ("lit",), ("var", v),
    # ("pair", l, r) or ("bind", v, body)
    tag = tree[0]
    if tag == "var":
        return ("var", scope[tree[1] % len(scope)])
    if tag == "scope":
        out = ("lit",)
        for v in scope:
            out = ("pair", out, ("var", v))
        return out
    if tag == "pair":
        return ("pair", _resolve(tree[1], scope), _resolve(tree[2], scope))
    if tag == "bind":
        v = new_var(mk, _NAMES[tree[1]])
        return ("bind", v, _resolve(tree[2], [*scope, v]))
    if tag == "rebind":
        return ("bind", scope[tree[1] % len(scope)], _resolve(tree[2], scope))
    return tree


def _ast_box(ast):
    tag = ast[0]
    if tag == "lit":
        return box(("lit",))
    if tag == "var":
        return box_var(ast[1])
    if tag == "bind":
        return bind_var(ast[1], _ast_box(ast[2]))
    pair = lambda p: lambda q: ("pair", p, q)
    return apply_box(apply_box(box(pair), _ast_box(ast[1])), _ast_box(ast[2]))


def _ast_free(ast) -> dict:
    # the free variables of an ast, by key
    tag = ast[0]
    if tag == "var":
        return {ast[1].key: ast[1]}
    if tag == "pair":
        return {**_ast_free(ast[1]), **_ast_free(ast[2])}
    if tag == "bind":
        free = _ast_free(ast[2])
        free.pop(ast[1].key, None)
        return free
    return {}


@settings(max_examples=400)
@given(_trees, st.sets(st.integers(0, len(_NAMES) - 1), min_size=1))
# x0 bound again beside y, so that its binder takes x and x0 is free inside
@example(("pair", ("var", 0), ("rebind", 0, ("bind", 0, ("scope",)))), {2, 7})
def test_binder_names_follow_the_reference_rule(tree, roots):
    # each binder, outermost first, takes the least name its prefix allows
    # beside the names the other variables free in its body show.  Each is
    # then given a value of its own, outermost first, and every occurrence
    # must read its own binder's value, free ones their variable: the trees
    # rebind keys in scope, leave binders unused and bind a box's last free
    # variable, so binders share no slot with each other or a free variable.
    ast = _resolve(tree, [new_var(mk, _NAMES[i]) for i in sorted(roots)])
    names = {k: v.name for k, v in _ast_free(ast).items()}
    args = itertools.count()

    def walk(ast, value, shown, vals):
        tag = ast[0]
        if tag == "var":
            assert value == vals.get(ast[1].key, ast)
        elif tag == "lit":
            assert value == ast
        elif tag == "pair":
            walk(ast[1], value[1], shown, vals)
            walk(ast[2], value[2], shown, vals)
        else:
            x, body = ast[1], ast[2]
            free = _ast_free(body)
            taken = {shown[k] for k in free if k != x.key}
            want = least_free_name(x.name.rstrip("0123456789"), taken)
            assert isinstance(value, Binder) and value.name == want
            arg = ("arg", next(args))
            shown = {**shown, x.key: want} if x.key in free else shown
            walk(body, subst(value, arg), shown, {**vals, x.key: arg})

    for debug in (False, True):
        with debug_set(debug):
            walk(ast, unbox(_ast_box(ast)), names, {})


# --- two-phase discipline ----------------------------------------------------------


def test_lookups_only_during_construction(debug_mode):
    x = new_var(mk, "x")
    wrap = lambda a: ("w", a)
    body = apply_box(box(wrap), box_var(x))
    before = phase1_lookup_count()
    b = unbox(bind_var(x, body))
    assert phase1_lookup_count() > before
    mid = phase1_lookup_count()
    for i in range(10):
        assert subst(b, ("lit", i)) == ("w", ("lit", i))
    assert phase1_lookup_count() == mid


def test_unbox_counts_lookups(debug_mode):
    x = new_var(mk, "x")
    before = phase1_lookup_count()
    assert unbox(box_var(x)) == ("var", x)
    assert phase1_lookup_count() == before + 1


def test_lookup_during_substitution_fails_loudly(debug_mode):
    # a phase-two function that seals a box makes slot lookups while the
    # binder's substitution runs
    x, y = new_var(mk, "x"), new_var(mk, "y")
    seal = lambda a, b: unbox(box_var(y))
    binder = unbox(bind_var(x, box_apply2(seal, box_var(x), box_var(y))))
    with pytest.raises(BindDebugError, match="during substitution"):
        subst(binder, ("lit", 0))


def test_seal_on_another_thread_during_substitution(debug_mode):
    # the substitution's phase two waits while another thread seals a box:
    # its lookups are not the substitution's
    x, y = new_var(mk, "x"), new_var(mk, "y")
    waiting, sealed = threading.Event(), threading.Event()

    def wait_for_seal(a):
        waiting.set()
        assert sealed.wait(10)
        return a

    def seal_elsewhere():
        assert waiting.wait(10)
        unbox(bind_var(y, apply_box(box(lambda a: ("w", a)), box_var(y))))
        sealed.set()

    binder = unbox(bind_var(x, box_apply(wait_for_seal, box_var(x))))
    other = threading.Thread(target=seal_elsewhere)
    other.start()
    try:
        assert subst(binder, ("lit", 0)) == ("lit", 0)
    finally:
        other.join(10)
    assert not other.is_alive() and sealed.is_set()


def test_fast_path_environment_is_a_plain_list():
    # in either mode, a body sees a plain list with one entry per free
    # variable and one per enclosing binder whose variable occurs: the mode
    # decides only what a seal checks
    x, y, z, w = (new_var(mk, n) for n in "xyzw")
    # a body over x and y whose evaluation reports the environment's type
    # and length, beside a binder of w whose slot is not in scope there
    probe = Open((x, y), lambda vp: lambda env: (type(env), len(env)))
    side = bind_var(w, box_apply2(lambda p, q: p, box_var(w), box_var(y)))
    body = box_apply2(lambda s, p: p, side, probe)
    for debug in (False, True):
        with debug_set(debug):
            assert unbox(body) == (list, 2)
            # x bound beside y (slot copied per substitution)
            inner = bind_var(x, body)
            assert subst(unbox(inner), "a") == (list, 2)
            # z bound around it but absent from it: no slot
            skip = bind_var(z, inner)
            assert subst(subst(unbox(skip), "c"), "a") == (list, 2)
            # then y last (sealed)
            outer = unbox(bind_var(y, skip))
            assert subst(subst(subst(outer, "b"), "c"), "a") == (list, 2)


def test_debug_mode_is_read_at_seal_time():
    x, y = new_var(mk, "x"), new_var(mk, "y")
    pair = lambda p: lambda q: ("pair", p, q)
    for build, seal in ((True, False), (False, True)):
        with debug_set(build):
            inner = bind_var(x, apply_box(apply_box(box(pair), box_var(x)), box_var(y)))
        with debug_set(seal):
            # sealed by binding the last free variable, and by unbox
            outer = unbox(bind_var(y, inner))
            assert subst(subst(outer, "b"), "a") == ("pair", "a", "b")
            assert subst(unbox(inner), "a") == ("pair", "a", ("var", y))


# --- randomized box algebra ---------------------------------------------------------


def test_random_boxes_against_model():
    rng = random.Random(20814)
    pool = var_pool(rng, 6)
    for _ in range(300):
        b, expected, keys = random_box(rng, pool, rng.randrange(5))
        assert unbox(b) == expected
        vs = box_vars(b)
        assert {v.key for v in vs} == keys
        assert all(vs[i].key < vs[i + 1].key for i in range(len(vs) - 1))


def test_random_bind_removes_variable():
    rng = random.Random(994)
    pool = var_pool(rng, 5)
    for _ in range(200):
        b, _, keys = random_box(rng, pool, 4)
        x = rng.choice(pool)
        bb = bind_var(x, b)
        assert {v.key for v in box_vars(bb)} == keys - {x.key}
        assert occur(x, bb) is False


@settings(max_examples=200)
@given(st.data())
def test_subst_results_independent_of_order(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    pool = var_pool(rng, 4)
    b, expected, keys = random_box(rng, pool, 3)
    x = rng.choice(pool)
    binder = unbox(bind_var(x, b))
    u1, u2 = ("lit", -1), ("lit", -2)
    r1a = subst(binder, u1)
    r2a = subst(binder, u2)
    r2b = subst(binder, u2)
    r1b = subst(binder, u1)
    assert r1a == r1b
    assert r2a == r2b
    if not binder.occurs:
        assert r1a == r2a


def test_env_flag_enables_debug():
    import os
    import subprocess
    import sys

    env = dict(os.environ, BINDCORE_DEBUG="1")
    out = subprocess.run(
        [sys.executable, "-c", "import bindcore; print(bindcore.debug_enabled())"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.stdout.strip() == "True"
    env.pop("BINDCORE_DEBUG")
    out = subprocess.run(
        [sys.executable, "-c", "import bindcore; print(bindcore.debug_enabled())"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.stdout.strip() == "False"


def test_key_generation_thread_safe():
    import threading

    results = []

    def worker():
        results.append([new_var(mk, "t").key for _ in range(10_000)])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    keys = [k for chunk in results for k in chunk]
    assert len(set(keys)) == len(keys)
