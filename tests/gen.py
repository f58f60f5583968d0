"""Deterministic random generators shared across the test suite.

Boxes are generated over a tiny tuple language together with an
independently tracked model (expected unboxed value and expected free-key
set), so box algebra can be checked against something that never touches
the closure machinery.  System F terms are generated well-typed by
construction, with redexes planted so normalization has work to do.
"""

from __future__ import annotations

import random

from bindcore import (
    Var,
    apply_box,
    bind_var,
    box,
    box_var,
    box_vars,
    name_of,
    new_var,
    subst,
    unbind,
    unbox,
)
from bindcore.systemf import (
    Te,
    TeAbs,
    TeApp,
    TeLam,
    TeSpe,
    TeVar,
    Ty,
    TyAll,
    TyArr,
    TyVar,
    eq_ty,
    lift_te,
    lift_ty,
)

leaf_free = lambda v: ("var", v)


def var_pool(rng: random.Random, n: int) -> list[Var]:
    return [new_var(leaf_free, rng.choice("pqrst")) for _ in range(n)]


def random_box(rng: random.Random, pool: list[Var], depth: int):
    """A random box of tuple values -> (box, expected_value, expected_keys)."""
    if depth <= 0 or rng.random() < 0.3:
        if pool and rng.random() < 0.6:
            v = rng.choice(pool)
            return box_var(v), ("var", v), {v.key}
        lit = ("lit", rng.randrange(100))
        return box(lit), lit, set()
    f, fe, fk = random_box(rng, pool, depth - 1)
    a, ae, ak = random_box(rng, pool, depth - 1)
    pair = lambda x: lambda y: ("pair", x, y)
    return (
        apply_box(apply_box(box(pair), f), a),
        ("pair", fe, ae),
        fk | ak,
    )


def random_fn_box(rng: random.Random, pool: list[Var], depth: int):
    """A random box of one-argument functions -> (box, expected_fn, keys)."""
    if rng.random() < 0.5:
        tag = rng.randrange(100)
        fn = lambda y, _t=tag: ("tag", _t, y)
        return box(fn), fn, set()
    vb, ve, ks = random_box(rng, pool, depth - 1)
    mk = lambda x: lambda y: ("pair", x, y)
    return apply_box(box(mk), vb), mk(ve), ks


# --- well-typed System F terms ----------------------------------------------


class TermGen:
    """Generates well-typed terms by construction.

    Free variables get pairwise distinct rendered names (v0, v1, ... for
    terms and T0, T1, ... for types) so printed output can be reparsed
    unambiguously.
    """

    NAMES_TE = "abcfguvw"
    NAMES_TY = "XYZW"

    def __init__(self, rng: random.Random, max_depth: int = 8, max_size: int = 50):
        self.rng = rng
        self.max_depth = max_depth
        self.max_size = max_size
        self.free: list[tuple[Var, Ty]] = []
        self.free_ty: list[Var] = []
        self._n_te = 0
        self._n_ty = 0
        self._locals: set[int] = set()
        self._bottom: Var | None = None

    def sample(self) -> tuple[Te, list[tuple[Var, Ty]]]:
        """One well-typed term plus the context typing its free variables."""
        while True:
            self.free = []
            self._bottom = None
            self._locals = set()
            self._budget = self.max_size
            target = self.ty([], 3)
            t = self.of_type([], target, self.max_depth)
            if term_size(t) <= self.max_size:
                return t, list(self.free)

    def fresh_tyvar(self) -> Var:
        v = new_var(TyVar, f"T{self._n_ty}")
        self._n_ty += 1
        self.free_ty.append(v)
        return v

    def fresh_tevar(self, a: Ty) -> Var:
        v = new_var(TeVar, f"v{self._n_te}")
        self._n_te += 1
        self.free.append((v, a))
        return v

    def ty(self, tyvars: list[Var], depth: int) -> Ty:
        rng = self.rng
        if depth <= 0 or (tyvars and rng.random() < 0.35):
            if tyvars and rng.random() < 0.8:
                return TyVar(rng.choice(tyvars))
            return TyVar(self.fresh_tyvar())
        if rng.random() < 0.55:
            return TyArr(self.ty(tyvars, depth - 1), self.ty(tyvars, depth - 1))
        x = new_var(TyVar, rng.choice(self.NAMES_TY))
        body = self.ty([*tyvars, x], depth - 1)
        return TyAll(unbox(bind_var(x, lift_ty(body))))

    def of_type(self, ctx, a: Ty, depth: int) -> Te:
        self._budget -= 1
        if depth <= 0 or self._budget <= 0:
            return self.leaf(ctx, a)
        if self.rng.random() < 0.28:
            return self.redex(ctx, a, depth)
        ta = type(a)
        if ta is TyArr:
            x = new_var(TeVar, self.rng.choice(self.NAMES_TE))
            body = self.of_type([(x, a.dom), *ctx], a.cod, depth - 1)
            return TeAbs(a.dom, unbox(bind_var(x, lift_te(body))))
        if ta is TyAll:
            x, body_ty = unbind(a.binder)
            self._locals.add(x.key)
            body = self.of_type(ctx, body_ty, depth - 1)
            self._locals.discard(x.key)
            return TeLam(unbox(bind_var(x, lift_te(body))))
        return self.leaf(ctx, a)

    def leaf(self, ctx, a: Ty) -> Te:
        matches = [x for (x, b) in ctx if eq_ty(b, a)]
        if matches and self.rng.random() < 0.75:
            return TeVar(self.rng.choice(matches))
        if any(v.key in self._locals for v in box_vars(lift_ty(a))):
            # the target type mentions a type variable bound inside the
            # term, so a global free variable of that type would escape its
            # scope; specialize a bottom-typed free variable instead
            if self._bottom is None:
                z = new_var(TyVar, "Z")
                bot = TyAll(unbox(bind_var(z, lift_ty(TyVar(z)))))
                self._bottom = self.fresh_tevar(bot)
            return TeSpe(TeVar(self._bottom), a)
        return TeVar(self.fresh_tevar(a))

    def redex(self, ctx, a: Ty, depth: int) -> Te:
        rng = self.rng
        if rng.random() < 0.5:
            # ((fun y:b. <a-term>) <b-term>)
            b = self.ty([], 1)
            y = new_var(TeVar, rng.choice(self.NAMES_TE))
            body = self.of_type([(y, b), *ctx], a, depth - 1)
            fn = TeAbs(b, unbox(bind_var(y, lift_te(body))))
            return TeApp(fn, self.of_type(ctx, b, depth - 1))
        # ((Lam X. <a-term>) [b]) with X unused, so the type is unchanged
        x = new_var(TyVar, rng.choice(self.NAMES_TY))
        body = self.of_type(ctx, a, depth - 1)
        lam = TeLam(unbox(bind_var(x, lift_te(body))))
        return TeSpe(lam, self.ty([], 1))


def term_size(t: Te) -> int:
    """Number of syntax nodes, annotations included."""
    match t:
        case TeVar(_):
            return 1
        case TeAbs(a, f):
            _, body = unbind(f)
            return 1 + ty_size(a) + term_size(body)
        case TeApp(fn, arg):
            return 1 + term_size(fn) + term_size(arg)
        case TeLam(f):
            _, body = unbind(f)
            return 1 + term_size(body)
        case TeSpe(fn, a):
            return 1 + term_size(fn) + ty_size(a)
    raise TypeError


def ty_size(a: Ty) -> int:
    match a:
        case TyVar(_):
            return 1
        case TyArr(d, c):
            return 1 + ty_size(d) + ty_size(c)
        case TyAll(f):
            _, body = unbind(f)
            return 1 + ty_size(body)
    raise TypeError


def binder_names(t: Te) -> set[str]:
    """Stored names of every binder in a term, type binders included."""
    names: set[str] = set()

    def go_ty(a: Ty) -> None:
        match a:
            case TyVar(_):
                pass
            case TyArr(d, c):
                go_ty(d)
                go_ty(c)
            case TyAll(f):
                names.add(f.name)
                _, body = unbind(f)
                go_ty(body)

    def go(t: Te) -> None:
        match t:
            case TeVar(_):
                pass
            case TeAbs(a, f):
                go_ty(a)
                names.add(f.name)
                _, body = unbind(f)
                go(body)
            case TeApp(fn, arg):
                go(fn)
                go(arg)
            case TeLam(f):
                names.add(f.name)
                _, body = unbind(f)
                go(body)
            case TeSpe(fn, a):
                go(fn)
                go_ty(a)

    go(t)
    return names


def free_split(t: Te) -> tuple[list[Var], list[Var]]:
    """Free variables of a term, split into (term vars, type vars)."""
    te, ty = [], []
    for v in box_vars(lift_te(t)):
        (te if isinstance(v.mkfree(v), TeVar) else ty).append(v)
    return te, ty


def churn(rng: random.Random, t: Te, rounds: int = 3) -> Te:
    """Substitute fresh variables whose names collide with binder names.

    Substitution never renames, so after a few rounds the term usually
    shows distinct variables under one display name (visual capture).
    The new free variables stay distinct from all other free names.
    """
    for _ in range(rounds):
        te_frees, ty_frees = free_split(t)
        if not te_frees:
            break
        target = rng.choice(te_frees)
        binder = unbox(bind_var(target, lift_te(t)))
        taken = {name_of(v) for v in (*te_frees, *ty_frees)}
        base = rng.choice(sorted(binder_names(t)) or ["x"])
        # the base itself unless a free variable shows it, else the base's
        # prefix with the smallest suffix that none shows
        prefix = base.rstrip("0123456789") or "x"
        name, i = base, 0
        while name in taken:
            name = f"{prefix}{i}"
            i += 1
        t = subst(binder, TeVar(new_var(TeVar, name)))
    return t


def _check_binders(t: Te | Ty, check) -> None:
    """Call `check(name, frees)` at every binder of a term or type, where
    `frees` holds the (key, name) pairs of the other variables free in the
    binder's body."""

    def go_ty(a: Ty) -> set[tuple[int, str]]:
        match a:
            case TyVar(x):
                return {(x.key, name_of(x))}
            case TyArr(d, c):
                return go_ty(d) | go_ty(c)
            case TyAll(f):
                x, body = unbind(f)
                frees = {(k, n) for (k, n) in go_ty(body) if k != x.key}
                check(f.name, frees)
                return frees
        raise TypeError

    def go(t: Te) -> set[tuple[int, str]]:
        match t:
            case TeVar(x):
                return {(x.key, name_of(x))}
            case TeAbs(a, f):
                ann = go_ty(a)  # the annotation sits outside the bound scope
                x, body = unbind(f)
                frees = {(k, n) for (k, n) in go(body) if k != x.key}
                check(f.name, frees)
                return ann | frees
            case TeApp(fn, arg):
                return go(fn) | go(arg)
            case TeLam(f):
                x, body = unbind(f)
                frees = {(k, n) for (k, n) in go(body) if k != x.key}
                check(f.name, frees)
                return frees
            case TeSpe(fn, a):
                return go(fn) | go_ty(a)
        raise TypeError

    if isinstance(t, (TyVar, TyArr, TyAll)):
        go_ty(t)
    else:
        go(t)


def assert_no_visual_capture(t: Te | Ty) -> None:
    """No binder may share its name with a variable free beneath it, and no
    two distinct variables visible in one scope may render alike."""

    def check(bound_name: str, frees: set[tuple[int, str]]) -> None:
        seen: dict[str, int] = {}
        for k, n in frees:
            assert seen.setdefault(n, k) == k, f"two free variables render as {n!r}"
        assert bound_name not in seen, f"binder {bound_name!r} shadows a free variable"

    _check_binders(t, check)


def least_free_name(prefix: str, taken: set[str]) -> str:
    """The first of prefix, prefix0, prefix1, ... that is not in `taken`
    (the bare prefix only when it is non-empty): the naming rule of a seal."""
    if prefix and prefix not in taken:
        return prefix
    i = 0
    while f"{prefix}{i}" in taken:
        i += 1
    return f"{prefix}{i}"


def assert_names_minimal(t: Te | Ty) -> None:
    """Every binder shows the least name its prefix (the name without
    trailing digits) allows beside the other variables free in its body, as
    a freshly sealed value does."""

    def check(bound_name: str, frees: set[tuple[int, str]]) -> None:
        want = least_free_name(bound_name.rstrip("0123456789"), {n for _, n in frees})
        assert bound_name == want, f"binder {bound_name!r} should be {want!r}"

    _check_binders(t, check)
