import random

import pytest

from bindcore import new_var, unbox, bind_var
from bindcore.oracle import convert, debruijn as db, named as N, typer
from bindcore.systemf import (
    TeVar,
    TyVar,
    _TeAbs,
    _TeApp,
    _TeLam,
    _TeVar,
    _TyVar,
    eq_te,
    update_names,
)
from gen import TermGen
from test_systemf import worked_example

A = N.TVar("A")


def test_subst_variable_hit_and_miss():
    assert N.subst_te(N.Var("x"), "x", N.Var("u")) == N.Var("u")
    assert N.subst_te(N.Var("y"), "x", N.Var("u")) == N.Var("y")


def test_subst_shadowed_binder_stops():
    t = N.Abs("x", A, N.Var("x"))
    assert N.subst_te(t, "x", N.Var("u")) == t


def test_subst_capture_is_avoided():
    # (fun y. x)[x := y]  must not capture the substituted y
    t = N.Abs("y", A, N.Var("x"))
    r = N.subst_te(t, "x", N.Var("y"))
    assert isinstance(r, N.Abs)
    assert r.var != "y"
    assert r.body == N.Var("y")


def test_type_subst_capture_is_avoided():
    # (all Y. X)[X := Y] must rename the binder
    t = N.TAll("Y", N.TVar("X"))
    r = N.subst_ty(t, "X", N.TVar("Y"))
    assert isinstance(r, N.TAll)
    assert r.var != "Y"
    assert r.body == N.TVar("Y")


def test_type_in_term_subst_renames_type_binder():
    # (Lam Y. fun x:X.x)[X := Y]
    t = N.Lam("Y", N.Abs("x", N.TVar("X"), N.Var("x")))
    r = N.subst_ty_te(t, "X", N.TVar("Y"))
    assert isinstance(r, N.Lam)
    assert r.var != "Y"
    assert r.body.ty == N.TVar("Y")


def test_to_db_frozen_example():
    t = N.Abs("x", A, N.Abs("y", A, N.App(N.Var("x"), N.Var("y"))))
    assert db.to_db(t) == db.Abs(
        db.TVar("A"), db.Abs(db.TVar("A"), db.App(db.Ind(2), db.Ind(1)))
    )


def test_indices_are_one_based_and_shadowing_resolves_nearest():
    t = N.Abs("x", A, N.Abs("x", A, N.Var("x")))
    assert db.to_db(t) == db.Abs(db.TVar("A"), db.Abs(db.TVar("A"), db.Ind(1)))


def test_alpha_eq_sentinels():
    lxx = N.Abs("x", A, N.Abs("x", A, N.Var("x")))
    lxy = N.Abs("x", A, N.Abs("y", A, N.Var("y")))
    assert db.alpha_eq(lxx, lxy)
    assert db.alpha_eq(lxx, lxx)
    lk = N.Abs("x", A, N.Abs("y", A, N.Var("x")))
    assert not db.alpha_eq(lxx, lk)


def test_alpha_eq_is_constant_on_renamed_binders():
    t = N.Lam("X", N.Abs("u", N.TVar("X"), N.Var("u")))
    r = N.Lam("Z", N.Abs("w", N.TVar("Z"), N.Var("w")))
    assert db.alpha_eq(t, r)
    assert db.to_db(t) == db.to_db(r)


def test_free_names_and_namespaces():
    t = N.Abs("x", N.TVar("X"), N.App(N.Var("x"), N.Var("y")))
    assert N.free_te(t) == {"y"}
    assert N.free_ty_te(t) == {"X"}
    assert N.free_ty(N.TAll("X", N.TArr(N.TVar("X"), N.TVar("Y")))) == {"Y"}


def test_oracle_nf_beta():
    t = N.App(N.Abs("x", A, N.Var("x")), N.Var("y"))
    assert N.oracle_nf(t) == N.Var("y")


def test_oracle_nf_church_product():
    def church(n):
        body = N.Var("z")
        for _ in range(n):
            body = N.App(N.Var("s"), body)
        arr = N.TArr(N.TVar("N"), N.TVar("N"))
        return N.Lam("N", N.Abs("s", arr, N.Abs("z", N.TVar("N"), body)))

    product = N.Lam(
        "N",
        N.Abs(
            "s",
            N.TArr(N.TVar("N"), N.TVar("N")),
            N.App(
                N.Spe(church(2), N.TVar("N")),
                N.App(N.Spe(church(3), N.TVar("N")), N.Var("s")),
            ),
        ),
    )
    assert db.alpha_eq(N.oracle_nf(product), church(6))


def test_oracle_nf_budget():
    delta = N.Abs("x", A, N.App(N.Var("x"), N.Var("x")))
    with pytest.raises(N.BudgetExceeded):
        N.oracle_nf(N.App(delta, delta), max_steps=100)


def test_typer_rules():
    X = N.TVar("X")
    ident = N.Lam("X", N.Abs("y", X, N.Var("y")))
    assert db.alpha_eq_ty(typer.infer({}, ident), N.TAll("Z", N.TArr(N.TVar("Z"), N.TVar("Z"))))
    assert typer.infer({}, N.Spe(ident, A)) == N.TArr(A, A)
    # a type binder that shadows a name free in the context is renamed apart
    got = typer.infer({"x": X}, N.Lam("X", N.Var("x")))
    assert isinstance(got, N.TAll) and got.var != "X" and got.body == X
    for ctx, t in [
        ({}, N.Var("x")),
        ({"x": A}, N.App(N.Var("x"), N.Var("x"))),
        ({"f": N.TArr(X, X), "a": A}, N.App(N.Var("f"), N.Var("a"))),
        ({"x": A}, N.Spe(N.Var("x"), A)),
    ]:
        with pytest.raises(typer.OracleTypeError):
            typer.infer(ctx, t)


# --- conversion bridge -----------------------------------------------------------


def test_convert_qualifies_names_with_keys():
    x = new_var(TeVar, "x")
    nm = convert.te_to_named(TeVar(x))
    assert nm == N.Var(f"x#{x.key}")


def test_convert_round_trip_closed():
    appl_te, _ = worked_example()
    te = unbox(appl_te)
    back = convert.named_to_te(convert.te_to_named(te))
    assert eq_te(back, te)


def test_convert_round_trip_open_with_mapping():
    x = new_var(TeVar, "x")
    y = new_var(TeVar, "y")
    t = unbox(_TeApp(_TeVar(x), _TeVar(y)))
    nm = convert.te_to_named(t)
    back = convert.named_to_te(
        nm, free_te={convert.qualified_name(v): v for v in (x, y)}
    )
    assert eq_te(back, t)


def test_convert_preserves_alpha_equality():
    rng = random.Random(90210)
    g = TermGen(rng, max_depth=5, max_size=35)
    for _ in range(40):
        t, _ = g.sample()
        u = update_names(t)  # alpha-equal pair
        w, _ = g.sample()  # almost surely different
        assert db.alpha_eq(convert.te_to_named(t), convert.te_to_named(u))
        assert eq_te(t, u)
        assert eq_te(t, w) == db.alpha_eq(
            convert.te_to_named(t), convert.te_to_named(w)
        )


def test_oracle_never_imports_the_core():
    import bindcore.oracle.debruijn as dmod
    import bindcore.oracle.named as nmod
    import bindcore.oracle.typer as tmod

    for mod in (nmod, dmod, tmod):
        imported = set(getattr(mod, "__dict__", {}))
        assert "bind_var" not in imported
        assert "unbox" not in imported
        with open(mod.__file__, encoding="utf-8") as fh:
            src = fh.read()
        assert "from ..core" not in src
        assert "from ..systemf" not in src
        assert "bindcore.core" not in src
        assert "from .." not in src  # siblings only: nothing above the oracle
