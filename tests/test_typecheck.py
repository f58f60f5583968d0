import random

import pytest

from bindcore import bind_var, box_vars, new_var, unbox
from bindcore.oracle import convert, debruijn, typer
from bindcore.oracle import named as N
from bindcore.systemf import (
    TeAbs,
    TeApp,
    TeLam,
    TeSpe,
    TeVar,
    TyArr,
    TyVar,
    _TeAbs,
    _TeApp,
    _TeLam,
    _TeVar,
    _TyArr,
    _TyVar,
    eq_ty,
    lift_te,
    lift_ty,
    nf,
    print_ty,
    update_names,
)
from bindcore.typecheck import ErrorCode, TypeCheckError, check, infer
from gen import TermGen, free_split
from test_systemf import worked_example


def test_entry_points_use_the_nearest_binding():
    x = new_var(TeVar, "x")
    A = TyVar(new_var(TyVar, "A"))
    B = TyVar(new_var(TyVar, "B"))
    ctx = [(x, B), (x, A)]
    assert infer(ctx, TeVar(x)) is B
    check(ctx, TeVar(x), B)
    with pytest.raises(TypeCheckError) as e:
        check(ctx, TeVar(x), A)
    assert e.value.code is ErrorCode.TYPE_MISMATCH_VAR


def test_entry_points_keep_the_callers_list_and_their_error_codes():
    x, y = new_var(TeVar, "x"), new_var(TeVar, "y")
    A = TyVar(new_var(TyVar, "A"))
    B = TyVar(new_var(TyVar, "B"))
    ident = _id_of(B.var)
    # an abstraction whose body fails after its binder was entered
    abs_y = lambda body: TeAbs(B, unbox(bind_var(y, lift_te(body))))
    z = TeVar(new_var(TeVar, "z"))
    cases = [  # (term, type to check against or None to infer, code)
        (TeVar(y), None, ErrorCode.VARIABLE_NOT_IN_CONTEXT),
        (TeVar(y), B, ErrorCode.VARIABLE_NOT_IN_CONTEXT),
        (abs_y(z), None, ErrorCode.VARIABLE_NOT_IN_CONTEXT),
        (abs_y(TeApp(TeVar(x), TeVar(y))), None, ErrorCode.EXPECTED_ARROW),
        (abs_y(TeSpe(TeVar(y), A)), None, ErrorCode.EXPECTED_QUANTIFIER),
        (TeVar(x), A, ErrorCode.TYPE_MISMATCH_VAR),
        (abs_y(TeVar(x)), TyArr(A, B), ErrorCode.TYPE_MISMATCH_ABS),
        (abs_y(TeVar(y)), TyArr(B, A), ErrorCode.TYPE_MISMATCH_VAR),
        (TeSpe(TeVar(x), A), A, ErrorCode.EXPECTED_QUANTIFIER),
        (ident, B, ErrorCode.NOT_TYPABLE),
        (TeApp(_id_of(A.var), TeVar(x)), B, ErrorCode.TYPE_MISMATCH_ABS),
        (TeApp(ident, TeVar(x)), A, ErrorCode.TYPE_MISMATCH_VAR),
    ]
    for t, ty, code in cases:
        ctx = [(x, B), (x, A)]  # shadowed: B is the nearest
        before = list(ctx)
        with pytest.raises(TypeCheckError) as e:
            infer(ctx, t) if ty is None else check(ctx, t, ty)
        assert e.value.code is code, t
        assert ctx == before
    ctx = [(x, B), (x, A)]
    before = list(ctx)
    assert eq_ty(infer(ctx, abs_y(TeVar(x))), TyArr(B, B))
    check(ctx, abs_y(TeVar(x)), TyArr(B, B))
    assert ctx == before


def test_infer_axiom():
    x = new_var(TeVar, "x")
    A = TyVar(new_var(TyVar, "A"))
    assert infer([(x, A)], TeVar(x)) is A


def test_infer_worked_example():
    appl_te, appl_ty = worked_example()
    te, ty = unbox(appl_te), unbox(appl_ty)
    assert eq_ty(infer([], te), ty)
    check([], te, ty)


def test_infer_specialization():
    # (Lam X. fun x:X.x) [B]  :  (B => B)
    B = new_var(TyVar, "B")
    X = new_var(TyVar, "X")
    x = new_var(TeVar, "x")
    poly_id = unbox(_TeLam(bind_var(X, _TeAbs(_TyVar(X), bind_var(x, _TeVar(x))))))
    got = infer([], TeSpe(poly_id, TyVar(B)))
    assert eq_ty(got, TyArr(TyVar(B), TyVar(B)))
    assert print_ty(got) == "(B ⇒ B)"


def _id_of(a):
    x = new_var(TeVar, "x")
    return unbox(_TeAbs(_TyVar(a), bind_var(x, _TeVar(x))))


def test_check_abs_ok_and_mismatch():
    A = new_var(TyVar, "A")
    B = new_var(TyVar, "B")
    ident = _id_of(A)
    check([], ident, TyArr(TyVar(A), TyVar(A)))
    with pytest.raises(TypeCheckError) as e:
        check([], ident, TyArr(TyVar(B), TyVar(B)))
    assert e.value.code is ErrorCode.TYPE_MISMATCH_ABS


def test_check_var_codes():
    x = new_var(TeVar, "x")
    A = TyVar(new_var(TyVar, "A"))
    B = TyVar(new_var(TyVar, "B"))
    check([(x, A)], TeVar(x), A)
    with pytest.raises(TypeCheckError) as e:
        check([(x, A)], TeVar(x), B)
    assert e.value.code is ErrorCode.TYPE_MISMATCH_VAR
    with pytest.raises(TypeCheckError) as e:
        check([], TeVar(x), A)
    assert e.value.code is ErrorCode.VARIABLE_NOT_IN_CONTEXT


def test_infer_error_codes():
    x = new_var(TeVar, "x")
    A = TyVar(new_var(TyVar, "A"))
    with pytest.raises(TypeCheckError) as e:
        infer([], TeVar(x))
    assert e.value.code is ErrorCode.VARIABLE_NOT_IN_CONTEXT
    with pytest.raises(TypeCheckError) as e:
        infer([(x, A)], TeApp(TeVar(x), TeVar(x)))
    assert e.value.code is ErrorCode.EXPECTED_ARROW
    with pytest.raises(TypeCheckError) as e:
        infer([(x, A)], TeSpe(TeVar(x), A))
    assert e.value.code is ErrorCode.EXPECTED_QUANTIFIER


def test_check_spe_and_not_typable_codes():
    A = new_var(TyVar, "A")
    B = new_var(TyVar, "B")
    X = new_var(TyVar, "X")
    x = new_var(TeVar, "x")
    poly_id = unbox(_TeLam(bind_var(X, _TeAbs(_TyVar(X), bind_var(x, _TeVar(x))))))
    spe = TeSpe(poly_id, TyVar(B))
    check([], spe, TyArr(TyVar(B), TyVar(B)))
    with pytest.raises(TypeCheckError) as e:
        check([], spe, TyArr(TyVar(A), TyVar(A)))
    assert e.value.code is ErrorCode.TYPE_MISMATCH_SPE
    # specialising a term whose type is no quantifier
    with pytest.raises(TypeCheckError, match=r"\[infer\] expected quantifier") as e:
        check([(x, TyVar(A))], TeSpe(TeVar(x), TyVar(A)), TyVar(A))
    assert e.value.code is ErrorCode.EXPECTED_QUANTIFIER
    with pytest.raises(TypeCheckError) as e:
        check([], _id_of(A), TyVar(A))  # an abstraction against a variable
    assert e.value.code is ErrorCode.NOT_TYPABLE


def test_check_lam_against_forall_shares_fresh_variable():
    appl_te, appl_ty = worked_example()
    check([], unbox(appl_te), unbox(appl_ty))


def test_error_message_texts():
    x = new_var(TeVar, "x")
    with pytest.raises(TypeCheckError, match=r"\[infer\] variable not in context"):
        infer([], TeVar(x))


def test_random_suite_infer_check_roundtrip():
    rng = random.Random(1209)
    g = TermGen(rng, max_depth=6, max_size=40)
    for _ in range(80):
        t, ctx = g.sample()
        a = infer(ctx, t)
        check(ctx, t, a)


def test_infer_alpha_stable_under_update_names():
    rng = random.Random(88)
    g = TermGen(rng, max_depth=6, max_size=40)
    for _ in range(40):
        t, ctx = g.sample()
        assert eq_ty(infer(ctx, t), infer(ctx, update_names(t)))


def test_subject_reduction_on_closed_terms():
    rng = random.Random(424)
    g = TermGen(rng, max_depth=5, max_size=30)
    done = 0
    while done < 40:
        t, ctx = g.sample()
        # close over the free term variables, innermost binding first
        for x, a in ctx:
            t = unbox(_TeAbs(lift_ty(a), bind_var(x, lift_te(t))))
        before = infer([], t)
        after = infer([], nf(t))
        assert eq_ty(before, after)
        done += 1


def test_fresh_variables_exceed_context_keys():
    # the quantifier-introduction side condition holds because every unbind
    # creates a globally fresh variable
    rng = random.Random(5)
    g = TermGen(rng, max_depth=5, max_size=30)
    t, ctx = g.sample()
    max_key = max((x.key for x, _ in ctx), default=-1)
    fresh = new_var(TeVar, "probe")
    assert fresh.key > max_key


def test_normalization_preserves_typing_open_terms():
    rng = random.Random(6021)
    g = TermGen(rng, max_depth=6, max_size=40)
    for _ in range(40):
        t, ctx = g.sample()
        a = infer(ctx, t)
        assert eq_ty(a, infer(ctx, nf(t)))


# --- differential against the oracle's checker ----------------------------------


def _mutants(t: N.Te):
    """Every single mutation of a named term that changes its typing, by kind.

    A wrong annotation doubles an abstraction's domain `A` into `(A => A)`;
    a wrong specialisation does the same to the type a variable is
    specialised at (a redex's unused `Lam X` ignores the type it is given,
    so those sites are left alone); a dropped binder replaces an
    abstraction by its body.
    """
    match t:
        case N.Abs(x, a, b):
            yield "annotation", N.Abs(x, N.TArr(a, a), b)
            yield "binder", b
            for kind, m in _mutants(b):
                yield kind, N.Abs(x, a, m)
        case N.App(f, u):
            for kind, m in _mutants(f):
                yield kind, N.App(m, u)
            for kind, m in _mutants(u):
                yield kind, N.App(f, m)
        case N.Lam(x, b):
            for kind, m in _mutants(b):
                yield kind, N.Lam(x, m)
        case N.Spe(f, a):
            if isinstance(f, N.Var):
                yield "specialisation", N.Spe(f, N.TArr(a, a))
            for kind, m in _mutants(f):
                yield kind, N.Spe(m, a)


def _named_ctx(ctx) -> dict:
    # the nearest binding of a name wins: it is entered last
    return {convert.qualified_name(x): convert.ty_to_named(a) for x, a in reversed(ctx)}


def _both_accept(ctx, t_named, ty, free_te, free_ty) -> tuple[bool, bool]:
    """Whether the checker and the oracle accept a named term at type `ty`."""
    t = convert.named_to_te(t_named, free_te=free_te, free_ty=free_ty)
    try:
        check(ctx, t, ty)
        core = True
    except TypeCheckError:
        core = False
    try:
        got = typer.infer(_named_ctx(ctx), t_named)
        oracle = debruijn.alpha_eq_ty(got, convert.ty_to_named(ty))
    except typer.OracleTypeError:
        oracle = False
    return core, oracle


def test_checker_agrees_with_the_oracle():
    # accept and reject must agree; error codes are the checker's own
    rng = random.Random(3141)
    g = TermGen(rng, max_depth=6, max_size=40)
    mutated = {"annotation": 0, "specialisation": 0, "binder": 0}
    for _ in range(100):
        t, ctx = g.sample()
        a = infer(ctx, t)
        t_named = convert.te_to_named(t)
        got = typer.infer(_named_ctx(ctx), t_named)
        assert debruijn.alpha_eq_ty(got, convert.ty_to_named(a))
        # a mutant converted back keeps the sample's free variables
        free_te = {convert.qualified_name(x): x for x, _ in ctx}
        free_ty = {
            convert.qualified_name(v): v
            for b in (a, *(b for _, b in ctx))
            for v in box_vars(lift_ty(b))
        }
        free_ty.update((convert.qualified_name(v), v) for v in free_split(t)[1])
        assert _both_accept(ctx, t_named, a, free_te, free_ty) == (True, True)
        by_kind: dict[str, list] = {}
        for kind, m in _mutants(t_named):
            by_kind.setdefault(kind, []).append(m)
        for kind, ms in sorted(by_kind.items()):
            m = rng.choice(ms)
            assert _both_accept(ctx, m, a, free_te, free_ty) == (False, False), kind
            mutated[kind] += 1
    assert all(n >= 10 for n in mutated.values()), mutated
