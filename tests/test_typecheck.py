import random

import pytest

from bindcore import bind_var, new_var, unbox
from bindcore.oracle import convert, debruijn
from bindcore.systemf import (
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
from bindcore.typecheck import ErrorCode, TypeCheckError, check, find_ctxt, infer
from gen import TermGen
from test_systemf import worked_example


def test_find_ctxt_basic():
    x = new_var(TeVar, "x")
    A = TyVar(new_var(TyVar, "A"))
    assert find_ctxt(x, [(x, A)]) is A
    assert find_ctxt(x, []) is None


def test_find_ctxt_shadowing_nearest_first():
    x = new_var(TeVar, "x")
    A = TyVar(new_var(TyVar, "A"))
    B = TyVar(new_var(TyVar, "B"))
    assert find_ctxt(x, [(x, B), (x, A)]) is B


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
    from bindcore.systemf import hnf

    rng = random.Random(6021)
    g = TermGen(rng, max_depth=6, max_size=40)
    for _ in range(40):
        t, ctx = g.sample()
        a = infer(ctx, t)
        assert eq_ty(a, infer(ctx, nf(t)))
        assert eq_ty(a, infer(ctx, hnf(t)))
