"""Acceptance suite: every criterion runs at its stated tolerance and
reports one pass/fail line (visible even under captured output)."""

import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from bindcore import (
    apply_box,
    bind_var,
    box,
    box_apply,
    box_apply2,
    box_var,
    box_vars,
    new_var,
    occur,
    phase1_lookup_count,
    subst,
    unbox,
)
from bindcore.oracle import convert, debruijn as db, named as N
from bindcore.parser import parse_term
from bindcore.systemf import (
    TeVar,
    TyVar,
    _TeAbs,
    _TeVar,
    _TyVar,
    eq_te,
    eq_ty,
    lift_te,
    nf,
    print_te,
    update_names,
)
from bindcore.typecheck import check, infer
from bindcore._stack import call_with_deep_stack
from church import exp_term, numeral_value
from conftest import debug_set
from gen import (
    TermGen,
    assert_no_visual_capture,
    churn,
    free_split,
    leaf_free,
    random_box,
    random_fn_box,
    var_pool,
)
from test_systemf import worked_example


@contextmanager
def criterion(capsys, name):
    outcome = "FAIL"
    try:
        yield
        outcome = "PASS"
    finally:
        with capsys.disabled():
            print(f"acceptance {name}: {outcome}", flush=True)


@pytest.fixture(scope="module")
def differential():
    """The 1000-term differential run, executed once with debug checks on.

    With instrumentation enabled, every seal counts each slot lookup and
    raises on a lookup made during a substitution, so this run doubles as
    the two-phase verification over the whole suite.
    """
    with debug_set(True):
        rng = random.Random(0xD1FF)
        g = TermGen(rng, max_depth=8, max_size=50)
        total, agree = 1000, 0
        start = time.perf_counter()
        for _ in range(total):
            t, _ = g.sample()
            r = nf(t)
            reference = N.oracle_nf(convert.te_to_named(t))
            if db.alpha_eq(convert.te_to_named(r), reference):
                agree += 1
        elapsed = time.perf_counter() - start
    return {"total": total, "agree": agree, "elapsed": elapsed}


def test_criterion_1_differential_normalization(differential, capsys):
    with criterion(capsys, "1 differential normalization (1000 terms, <60s)"):
        assert differential["agree"] == differential["total"]
        assert differential["elapsed"] < 60.0


def test_criterion_2_worked_example(capsys):
    with criterion(capsys, "2 worked example type agreement"):
        appl_te, appl_ty = worked_example()
        te, ty = unbox(appl_te), unbox(appl_ty)
        assert eq_ty(infer([], te), ty)
        check([], te, ty)


def test_criterion_3_alpha_sentinels(capsys):
    with criterion(capsys, "3 alpha-equivalence sentinels"):
        # fun x.fun x.x is alpha-equal to fun x.fun y.y (same annotation)
        A = new_var(TyVar, "A")
        x1, x2, y = new_var(TeVar, "x"), new_var(TeVar, "x"), new_var(TeVar, "y")
        lam_xx = unbox(
            _TeAbs(
                _TyVar(A), bind_var(x1, _TeAbs(_TyVar(A), bind_var(x2, _TeVar(x2))))
            )
        )
        lam_xy = unbox(
            _TeAbs(_TyVar(A), bind_var(x1, _TeAbs(_TyVar(A), bind_var(y, _TeVar(y)))))
        )
        assert eq_te(lam_xx, lam_xy)
        # canonical indices are 1-based distances to the binder
        named = N.Abs(
            "x", N.TVar("A"), N.Abs("y", N.TVar("A"), N.App(N.Var("x"), N.Var("y")))
        )
        assert db.to_db(named) == db.Abs(
            db.TVar("A"), db.Abs(db.TVar("A"), db.App(db.Ind(2), db.Ind(1)))
        )


def test_criterion_4_applicative_laws(capsys):
    with criterion(capsys, "4 applicative laws (500 closed + 500 open)"):
        rng = random.Random(41)
        pool = var_pool(rng, 6)
        ident = lambda v: v
        compose = lambda f: lambda g: lambda x: f(g(x))
        closed_done = open_done = 0
        while closed_done < 500 or open_done < 500:
            w, we, wk = random_box(rng, pool, rng.randrange(4))
            u, ue, _ = random_fn_box(rng, pool, 2)
            v, ve, _ = random_fn_box(rng, pool, 2)
            # identity
            assert unbox(apply_box(box(ident), w)) == unbox(w) == we
            # composition
            lhs = apply_box(apply_box(apply_box(box(compose), u), v), w)
            rhs = apply_box(u, apply_box(v, w))
            assert unbox(lhs) == unbox(rhs) == ue(ve(we))
            if wk:
                open_done += 1
            else:
                closed_done += 1
                # homomorphism on closed operands
                fn = lambda val: ("wrapped", val)
                assert unbox(box_apply(fn, w)) == unbox(apply_box(box(fn), w)) == fn(we)


def test_criterion_5_free_variable_algebra(capsys):
    with criterion(capsys, "5 free-variable algebra (500 open boxes)"):
        rng = random.Random(52)
        pool = var_pool(rng, 6)
        done = 0
        while done < 500:
            f, _, fk = random_box(rng, pool, 3)
            a, _, ak = random_box(rng, pool, 3)
            if not (fk | ak):
                continue
            pair = lambda p: lambda q: (p, q)
            pair2 = lambda p, q: (p, q)
            chained = apply_box(apply_box(box(pair), f), a)
            direct = box_apply2(pair2, f, a)
            assert box_vars(direct) == box_vars(chained)
            assert unbox(direct) == unbox(chained)
            x = rng.choice(pool)
            for b in (chained, direct):
                # union law, against independently tracked key sets
                assert {v.key for v in box_vars(b)} == fk | ak
                bb = bind_var(x, b)
                assert {v.key for v in box_vars(bb)} == (fk | ak) - {x.key}
                assert not occur(x, bb)
            assert {v.key for v in box_vars(box_var(x))} == {x.key}
            done += 1


def test_criterion_6_two_phase_substitution(differential, capsys):
    with criterion(capsys, "6 zero lookups during substitution"):
        # the differential suite already ran with instrumentation on; any
        # lookup inside a substitution would have raised there.  Check the
        # counter delta explicitly on fresh binders as well.
        assert differential["agree"] == differential["total"]
        with debug_set(True):
            rng = random.Random(66)
            pool = var_pool(rng, 5)
            for _ in range(200):
                b, _, _ = random_box(rng, pool, 4)
                x = rng.choice(pool)
                binder = unbox(bind_var(x, b))
                before = phase1_lookup_count()
                subst(binder, ("probe",))
                assert phase1_lookup_count() == before


def test_criterion_7_renaming_round_trip(capsys):
    with criterion(capsys, "7 renaming round trip (500 churned terms)"):
        rng = random.Random(77)
        g = TermGen(rng, max_depth=5, max_size=35)
        for _ in range(500):
            t, _ = g.sample()
            t = churn(rng, t, rounds=3)
            fixed = update_names(t)
            assert_no_visual_capture(fixed)
            te_frees, ty_frees = free_split(fixed)
            shown = print_te(fixed)
            back = parse_term(shown, free_te=te_frees, free_ty=ty_frees)
            assert db.alpha_eq(convert.te_to_named(back), convert.te_to_named(t))


def test_criterion_8_fast_substitution(capsys):
    # the reference normalizer is allowed to be slower or budget-limited on
    # this input; only the primary bound is asserted.
    with criterion(capsys, "8 numeral for 2^16 normalizes in <5s"):
        def run():
            t = exp_term(2, 16)
            start = time.perf_counter()
            r = nf(t)
            elapsed = time.perf_counter() - start
            return elapsed, numeral_value(r)

        elapsed, value = call_with_deep_stack(run)
        assert value == 65536
        assert elapsed < 5.0


GOLDEN = (
    "def appl : ∀X.∀Y.((X ⇒ Y) ⇒ (X ⇒ Y)) = ΛX.ΛY.λf:(X ⇒ Y).λa:X.(f a);\n"
    "assert appl : ∀X.∀Y.((X ⇒ Y) ⇒ (X ⇒ Y));\n"
    "print appl;\n"
    "eval appl;\n"
)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with criterion(capsys, "9 CLI determinism on the golden script"):
        path = tmp_path / "appl.sf"
        path.write_text(GOLDEN, encoding="utf-8")
        runs = [
            subprocess.run(
                [sys.executable, "-m", "bindcore", str(path)],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0 and runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.decode() == (
            "ΛX.ΛY.λf:(X ⇒ Y).λa:X.(f a)\n" "ΛX.ΛY.λf:(X ⇒ Y).λa:X.(f a)\n"
        )
