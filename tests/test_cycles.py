"""Values, and the calls that make them, hold no reference cycles.

A cycle is freed only by the cyclic collector, so a run that leaves none
keeps its memory flat with the collector off.
"""

import gc
import random

import pytest

from bindcore import bind_var, box_vars, cli, unbox
from bindcore._stack import call_with_deep_stack
from bindcore.parser import parse_script
from bindcore.systemf import (
    StepBudgetExceeded,
    TeVar,
    TyArr,
    TyVar,
    _TeAbs,
    _TeLam,
    lift_te,
    lift_ty,
    nf,
    print_te,
    print_ty,
    update_names,
)
from bindcore.typecheck import TypeCheckError, check, infer
from church import exp_term, mult_term
from conftest import debug_set
from gen import TermGen


def _closed(t, ctx):
    # abstract the sample over its free term variables, then over the type
    # variables left free, so the printed term parses on its own
    b = lift_te(t)
    for v, a in reversed(ctx):
        b = _TeAbs(lift_ty(a), bind_var(v, b))
    for X in box_vars(b):
        b = _TeLam(bind_var(X, b))
    return unbox(b)


def _work(samples, g: TermGen) -> None:
    for t, ctx in samples:
        text = print_te(_closed(t, ctx))
        for stmt in parse_script(f"print {text};\neval {text};\n"):
            a = infer([], stmt.te)
            check([], stmt.te, a)
            r = nf(stmt.te)
            print_te(r)
            print_te(r, ascii=True)
            print_ty(a)
            print_ty(a, ascii=True)
            print_te(update_names(r))
    # one step budget run out, once on this thread and three times on the
    # deep-stack thread, which re-raises the error here
    for call in (nf, _deep_nf, _deep_nf, _deep_nf):
        try:
            call(mult_term(2, 3), 2)
        except StepBudgetExceeded:
            pass
        else:
            raise AssertionError("a budget of 2 steps was not exhausted")
    # one ill-typed check: the identity on X against (Y ⇒ Y)
    X, Y = TyVar(g.fresh_tyvar()), TyVar(g.fresh_tyvar())
    x = g.fresh_tevar(X)
    ident = unbox(_TeAbs(lift_ty(X), bind_var(x, lift_te(TeVar(x)))))
    try:
        check([], ident, TyArr(Y, Y))
    except TypeCheckError:
        pass
    else:
        raise AssertionError("λx:X.x checked against (Y ⇒ Y)")


def _deep_nf(t, max_steps):
    return call_with_deep_stack(nf, t, max_steps)


def test_no_cyclic_garbage():
    g = TermGen(random.Random(1313), max_depth=6, max_size=40)
    samples = [g.sample() for _ in range(40)]
    gc.collect()
    gc.disable()
    try:
        _work(samples, g)
        assert gc.collect() == 0
    finally:
        gc.enable()


# script (bytes, or None for a missing file) and the exit code of the run
_CLI_SCRIPTS = {
    "ok": (
        "def id : ∀X.(X ⇒ X) = ΛX.λx:X.x;\n"
        "assert (id [∀Y.(Y ⇒ Y)]) : ((∀Y.(Y ⇒ Y)) ⇒ (∀Y.(Y ⇒ Y)));\n"
        "eval ((id [∀Y.(Y ⇒ Y)]) id);\n"
        "print id;\n".encode(),
        0,
    ),
    "io-error-missing": (None, 1),
    "io-error-undecodable": (b"print \xff;\n", 1),
    "parse-error": ("def broken = fun x:.x;\n".encode(), 1),
    "type-error": ("assert ΛX.λx:X.x : ∀X.X;\n".encode(), 1),
    "budget": (b"eval ((fun x:all X.X.(x x)) (fun x:all X.X.(x x)));\n", 2),
    # a normal form 1024 applications deep overflows nf on an ordinary thread
    "too-deep-statement": (f"eval {print_te(exp_term(2, 10))};\n".encode(), 3),
    "too-deep-file": (
        ("print " + "(" * 3000 + "ΛX.λx:X.x" + ")" * 3000 + ";\n").encode(),
        3,
    ),
}


@pytest.mark.parametrize("debug", [False, True], ids=["plain", "debug"])
@pytest.mark.parametrize("case", list(_CLI_SCRIPTS))
def test_cli_run_leaves_no_cyclic_garbage(tmp_path, capsys, case, debug):
    # `_run_files` is what `main` runs with the collector off, after parsing
    # its arguments; `main` itself is not run here, because its argparse
    # parser leaves a fixed 39 cyclic objects on every call
    text, code = _CLI_SCRIPTS[case]
    path = tmp_path / "s.sf"
    if text is not None:
        path.write_bytes(text)
    args = ([str(path)], 200, False)
    with debug_set(debug):
        gc.collect()
        gc.disable()
        try:
            if code == 3:
                # too deep for an ordinary thread's limit; the deep-stack
                # thread would need a million frames to overflow
                assert cli._run_files(*args) == code
            else:
                assert call_with_deep_stack(cli._run_files, *args) == code
            assert gc.collect() == 0
        finally:
            gc.enable()
