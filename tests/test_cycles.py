"""Values, and the calls that make them, hold no reference cycles.

A cycle is freed only by the cyclic collector, so a run that leaves none
keeps its memory flat with the collector off.
"""

import gc
import random

from bindcore import bind_var, box_vars, unbox
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
from church import mult_term
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
