"""The traced per-layer run, in process.

A pass runs a script the way `cli.run_script` does: `parse_script`, then
per statement `check` for annotated definitions and asserts, and `nf`,
`update_names` and `print_te` for `eval` (`update_names` and `print_te` for
`print`).  Each call is timed from here.  In a traced pass, wrappers are
installed on the names that `bindcore.systemf` and `bindcore.typecheck`
look up at run time, to split `nf` into substitution and relifting and to
count unbinds and naming passes; they are removed when the pass ends.  A
recursive function is timed at its outermost call only: while it runs, its
module name points back at the original, so inner calls go straight to it.

The same pass without wrappers gives the untraced total, and the difference
is the tracing overhead.  Micro-benchmarks of the core operations run on
fixed inputs that do not depend on the workload or the seed.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator

from bindcore import _stack, combinators, core, parser, systemf, typecheck
from bindcore.cli import DEFAULT_STEPS

clock = time.perf_counter


class Counters:
    """Per-pass layer times (s) and counts, filled by `run_pass`."""

    def __init__(self) -> None:
        self.parse_s = self.check_s = self.nf_s = self.names_s = self.print_s = 0.0
        self.subst_s = self.relift_s = 0.0
        self.subst_calls = self.nf_unbinds = self.check_unbinds = 0
        self.name_calls = self.name_passes = 0
        self.phase = ""


@contextmanager
def _installed(c: Counters) -> Iterator[None]:
    saved = {
        (mod, name): getattr(mod, name)
        for mod, name in [
            (systemf, "subst"), (systemf, "unbind"), (systemf, "lift_te"),
            (systemf, "bind_var"), (systemf, "unbox"),
            (typecheck, "unbind"), (typecheck, "unbind2"),
        ]
    }

    def timed(fn: Callable, on_done: Callable[[float], None]) -> Callable:
        def wrapper(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                on_done(clock() - t0)

        return wrapper

    def outermost(mod, name: str, on_done: Callable[[float], None]) -> Callable:
        fn = saved[(mod, name)]

        def wrapper(*args):
            setattr(mod, name, fn)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                on_done(clock() - t0)
                setattr(mod, name, wrapper)

        return wrapper

    def on_subst(dt: float) -> None:
        if c.phase == "nf":
            c.subst_s += dt
            c.subst_calls += 1

    def on_relift(dt: float) -> None:
        if c.phase == "nf":
            c.relift_s += dt

    def on_lift_te(dt: float) -> None:
        on_relift(dt)
        if c.phase == "names":
            c.name_passes += 1

    def counted(fn: Callable, bump: Callable[[], None]) -> Callable:
        def wrapper(*args):
            bump()
            return fn(*args)

        return wrapper

    def bump_nf_unbind() -> None:
        if c.phase == "nf":
            c.nf_unbinds += 1

    def bump_check_unbind() -> None:
        c.check_unbinds += 1

    systemf.subst = timed(saved[(systemf, "subst")], on_subst)
    systemf.unbind = counted(saved[(systemf, "unbind")], bump_nf_unbind)
    systemf.lift_te = outermost(systemf, "lift_te", on_lift_te)
    systemf.bind_var = timed(saved[(systemf, "bind_var")], on_relift)
    systemf.unbox = timed(saved[(systemf, "unbox")], on_relift)
    typecheck.unbind = counted(saved[(typecheck, "unbind")], bump_check_unbind)
    typecheck.unbind2 = counted(saved[(typecheck, "unbind2")], bump_check_unbind)
    try:
        yield
    finally:
        for (mod, name), fn in saved.items():
            setattr(mod, name, fn)


def run_pass(text: str, traced: bool) -> tuple[list[str], Counters, float]:
    """Run a script in process; returns its output lines, counters and total time."""
    c = Counters()
    out: list[str] = []

    def timed_call(phase: str, fn: Callable, *args):
        c.phase = phase
        t0 = clock()
        result = fn(*args)
        dt = clock() - t0
        c.phase = ""
        return result, dt

    def work() -> None:
        script, c.parse_s = timed_call("parse", parser.parse_script, text)
        for stmt in script:
            if isinstance(stmt, parser.Def | parser.AssertType):
                ty = stmt.annot if isinstance(stmt, parser.Def) else stmt.ty
                if ty is not None:
                    _, dt = timed_call("check", typecheck.check, [], stmt.te, ty)
                    c.check_s += dt
                continue
            te = stmt.te
            if isinstance(stmt, parser.Eval):
                te, dt = timed_call("nf", systemf.nf, te, DEFAULT_STEPS)
                c.nf_s += dt
            te, dt = timed_call("names", systemf.update_names, te)
            c.names_s += dt
            c.name_calls += 1
            line, dt = timed_call("print", systemf.print_te, te)
            c.print_s += dt
            out.append(line)

    t0 = clock()
    with _installed(c) if traced else nullcontext():
        _stack.call_with_deep_stack(work)
    return out, c, clock() - t0


# --- micro-benchmarks on fixed inputs ----------------------------------------


def _ns_per_call(fn: Callable[[], object], calls: int, repeats: int = 15) -> float:
    samples = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            fn()
        samples.append((clock() - t0) / calls * 1e9)
    return statistics.median(samples)


def micro() -> dict[str, float]:
    """Core operations on fixed inputs, timed on the deep-stack thread."""
    return _stack.call_with_deep_stack(_micro)


def _micro() -> dict[str, float]:
    TeVar = systemf.TeVar
    x = core.new_var(TeVar, "x")
    others = [core.new_var(TeVar, f"y{i}") for i in range(16)]

    # subst: a closed binder λx.((x x) (x x)) applied to a variable
    xx = systemf._TeApp(core.box_var(x), core.box_var(x))
    closed_binder = core.unbox(core.bind_var(x, systemf._TeApp(xx, xx)))
    arg = TeVar(others[0])
    subst_ns = _ns_per_call(lambda: core.subst(closed_binder, arg), 5_000)

    # bind_var: x in a body with 16 other free variables (the parser's case)
    body = core.box_var(x)
    for y in others:
        body = systemf._TeApp(body, core.box_var(y))
    bind_ns = _ns_per_call(lambda: core.bind_var(x, body), 5_000)

    # box_apply2: merging two interleaved 8-variable tuples
    left = right = core.box_var(others[0])
    for i in range(1, 16):
        if i % 2:
            right = systemf._TeApp(right, core.box_var(others[i]))
        else:
            left = systemf._TeApp(left, core.box_var(others[i]))
    apply_ns = _ns_per_call(lambda: combinators.box_apply2(systemf.TeApp, left, right), 5_000)

    # unbox: a spine (s (s … (s z))) of 500 applications, s and z free
    s = core.new_var(TeVar, "s")
    z = core.new_var(TeVar, "z")
    spine = core.box_var(z)
    for _ in range(500):
        spine = systemf._TeApp(core.box_var(s), spine)
    unbox_ns = _ns_per_call(lambda: core.unbox(spine), 50) / (2 * 500 + 1)

    return {
        "core.subst_ns": subst_ns,
        "core.bind_var_ns": bind_ns,
        "core.box_apply2_ns": apply_ns,
        "core.unbox_ns_per_node": unbox_ns,
    }


def deep_call_s(calls: int = 5) -> float:
    """Median time of `call_with_deep_stack` on an empty callable."""
    samples = []
    for _ in range(calls):
        t0 = clock()
        _stack.call_with_deep_stack(lambda: None)
        samples.append(clock() - t0)
    return statistics.median(samples)
