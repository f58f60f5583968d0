"""End-to-end benchmark of the `bindcore` CLI on seeded System F scripts.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's script is generated
from the seed (`gen.py`), written under `bench/out/`, and its SHA-256 is
printed.  With `--trace 0` the CLI runs as a subprocess, one at a time,
until S seconds have passed (at least twice); every run's output is checked
by `check.py` and must be byte-identical across runs.  The metrics are the
median wall time and peak RSS of those runs, and `setup_s`, the wall time
of one CLI run on a one-statement script, made first.  With `--trace 1` the
script runs in process instead (`layers.py`), alternating traced and
untraced passes for S seconds, and the per-layer metrics are reported.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

if not (SRC / "bindcore" / "__init__.py").is_file():
    sys.exit(f"bench: no bindcore sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import check  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402

DEADLINE_S = 170  # a watchdog ends every run well within 180 s
MIN_ROUNDS = 2

clock = time.perf_counter


@dataclass
class CliRun:
    wall_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


_waiting: list[int] = []  # the CLI process being waited for, if any


def _out_of_time(signum, frame) -> None:
    for pid in _waiting:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    os.write(2, b"bench: out of time\n")
    os._exit(3)


def run_cli(script: Path) -> CliRun:
    """Run `python -m bindcore SCRIPT`; wall time and peak RSS from outside."""
    env = {k: v for k, v in os.environ.items() if k != "BINDCORE_DEBUG"}
    env["PYTHONPATH"] = str(SRC)
    out, err = script.with_suffix(".out"), script.with_suffix(".err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    argv = [sys.executable, "-m", "bindcore", str(script)]
    t0 = clock()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    _waiting.append(pid)
    _, status, usage = os.wait4(pid, 0)
    _waiting.remove(pid)
    wall = clock() - t0
    return CliRun(
        wall, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status),
        out.read_bytes(), err.read_bytes(),
    )


def write_script(name: str, text: str) -> Path:
    path = OUT / f"{name}.sf"
    data = text.encode("utf-8")
    path.write_bytes(data)
    print(f"script {path.name} sha256={hashlib.sha256(data).hexdigest()} bytes={len(data)}")
    return path


# --- workloads ------------------------------------------------------------------


@dataclass
class Workload:
    """A script, a check of its output, and untimed validation runs."""

    script: str
    check: Callable[[bytes], None]
    rejects: list[str]  # scripts the CLI must refuse with a type-mismatch code


def numeral_exp(seed: int) -> Workload:
    value = gen.NUMERAL_BASE ** gen.NUMERAL_EXPONENT
    return Workload(gen.numeral_exp(seed), lambda out: check.check_numeral(out, value), [])


def corpus_eval(seed: int) -> Workload:
    terms = gen.corpus(seed)
    normals = [c.normal for c in terms]
    return Workload(gen.corpus_text(terms), lambda out: check.check_corpus(out, normals), [])


def telescope_check(seed: int) -> Workload:
    def no_output(out: bytes) -> None:
        if out:
            raise check.OutputError("telescope-check printed output")

    return Workload(gen.telescope_check(seed), no_output, gen.telescope_perturbed(seed))


WORKLOADS = {
    "numeral-exp": numeral_exp,
    "corpus-eval": corpus_eval,
    "telescope-check": telescope_check,
}

_REJECTED = re.compile(rb"^[^\n]*:\d+:\d+: type-mismatch-(var|abs|spe): [^\n]*\n$")


class Tally:
    """Operations attempted and failed, and whether every check passed.

    An operation is one timed CLI run, or one in-process pass when traced;
    set-up and validation runs are checks only, so a fault that fails every
    operation fails the same share of them in every run.
    """

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.correct = True

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            print(f"WRONG {what}")

    def verify(self, work: Workload, out: bytes) -> None:
        try:
            work.check(out)
        except check.OutputError as e:
            self.expect(False, f"output: {e}")


def end_to_end(name: str, work: Workload, seconds: float, tally: Tally) -> dict:
    setup = run_cli(write_script("setup", gen.SETUP_SCRIPT))
    tally.expect(setup.code == 0 and setup.stderr == b""
                 and setup.stdout == gen.SETUP_OUTPUT.encode(), "set-up script output")

    for i, text in enumerate(work.rejects):
        run = run_cli(write_script(f"{name}-reject{i}", text))
        tally.expect(run.code == 1 and run.stdout == b""
                     and _REJECTED.match(run.stderr) is not None,
                     f"perturbed script {i} was not rejected with a type mismatch")

    path = write_script(name, work.script)
    runs: list[CliRun] = []
    first_ok: Optional[CliRun] = None
    t0 = clock()
    while len(runs) < MIN_ROUNDS or clock() - t0 < seconds:
        run = run_cli(path)
        runs.append(run)
        tally.attempted += 1
        if run.code != 0 or run.stderr:
            tally.failed += 1
            print(f"FAILED run {len(runs)}: exit {run.code}: {run.stderr[-500:]!r}")
        elif first_ok is None:
            first_ok = run
            tally.verify(work, run.stdout)
        else:
            tally.expect(run.stdout == first_ok.stdout, f"run {len(runs)} output differs")
    walls = [r.wall_s for r in runs]
    print(f"{len(runs)} runs, wall s: " + " ".join(f"{w:.3f}" for w in walls))
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r.rss_mb for r in runs), "unit": "MB"},
        "setup_s": {"value": setup.wall_s, "unit": "s"},
    }


def traced(name: str, work: Workload, seconds: float, tally: Tally) -> dict:
    write_script(name, work.script)
    passes: list[tuple[layers.Counters, float, float]] = []
    t0 = clock()
    warm, _, _ = layers.run_pass(work.script, False)  # untimed: fills caches and heap
    tally.attempted += 1
    tally.verify(work, "".join(line + "\n" for line in warm).encode("utf-8"))
    while not passes or clock() - t0 < seconds:
        pair = {}
        order = (True, False) if len(passes) % 2 == 0 else (False, True)
        for is_traced in order:
            lines, counters, total = layers.run_pass(work.script, is_traced)
            tally.attempted += 1
            tally.expect(lines == warm, f"pass {tally.attempted} output differs")
            pair[is_traced] = (counters, total)
        passes.append((pair[True][0], pair[True][1], pair[False][1]))
    print(f"{len(passes)} traced/untraced pass pairs")

    def med(f: Callable[[layers.Counters], float]) -> float:
        return statistics.median(f(c) for c, _, _ in passes)

    c0 = passes[0][0]
    kb = len(work.script.encode("utf-8")) / 1000
    core_ns = layers.micro()
    values = {
        "parser.parse_s": (med(lambda c: c.parse_s), "s"),
        "parser.kb_per_s": (med(lambda c: kb / c.parse_s), "kB/s"),
        "typecheck.check_s": (med(lambda c: c.check_s), "s"),
        "typecheck.unbind_calls": (c0.check_unbinds, "count"),
        "systemf.nf_s": (med(lambda c: c.nf_s), "s"),
        "systemf.nf.subst_s": (med(lambda c: c.subst_s), "s"),
        "systemf.nf.subst_calls": (c0.subst_calls, "count"),
        "systemf.nf.relift_s": (med(lambda c: c.relift_s), "s"),
        "systemf.nf.unbind_calls": (c0.nf_unbinds, "count"),
        "systemf.update_names_s": (med(lambda c: c.names_s), "s"),
        "systemf.update_names.passes": (
            c0.name_passes / c0.name_calls if c0.name_calls else 0.0, "passes/call"),
        "systemf.print_s": (med(lambda c: c.print_s), "s"),
        **{k: (v, "ns") for k, v in core_ns.items()},
        "stack.deep_call_s": (layers.deep_call_s(), "s"),
        "trace.overhead_s": (statistics.median(t - u for _, t, u in passes), "s"),
    }
    for key, (value, unit) in values.items():
        print(f"{key:30} {value:14.6g} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(DEADLINE_S)
    OUT.mkdir(parents=True, exist_ok=True)
    print(f"workload {ns.workload} seed {ns.seed} seconds {ns.seconds} trace {ns.trace}")
    work = WORKLOADS[ns.workload](ns.seed)
    tally = Tally()
    measure = traced if ns.trace else end_to_end
    metrics = measure(ns.workload, work, ns.seconds, tally)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
