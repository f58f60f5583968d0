"""Batch command-line driver: parse, type-check, and normalize scripts.

Each input file is a sequence of statements (see `parser`).  `assert` runs
the checker, `eval` normalizes under the beta-step budget, and `eval` and
`print` emit canonical text, one line each.  Both print a term as it
stands: parsing seals each statement and `nf` seals its result, and a seal
names binders outermost first, so the output never shows two variables
under one name and is identical across runs.

Exit codes: 0 on success, 1 on a file that cannot be read or decoded as
UTF-8 or on a parse or type error, 2 when the step budget runs out or on a
usage error such as a negative `--steps` (argparse's code), 3 when
a statement or a file is too deep for the stack (`too-deep`) or too large
for memory (`out-of-memory`), 141 when the reader of stdout goes away
before the output is written, as in `bindcore FILE | head -1` (128 +
SIGPIPE, the status a shell reports for a filter ended by a closed pipe;
nothing is printed).  Errors go to stderr as `file:line:col: code:
message`, or `file: code: message` for a file that cannot be read or
decoded (`io-error`) or parsed within those limits.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import IO, Optional

from ._stack import call_with_deep_stack
from .core import enable_debug, phase1_lookup_count
from .parser import AssertType, Def, Eval, ParseError, Print, Script, parse_script
from .systemf import StepBudgetExceeded, nf, print_te
from .typecheck import TypeCheckError, check

__all__ = ["main", "run_script"]

DEFAULT_STEPS = 1_000_000
EXIT_CLOSED_PIPE = 141


def _exhausted(e: BaseException) -> str:
    # the `code: message` of a RecursionError or a MemoryError
    if isinstance(e, RecursionError):
        return "too-deep: recursion limit exceeded"
    return "out-of-memory: memory exhausted"


def run_script(
    script: Script,
    filename: str,
    steps: int = DEFAULT_STEPS,
    ascii_out: bool = False,
    out: Optional[IO[str]] = None,
    err: Optional[IO[str]] = None,
) -> int:
    """Process statements in order; returns the exit code for the script."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    for stmt in script:
        try:
            if isinstance(stmt, Def):
                if stmt.annot is not None:
                    check([], stmt.te, stmt.annot)
            elif isinstance(stmt, AssertType):
                check([], stmt.te, stmt.ty)
            elif isinstance(stmt, Eval):
                result = nf(stmt.te, max_steps=steps)
                print(print_te(result, ascii=ascii_out), file=out)
            elif isinstance(stmt, Print):
                print(print_te(stmt.te, ascii=ascii_out), file=out)
        except TypeCheckError as e:
            print(
                f"{filename}:{stmt.line}:{stmt.col}: {e.code.value}: {e.message}",
                file=err,
            )
            return 1
        except StepBudgetExceeded as e:
            print(
                f"{filename}:{stmt.line}:{stmt.col}: budget-exhausted: {e}",
                file=err,
            )
            return 2
        except (RecursionError, MemoryError) as e:
            print(f"{filename}:{stmt.line}:{stmt.col}: {_exhausted(e)}", file=err)
            return 3
    return 0


def _run_files(files: list[str], steps: int, ascii_out: bool) -> int:
    for path in files:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as e:
            print(f"{path}: io-error: {e}", file=sys.stderr)
            return 1
        try:
            script = parse_script(text)
        except ParseError as e:
            print(f"{path}:{e.line}:{e.col}: {e.code}: {e.message}", file=sys.stderr)
            return 1
        except (RecursionError, MemoryError) as e:
            print(f"{path}: {_exhausted(e)}", file=sys.stderr)
            return 3
        code = run_script(script, path, steps, ascii_out)
        if code != 0:
            return code
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="bindcore",
        description="Type-check and normalize System F script files.",
    )
    ap.add_argument("files", nargs="+", metavar="FILE", help="script files to process")
    ap.add_argument(
        "--steps",
        type=int,
        default=DEFAULT_STEPS,
        help=f"beta-step budget for eval statements (default {DEFAULT_STEPS})",
    )
    ap.add_argument(
        "--ascii",
        action="store_true",
        help="emit the ASCII grammar instead of unicode",
    )
    ap.add_argument(
        "--debug",
        action="store_true",
        help="enable internal checks and report slot-lookup counts",
    )
    ns = ap.parse_args(argv)
    if ns.steps < 0:
        ap.error(f"argument --steps: must be non-negative, got {ns.steps}")
    if ns.debug:
        enable_debug(True)
    try:
        code = call_with_deep_stack(_run_files, ns.files, ns.steps, ns.ascii)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        # the flush at exit would fail again: point stdout at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    if ns.debug:
        print(f"phase1 lookups: {phase1_lookup_count()}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
