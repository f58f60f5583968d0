import contextlib
import gc
import io
import os
import subprocess
import sys
import threading

import pytest

import bindcore.cli
from bindcore import debug_enabled
from bindcore.cli import main, run_script
from bindcore.parser import parse_script
from conftest import debug_set

GOLDEN = (
    "def appl : ∀X.∀Y.((X ⇒ Y) ⇒ (X ⇒ Y)) = ΛX.ΛY.λf:(X ⇒ Y).λa:X.(f a);\n"
    "assert appl : ∀X.∀Y.((X ⇒ Y) ⇒ (X ⇒ Y));\n"
    "print appl;\n"
    "eval appl;\n"
)


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "bindcore", *args],
        capture_output=True,
        text=True,
    )


def test_run_script_outputs(tmp_path):
    out, err = io.StringIO(), io.StringIO()
    code = run_script(parse_script(GOLDEN), "golden.sf", out=out, err=err)
    assert code == 0
    assert out.getvalue() == (
        "ΛX.ΛY.λf:(X ⇒ Y).λa:X.(f a)\n" "ΛX.ΛY.λf:(X ⇒ Y).λa:X.(f a)\n"
    )
    assert err.getvalue() == ""


def test_run_script_ascii():
    out = io.StringIO()
    code = run_script(parse_script(GOLDEN), "golden.sf", ascii_out=True, out=out)
    assert code == 0
    assert out.getvalue().splitlines()[0] == "Lam X.Lam Y.fun f:(X => Y).fun a:X.(f a)"


def test_cli_golden_script(tmp_path):
    path = tmp_path / "appl.sf"
    path.write_text(GOLDEN, encoding="utf-8")
    r = run_cli([str(path)])
    assert r.returncode == 0
    assert r.stdout.count("\n") == 2
    assert r.stderr == ""


def test_cli_type_error_exit_1(tmp_path):
    path = tmp_path / "bad.sf"
    path.write_text(
        "def f = λx:(∀B.B).x;\n" "assert f : ((∀C.(C ⇒ C)) ⇒ (∀B.B));\n",
        encoding="utf-8",
    )
    r = run_cli([str(path)])
    assert r.returncode == 1
    assert f"{path}:2:1: type-mismatch-abs:" in r.stderr
    assert r.stdout == ""


def test_cli_parse_error_exit_1(tmp_path):
    path = tmp_path / "syn.sf"
    path.write_text("def broken = fun x:.x;\n", encoding="utf-8")
    r = run_cli([str(path)])
    assert r.returncode == 1
    assert f"{path}:1:20: syntax-error:" in r.stderr


def test_cli_unreadable_file_exit_1(tmp_path):
    path = tmp_path / "missing.sf"
    r = run_cli([str(path)])
    assert r.returncode == 1
    assert r.stderr.startswith(f"{path}: io-error: ")
    assert "syntax-error" not in r.stderr
    assert r.stdout == ""
    # bytes that are not UTF-8 are an io-error too, not a traceback
    bad = tmp_path / "bad.sf"
    bad.write_bytes(b"print \xff;\n")
    r = run_cli([str(bad)])
    assert r.returncode == 1
    assert r.stderr == (
        f"{bad}: io-error: 'utf-8' codec can't decode byte 0xff in position 6: "
        "invalid start byte\n"
    )
    assert r.stdout == ""


def test_cli_unbound_identifier(tmp_path):
    path = tmp_path / "unbound.sf"
    path.write_text("eval missing;\n", encoding="utf-8")
    r = run_cli([str(path)])
    assert r.returncode == 1
    assert "unbound-identifier" in r.stderr


def test_cli_budget_exit_2(tmp_path):
    path = tmp_path / "omega.sf"
    path.write_text(
        "eval ((fun x:all X.X.(x x)) (fun x:all X.X.(x x)));\n", encoding="utf-8"
    )
    r = run_cli(["--steps", "200", str(path)])
    assert r.returncode == 2
    assert "budget-exhausted" in r.stderr


@pytest.mark.parametrize(
    "script",
    ["eval ((ΛX.λx:X.x) [∀Y.Y]);\n", "print ΛX.λx:X.x;\n"],
    ids=["redex", "no-redex"],
)
def test_cli_negative_steps_is_a_usage_error(tmp_path, script):
    # refused before any file is read, with or without a beta-redex
    path = tmp_path / "s.sf"
    path.write_text(script, encoding="utf-8")
    r = run_cli(["--steps", "-1", str(path)])
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("usage: bindcore")
    assert "argument --steps: must be non-negative, got -1" in r.stderr
    assert "budget-exhausted" not in r.stderr


def test_cli_debug_reports_lookups(tmp_path):
    path = tmp_path / "appl.sf"
    path.write_text(GOLDEN, encoding="utf-8")
    r = run_cli(["--debug", str(path)])
    assert r.returncode == 0
    assert "phase1 lookups:" in r.stderr


def test_cli_debug_reports_the_runs_own_count(tmp_path, capsys):
    path = tmp_path / "appl.sf"
    path.write_text(GOLDEN, encoding="utf-8")
    lines = []
    for _ in range(2):
        assert main(["--debug", str(path)]) == 0
        lines.append(capsys.readouterr().err)
    assert lines[0].startswith("phase1 lookups: ")
    assert lines[0] != "phase1 lookups: 0\n"
    assert lines[1] == lines[0]


def test_cli_closed_pipe_ends_quietly(tmp_path):
    # lines longer than the output buffer, and far more of them than a pipe
    # holds: the CLI is mid-write when its reader goes away, with output
    # still buffered that the flush at exit would try to write again
    spine = "(f " * 4000 + "x" + ")" * 4000
    path = tmp_path / "long.sf"
    path.write_text(
        f"def k = ΛX.λx:X.λf:(X ⇒ X).{spine};\n" + "print k;\n" * 50, encoding="utf-8"
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "bindcore", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == "ΛX.λx:X.".encode()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == bindcore.cli.EXIT_CLOSED_PIPE == 141
    assert err == b""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_cli_closed_pipe_in_process_leaves_no_descriptor_open(tmp_path, monkeypatch):
    # main pointed at a pipe whose reader is gone: it ends with the closed
    # pipe's code and closes what it opened to silence stdout
    path = tmp_path / "appl.sf"
    path.write_text(GOLDEN, encoding="utf-8")
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as out:
        monkeypatch.setattr(sys, "stdout", out)
        before = len(os.listdir("/proc/self/fd"))
        assert main([str(path)]) == bindcore.cli.EXIT_CLOSED_PIPE
        assert len(os.listdir("/proc/self/fd")) == before


def test_cli_stops_at_first_error(tmp_path):
    path = tmp_path / "multi.sf"
    path.write_text(
        "eval missing;\n" "print also_missing;\n", encoding="utf-8"
    )
    r = run_cli([str(path)])
    assert r.returncode == 1
    assert r.stderr.count("unbound-identifier") == 1


def test_cli_multiple_files_in_order(tmp_path):
    a = tmp_path / "a.sf"
    b = tmp_path / "b.sf"
    a.write_text("def one = ΛX.λx:X.x;\nprint one;\n", encoding="utf-8")
    b.write_text("print ΛY.λy:Y.y;\n", encoding="utf-8")
    r = run_cli([str(a), str(b)])
    assert r.returncode == 0
    assert r.stdout == "ΛX.λx:X.x\nΛY.λy:Y.y\n"


def test_cli_checks_annotated_definitions(tmp_path):
    path = tmp_path / "anno.sf"
    path.write_text("def bad : ∀X.X = ΛX.λx:X.x;\n", encoding="utf-8")
    r = run_cli([str(path)])
    assert r.returncode == 1
    assert "not-typable" in r.stderr


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc()

    return fail


@pytest.mark.parametrize(
    "exc, code",
    [(RecursionError, "too-deep"), (MemoryError, "out-of-memory")],
)
def test_cli_statement_out_of_resources_exit_3(tmp_path, capsys, monkeypatch, exc, code):
    path = tmp_path / "deep.sf"
    path.write_text(
        "def id = ΛX.λx:X.x;\nprint id;\neval id;\nprint id;\n", encoding="utf-8"
    )
    monkeypatch.setattr(bindcore.cli, "nf", _raise(exc))
    assert main([str(path)]) == 3
    r = capsys.readouterr()
    assert r.out == "ΛX.λx:X.x\n"  # the statements before it ran, none after
    assert r.err.startswith(f"{path}:3:1: {code}: ")
    assert r.err.count("\n") == 1 and "Traceback" not in r.err


@pytest.mark.parametrize(
    "exc, code",
    [(RecursionError, "too-deep"), (MemoryError, "out-of-memory")],
)
def test_cli_file_out_of_resources_exit_3(tmp_path, capsys, monkeypatch, exc, code):
    path = tmp_path / "deep.sf"
    path.write_text("print ΛX.λx:X.x;\n", encoding="utf-8")
    monkeypatch.setattr(bindcore.cli, "parse_script", _raise(exc))
    assert main([str(path)]) == 3
    r = capsys.readouterr()
    assert r.out == ""
    assert r.err.startswith(f"{path}: {code}: ")
    assert r.err.count("\n") == 1 and "Traceback" not in r.err


@contextlib.contextmanager
def _collector(on):
    was = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


# script (None: no such file), extra arguments, exit code, calls of nf
_EXITS = {
    "ok": ("def id = ΛX.λx:X.x;\nassert id : ∀X.(X ⇒ X);\neval id;\n", [], 0, 1),
    "type-error": ("assert ΛX.λx:X.x : ∀X.X;\n", [], 1, 0),
    "parse-error": ("def broken = fun x:.x;\n", [], 1, 0),
    "io-error": (None, [], 1, 0),
    "budget": (
        "eval ((fun x:all X.X.(x x)) (fun x:all X.X.(x x)));\n",
        ["--steps", "200"],
        2,
        1,
    ),
    "too-deep": ("eval ΛX.λx:X.x;\n", [], 3, 1),
}


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", list(_EXITS))
def test_cli_leaves_the_collector_as_found(tmp_path, capsys, monkeypatch, case, collecting):
    # the work runs with the cyclic collector off, and every exit restores
    # the state the collector and the debug mode were in when main was called
    text, args, code, calls = _EXITS[case]
    path = tmp_path / "s.sf"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    seen = []
    nf = bindcore.cli.nf

    def recording_nf(*a, **kw):
        seen.append(gc.isenabled())
        if case == "too-deep":
            raise RecursionError()
        return nf(*a, **kw)

    monkeypatch.setattr(bindcore.cli, "nf", recording_nf)
    for debugging in (False, True):
        for flags in ([], ["--debug"]):
            with _collector(collecting), debug_set(debugging):
                assert main([*flags, *args, str(path)]) == code
                assert gc.isenabled() is collecting
                assert debug_enabled() is debugging
    assert seen == [False] * (4 * calls)


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_cli_usage_error_leaves_the_collector_as_found(tmp_path, capsys, collecting):
    path = tmp_path / "s.sf"
    path.write_text("print ΛX.λx:X.x;\n", encoding="utf-8")
    with _collector(collecting):
        with pytest.raises(SystemExit) as exit_:
            main(["--steps", "-1", str(path)])
        assert exit_.value.code == 2
        assert gc.isenabled() is collecting


@pytest.mark.parametrize(
    "outer, inner",
    [(True, False), (False, True), (True, True)],
    ids=["plain-inside-debug", "debug-inside-plain", "debug-inside-debug"],
)
def test_overlapping_runs_share_the_settings(capsys, monkeypatch, outer, inner):
    # run A starts, run B starts inside it and ends after it; each run's work
    # records the settings as it ends
    a_started, b_started, a_ended = (threading.Event() for _ in range(3))
    seen, codes = {}, []

    def work(files, steps, ascii_out):
        (name,) = files
        if name == "a":
            a_started.set()
            assert b_started.wait(10)
        else:
            b_started.set()
            assert a_ended.wait(10)
        seen[name] = (gc.isenabled(), debug_enabled())
        return 0

    def run_a():
        try:
            codes.append(main(["--debug", "a"] if outer else ["a"]))
        finally:
            a_ended.set()

    monkeypatch.setattr(bindcore.cli, "_run_files", work)
    with _collector(True), debug_set(False):
        thread = threading.Thread(target=run_a)
        thread.start()
        try:
            assert a_started.wait(10)
            assert main(["--debug", "b"] if inner else ["b"]) == 0
        finally:
            thread.join(10)
        assert not thread.is_alive() and codes == [0]
        assert (gc.isenabled(), debug_enabled()) == (True, False)
    # the collector stays off, and a --debug run in debug mode, to its end
    assert seen["a"] == (False, outer or inner)
    assert seen["b"] == (False, outer or inner)
