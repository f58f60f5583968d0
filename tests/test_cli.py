import io
import subprocess
import sys

import pytest

import bindcore.cli
from bindcore.cli import main, run_script
from bindcore.parser import parse_script

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
