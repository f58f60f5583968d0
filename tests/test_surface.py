"""The names other code reaches by name: `__all__` lists, and the library
names that the benchmark's traced pass (`bench/layers.py`) wraps."""

import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from bindcore import core, systemf, typecheck
from bindcore.cli import run_script
from bindcore.parser import parse_script

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"

# def, assert, eval and print; the eval's result has a binder that a
# careless name choice would show as a second `x`
SCRIPT = (
    "def id : ∀X.(X ⇒ X) = ΛX.λx:X.x;\n"
    "assert id : ∀X.(X ⇒ X);\n"
    "eval ΛX.λx:X.((λy:X.λx:X.y) x);\n"
    "print id;\n"
)


@pytest.mark.parametrize(
    "module",
    ["bindcore", "bindcore.core", "bindcore.systemf", "bindcore.typecheck",
     "bindcore.parser", "bindcore.combinators", "bindcore.cli"],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_bench_layers_pass_prints_what_the_cli_prints():
    layers = _load_layers()
    out = io.StringIO()
    assert run_script(parse_script(SCRIPT), "s.sf", out=out) == 0
    want = out.getvalue().splitlines()
    assert want == ["ΛX.λx:X.λx0:X.x", "ΛX.λx:X.x"]

    before = {name: getattr(systemf, name) for name in ("subst", "unbind", "lift_te")}
    plain, _, _ = layers.run_pass(SCRIPT, traced=False)
    traced, c, _ = layers.run_pass(SCRIPT, traced=True)
    assert plain == traced == want
    # the wrappers saw work and were taken out again
    assert c.subst_calls > 0 and c.check_unbinds > 0
    assert {name: getattr(systemf, name) for name in before} == before
    assert typecheck.unbind is core.unbind
