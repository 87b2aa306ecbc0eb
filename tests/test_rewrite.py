"""The small-step rewriting oracle: its size measure and its isolation."""

import ast
import pathlib

from globkit import coherator as C
from globkit import rewrite as R
from globkit.coherator import RGen, RTuple, Tower, identity
from globkit.globe import disk


def test_generator_weights_are_per_generator_not_per_name():
    # two towers declare different generators under the same name
    small = Tower(3)
    h_small = small.declare("h", identity(disk(0)), identity(disk(0)))
    tower, _ = C.stdlib(3)
    assoc = tower["assoc1"]
    h_std = tower.declare("h", assoc.fsrc, assoc.gtgt)
    assert R.raw_size(RGen(h_small)) == 3
    assert R.raw_size(RGen(h_std)) == 19
    assert R.raw_size(RGen(h_small)) == 3


def imports_module(tree, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(name in alias.name.split(".") for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if name in (node.module or "").split(".") or \
                    any(alias.name == name for alias in node.names):
                return True
    return False


def test_no_production_module_imports_the_oracle():
    """No library module imports the rewriting engine, nor the tests-only
    oracles of `tests/oracles.py`."""
    package = pathlib.Path(R.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in modules}
    offenders = [stem for stem, tree in trees.items()
                 if stem != "rewrite" and imports_module(tree, "rewrite")
                 or imports_module(tree, "oracles")]
    assert offenders == []
    for text in ("from . import rewrite", "from .rewrite import reduce_steps",
                 "import globkit.rewrite", "from globkit import theta0, rewrite"):
        assert imports_module(ast.parse(text), "rewrite"), text
    for text in ("import oracles", "from oracles import all_tables"):
        assert imports_module(ast.parse(text), "oracles"), text


def test_a_tuple_over_one_disk_reduces_in_one_step(std4):
    """The engine's own rule takes a one-disk tuple to its component, so
    its answer is not the one production's tuple constructor gives."""
    tower, _ = std4
    comp = tower["comp1_0"]
    assert R.reduce_steps(RTuple(disk(1), (RGen(comp),))) == (tower.term("comp1_0"), 1)


def test_the_oracle_builds_no_answer_with_the_constructors_it_checks():
    tree = ast.parse(pathlib.Path(R.__file__).read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert names & {"_eval_raw", "tuple_term", "normalize", "compose", "gen_term"} == set()
