"""The command-line front end: verbs, exit codes, round-trips, fuzzing."""

import importlib
import json
import os
import random
import re
import subprocess
import sys
import textwrap
import time

import pytest

from globkit import cli, coherator as C, dsl, rewrite as R
from oracles import all_tables, old_parse_table, old_parse_term, old_parse_tower, old_tokenize


def run(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_stdlib_check_round_trip(tmp_path, capsys):
    path = str(tmp_path / "std.tower")
    code, out, _ = run(capsys, "stdlib", "--dim", "3", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert re.match(r"\d+ generators, levels 1-3, all admissible", out)
    # the reparsed tower is generator-by-generator identical
    tower, _ = C.stdlib(3)
    reparsed = dsl.parse_tower(open(path).read())
    assert reparsed.names() == tower.names()
    for name in tower.names():
        assert reparsed[name] == tower[name]


def test_pi_report(tmp_path, capsys):
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    code, out, _ = run(capsys, "pi", path, "--kg1", "S3", "--n", "1")
    assert code == 0
    assert out.strip() == "pi_1 = S3 (order 6, nonabelian)"
    code, out, _ = run(capsys, "pi", path, "--kan", "Z4,2", "--n", "2")
    assert code == 0
    assert out.strip() == "pi_2 = Z4 (order 4, abelian)"
    code, out, _ = run(capsys, "pi", path, "--discrete", "3", "--n", "0")
    assert code == 0 and "3 classes" in out


def test_pi_json_format(tmp_path, capsys):
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    code, out, _ = run(capsys, "pi", path, "--kg1", "Z2", "--n", "1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["group"]["order"] == 2


def test_global_flags_after_the_verb_take_effect_and_before_it_exit_2(tmp_path, capsys):
    path = str(tmp_path / "std.tower")
    code, out, _ = run(capsys, "stdlib", "--dim", "2")
    assert code == 0 and out.startswith("dim 2\n")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    code, out, _ = run(capsys, "check", path, "--format", "json")
    assert code == 0 and json.loads(out)["levels"] == [1, 3]
    # before the verb a flag is not silently dropped; `--seed` is gone
    for argv in (["--dim", "2", "stdlib"], ["--format", "json", "check", path],
                 ["--seed", "1", "check", path], ["check", path, "--seed", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err, argv
    # --dim belongs to stdlib, check and fundamental; the other verbs refuse it
    for argv in (["normalize", path, "--term", "unit0 * s1"],
                 ["admissible", path, "--src", "eps2 * s1", "--tgt", "eps1 * t1"],
                 ["model-check", path, "--kg1", "Z2"],
                 ["pi", path, "--kg1", "S3", "--n", "1"],
                 ["weq", path, "m.json"],
                 ["gpd-pi", "g.json", "--n", "1"],
                 ["divide", path, "--kan", "Z2,2", "--n", "2", "--i", "0",
                  "--gamma", "1", "--u", "0", "--v", "0"]):
        code, out, err = run(capsys, *argv, "--dim", "3")
        assert code == 2 and out == "" and "unrecognized arguments: --dim 3" in err, argv


def test_admissible_verdicts(tmp_path, capsys):
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    code, out, _ = run(capsys, "admissible", path,
                       "--src", "eps2 * s1", "--tgt", "eps1 * t1",
                       "--target", "D1 +0 D1")
    assert code == 0 and "admissible" in out
    code, out, _ = run(capsys, "admissible", path,
                       "--src", "s2 * s1", "--tgt", "t2 * t1", "--target", "D2")
    assert code == 1
    assert "dimension of target exceeds n+1" in out


def test_normalize_verb(tmp_path, capsys):
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    code, out, _ = run(capsys, "normalize", path, "--term", "comp2_1 * s2 * s1")
    assert code == 0
    assert out.strip() == "eps1 * s2 * s1"
    code, out, _ = run(capsys, "normalize", path, "--term", "unit0 * s1")
    assert code == 0 and out.strip() == "id"
    # without --target, a term's first token names its target: a
    # generator's target, or the disk of a boundary word
    for term, code, text in (
            ("t2 * t1", 0, "s2 * t1"),
            ("s1 # a comment", 0, "s1"),
            ("eps1 * s1", 2, "error: cannot infer the term's target; pass --target"),
            ("(s1)", 2, "error: cannot infer the term's target; pass --target"),
            ("# a comment", 2, "error: cannot infer the term's target; pass --target"),
            ("x * s1", 2, "error: cannot infer the term's target; pass --target"),
            ("s1 @", 2, "error: line 1, column 4: unexpected character '@'"),
            ("s0", 2, "error: line 1, column 1: boundary words start at s1/t1"),
            ("s99", 2, "error: bad term 's99': table dimension 99 exceeds the largest "
                       "supported dimension 64")):
        got = run(capsys, "normalize", path, "--term", term)
        assert got[0] == code and (got[1] if code == 0 else got[2]).strip() == text, (term, got)
    # a tuple over one disk is its component
    for term in ("[comp1_0]", "[[comp1_0]]"):
        argv = ("normalize", path, "--term", term, "--target", "D1 +0 D1")
        assert run(capsys, *argv)[:2] == (0, "comp1_0\n")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out) == {"normal_form": "comp1_0"}


def test_parenthesised_groups_parse_as_their_contents():
    """`(...)` groups a `*`-chain; composition is associative, so a group
    parses to the same interned term as the chain without it."""
    tower = C.stdlib(4)[0]
    t3, t2 = tower["assoc1"].target, tower["comp1_0"].target
    flat = dsl.parse_term("assoc1 * t2 * s1", tower, t3)
    for text in ("assoc1 * (t2 * s1)", "(assoc1 * t2) * s1", "((assoc1 * t2 * s1))"):
        assert dsl.parse_term(text, tower, t3) is flat, text
    assert dsl.parse_term("((comp1_0))", tower, t2) is tower.term("comp1_0")
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse_term("(comp1_0 * s1", tower, t2)
    assert (exc.value.line, exc.value.col) == (1, 14)


def test_target_flag_reads_the_script_table_syntax(tmp_path, capsys):
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    code, out, _ = run(capsys, "normalize", path, "--term", "eps1 * s1",
                       "--target", "D1 +0 D1")
    assert code == 0 and out.strip() == "eps1 * s1"
    for target in ("DD1 +0 1", "D1 +0 1", "1 +0 D1", "D1 +0 D1 D1", "D1 +1 D1", "D1 +0"):
        code, out, err = run(capsys, "normalize", path, "--term", "eps1 * s1",
                             "--target", target)
        assert code == 2, target
        assert err.startswith("error: bad table %r: line 1, column " % target), err
    code, _, err = run(capsys, "admissible", path, "--src", "eps2 * s1",
                       "--tgt", "eps1 * t1", "--target", "D1 +0 1")
    assert code == 2 and "bad table" in err


def test_model_check_verb(tmp_path, capsys):
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    code, out, _ = run(capsys, "model-check", path, "--kg1", "Z3")
    assert code == 0 and "clean" in out
    # every fiber product of Discrete(0) is empty
    assert run(capsys, "model-check", path, "--discrete", "0") == \
        (0, "model checks clean (28 generators)\n", "")


def test_model_file_and_xmod_flags(tmp_path, capsys):
    from globkit import coherator as C, groups as G, model as M
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    # a model file produced from a builtin checks clean through the file path
    tower, bundle = C.stdlib(3)
    model = M.build_strict(M.KG1(G.cyclic(2)), tower, bundle)
    mpath = str(tmp_path / "model.json")
    with open(mpath, "w") as fh:
        json.dump(M.model_to_json(model), fh)
    code, out, _ = run(capsys, "model-check", path, mpath)
    assert code == 0 and "clean" in out
    # crossed-module data through the --xmod flag
    xpath = str(tmp_path / "xm.json")
    with open(xpath, "w") as fh:
        json.dump({"base": "Z2", "fiber": "Z2", "boundary": [0, 0],
                   "action": [[0, 1], [0, 1]]}, fh)
    code, out, _ = run(capsys, "pi", path, "--xmod", xpath, "--n", "2")
    assert code == 0 and "pi_2 = Z2" in out
    # a corrupted model file is a check failure
    data = M.model_to_json(model)
    data["interp"]["inv1_0"][1]["out"] = 0
    with open(mpath, "w") as fh:
        json.dump(data, fh)
    code, out, _ = run(capsys, "model-check", path, mpath)
    assert code == 1 and "violation" in out


def test_weq_verb(tmp_path, capsys):
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    morph = {"source": {"kg1": "Z2"}, "target": {"kg1": "Z4"},
             "map": [[0], [0, 2]]}
    mpath = str(tmp_path / "m.json")
    with open(mpath, "w") as fh:
        json.dump(morph, fh)
    code, out, _ = run(capsys, "weq", path, mpath)
    assert code == 0
    assert "weak equivalence: False" in out
    morph = {"source": {"kg1": "Z3"}, "target": {"kg1": "Z3"},
             "map": [[0], [0, 2, 1]]}
    with open(mpath, "w") as fh:
        json.dump(morph, fh)
    code, out, _ = run(capsys, "weq", path, mpath)
    assert code == 0 and "weak equivalence: True" in out


def test_weq_top_dimension_and_low_truncations(tmp_path, capsys):
    """The projection XMod(Z2, Z2) -> KG1(Z2) kills pi_2, the top dimension of
    a dimension-3 tower: four False verdicts.  At dimension 1 the verdicts are
    the bijection on pi_0, and dimension 0 is refused with exit 1."""
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    xmod = {"base": "Z2", "fiber": "Z2", "boundary": [0, 0], "action": [[0, 1], [0, 1]]}
    mpath = str(tmp_path / "m.json")
    low = {}
    for dim in (0, 1):
        low[dim] = str(tmp_path / ("dim%d.tower" % dim))
        with open(low[dim], "w") as fh:
            fh.write("dim %d\n" % dim)
    for tower, morph, verdict in (
            (path, {"source": {"xmod": xmod}, "target": {"kg1": "Z2"},
                    "map": [[0], [0, 1], [0, 0, 1, 1]]}, False),
            (low[1], {"source": {"discrete": 2}, "target": {"discrete": 2},
                      "map": [[1, 0]]}, True),
            (low[1], {"source": {"discrete": 2}, "target": {"discrete": 1},
                      "map": [[0, 0]]}, False)):
        with open(mpath, "w") as fh:
            json.dump(morph, fh)
        code, out, err = run(capsys, "weq", tower, mpath, "--format", "json")
        assert (code, err) == (0, ""), (morph, err)
        assert json.loads(out) == {"conditions": [verdict] * 4, "weak_equivalence": verdict}
    code, out, err = run(capsys, "weq", low[0], mpath)
    assert (code, out) == (1, "")
    assert err == "error: dimension 1 exceeds the represented range\n"


def test_crossed_module_laws_are_checked_also_under_O(tmp_path, capsys):
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    xpath = str(tmp_path / "xm.json")
    with open(xpath, "w") as fh:
        json.dump({"base": "Z2", "fiber": "Z2", "boundary": [0, 0],
                   "action": [[0, 1], [1, 0]]}, fh)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "globkit.cli", "pi", path,
                               "--xmod", xpath, "--n", "2"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, (flags, proc.stderr)
        assert "crossed module data violates its laws" in proc.stderr, (flags, proc.stderr)


def test_group_laws_are_checked_also_under_O():
    code = textwrap.dedent("""
        from globkit import globe, groups

        def fails(fn, exc, words):
            try:
                fn()
            except exc as e:
                assert words in str(e), str(e)
            else:
                raise SystemExit("no %s" % exc.__name__)

        fails(lambda: groups.Group("bad", ((0, 1, 2), (1, 0, 0), (2, 0, 1))),
              groups.GroupError, "(1*1)*2 != 1*(1*2)")
        fails(lambda: groups.Group("bad", ((0, 1), (1, 2))), groups.GroupError, "element")
        fails(lambda: groups.symmetric(5), groups.GroupError, "n = 2..4")
        fails(lambda: groups.trivial_xmod(groups.cyclic(2), groups.symmetric(3)),
              groups.GroupError, "abelian")
        fails(lambda: globe.Word(2, 1, "s"), globe.GlobeError, "src <= tgt")
        fails(lambda: globe.Word(1, 1, "s"), globe.GlobeError, "identity")
        fails(lambda: globe.Word(0, 1, "x"), globe.GlobeError, "kind")
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, (flags, proc.stdout, proc.stderr)


def test_stdlib_json_without_out_is_one_object(capsys):
    """`--format json` reports `stdlib` as JSON also when the script goes to
    standard output: the script is the text-mode output."""
    code, text, err = run(capsys, "stdlib", "--dim", "2")
    assert (code, err) == (0, "") and text.startswith("dim 2\nlift ")
    code, out, err = run(capsys, "stdlib", "--dim", "2", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"generators": 13, "script": text}


_FOOTPRINT = textwrap.dedent("""
    import json, sys
    from globkit import cli
    code = cli.run(sys.argv[1:])
    print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "globkit")]))
""")


def test_each_verb_loads_only_the_modules_it_runs(tmp_path):
    """Each verb, in a fresh interpreter, imports the library modules it
    runs and no others: a tower verb only the term layers, `model-check` no
    homotopy or groupoid layer, and no verb the rewriting oracle.  No
    library module imports `dataclasses` or `inspect`, or makes a named
    tuple class at import (standard modules, such as `dis`, do)."""
    from globkit import gpd as P
    from globkit import groups as G
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    with open(tmp_path / "g.json", "w") as fh:
        json.dump(P.groupoid_to_json(P.one_object(G.cyclic(2))), fh)
    with open(tmp_path / "m.json", "w") as fh:
        json.dump({"source": {"kg1": "Z2"}, "target": {"discrete": 1}, "map": [[0], [0, 0]]}, fh)

    def loaded(*argv):
        proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, (argv, proc.stderr)
        return {m.partition("globkit.")[2] or "globkit" for m in modules}

    tower_verbs = [
        ("stdlib", "--dim", "3", "--out", "s.tower"), ("check", "s.tower"),
        ("normalize", "s.tower", "--term", "comp2_1 * s2 * s1"),
        ("admissible", "s.tower", "--src", "eps2 * s1", "--tgt", "eps1 * t1",
         "--target", "D1 +0 D1")]
    other_verbs = [
        ("model-check", "s.tower", "--kg1", "Z2"), ("pi", "s.tower", "--kg1", "Z2", "--n", "1"),
        ("divide", "s.tower", "--kan", "Z2,2", "--n", "2", "--i", "0", "--gamma", "1",
         "--u", "0", "--v", "0"),
        ("weq", "s.tower", "m.json"), ("fundamental", "g.json", "--dim", "3"),
        ("gpd-pi", "g.json", "--n", "1")]
    footprints = {argv: loaded(*argv) for argv in tower_verbs + other_verbs}
    for argv, modules in footprints.items():
        assert "rewrite" not in modules and {"globkit", "cli", "globe"} <= modules, argv
        if argv in tower_verbs:
            assert modules <= {"globkit", "cli", "globe", "theta0", "coherator", "dsl"}, argv
    assert {"homotopy", "gpd"} & footprints[other_verbs[0]] == set()
    assert {"homotopy", "gpd"} <= footprints[other_verbs[1]]
    names = sorted(f[:-3] for f in os.listdir(os.path.dirname(cli.__file__))
                   if f.endswith(".py") and not f.startswith("_"))
    assert len(names) > 5
    code = ("import collections, importlib, sys\n"
            "namedtuple, callers = collections.namedtuple, []\n"
            "def recorded(*args, **kwargs):\n"
            "    callers.append(sys._getframe(1).f_globals['__name__'])\n"
            "    return namedtuple(*args, **kwargs)\n"
            "collections.namedtuple = recorded\n"
            "for name in sys.argv[1:]:\n"
            "    importlib.import_module('globkit.' + name)\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
            "print(sorted({c for c in callers if c.partition('.')[0] == 'globkit'}))")
    proc = subprocess.run([sys.executable, "-c", code, *names], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n[]\n"), proc.stderr


def test_every_library_error_exits_with_its_code(monkeypatch, capsys):
    """Every exception class the library defines, raised by a verb, exits
    with the README's code through the one table in `run`: 2 for a parse
    error and 1 for every other.  An `OSError` exits 3, and an error from
    outside the library propagates."""
    package = os.path.dirname(cli.__file__)
    errors = []
    for name in sorted(f[:-3] for f in os.listdir(package)
                       if f.endswith(".py") and not f.startswith("_")):
        module = importlib.import_module("globkit." + name)
        errors += [obj for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and obj.__module__ == module.__name__ and obj is not cli.CliError]
    assert {"ParseError", "CheckError", "MatchingError", "InadmissibleError", "LawViolation",
            "FillerError", "GroupError"} <= {cls.__name__ for cls in errors}

    def raising(error):
        def verb(args):
            raise error
        return verb

    for cls in errors:
        error = cls.__new__(cls)
        Exception.__init__(error, "stub %s" % cls.__name__)
        monkeypatch.setattr(cli, "cmd_check", raising(error))
        want = 2 if cls is dsl.ParseError else 1
        assert run(capsys, "check", "x.tower") == (want, "", "error: stub %s\n" % cls.__name__)
    monkeypatch.setattr(cli, "cmd_check", raising(OSError("disk gone")))
    assert run(capsys, "check", "x.tower") == (3, "", "error: disk gone\n")
    monkeypatch.setattr(cli, "cmd_check", raising(KeyError("outside")))
    with pytest.raises(KeyError, match="outside"):
        cli.run(["check", "x.tower"])


def test_malformed_model_and_morphism_files_exit_1(tmp_path, capsys):
    from globkit import groups as G, model as M
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    tower, bundle = C.stdlib(3)
    good = M.model_to_json(M.build_strict(M.KG1(G.cyclic(2)), tower, bundle))
    no_cells = {k: v for k, v in good.items() if k != "cells"}
    bad_src = json.loads(json.dumps(good))
    bad_src["cells"][2]["src"][0] = 7
    # the 0-cells are counted, not listed: a count no file can cover is
    # refused before the fiber product over D0 is enumerated
    huge = json.loads(json.dumps(good))
    huge["cells"][0]["count"] = 10 ** 9
    # one object, 20,000 loops and one row per generator: rows are counted
    # before the 4 * 10^8 pairs of `comp1_0`'s fiber product are enumerated
    loops = {"dimension": 3,
             "cells": [{"count": 1}, {"src": [0] * 20000, "tgt": [0] * 20000},
                       {"src": [0], "tgt": [0]}, {"src": [0], "tgt": [0]}],
             "interp": {gen.name: [{"in": [0] * gen.target.width, "out": 0}]
                        for gen in tower.gens()}}
    # JSON booleans are not cell indices, though Python's bool is an int
    bool_src = json.loads(json.dumps(good))
    bool_src["cells"][1]["src"] = [False] * len(bool_src["cells"][1]["src"])
    bool_in = json.loads(json.dumps(good))
    bool_in["interp"]["comp1_0"][0]["in"] = [0, True]
    # a conflicting copy of a row, after it or before it
    twice, twice_first = json.loads(json.dumps(good)), json.loads(json.dumps(good))
    (row,) = [r for r in good["interp"]["comp1_0"] if r["in"] == [0, 1]]
    twice["interp"]["comp1_0"].append(dict(row, out=1 - row["out"]))
    twice_first["interp"]["comp1_0"].insert(0, dict(row, out=1 - row["out"]))
    # a label is a string, or a restricted model's could not be named
    list_label = dict(good, label=[1, 2])
    mpath = str(tmp_path / "model.json")
    for data, words in ((no_cells, "field 'cells'"),
                        (twice, "'comp1_0' lists the input [0, 1] more than once"),
                        (twice_first, "'comp1_0' lists the input [0, 1] more than once"),
                        (bad_src, "src of 2-cell 0 is 7"),
                        (huge, "interpretation of 'unit0' does not cover"),
                        (loops, "interpretation of 'comp1_0' does not cover"),
                        (bool_src, "src of 1-cell 0 is False, not one of the 1 0-cells"),
                        (bool_in, "'comp1_0' has a non-integer input [0, True]"),
                        (list_label, "the top level needs a str field 'label'")):
        with open(mpath, "w") as fh:
            json.dump(data, fh)
        start = time.perf_counter()
        code, _, err = run(capsys, "model-check", path, mpath)
        assert code == 1 and words in err, err
        assert time.perf_counter() - start < 1.0
    morph = {"source": {"kg1": "Z2"}, "target": {"kg1": "Z4"},
             "map": [[0], [0, 9]]}
    xmod_no_boundary = {"base": "Z2", "fiber": "Z2", "action": [[0, 1], [0, 1]]}
    wpath = str(tmp_path / "m.json")
    with open(wpath, "w") as fh:
        json.dump(morph, fh)
    code, _, err = run(capsys, "weq", path, wpath)
    assert code == 1 and "1-cell 1 to 9" in err, err
    for change, words in ((lambda m: m.pop("map"), "field 'map'"),
                          (lambda m: m.update(map=[[0], 5]), "integer lists"),
                          (lambda m: m.pop("source"), "field 'source'"),
                          (lambda m: m.update(source="kg1"), "field 'source'"),
                          (lambda m: m.update(source={"kg1": 5}), "field 'kg1'"),
                          (lambda m: m.update(source={"kan": ["Z2"]}), "[group, n]"),
                          (lambda m: m.update(source={"xmod": {}}), "crossed module"),
                          (lambda m: m.update(source={"xmod": xmod_no_boundary}),
                           "crossed module: the top level needs a list field 'boundary'")):
        bad = json.loads(json.dumps(morph))
        change(bad)
        with open(wpath, "w") as fh:
            json.dump(bad, fh)
        code, _, err = run(capsys, "weq", path, wpath)
        assert code == 1 and words in err, (bad, err)
    # composites that return their first input send boundary terms outside
    # the fiber products of the generators built on them: reported, not raised
    z3 = M.model_to_json(M.build_strict(M.KG1(G.cyclic(3)), tower, bundle))
    for row in z3["interp"]["comp1_0"]:
        row["out"] = row["in"][0]
    with open(mpath, "w") as fh:
        json.dump(z3, fh)
    code, out, _ = run(capsys, "model-check", path, mpath, "--format", "json")
    assert code == 1
    assert any(v[2] == "boundary" for v in json.loads(out)["violations"])


def test_malformed_groupoid_files_exit_1(tmp_path, capsys):
    from globkit import gpd as P
    good = P.groupoid_to_json(P.codiscrete(2))
    gpath = str(tmp_path / "g.json")
    for change, words in ((lambda g: g.pop("compose"), "field 'compose'"),
                          (lambda g: g.pop("objects"), "field 'objects'"),
                          (lambda g: g["compose"][1].pop(), "4 x 4 table"),
                          (lambda g: g["arrows"].__setitem__(0, [0, 0]),
                           "arrow 0 needs a int field 'src'"),
                          (lambda g: g["arrows"][2].update(src=9),
                           "arrow 2 has boundaries out of range"),
                          (lambda g: g["compose"][0].__setitem__(0, 7),
                           "composite (0, 0) is 7"),
                          (lambda g: g["compose"][0].__setitem__(1, 3),
                           "composite (0, 1) is 3, but arrow 0 does not start where "
                           "arrow 1 ends, so it must be null"),
                          # an inverse equal to the right one only by value
                          (lambda g: g["inverse"].__setitem__(0, False),
                           "inverse of arrow 0 is False, not one of the 4 arrows"),
                          (lambda g: g["inverse"].__setitem__(3, 3.0),
                           "inverse of arrow 3 is 3.0, not one of the 4 arrows"),
                          (lambda g: g.update(objects=-1), "-1 objects"),
                          (lambda g: g.update(objects=10 ** 9),
                           "1000000000 objects need as many identity arrows, but there "
                           "are 4 arrows")):
        bad = json.loads(json.dumps(good))
        change(bad)
        with open(gpath, "w") as fh:
            json.dump(bad, fh)
        for verb in (["gpd-pi", gpath, "--n", "1"], ["fundamental", gpath]):
            code, _, err = run(capsys, *verb)
            assert code == 1 and words in err, (verb, bad, err)


def test_out_of_range_numeric_flags_exit_1(tmp_path, capsys):
    from globkit import gpd as P
    from globkit import groups as G
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    gpath = str(tmp_path / "z3.json")
    with open(gpath, "w") as fh:
        json.dump(P.groupoid_to_json(P.one_object(G.cyclic(3))), fh)
    cases = [
        (["gpd-pi", gpath, "--x", "9", "--n", "1"], "object 9 out of range"),
        (["gpd-pi", gpath, "--x", "-1", "--n", "1"], "object -1 out of range"),
        (["gpd-pi", gpath, "--n", "-1"], "needs n >= 1"),
        (["pi", path, "--kg1", "S3", "--n", "1", "--base", "7"],
         "base object 7 is not one of the 1 0-cells"),
        (["pi", path, "--kan", "Z3,1", "--n", "1"], "needs n >= 2"),
        (["pi", path, "--kan", "S3,2", "--n", "2"], "abelian"),
        (["divide", path, "--kan", "Z2,2", "--n", "2", "--i", "0",
          "--gamma", "99", "--u", "0", "--v", "0"], "gamma 99 is not one of the 2 2-cells"),
        (["divide", path, "--kan", "Z2,2", "--n", "2", "--i", "0",
          "--gamma", "1", "--u", "0", "--v", "5"], "v 5 is not one of"),
    ]
    for argv, words in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1 and words in err, (argv, err)
    # the base is checked also where pi_0 and gpd-pi's pi_0 do not read it
    for argv, words in (
            (["pi", path, "--kg1", "Z2", "--n", "0", "--base", "9"],
             "base object 9 is not one of the 1 0-cells"),
            (["gpd-pi", gpath, "--n", "0", "--x", "5"], "object 5 out of range"),
            (["check", path, "--dim", "-5"], "truncation -5 is negative"),
            (["pi", path, "--discrete", "0", "--n", "0"],
             "base object 0 is not one of the 0 0-cells"),
            (["pi", path, "--kan", "Z2,4", "--n", "1"], "K(A, 4) needs n <= the truncation 3"),
            # a carrier above globe.MAX_CELLS is refused before it is built
            (["pi", path, "--discrete", "1000000000", "--n", "1"],
             "a Discrete model truncated at 3 has 4000000000 cells, more than the 1000000 "
             "supported")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and words in err, (argv, err)
    code, _, err = run(capsys, "pi", path, "--kan", "Z3", "--n", "2")
    assert code == 2 and "GROUP,N" in err
    code, _, err = run(capsys, "pi", path, "--kg1", "Z9x", "--n", "1")
    assert code == 2 and err == "error: unknown group name 'Z9x'\n"
    # looping reaches a fixed point, so a large n neither recurses nor loops long
    code, out, _ = run(capsys, "gpd-pi", gpath, "--n", "5000")
    assert code == 0 and "pi_5000 = Z1" in out


def test_n_beyond_the_truncation_names_the_allowed_range(tmp_path, capsys):
    """`pi` and `divide` check n against the truncation before anything
    else, so an n too large or too small is named as such."""
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "4", "--out", path)
    low = str(tmp_path / "low.tower")
    with open(low, "w") as fh:
        fh.write("dim 0\n")
    cells = ["--i", "0", "--gamma", "0", "--u", "0", "--v", "0"]
    for argv, message in (
            (["pi", path, "--kg1", "Z2", "--n", "9"],
             "pi_n at n = 9 is out of range: truncation 4 allows 0 <= n <= 3"),
            (["pi", path, "--kg1", "Z2", "--n", "4", "--base", "7"],
             "pi_n at n = 4 is out of range: truncation 4 allows 0 <= n <= 3"),
            (["pi", path, "--kg1", "Z2", "--n", "-1"],
             "pi_n at n = -1 is out of range: truncation 4 allows 0 <= n <= 3"),
            (["pi", low, "--discrete", "2", "--n", "0"],
             "pi_n at n = 0 is out of range: truncation 0 allows no n"),
            (["divide", path, "--kan", "Z2,2", "--n", "5"] + cells,
             "division at n = 5 is out of range: truncation 4 allows 2 <= n <= 3"),
            (["divide", path, "--kan", "Z2,2", "--n", "4"] + cells,
             "division at n = 4 is out of range: truncation 4 allows 2 <= n <= 3"),
            (["divide", path, "--kan", "Z2,2", "--n", "1"] + cells,
             "division at n = 1 is out of range: truncation 4 allows 2 <= n <= 3"),
            (["divide", path, "--kan", "Z2,3", "--n", "3", "--i", "2", "--gamma", "0",
              "--u", "0", "--v", "0"], "division needs 0 <= i < n-1")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: %s\n" % message), argv
    # the top of the range still answers
    code, out, _ = run(capsys, "pi", path, "--kg1", "Z2", "--n", "3")
    assert code == 0 and out == "pi_3 = Z1 (order 1, abelian)\n"


def test_exactly_one_model_source(tmp_path, capsys):
    from globkit import groups as G, model as M
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    tower, bundle = C.stdlib(3)
    mpath = str(tmp_path / "z3.json")
    with open(mpath, "w") as fh:
        json.dump(M.model_to_json(M.build_strict(M.KG1(G.cyclic(3)), tower, bundle)), fh)
    code, out, _ = run(capsys, "pi", path, mpath, "--n", "1")
    assert code == 0 and out.startswith("pi_1 = Z3")
    for argv in (["pi", path, mpath, "--kg1", "Z2", "--n", "1"],
                 ["pi", path, "--kg1", "Z2", "--kan", "Z2,2", "--n", "1"],
                 ["model-check", path, "--discrete", "2", "--xmod", mpath],
                 ["divide", path, mpath, "--kan", "Z2,2", "--n", "2", "--i", "0",
                  "--gamma", "1", "--u", "0", "--v", "0"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "not allowed with argument" in err, argv
    code, _, err = run(capsys, "pi", path, "--n", "1")
    assert code == 3 and "no model given" in err
    # a side of a morphism file names one model too
    wpath = str(tmp_path / "m.json")
    for source, words in (({"kg1": "Z2", "kan": ["Z2", 2]},
                           "source gives 2 model specs (kg1, kan); give one"),
                          ({"group": "Z2"}, "unknown model spec")):
        with open(wpath, "w") as fh:
            json.dump({"source": source, "target": {"kg1": "Z2"}, "map": [[0], [0, 1]]}, fh)
        code, out, err = run(capsys, "weq", path, wpath)
        assert code == 2 and out == "" and words in err, (source, err)


def test_fundamental_and_gpd_pi_verbs(tmp_path, capsys):
    from globkit import gpd as P
    from globkit import groups as G
    X = P.one_object(G.cyclic(3))
    gpath = str(tmp_path / "z3.json")
    with open(gpath, "w") as fh:
        json.dump(P.groupoid_to_json(X), fh)
    code, out, _ = run(capsys, "fundamental", gpath, "--dim", "3")
    assert code == 0
    assert "pi_1 at object 0 = Z3" in out
    assert "pi_n = 0 for 2 <= n <= 2" in out
    # at truncation 2 no pi_n above pi_1 is read, so no range is printed
    code, out, _ = run(capsys, "fundamental", gpath, "--dim", "2")
    assert code == 0
    assert out == ("pi_0 = 1\npi_1 at object 0 = Z3\n"
                   "comparison with the groupoid-side pipeline: agree\n")
    code, out, _ = run(capsys, "gpd-pi", gpath, "--x", "0", "--n", "1")
    assert code == 0 and "pi_1 = Z3" in out
    code, out, _ = run(capsys, "gpd-pi", gpath, "--x", "0", "--n", "2")
    assert code == 0 and "pi_2 = Z1" in out


def test_fundamental_check_verb_and_the_fiber_product_bound(tmp_path, capsys):
    from globkit import gpd as P
    from globkit import groups as G
    gpath = str(tmp_path / "g.json")
    with open(gpath, "w") as fh:
        json.dump(P.groupoid_to_json(P.one_object(G.cyclic(3))), fh)
    code, out, _ = run(capsys, "fundamental", gpath, "--dim", "3", "--check")
    assert code == 0 and "pi_1 at object 0 = Z3" in out
    # checking the fundamental model of Z200 at truncation 4 needs the 8 * 10^6
    # composable triples of loops: refused before any of them is built
    with open(gpath, "w") as fh:
        json.dump(P.groupoid_to_json(P.one_object(G.cyclic(200))), fh)
    start = time.perf_counter()
    code, out, err = run(capsys, "fundamental", gpath, "--dim", "4", "--check")
    assert code == 1 and out == "", err
    assert err == ("error: the fiber product over D1 +0 D1 +0 D1 has 8000000 elements, "
                   "more than the 1000000 supported\n")
    assert time.perf_counter() - start < 10.0


def test_divide_verb(tmp_path, capsys):
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    code, out, _ = run(capsys, "divide", path, "--kan", "Z2,2",
                       "--n", "2", "--i", "0", "--gamma", "1", "--u", "0", "--v", "0")
    assert code == 0
    assert "identity on homotopy classes" in out


def test_user_tower_with_inferred_gluing(tmp_path, capsys):
    script = "\n".join([
        "dim 3",
        "# a user tower: composition, unit, and a right-unit-style lifting",
        "lift comp1_0 : D1 -> D1 +0 D1 ; src = eps2 * s1 ; tgt = eps1 * t1",
        "lift unit0 : D1 -> D0 ; src = id ; tgt = id",
        "lift squash : D2 -> D1 ; src = [id ; s1 * unit0] * comp1_0 ; tgt = id",
        "",
    ])
    path = str(tmp_path / "user.tower")
    with open(path, "w") as fh:
        fh.write(script)
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert "3 generators" in out
    code, out, _ = run(capsys, "normalize", path, "--term", "squash * s2")
    assert code == 0
    # the boundary is the declared pairing, printed with its gluing dimension
    assert out.strip() == "[id ;0 s1 * unit0] * comp1_0"
    # and the model layer accepts the user tower with the builtin fillers
    code, out, _ = run(capsys, "pi", path, "--kg1", "Z3", "--n", "1")
    assert code == 1  # no inverse generators: the bundle is incomplete
    tower = dsl.parse_tower(script)
    assert tower["squash"].level == 2


def test_tuple_gluing_failure_names_the_lowest_differing_dimension(tmp_path, capsys):
    # eps1's source 1-face and eps2's target 1-face differ already at their
    # source 0-faces, so the failure is reported at dimension 0
    path = str(tmp_path / "bad.tower")
    with open(path, "w") as fh:
        fh.write("dim 3\nlift x : D2 -> D2 +0 D2 ; src = [eps1 ;1 eps2] ; tgt = eps1\n")
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert "bad tuple: matching condition fails at gluing 0, dimension 0" in err


def test_missing_file_is_exit_3(capsys):
    code, _, err = run(capsys, "check", "no-such-file.tower")
    assert code == 3


def test_malformed_scripts_exit_2_with_position(tmp_path, capsys):
    bad = "dim 3\nlift foo : D1 -> D1 +0 D1 ; src = eps2 * s1 tgt = eps1 * t1\n"
    path = str(tmp_path / "bad.tower")
    with open(path, "w") as fh:
        fh.write(bad)
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert re.search(r"line \d+, column \d+", err)
    # a second `dim` line is refused; a `dim` past the largest dimension
    # fails the check at its line
    for text, want, message in (
            ("dim 3\ndim 4\n", 2, "line 2, column 1: dim may be given only once"),
            ("# big\ndim 65\n", 1,
             "line 2: truncation 65 exceeds the largest supported dimension 64")):
        with open(path, "w") as fh:
            fh.write(text)
        code, _, err = run(capsys, "check", path)
        assert (code, err) == (want, "error: %s: %s\n" % (path, message))


def _mutate(rng, text):
    """A near-miss: delete, duplicate, or insert a junk token."""
    tokens = text.split(" ")
    kind = rng.randrange(4)
    pos = rng.randrange(len(tokens))
    if kind == 0:
        del tokens[pos]
    elif kind == 1:
        tokens.insert(pos, rng.choice(["%%", "]", "(", "->", ";;", "D", "+x"]))
    elif kind == 2:
        tokens.insert(pos, tokens[pos])
    else:
        tokens[pos] = rng.choice(["?", "lift", ":", "*", "[", "dim", "eps0"])
    return " ".join(tokens)


def test_token_stream_and_parse_error_positions_are_unchanged():
    """The tokenizer against the one it replaced, on a long script, on the
    edge cases and every malformed script below and on their prefixes; the
    parser's one scan against the tokenizer; and the positions the parser
    reports on the malformed scripts."""
    def tokens(tokenize, text):
        try:
            return [(t.kind, t.value, t.line, t.col) for t in tokenize(text)]
        except dsl.ParseError as e:
            return (e.line, e.col, str(e))

    def scanned(text):
        p = dsl._Parser(text)
        return list(zip(p.kinds, p.values))

    edges = [
        "", "# only a comment", "# only a comment\n",
        "dim 3 \t", "dim 3 \t\n", "dim 3\n\t ",          # trailing blanks
        "lift x : D1 -> D1 ; src = s1", "lift x : D1 - > D1", "dim 3 -",
        "dim 2\r\n", "dim 3\nlift \u00e9",             # `\r`, a non-ASCII letter
    ]
    for text in edges:
        assert tokens(dsl.tokenize, text) == tokens(old_tokenize, text), text
    # a digit is ASCII: ARABIC-INDIC DIGITs THREE and ZERO start no token;
    # the tokenizer it replaced read them as ints, so they are not compared
    digits = {"dim \u0663\n": "line 1, column 5: unexpected character '\u0663'",
              "dim 3\nlift x : D1 -> D1 +\u0660 D1":
                  "line 2, column 20: unexpected character '\u0660'"}
    for text, message in digits.items():
        assert tokens(dsl.tokenize, text)[2] == message
        with pytest.raises(dsl.ParseError) as exc:
            dsl.parse_tower(text)
        assert str(exc.value) == message

    malformed = {
        "dim 3\nlift foo : D1 -> D1 +0 D1 ; src = eps2 * s1 tgt = eps1 * t1\n":
            "line 2, column 45: expected ;, found 'tgt'",
        "dim 3\n  lift x : D1 -> D1 ; src = s1 @ t1\n":
            "line 2, column 32: unexpected character '@'",
        "dim 3\t# a comment\n\tlift x : D1 -> D0 ; src = id ; tgt = id ;\n":
            "line 2, column 42: trailing input ';'",
        "dim 3\nlift x : D1 -> D1 +0 D1 ; src = eps2 * s1 ; tgt =   ":
            "line 2, column 53: expected a term, found 'eof'",
        "dim 2\r\n": "line 1, column 6: unexpected character '\\r'",
        "dim 3\n\n   -": "line 3, column 4: unexpected character '-'",
        "# header\n  dim 3 4\n": "line 2, column 9: trailing input '4'",
        "dim 3\nlift x : D2 -> D2 +0 D2 ; src = [eps1 ;1 eps2] ; tgt = eps1\n":
            "line 2, column 33: bad tuple: matching condition fails at gluing 0, dimension 0",
    }
    long = dsl.emit_tower(C.stdlib(12)[0])
    assert tokens(dsl.tokenize, long) == tokens(old_tokenize, long)
    assert len(tokens(dsl.tokenize, long)) > 8000
    for text in [long, "dim 3 # a comment\n# another\n"] + edges + list(digits):
        stream = tokens(dsl.tokenize, text)
        if isinstance(stream, list):
            assert scanned(text) == [t[:2] for t in stream], text
        else:
            with pytest.raises(dsl.ParseError, match=re.escape(stream[2])):
                dsl._Parser(text)
    for text, message in malformed.items():
        for end in range(len(text) + 1):
            assert tokens(dsl.tokenize, text[:end]) == tokens(old_tokenize, text[:end])
        with pytest.raises(dsl.ParseError) as exc:
            dsl.parse_tower(text)
        assert str(exc.value) == message


def _outcome(parse, *args):
    """What a parse gives: the emitted script of a tower, or the term or
    table; or the exception's class, message, line and column."""
    try:
        out = parse(*args)
    except Exception as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)
    return dsl.emit_tower(out) if isinstance(out, C.Tower) else out


def test_parser_agrees_with_the_one_it_replaced():
    """`parse_tower`, `parse_term` and `parse_table` against the parser
    whose every token carried its position: the same tower (by its emitted
    script), term or table, or the same exception, message and position,
    on the stdlib scripts, near-misses of stdlib(4)'s, printed normal forms
    and every small table.  The two `dim` lines it now refuses differ."""
    towers = [C.stdlib(d)[0] for d in range(2, 13)]  # alive: their terms stay interned
    scripts = [dsl.emit_tower(tower) for tower in towers]
    rng = random.Random(19)
    near = [_mutate(rng, scripts[2]) for _ in range(1000)]
    refused = 0
    for text in scripts + near:
        new = _outcome(dsl.parse_tower, text)
        assert new == _outcome(old_parse_tower, text), text
        refused += not isinstance(new, str)
    assert refused > 800
    for text in scripts[:3]:
        assert _outcome(dsl.parse_tower, text, 3) == _outcome(old_parse_tower, text, 3)

    tower = C.stdlib(6)[0]
    rng = random.Random(23)
    for _ in range(300):
        nf = C.normalize(R.random_raw(tower, rng, budget=8))
        text = dsl.term_str(nf)
        new = _outcome(dsl.parse_term, text, tower, nf.target)
        assert new is nf
        assert new == _outcome(old_parse_term, text, tower, nf.target), text
    for table in all_tables(3, 3):
        for text in (str(table), str(table) + " +", str(table).replace("+", "-")):
            assert _outcome(dsl.parse_table, text) == _outcome(old_parse_table, text), text

    # a second `dim` line was taken silently, and a `dim` past the largest
    # dimension escaped as a bare TermError with no line
    assert _outcome(old_parse_tower, "dim 3\ndim 4\n") == "dim 4\n"
    assert _outcome(dsl.parse_tower, "dim 3\ndim 4\n") == (
        dsl.ParseError, "line 2, column 1: dim may be given only once", 2, 1)
    message = "truncation 65 exceeds the largest supported dimension 64"
    assert _outcome(old_parse_tower, "dim 65\n") == (C.TermError, message, None, None)
    assert _outcome(dsl.parse_tower, "dim 65\n") == (dsl.CheckError, "line 1: " + message, 1, None)
    assert _outcome(dsl.parse_tower, "# big\ndim 65\n", 4) == "dim 4\n"


def test_stdlib_names_of_another_shape_are_not_structural(tmp_path, capsys):
    """A script may call any generator `comp1_0` or `unit9`; the model verbs
    take only the stdlib shapes as composition, unit and inverse."""
    path = tmp_path / "t.tower"
    for lift in ("lift comp1_0 : D1 -> D1 ; src = s1 ; tgt = t1",
                 "lift unit9 : D1 -> D1 ; src = s1 ; tgt = s1"):
        path.write_text("dim 3\n%s\n" % lift)
        code, _, err = run(capsys, "pi", str(path), "--kg1", "Z2", "--n", "1")
        assert code == 1 and "no composition generator at (1, 0)" in err, (lift, err)


def test_fuzzed_near_misses(tmp_path, capsys):
    tower, _ = C.stdlib(3)
    good = dsl.emit_tower(tower)
    rng = random.Random(0)
    path = str(tmp_path / "fuzz.tower")
    rejected = 0
    tried = 0
    while tried < 200:
        text = _mutate(rng, good)
        if text == good:
            continue
        tried += 1
        with open(path, "w") as fh:
            fh.write(text)
        code = cli.run(["check", path])
        out = capsys.readouterr()
        if code == 0:
            # a benign mutation that still parses to a valid tower must
            # reconstruct a well-formed script; anything else is a bug
            dsl.parse_tower(text)
            continue
        assert code in (1, 2), (code, text[:80])
        rejected += 1
        if code == 2:
            assert re.search(r"line \d+, column \d+", out.err), text[:120]
    assert rejected >= 150


_JUNK = [None, -1, 0, 1, 2, 7, 10 ** 9, 1.5, "x", "", [], {}, [0], [[0]], True, "Z2", "S7"]


def _mutate_json(rng, data):
    """A near-miss of a JSON input: from the top level, pick a random key or
    element and, while it is a non-empty list or object, step into it with
    probability 0.6; the value reached is deleted (probability 0.3) or
    replaced by a junk value."""
    data = json.loads(json.dumps(data))
    node = data
    while True:
        key = rng.choice(sorted(node) if isinstance(node, dict) else range(len(node)))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and rng.random() < 0.6):
            break
        node = child
    if rng.random() < 0.3:
        del node[key]
    else:
        node[key] = json.loads(json.dumps(rng.choice(_JUNK)))
    return data


def test_fuzzed_input_files_and_numeric_flags(tmp_path, capsys):
    """Near-miss model, morphism, groupoid and crossed-module files, and
    numeric flags out of range, end in exit 1, 2 or 3 with a message (for
    model-check, possibly violations on stdout) or, when the change is
    benign, in exit 0; never in an exception."""
    from globkit import gpd as P, groups as G, model as M
    path = str(tmp_path / "std.tower")
    run(capsys, "stdlib", "--dim", "3", "--out", path)
    tower, bundle = C.stdlib(3)
    z2 = G.cyclic(2)
    xmod = {"base": "Z2", "fiber": "Z2", "boundary": [0, 0], "action": [[0, 1], [0, 1]]}
    kinds = [
        ("model.json", M.model_to_json(M.build_strict(M.KG1(z2), tower, bundle)),
         lambda f: ["model-check", path, f]),
        ("morphism.json", {"source": {"xmod": xmod}, "target": {"kg1": "Z2"},
                           "map": [[0], [0, 1], [0, 0, 1, 1]]},
         lambda f: ["weq", path, f]),
        ("groupoid.json", P.groupoid_to_json(P.codiscrete(2)),
         lambda f: ["gpd-pi", f, "--n", "1"]),
        ("groupoid.json", P.groupoid_to_json(P.one_object(G.cyclic(3))),
         lambda f: ["fundamental", f, "--dim", "3"]),
        ("xmod.json", xmod, lambda f: ["pi", path, "--xmod", f, "--n", "2"]),
    ]
    # weq over towers too low for any pi-groupoid: at dimension 1 the four
    # conditions are the bijection on pi_0, at dimension 0 pi_0 is refused
    for dim in (0, 1):
        low = str(tmp_path / ("dim%d.tower" % dim))
        with open(low, "w") as fh:
            fh.write("dim %d\n" % dim)
        kinds.append(("morphism.json", {"source": {"discrete": 2}, "target": {"discrete": 1},
                                        "map": [[0, 0]]},
                      lambda f, low=low: ["weq", low, f]))
    rng = random.Random(0)
    runs = []
    for fname, good, argv in kinds:
        for _ in range(40):
            # one file per run: the runs start after every file is written
            fpath = str(tmp_path / ("%d-%s" % (len(runs), fname)))
            with open(fpath, "w") as fh:
                json.dump(_mutate_json(rng, good), fh)
            runs.append(argv(fpath))
    gpath = str(tmp_path / "g.json")
    with open(gpath, "w") as fh:
        json.dump(P.groupoid_to_json(P.one_object(G.cyclic(3))), fh)
    numbers = [-1, 0, 1, 2, 7, 10 ** 9]
    flags = [
        lambda k: ["pi", path, "--kg1", "Z2", "--n", k(), "--base", k()],
        lambda k: ["pi", path, "--kan", "Z2,%s" % k(), "--n", k()],
        lambda k: ["pi", path, "--discrete", k(), "--n", k(), "--base", k()],
        lambda k: ["gpd-pi", gpath, "--n", k(), "--x", k()],
        lambda k: ["divide", path, "--kan", "Z2,2", "--n", k(), "--i", k(),
                   "--gamma", k(), "--u", k(), "--v", k()],
        lambda k: ["stdlib", "--dim", k()],
        lambda k: ["check", path, "--dim", k()],
        lambda k: ["fundamental", gpath, "--dim", k()],
        lambda k: ["normalize", path, "--term", "id", "--target", "D" + k()],
    ]
    for argv in flags:
        for _ in range(8):
            runs.append(argv(lambda: str(rng.choice(numbers))))
    # a dimension above globe.MAX_DIM is refused before anything sized by it
    # is allocated: as a truncation with exit 1, inside a table with exit 2
    big = str(tmp_path / "big.tower")
    with open(big, "w") as fh:
        fh.write("dim 1000000000\n")
    huge = str(10 ** 9)
    for argv, want in ((["stdlib", "--dim", huge], 1), (["check", path, "--dim", huge], 1),
                       (["fundamental", gpath, "--dim", huge], 1), (["check", big], 1),
                       (["pi", big, "--kg1", "Z2", "--n", "1"], 1),
                       (["normalize", path, "--term", "id", "--target", "D" + huge], 2),
                       (["normalize", path, "--term", "s" + huge], 2)):
        code, _, err = run(capsys, *argv)
        assert code == want and "largest supported dimension 64" in err, (argv, code, err)
    failed = 0
    for argv in runs:
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3), (argv, code)
        if code == 0:
            assert out and not err, argv
            continue
        failed += 1
        assert "error: " in err or \
            (argv[0] == "model-check" and code == 1 and out.startswith("violation")), \
            (argv, code, out, err)
    assert failed >= len(runs) // 2, failed
