"""Command-line front end: tower scripts, models, groupoids, reports.

Exit codes: 0 success, 1 check/assertion failure, 2 parse or usage error,
3 file error or no model given.  `run` is the one table from errors to exit
codes: a library error (`globe.GlobkitError`) exits with its class's
`exit_code`, 2 for `dsl.ParseError` and 1 for every other, and `OSError`
with 3; a `CliError` carries its own code.

A verb imports the library modules it runs when it runs, so a tower verb
never loads the model, homotopy or groupoid layers.
"""

from __future__ import annotations

import argparse
import json
import sys

from .globe import GlobeError, GlobkitError


class CliError(GlobkitError):
    def __init__(self, code, msg):
        self.exit_code = code
        super().__init__(msg)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(3, "cannot read %s: %s" % (path, e))


def _read_json(path):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as e:
        raise CliError(3, "bad JSON in %s: %s" % (path, e))


def _load_tower(path, trunc=None):
    from . import dsl

    text = _read(path)
    try:
        return dsl.parse_tower(text, trunc)
    except dsl.ParseError as e:
        raise CliError(2, "%s: %s" % (path, e))
    except dsl.CheckError as e:
        raise CliError(1, "%s: %s" % (path, e))


def _group_by_name(name):
    from . import groups

    try:
        return groups.by_name(name)
    except KeyError as e:
        raise CliError(2, e.args[0])


def _xmod_from_json(data):
    from . import groups
    from . import model as mdl

    base, fiber, boundary, action = (
        mdl._json_field(data, key, kind, "the top level", file="crossed module")
        for key, kind in
        (("base", str), ("fiber", str), ("boundary", list), ("action", list)))
    base, fiber = _group_by_name(base), _group_by_name(fiber)

    def indices(row, length, order):
        return isinstance(row, list) and len(row) == length and all(
            mdl._is_index(c, order) for c in row)

    if not (indices(boundary, fiber.order, base.order) and len(action) == base.order
            and all(indices(r, fiber.order, fiber.order) for r in action)):
        raise CliError(1, "crossed module: 'boundary' needs %d base elements and "
                          "'action' %d rows of %d fiber elements"
                       % (fiber.order, base.order, fiber.order))
    return groups.CrossedModule(base, fiber, tuple(boundary),
                                tuple(tuple(r) for r in action))


def _build_model(kind, value, tower, bundle):
    """The model a spec names, whether it comes from the model flags or from
    a side of a morphism file: `kg1` a group name, `kan` a (group name, n)
    pair, `discrete` a point count, `xmod` crossed-module JSON data, `file`
    the path of a model file."""
    from . import model as mdl

    if kind == "file":
        return mdl.model_from_json(_read_json(value), tower)
    if kind == "kg1":
        spec = mdl.KG1(_group_by_name(value))
    elif kind == "kan":
        spec = mdl.KAn(_group_by_name(value[0]), value[1])
    elif kind == "discrete":
        spec = mdl.Discrete(value)
    else:
        spec = mdl.XMod(_xmod_from_json(value))
    return mdl.build_strict(spec, tower, bundle)


def _model_from_flags(args, tower, bundle):
    """The model of the verb's model flags or model file; argparse lets at
    most one of them through."""
    given = [(kind, value) for kind, value in
             (("kg1", args.kg1), ("kan", args.kan), ("discrete", args.discrete),
              ("xmod", args.xmod), ("file", args.model)) if value is not None]
    if not given:
        raise CliError(3, "no model given: pass a model file or a builtin flag")
    kind, value = given[0]
    if kind == "kan":
        name, _, n = value.rpartition(",")
        try:
            value = name, int(n)
        except ValueError:
            raise CliError(2, "bad --kan %r: expected GROUP,N" % args.kan)
    elif kind == "xmod":
        value = _read_json(value)
    return _build_model(kind, value, tower, bundle)


def _parse_term_arg(tower, text, target_text=None):
    from . import dsl

    if target_text:
        try:
            target = dsl.parse_table(target_text)
        except dsl.ParseError as e:
            raise CliError(2, "bad table %r: %s" % (target_text, e))
    else:
        target = _infer_target(tower, text)
    return dsl.parse_term(text, tower, target)


def _infer_target(tower, text):
    from . import dsl

    try:
        target = dsl.implied_target(text, tower)
    except GlobeError as e:
        raise CliError(2, "bad term %r: %s" % (text, e))
    if target is None:
        raise CliError(2, "cannot infer the term's target; pass --target")
    return target


def _emit(args, report, text):
    if args.format == "json":
        print(json.dumps(report, indent=2, default=str))
    else:
        print(text)


def _emit_group(args, grp):
    """Report pi_n (n = args.n) as the group grp."""
    from . import groups

    name, abelian = groups.recognize(grp), grp.is_abelian()
    rep = {"n": args.n, "group": {"name": name, "order": grp.order, "abelian": abelian,
                                  "table": [list(r) for r in grp.mult]}}
    _emit(args, rep, "pi_%d = %s (order %d, %s)" % (
        args.n, name, grp.order, "abelian" if abelian else "nonabelian"))


# ---------------------------------------------------------------------------
# Verbs

def cmd_check(args):
    tower = _load_tower(args.tower, args.dim)
    levels = [g.level for g in tower.gens()]
    rep = {"generators": len(tower), "levels": [min(levels), max(levels)] if levels else []}
    text = "%d generators, levels %d-%d, all admissible" % (
        len(tower), min(levels, default=0), max(levels, default=0))
    _emit(args, rep, text)
    return 0


def cmd_stdlib(args):
    from . import coherator as coh
    from . import dsl

    tower, _ = coh.stdlib(args.dim if args.dim is not None else 4)
    text = dsl.emit_tower(tower)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(args, {"generators": len(tower), "out": args.out},
              "wrote %d generators to %s" % (len(tower), args.out))
    elif args.format == "json":
        print(json.dumps({"generators": len(tower), "script": text}, indent=2))
    else:
        print(text, end="")
    return 0


def cmd_normalize(args):
    from . import dsl

    tower = _load_tower(args.tower)
    # the parser elaborates through `compose`: a parsed term is its normal form
    nf = dsl.term_str(_parse_term_arg(tower, args.term, args.target))
    _emit(args, {"normal_form": nf}, nf)
    return 0


def cmd_admissible(args):
    from . import coherator as coh

    tower = _load_tower(args.tower)
    f = _parse_term_arg(tower, args.src, args.target)
    g = _parse_term_arg(tower, args.tgt, args.target)
    verdict = coh.admissible(f, g)
    rep = {"admissible": verdict.ok, "reason": verdict.reason}
    if verdict.ok:
        _emit(args, rep, "admissible")
        return 0
    _emit(args, rep, "not admissible: %s" % verdict.reason)
    return 1


def cmd_model_check(args):
    from . import coherator as coh

    tower = _load_tower(args.tower)
    model = _model_from_flags(args, tower, coh.bundle_of(tower))
    bad = model.check()
    if bad:
        lines = ["violation at %s on input %s (%s: expected %s, got %s)" % v
                 for v in bad[:10]]
        _emit(args, {"violations": [list(map(str, v)) for v in bad]}, "\n".join(lines))
        return 1
    _emit(args, {"violations": []}, "model checks clean (%d generators)" % len(tower))
    return 0


def cmd_pi(args):
    from . import coherator as coh
    from . import homotopy as hmt

    tower = _load_tower(args.tower)
    bundle = coh.bundle_of(tower)
    model = _model_from_flags(args, tower, bundle)
    pi = hmt.pi_n(model, bundle, args.n, args.base)
    if args.n == 0:
        classes = pi[1]
        rep = {"pi0": len(classes), "classes": [list(c) for c in classes]}
        _emit(args, rep, "pi_0 = %d classes" % len(classes))
        return 0
    _emit_group(args, pi[0])
    return 0


def _morphism_field(obj, key, kind, where):
    from . import model as mdl

    return mdl._json_field(obj, key, kind, where, file="morphism file")


# the model specs a side of a morphism file may give, with their JSON types;
# a `kan` spec is a [group, n] list
_SIDE_SPECS = {"kg1": str, "kan": list, "discrete": int, "xmod": dict, "file": str}


def _morphism_side(data, side):
    """The (kind, value) model spec of one side of a morphism file."""
    from . import model as mdl

    spec = _morphism_field(data, side, dict, "the top level")
    kinds = [kind for kind in _SIDE_SPECS if kind in spec]
    if not kinds:
        raise CliError(2, "morphism file: unknown model spec %s" % spec)
    if len(kinds) > 1:
        raise CliError(2, "morphism file: %s gives %d model specs (%s); give one"
                       % (side, len(kinds), ", ".join(kinds)))
    kind = kinds[0]
    if kind == "kan":
        kan = spec["kan"]
        if not (isinstance(kan, list) and len(kan) == 2 and isinstance(kan[0], str)
                and mdl._is_int(kan[1])):
            raise CliError(1, "morphism file: %s 'kan' must be [group, n]" % side)
        return kind, tuple(kan)
    return kind, _morphism_field(spec, kind, _SIDE_SPECS[kind], side)


def cmd_weq(args):
    from . import coherator as coh
    from . import homotopy as hmt
    from . import model as mdl

    tower = _load_tower(args.tower)
    bundle = coh.bundle_of(tower)
    data = _read_json(args.morphism)
    src = _build_model(*_morphism_side(data, "source"), tower, bundle)
    tgt = _build_model(*_morphism_side(data, "target"), tower, bundle)
    rows = _morphism_field(data, "map", list, "the top level")
    if not all(isinstance(r, list) and all(mdl._is_int(c) for c in r) for r in rows):
        raise CliError(1, "morphism file: 'map' must be a list of integer lists, "
                          "one per dimension")
    morph = mdl.morphism_from_dims(src, tgt, [tuple(r) for r in rows])
    report = hmt.weak_equiv(morph, bundle)
    rep = {"conditions": [report.cond1, report.cond2, report.cond3, report.cond4],
           "weak_equivalence": report.is_weak_equivalence}
    text = "\n".join([
        "condition 1 (pi_0 + pi_n at objects):   %s" % report.cond1,
        "condition 2 (pi_n at all cells):        %s" % report.cond2,
        "condition 3 (Pi_1 equivalence + bijections): %s" % report.cond3,
        "condition 4 (full + surjections):       %s" % report.cond4,
        "weak equivalence: %s" % report.is_weak_equivalence,
    ])
    _emit(args, rep, text)
    return 0


def cmd_fundamental(args):
    from . import coherator as coh
    from . import gpd

    X = gpd.groupoid_from_json(_read_json(args.groupoid))
    tower, bundle = coh.stdlib(args.dim if args.dim is not None else 4)
    report = gpd.compare(X, tower, bundle, check=args.check)
    rep = {
        "pi0": report.pi0_model,
        "pi1": {str(x): names[0] for x, names in report.pi1.items()},
        "higher_trivial": report.higher_trivial,
    }
    lines = ["pi_0 = %d" % report.pi0_model]
    for x, (a, _) in sorted(report.pi1.items()):
        lines.append("pi_1 at object %d = %s" % (x, a))
    if tower.trunc > 2:   # pi_n is read for n below the truncation
        lines.append("pi_n = 0 for 2 <= n <= %d" % (tower.trunc - 1))
    lines.append("comparison with the groupoid-side pipeline: agree")
    _emit(args, rep, "\n".join(lines))
    return 0


def cmd_gpd_pi(args):
    from . import gpd

    X = gpd.groupoid_from_json(_read_json(args.groupoid))
    gpd.check_object(X, args.x)
    if args.n == 0:
        n = gpd.pi0_gpd(X)
        _emit(args, {"pi0": n}, "pi_0 = %d" % n)
        return 0
    _emit_group(args, gpd.quillen_pi_n(X, args.x, args.n))
    return 0


def cmd_divide(args):
    from . import coherator as coh
    from . import homotopy as hmt

    tower = _load_tower(args.tower)
    bundle = coh.bundle_of(tower)
    model = _model_from_flags(args, tower, bundle)
    res = hmt.divide(model, bundle, args.n, args.i, args.gamma, args.u, args.v,
                     side=args.side)
    rep = {
        "forward": {str(k): v for k, v in res.forward.items()},
        "backward": {str(k): v for k, v in res.backward.items()},
        "classes_forward": {str(k): v for k, v in res.fwd_classes.items()},
        "verified": True,
    }
    lines = ["forward:  %s" % res.forward,
             "backward: %s" % res.backward,
             "both composites are the identity on homotopy classes"]
    _emit(args, rep, "\n".join(lines))
    return 0


def build_parser():
    # the global flags belong to each verb and follow it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    ap = argparse.ArgumentParser(prog="globkit",
                                 description="coherence towers, finite models, "
                                             "homotopy groups, groupoid comparison")
    sub = ap.add_subparsers(dest="verb", required=True, parser_class=lambda **kw:
                            argparse.ArgumentParser(parents=[common], **kw))

    def dim_flag(p):
        p.add_argument("--dim", type=int, default=None,
                       help="truncation override (defaults to the script's "
                            "dim statement, or 4 for generated towers)")

    p = sub.add_parser("check", help="replay and validate a tower script")
    p.add_argument("tower")
    dim_flag(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("stdlib", help="emit the standard tower")
    dim_flag(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_stdlib)

    p = sub.add_parser("normalize", help="normal form of a term")
    p.add_argument("tower")
    p.add_argument("--term", required=True)
    p.add_argument("--target")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("admissible", help="admissibility verdict for a pair")
    p.add_argument("tower")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--target")
    p.set_defaults(fn=cmd_admissible)

    def model_flags(p):
        # one model: a model file or one builtin flag
        one = p.add_mutually_exclusive_group()
        one.add_argument("model", nargs="?")
        one.add_argument("--kg1")
        one.add_argument("--kan")
        one.add_argument("--discrete", type=int)
        one.add_argument("--xmod")

    p = sub.add_parser("model-check", help="check a model of a tower")
    p.add_argument("tower")
    model_flags(p)
    p.set_defaults(fn=cmd_model_check)

    p = sub.add_parser("pi", help="homotopy group of a model")
    p.add_argument("tower")
    model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base", type=int, default=0)
    p.set_defaults(fn=cmd_pi)

    p = sub.add_parser("weq", help="four-condition weak equivalence report")
    p.add_argument("tower")
    p.add_argument("morphism")
    p.set_defaults(fn=cmd_weq)

    p = sub.add_parser("fundamental", help="fundamental model of a groupoid + comparison")
    p.add_argument("groupoid")
    dim_flag(p)
    p.add_argument("--check", action="store_true")
    p.set_defaults(fn=cmd_fundamental)

    p = sub.add_parser("gpd-pi", help="groupoid-side homotopy groups")
    p.add_argument("groupoid")
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_gpd_pi)

    p = sub.add_parser("divide", help="division construction with verification")
    p.add_argument("tower")
    model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.set_defaults(fn=cmd_divide)

    return ap


def run(argv):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except GlobkitError as e:
        print("error: %s" % e, file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
