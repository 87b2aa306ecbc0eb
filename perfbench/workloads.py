"""The in-process workloads: inputs from the seed, operations, and verdicts.

Each workload is a `setup(g)` that builds what its operations share and an
`ops(g, ctx, seed, pass_index)` generator of `Op`s.  `g` is a namespace of
globkit modules.  An op's `run` is the timed call into globkit; its
`verdict(result)` returns `(got, want)` and is evaluated outside the timed
region, with `want` taken from `oracles` or from a known verdict, never from
the layer under test.  Code in the generator body between two `yield`s (input
generation) is not timed either.

No input repeats within a pass: groups and groupoids are relabelled from
the seed, and random terms are drawn distinct.  Every pass runs in a fresh
interpreter, so no operation is timed against a cache a previous one of
the same input filled.
"""

import json
import os
from collections import namedtuple

from oracles import (
    components, isomorphic, kernel_mult, quotient_mult, relabel_functor_maps,
    relabel_groupoid, relabel_mult, rng_for, TRIVIAL,
)

Op = namedtuple("Op", "name run verdict")


def _inverse_map(mult):
    return [next(b for b in range(len(mult)) if mult[a][b] == 0)
            for a in range(len(mult))]


# ---------------------------------------------------------------------------
# strict-models: strict builders, check, homotopy groups, json, weq, divide

def strict_models_setup(g):
    tower, bundle = g.coherator.stdlib(4)
    return {"tower": tower, "bundle": bundle}


def strict_models_ops(g, ctx, seed, pass_index):
    G, M, H = g.groups, g.model, g.homotopy
    tower, bundle = ctx["tower"], ctx["bundle"]
    rng = rng_for(seed, pass_index, "strict-models")

    def relabelled(name):
        mult, sigma = relabel_mult(G.by_name(name).mult, rng)
        return G.Group(name, mult), sigma

    s3, _ = relabelled("S3")
    z8, _ = relabelled("Z8")
    q8, _ = relabelled("Q8")
    d4, _ = relabelled("D4")
    z4, sigma_z4 = relabelled("Z4")
    z2 = G.by_name("Z2")
    z4x, _ = relabelled("Z4")
    incl = G.inclusion_xmod(z4x)
    triv = G.trivial_xmod(z2, z2)
    one = TRIVIAL

    def xmod_pis(xm):
        image = {xm.boundary[a] for a in range(xm.agrp.order)}
        return [quotient_mult(xm.grp.mult, image),
                kernel_mult(xm.grp.mult, xm.agrp.mult, xm.boundary), one]

    specs = [
        ("KG1:S3", M.KG1(s3), [s3.mult, one, one]),
        ("KG1:Z8", M.KG1(z8), [z8.mult, one, one]),
        ("KG1:Q8", M.KG1(q8), [q8.mult, one, one]),
        ("KG1:D4", M.KG1(d4), [d4.mult, one, one]),
        ("KAn:Z4,2", M.KAn(z4, 2), [one, z4.mult, one]),
        ("KAn:Z2,2", M.KAn(z2, 2), [one, z2.mult, one]),
        ("Discrete:3", M.Discrete(3), [one, one, one]),
        ("XMod:incl(Z4)", M.XMod(incl), xmod_pis(incl)),
        ("XMod:triv(Z2,Z2)", M.XMod(triv), xmod_pis(triv)),
    ]
    models = {}

    def interpreted(m):
        return sum(1 for gen in tower.gens() if gen.name in m.interp), len(tower)

    def build(label, spec):
        def run():
            models[label] = M.build_strict(spec, tower, bundle, label=label)
            return models[label]
        return Op("build_strict " + label, run, interpreted)

    for label, spec, pis in specs:
        yield build(label, spec)
        yield Op("check " + label, lambda label=label: models[label].check(),
                 lambda bad: (len(bad), 0))
        for n in (1, 2, 3):
            want = pis[n - 1]
            yield Op("pi_%d %s" % (n, label),
                     lambda label=label, n=n: H.pi_n(models[label], bundle, n, 0)[0],
                     lambda grp, want=want: ((grp.order, isomorphic(grp.mult, want)),
                                             (len(want), True)))

    original = models["KG1:Q8"]

    def round_trip():
        text = json.dumps(M.model_to_json(original))
        return M.model_from_json(json.loads(text), tower)

    def same_model(m2):
        same = m2.carrier == original.carrier and all(
            m2.interp[gen.name] == original.interp_for(gen) for gen in tower.gens())
        return same, True

    yield Op("json round trip KG1:Q8", round_trip, same_model)

    # the morphisms of acceptance criterion 07, with their known verdicts
    z3, _ = relabelled("Z3")
    z4b, sigma_z4b = relabelled("Z4")
    yield build("KG1:Z3", M.KG1(z3))
    yield build("KG1:Z2", M.KG1(z2))
    yield build("KG1:Z4", M.KG1(z4b))
    yield build("Discrete:1", M.Discrete(1))
    neg = [0] * 4
    for a in range(4):
        neg[sigma_z4[a]] = sigma_z4[(-a) % 4]
    halve = [0] * 4
    for a in range(4):
        halve[sigma_z4b[a]] = a % 2
    cases = [
        ("identity S3", "KG1:S3", "KG1:S3", [(0,), tuple(range(6))], True),
        ("automorphism Z3", "KG1:Z3", "KG1:Z3", [(0,), tuple(_inverse_map(z3.mult))], True),
        ("doubling Z2->Z4", "KG1:Z2", "KG1:Z4", [(0,), (0, sigma_z4b[2])], False),
        ("reduction Z4->Z2", "KG1:Z4", "KG1:Z2", [(0,), tuple(halve)], False),
        ("collapse S3->point", "KG1:S3", "Discrete:1", [(0,), (0,) * 6], False),
        ("negation KAn(Z4,2)", "KAn:Z4,2", "KAn:Z4,2", [(0,), (0,), tuple(neg)], True),
    ]
    for name, src, tgt, dims, expected in cases:
        def run(src=src, tgt=tgt, dims=dims):
            morph = M.morphism_from_dims(models[src], models[tgt], dims)
            return H.weak_equiv(morph, bundle)
        yield Op("weak_equiv " + name, run,
                 lambda rep, expected=expected: ((rep.agree, rep.is_weak_equivalence),
                                                 (True, expected)))

    # division and base change as in acceptance criterion 06
    m22 = models["KAn:Z2,2"]
    for gamma in (0, 1):
        yield Op("divide KAn:Z2,2 gamma=%d" % gamma,
                 lambda gamma=gamma: H.divide(m22, bundle, 2, 0, gamma, 0, 0),
                 lambda res: (len(res.fwd_classes), 2))

    def bijective(out):
        iso, _, gx = out
        return (sorted(iso.values()) == list(range(gx.order)), gx.order), (True, 2)

    yield Op("base_change_iso KAn:Z2,2 u=0",
             lambda: H.base_change_iso(m22, bundle, 2, 0), bijective)
    mx = models["XMod:triv(Z2,Z2)"]
    gamma = 1 * 2 + 1  # a 2-cell with nontrivial boundary data
    u = mx.carrier.source(2, gamma)
    yield Op("divide XMod:triv(Z2,Z2) gamma=3",
             lambda u=u: H.divide(mx, bundle, 2, 0, gamma, u, u),
             lambda res: (len(res.fwd_classes), 2))
    for u in (0, 1):
        yield Op("base_change_iso XMod:triv(Z2,Z2) u=%d" % u,
                 lambda u=u: H.base_change_iso(mx, bundle, 2, u), bijective)


# ---------------------------------------------------------------------------
# groupoid-compare: the comparison pipeline over the corpus, weq of groupoids

def groupoid_compare_setup(g):
    tower, bundle = g.coherator.stdlib(4)
    interp = g.gpd.TowerGpdInterp(tower).interpret_all()
    return {"tower": tower, "bundle": bundle, "interp": interp}


def _pieces(name):
    """Connected pieces (objects, group name) of a corpus groupoid's name."""
    if name == "codiscrete3":
        return [(3, "Z1")]
    if name == "discrete3":
        return [(1, "Z1")] * 3
    out = []
    for part in name.split(":", 1)[1].split("+"):
        k, gname = part.split("x", 1)
        out.append((int(k), gname))
    return out


def groupoid_compare_ops(g, ctx, seed, pass_index):
    P, G, M, H = g.gpd, g.groups, g.model, g.homotopy
    tower, bundle, interp = ctx["tower"], ctx["bundle"], ctx["interp"]
    rng = rng_for(seed, pass_index, "groupoid-compare")

    def named(gname):
        return G.by_name(gname).name

    def expected(pieces, tau):
        pi1, x = {}, 0
        for k, gname in pieces:
            for _ in range(k):
                pi1[tau[x]] = (named(gname), named(gname))
                x += 1
        return len(pieces), pi1

    def compare_op(label, X, pieces, check=False):
        Y, tau, _ = relabel_groupoid(P, X, rng)
        n_pi0, pi1 = expected(pieces, tau)

        def verdict(rep):
            got = (rep.pi0_model, rep.pi0_gpd, components(Y.n_objects, Y.src, Y.tgt),
                   dict(rep.pi1), rep.higher_trivial, rep.ok())
            return got, (n_pi0, n_pi0, n_pi0, pi1, True, True)

        return Op(("compare --check " if check else "compare ") + label,
                  lambda: P.compare(Y, tower, bundle, interp, check=check), verdict)

    distinct = set()
    for name, X in P.corpus(max_objects=3, max_arrows=8):
        if X in distinct:  # discrete3 is also listed as three Z1 pieces
            continue
        distinct.add(X)
        yield compare_op(name, X, _pieces(name))
    yield compare_op("connected(2,Z3)", P.connected_groupoid(2, G.by_name("Z3")),
                     [(2, "Z3")])
    yield compare_op("connected(2,Z4)", P.connected_groupoid(2, G.by_name("Z4")),
                     [(2, "Z4")], check=True)

    # the functors of acceptance criterion 10, with their known verdicts
    c1, c2 = P.point(), P.codiscrete(2)
    d1, d2 = P.discrete(1), P.discrete(2)
    tz2 = P.connected_groupoid(2, G.by_name("Z2"))
    oz2, oz4 = P.one_object(G.by_name("Z2")), P.one_object(G.by_name("Z4"))
    cases = [
        ("collapse codiscrete(2)->point", c2, c1, (0, 0), (0,) * 4, True),
        ("quotient connected(2,Z2)->Z2", tz2, oz2, (0, 0),
         tuple(a % 2 for a in range(tz2.n_arrows)), True),
        ("swap discrete(2)", d2, d2, (1, 0), (1, 0), True),
        ("Z2->point", oz2, c1, (0,), (0, 0), False),
        ("discrete(2)->discrete(1)", d2, d1, (0, 0), (0, 0), False),
        ("Z2->Z4", oz2, oz4, (0,), (0, 2), False),
        ("point->discrete(2)", c1, d2, (0,), (0,), False),
    ]
    for name, src, tgt, obj_map, arr_map, equivalence in cases:
        rs = relabel_groupoid(P, src, rng)
        rt = rs if tgt is src else relabel_groupoid(P, tgt, rng)
        objs, arrs = relabel_functor_maps(obj_map, arr_map, rs, rt)
        P.GFunctor(rs[0], rt[0], objs, arrs).validate()

        def run(X=rs[0], Y=rt[0], objs=objs, arrs=arrs):
            mX = P.fundamental(X, tower, interp)
            mY = P.fundamental(Y, tower, interp)
            return H.weak_equiv(M.morphism_from_dims(mX, mY, [objs, arrs]), bundle)

        yield Op("weak_equiv " + name, run,
                 lambda rep, e=equivalence: ((rep.agree, rep.is_weak_equivalence),
                                             (True, e)))


# ---------------------------------------------------------------------------
# tower-scripts: stdlib, emit, parse, verify; normalization of random terms

def tower_scripts_setup(g):
    return {}


def find_function(g, name):
    """A globkit function by name, wherever in the package it lives.

    The benchmark must run unchanged on later commits, which may move the
    small-step engine to a module of its own.
    """
    for mod in g.modules.values():
        fn = getattr(mod, name, None)
        if callable(fn):
            return fn
    raise LookupError("globkit has no function %r" % name)


def tower_scripts_ops(g, ctx, seed, pass_index):
    C, D = g.coherator, g.dsl
    random_raw = find_function(g, "random_raw")
    reduce_steps = find_function(g, "reduce_steps")
    towers = {}
    for d in range(4, 13):
        out = {}

        def stdlib(d=d, out=out):
            out["tower"], out["bundle"] = C.stdlib(d)
            return out["tower"]

        yield Op("stdlib(%d)" % d, stdlib,
                 lambda tw, d=d: (len(tw), d * d + 10 * d - 11))
        def emit(out=out):
            out["text"] = D.emit_tower(out["tower"])
            return out["text"]

        yield Op("emit_tower(%d)" % d, emit,
                 lambda text, out=out: (text.count("\nlift "), len(out["tower"])))
        yield Op("parse_tower(%d)" % d, lambda out=out: D.parse_tower(out["text"]),
                 lambda tw, out=out: ((tw.names(), D.emit_tower(tw)),
                                      (out["tower"].names(), out["text"])))
        yield Op("verify_bundle(%d)" % d,
                 lambda out=out: C.verify_bundle(out["tower"], out["bundle"]),
                 lambda ok: (ok, True))
        towers[d] = out["tower"]

    rng = rng_for(seed, pass_index, "tower-scripts")
    terms, seen = [], set()
    while len(terms) < 300:
        raw = random_raw(towers[6], rng, budget=16)
        if raw not in seen:
            seen.add(raw)
            terms.append(raw)
    for i, raw in enumerate(terms):
        yield Op("normalize term %d" % i, lambda raw=raw: C.normalize(raw),
                 lambda nf, raw=raw: (nf, reduce_steps(raw)[0]))


# ---------------------------------------------------------------------------
# cli-cold: globkit verbs, each in a fresh interpreter

def _fundamental_text(group):
    return "\n".join(["pi_0 = 1",
                      "pi_1 at object 0 = %s" % group,
                      "pi_1 at object 1 = %s" % group,
                      "pi_n = 0 for 2 <= n <= 3",
                      "comparison with the groupoid-side pipeline: agree"])


def cli_cold_verbs(g, workdir, seed, pass_index):
    """Write the pass's input files into `workdir`; return the verbs to run.

    Each verb is (name, argv after `globkit`, expected stdout); all exit 0.
    The expected outputs are the ones README documents, or known verdicts.
    """
    P, G = g.gpd, g.groups
    rng = rng_for(seed, pass_index, "cli-cold")
    files = {"gz2a.json": (2, "Z2"), "gz4a.json": (2, "Z4"), "gz2b.json": (2, "Z2"),
             "gz4b.json": (2, "Z4")}
    for fname, (k, name) in files.items():
        X = relabel_groupoid(P, P.connected_groupoid(k, G.by_name(name)), rng)[0]
        with open(os.path.join(workdir, fname), "w") as fh:
            json.dump(P.groupoid_to_json(X), fh)
    with open(os.path.join(workdir, "morph.json"), "w") as fh:
        json.dump({"source": {"kg1": "S3"}, "target": {"discrete": 1},
                   "map": [[0], [0] * 6]}, fh)
    tw = "std4.tower"
    weq_text = "\n".join([
        "condition 1 (pi_0 + pi_n at objects):   False",
        "condition 2 (pi_n at all cells):        False",
        "condition 3 (Pi_1 equivalence + bijections): False",
        "condition 4 (full + surjections):       False",
        "weak equivalence: False"])
    divide_text = "\n".join([
        "forward:  {0: 1, 1: 0}", "backward: {0: 1, 1: 0}",
        "both composites are the identity on homotopy classes"])
    return [
        ("stdlib", ["stdlib", "--dim", "4", "--out", tw],
         "wrote 45 generators to %s" % tw),
        ("check", ["check", tw], "45 generators, levels 1-4, all admissible"),
        ("normalize", ["normalize", tw, "--term", "comp2_1 * s2 * s1"],
         "eps1 * s2 * s1"),
        ("admissible", ["admissible", tw, "--src", "eps2 * s1", "--tgt", "eps1 * t1",
                        "--target", "D1 +0 D1"], "admissible"),
        ("pi-kg1", ["pi", tw, "--kg1", "S3", "--n", "1"],
         "pi_1 = S3 (order 6, nonabelian)"),
        ("pi-kan", ["pi", tw, "--kan", "Z4,2", "--n", "2"],
         "pi_2 = Z4 (order 4, abelian)"),
        ("model-check", ["model-check", tw, "--kg1", "Z8"],
         "model checks clean (45 generators)"),
        ("divide", ["divide", tw, "--kan", "Z2,2", "--n", "2", "--i", "0", "--gamma", "1",
                    "--u", "0", "--v", "0"], divide_text),
        ("weq", ["weq", tw, "morph.json"], weq_text),
        ("fundamental-z2", ["fundamental", "gz2a.json"], _fundamental_text("Z2")),
        ("fundamental-z4", ["fundamental", "gz4a.json"], _fundamental_text("Z4")),
        ("fundamental-check", ["fundamental", "--check", "gz2b.json"],
         _fundamental_text("Z2")),
        ("gpd-pi", ["gpd-pi", "gz4b.json", "--n", "1"], "pi_1 = Z4 (order 4, abelian)"),
    ]


CLI_VERB_NAMES = ["stdlib", "check", "normalize", "admissible", "pi-kg1", "pi-kan",
                  "model-check", "divide", "weq", "fundamental-z2", "fundamental-z4",
                  "fundamental-check", "gpd-pi"]


WORKLOADS = {
    "strict-models": (strict_models_setup, strict_models_ops),
    "groupoid-compare": (groupoid_compare_setup, groupoid_compare_ops),
    "tower-scripts": (tower_scripts_setup, tower_scripts_ops),
}
