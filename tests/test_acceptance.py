"""The acceptance suite: one test per criterion, one pass/fail line each.

All checks are exact (discrete data, no tolerances).  Run with

    pytest tests/test_acceptance.py -v -s

to see the per-criterion lines on the terminal.
"""

import json
import random
import re
from contextlib import contextmanager

import pytest

from globkit import cli, coherator as C, dsl, gpd as P, groups as G
from globkit import homotopy as H, model as M, rewrite as R
from globkit.coherator import (
    compose, eps, gen_term, glob_source, glob_target, identity, legs_base,
    tuple_term, wordt,
)
from globkit.globe import Table, disk
from globkit.model import Discrete, KAn, KG1, XMod
from oracles import all_tables, lifting_oracle


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %02d FAIL: %s" % (num, desc))
        raise
    print("ACCEPTANCE %02d PASS: %s" % (num, desc))


@pytest.fixture(scope="module")
def std4():
    return C.stdlib(4)


@pytest.fixture(scope="module")
def interp4(std4):
    return P.TowerGpdInterp(std4[0])


def builtin_models(std4):
    tower, bundle = std4
    return [
        M.build_strict(Discrete(3), tower, bundle, label="Discrete3"),
        M.build_strict(KG1(G.cyclic(2)), tower, bundle, label="KG1Z2"),
        M.build_strict(KG1(G.cyclic(3)), tower, bundle, label="KG1Z3"),
        M.build_strict(KG1(G.symmetric(3)), tower, bundle, label="KG1S3"),
        M.build_strict(KAn(G.cyclic(2), 2), tower, bundle, label="KA22"),
        M.build_strict(KAn(G.cyclic(4), 2), tower, bundle, label="KA42"),
        M.build_strict(XMod(G.trivial_xmod(G.cyclic(2), G.cyclic(2))),
                       tower, bundle, label="XM22"),
    ]


def test_criterion_01_structural_library(std4):
    """Every structural map of the library at truncation 4, with its
    boundaries equal to the displayed composites and its level."""
    with criterion(1, "structural library derivations at truncation 4"):
        tower, bundle = std4
        trunc = 4
        # codimension-1 families at level 1
        for i in range(1, trunc + 1):
            t2 = C.glue2(i, i - 1)
            nab = tower.term(C.comp_name(i, i - 1))
            assert tower[C.comp_name(i, i - 1)].level == 1
            assert C.admissible(tower[C.comp_name(i, i - 1)].fsrc,
                                tower[C.comp_name(i, i - 1)].gtgt)
            assert glob_source(nab) == compose(eps(t2, 1), wordt("s", i - 1, i))
            assert glob_target(nab) == compose(eps(t2, 0), wordt("t", i - 1, i))
            om = tower.term(C.inv_name(i, i - 1))
            assert tower[C.inv_name(i, i - 1)].level == 1
            assert glob_source(om) == wordt("t", i - 1, i)
            assert glob_target(om) == wordt("s", i - 1, i)
        for i in range(0, trunc):
            ka = tower.term(C.unit_name(i))
            assert tower[C.unit_name(i)].level == 1
            assert glob_source(ka) == identity(disk(i)) == glob_target(ka)
        # codimension-2 families at level 2 (and deeper ones by recursion)
        for c in range(2, trunc + 1):
            for i in range(c, trunc + 1):
                j = i - c
                gen = tower[C.comp_name(i, j)]
                assert gen.level == c
                assert C.admissible(gen.fsrc, gen.gtgt)
                lower = tower.term(C.comp_name(i - 1, j))
                got = glob_source(tower.term(C.comp_name(i, j)))
                from globkit import theta0
                from globkit.globe import sword, tword
                t2 = C.glue2(i, j)
                t2lo = C.glue2(i - 1, j)
                smap = tuple_term(
                    (theta0.compose(theta0.leg_gmap(t2, 0), theta0.globe_functor(sword(i - 1, i))),
                     theta0.compose(theta0.leg_gmap(t2, 1), theta0.globe_functor(sword(i - 1, i)))),
                    t2lo)
                assert got == compose(smap, lower)
                geninv = tower[C.inv_name(i, j)]
                assert geninv.level == c
                assert glob_source(tower.term(C.inv_name(i, j))) == \
                    compose(wordt("s", i - 1, i), tower.term(C.inv_name(i - 1, j)))
        # constraint families at level 2
        for i in range(1, trunc):
            t2 = C.glue2(i, i - 1)
            t3 = Table((i, i, i), (i - 1, i - 1))
            nab = tower.term(C.comp_name(i, i - 1))
            ka = tower.term(C.unit_name(i - 1))
            om = tower.term(C.inv_name(i, i - 1))
            al = tower["assoc%d" % i]
            assert al.level == 2 and C.admissible(al.fsrc, al.gtgt)
            assert glob_source(tower.term(al.name)) == compose(
                tuple_term([compose(legs_base(t3, (0, 1), t2), nab), eps(t3, 2)], t2), nab)
            assert glob_target(tower.term(al.name)) == compose(
                tuple_term([eps(t3, 0), compose(legs_base(t3, (1, 2), t2), nab)], t2), nab)
            for name, want_s, want_t in (
                ("runit%d" % i,
                 compose(tuple_term([identity(disk(i)),
                                     compose(wordt("s", i - 1, i), ka)], t2), nab),
                 identity(disk(i))),
                ("lunit%d" % i,
                 compose(tuple_term([compose(wordt("t", i - 1, i), ka),
                                     identity(disk(i))], t2), nab),
                 identity(disk(i))),
                ("rinv%d" % i,
                 compose(tuple_term([identity(disk(i)), om], t2), nab),
                 compose(wordt("t", i - 1, i), ka)),
                ("linv%d" % i,
                 compose(tuple_term([om, identity(disk(i))], t2), nab),
                 compose(wordt("s", i - 1, i), ka)),
            ):
                gen = tower[name]
                assert gen.level == 2 and C.admissible(gen.fsrc, gen.gtgt)
                assert glob_source(tower.term(name)) == want_s
                assert glob_target(tower.term(name)) == want_t
        # level-3 constraints, with the displayed derivation chains
        for i in range(1, trunc - 1):
            pent = tower["pent%d" % i]
            assert pent.level == 3 and C.admissible(pent.fsrc, pent.gtgt)
            c3, c2 = C.pentagon_pair(tower, i)
            assert glob_source(tower.term(pent.name)) == c3
            assert glob_target(tower.term(pent.name)) == c2
            q4 = Table((i,) * 4, (i - 1,) * 3)
            t3 = Table((i, i, i), (i - 1, i - 1))
            t2 = C.glue2(i, i - 1)
            nab = tower.term(C.comp_name(i, i - 1))
            ndd = tuple_term([compose(legs_base(q4, (0, 1), t2), nab),
                              eps(q4, 2), eps(q4, 3)], t3)
            nd = tuple_term([compose(legs_base(t3, (0, 1), t2), nab), eps(t3, 2)], t2)
            assert compose(c3, wordt("s", i, i + 1)) == compose(ndd, compose(nd, nab))
            assert compose(c3, wordt("t", i, i + 1)) == compose(c2, wordt("t", i, i + 1))
        for i in range(2, trunc):
            ex = tower["exch%d" % i]
            assert ex.level == 3 and C.admissible(ex.fsrc, ex.gtgt)
            f, g = C.exchange_pair(tower, i)
            assert glob_source(tower.term(ex.name)) == f
            assert glob_target(tower.term(ex.name)) == g
        for i in range(1, trunc - 1):
            tri = tower["tri%d" % i]
            assert tri.level == 3 and C.admissible(tri.fsrc, tri.gtgt)
            d2, d1 = C.triangle_pair(tower, i)
            assert glob_source(tower.term(tri.name)) == d2
            assert glob_target(tower.term(tri.name)) == d1
        assert C.verify_bundle(tower, bundle)


def test_criterion_02_rewriting(std4):
    """Termination bound and two-strategy agreement on 1000 seeded terms per
    tower; the boundary equations hold for every generator."""
    with criterion(2, "rewriting termination and confluence"):
        for trunc in (3, 4):
            tower, _ = C.stdlib(trunc)
            rng = random.Random(trunc)
            for _ in range(1000):
                raw = R.random_raw(tower, rng, budget=6)
                bound = 10 * R.raw_size(raw)
                nf0 = C.normalize(raw)
                nf1, s1 = R.reduce_steps(raw, "inner")
                nf2, s2 = R.reduce_steps(raw, "outer")
                assert nf0 == nf1 == nf2
                assert s1 <= bound and s2 <= bound
            for gen in tower.gens():
                h = tower.term(gen.name)
                assert glob_source(h) == gen.fsrc
                assert glob_target(h) == gen.gtgt


def test_criterion_03_groupoid_laws(std4):
    """Associativity, units, and inverses hold exactly on homotopy classes."""
    with criterion(3, "quotient groupoid laws on the builtin models"):
        for model in builtin_models(std4):
            for n in (1, 2, 3):
                H.pi_groupoid(model, std4[1], n)


def test_criterion_04_homotopy_group_oracles(std4):
    """pi_1 of a one-object model is its group; pi_n of a fiberwise model is
    its fiber; everything else is trivial; pi_2 is always abelian."""
    with criterion(4, "homotopy groups against group-table oracles"):
        tower, bundle = std4
        for name in ("Z2", "Z3", "S3"):
            grp = G.by_name(name)
            m = M.build_strict(KG1(grp), tower, bundle)
            g1, _, _ = H.pi_n(m, bundle, 1, 0)
            assert G.find_isomorphism(g1, grp) is not None
            for k in (2, 3):
                gk, _, _ = H.pi_n(m, bundle, k, 0)
                assert gk.order == 1
        for name, n in (("Z2", 2), ("Z4", 2)):
            grp = G.by_name(name)
            m = M.build_strict(KAn(grp, n), tower, bundle)
            for k in (1, 2, 3):
                gk, _, _ = H.pi_n(m, bundle, k, 0)
                if k == n:
                    assert G.find_isomorphism(gk, grp) is not None
                else:
                    assert gk.order == 1
        for m in builtin_models(std4):
            for x in range(m.carrier.count(0)):
                g2, _, _ = H.pi_n(m, bundle, 2, x)
                assert g2.is_abelian()


def test_criterion_05_independence_of_choices():
    """Alternative declared compositions and units give byte-identical
    quotient groupoid tables on every builtin model."""
    with criterion(5, "independence from the choice of structural maps"):
        tower, bundle = C.stdlib(4)
        t2 = C.glue2(1, 0)
        tower.declare("comp1_0alt",
                      compose(eps(t2, 1), wordt("s", 0, 1)),
                      compose(eps(t2, 0), wordt("t", 0, 1)))
        tower.declare("unit0alt", identity(disk(0)), identity(disk(0)))
        tower.declare("inv1_0alt", wordt("t", 0, 1), wordt("s", 0, 1))
        t22 = C.glue2(2, 1)
        tower.declare("comp2_1alt",
                      compose(eps(t22, 1), wordt("s", 1, 2)),
                      compose(eps(t22, 0), wordt("t", 1, 2)))
        tower.declare("unit1alt", identity(disk(1)), identity(disk(1)))
        tower.declare("inv2_1alt", wordt("t", 1, 2), wordt("s", 1, 2))
        tower.declare("mu", gen_term(tower["comp1_0"]), gen_term(tower["comp1_0alt"]))
        alt = C.PregroupoidBundle(
            comp={**bundle.comp, (1, 0): "comp1_0alt", (2, 1): "comp2_1alt"},
            unit={**bundle.unit, 0: "unit0alt", 1: "unit1alt"},
            inv={**bundle.inv, (1, 0): "inv1_0alt", (2, 1): "inv2_1alt"})
        specs = [Discrete(3), KG1(G.cyclic(2)), KG1(G.cyclic(3)),
                 KG1(G.symmetric(3)), KAn(G.cyclic(2), 2), KAn(G.cyclic(4), 2),
                 XMod(G.trivial_xmod(G.cyclic(2), G.cyclic(2)))]
        for spec in specs:
            m = M.build_strict(spec, tower, bundle, extra_bundles=(alt,))
            for n in (1, 2):
                assert H.pi_groupoid(m, bundle, n) == H.pi_groupoid(m, alt, n)


def test_criterion_06_division(std4):
    """The division construction is a verified two-sided bijection on classes,
    and base change is a verified group isomorphism, on both required models."""
    with criterion(6, "division construction and base change"):
        tower, bundle = std4
        m = M.build_strict(KAn(G.cyclic(2), 2), tower, bundle)
        for gamma in (0, 1):
            res = H.divide(m, bundle, 2, 0, gamma, 0, 0)  # verifies LK and KL
            assert len(res.fwd_classes) == 2
        H.base_change_iso(m, bundle, 2, 0)
        xm = G.trivial_xmod(G.cyclic(2), G.cyclic(2))
        mx = M.build_strict(XMod(xm), tower, bundle)
        gamma = 1 * 2 + 1  # a 2-cell with nontrivial boundary data
        u = mx.carrier.source(2, gamma)
        res = H.divide(mx, bundle, 2, 0, gamma, u, u)
        assert len(res.fwd_classes) == 2
        for u in (0, 1):
            iso, gu, gx = H.base_change_iso(mx, bundle, 2, u)
            assert sorted(iso.values()) == list(range(gx.order))


def test_criterion_07_four_conditions(std4):
    """The four weak-equivalence characterizations agree on a suite of
    morphisms, true and false cases alike."""
    with criterion(7, "four-condition equivalence theorem"):
        tower, bundle = std4

        def kg1_morphism(ga, gb, hom):
            ma = M.build_strict(KG1(ga), tower, bundle)
            mb = M.build_strict(KG1(gb), tower, bundle)
            return M.morphism_from_dims(ma, mb, [(0,), tuple(hom)])

        s3, z2, z3, z4 = G.symmetric(3), G.cyclic(2), G.cyclic(3), G.cyclic(4)
        ms3 = M.build_strict(KG1(s3), tower, bundle)
        mpt = M.build_strict(Discrete(1), tower, bundle)
        m42 = M.build_strict(KAn(z4, 2), tower, bundle)
        cases = [
            (kg1_morphism(s3, s3, range(6)), True),              # identity
            (kg1_morphism(z3, z3, [0, 2, 1]), True),             # automorphism
            (kg1_morphism(z2, z4, [0, 2]), False),               # doubling
            (kg1_morphism(z4, z2, [0, 1, 0, 1]), False),
            (M.morphism_from_dims(ms3, mpt, [(0,), (0,) * 6]), False),  # collapse
            (M.morphism_from_dims(m42, m42, [(0,), (0,), (0, 3, 2, 1)]), True),
        ]
        assert len(cases) >= 6
        for morph, expected in cases:
            rep = H.weak_equiv(morph, bundle)
            assert rep.agree
            assert rep.is_weak_equivalence is expected


def test_criterion_08_folk_realization():
    """Cofibrant, weakly contractible globes; thin contractible sums; total
    and unique fillers on 200 seeded admissible pairs."""
    with criterion(8, "groupoid realization of the globe diagram"):
        from test_gpd import thin_sum_objects
        dg = P.globe_diagram(4)
        assert P.validate_globe_diagram(dg)
        for table in all_tables(4, 4):
            thin_sum_objects(table)
        rng = random.Random(0)
        tables = [t for t in all_tables(4, 4)]
        count = 0
        while count < 200:
            table = rng.choice(tables)
            n = rng.randrange(0, table.dimension + 2)
            if table.dimension > n + 1:
                continue
            objs = thin_sum_objects(table)
            if n == 0:
                f, g = (rng.choice(objs),), (rng.choice(objs),)
            else:
                f = (rng.choice(objs), rng.choice(objs))
                g = f
            h = lifting_oracle(table, f, g, n)
            assert h == ((f[0], g[0]) if n == 0 else f)
            count += 1


def test_criterion_09_comparison(std4, interp4):
    """Over the whole corpus: components count isomorphism classes, the
    fundamental group is the automorphism group, higher groups vanish, and
    both fundamental-group pipelines return identical tables."""
    with criterion(9, "comparison theorem over the corpus"):
        tower, bundle = std4
        corp = P.corpus()
        assert len(corp) >= 40
        for name, X in corp:
            report = P.compare(X, tower, bundle, interp4)
            assert report.ok()


def test_criterion_10_equivalence_characterization(std4, interp4):
    """Equivalences of groupoids pass all four conditions; the listed
    non-equivalences fail all four."""
    with criterion(10, "weak equivalences of fundamental models"):
        tower, bundle = std4
        corp = P.corpus()

        def as_model_morph(f):
            mX = P.fundamental(f.source, tower, interp4)
            mY = P.fundamental(f.target, tower, interp4)
            return M.morphism_from_dims(mX, mY, [f.obj_map, f.arr_map])

        # identities over the whole corpus are equivalences
        for name, X in corp:
            ident = P.GFunctor(X, X, tuple(range(X.n_objects)),
                               tuple(range(X.n_arrows))).validate()
            assert ident.is_equivalence()
            rep = H.weak_equiv(as_model_morph(ident), bundle)
            assert rep.agree and rep.is_weak_equivalence
        # non-identity equivalences
        c2, c1 = P.codiscrete(2), P.point()
        collapse = P.GFunctor(c2, c1, (0, 0), (0,) * 4).validate()
        tz2 = P.connected_groupoid(2, G.cyclic(2))
        oz2 = P.one_object(G.cyclic(2))
        quot_arr = []
        for a in range(tz2.n_arrows):
            # arrows of the connected model are (x, y, g) triples in order
            quot_arr.append(a % 2)
        quotient = P.GFunctor(tz2, oz2, (0, 0), tuple(quot_arr)).validate()
        d2 = P.discrete(2)
        swap = P.GFunctor(d2, d2, (1, 0), (1, 0)).validate()
        for f in (collapse, quotient, swap):
            assert f.is_equivalence()
            rep = H.weak_equiv(as_model_morph(f), bundle)
            assert rep.agree and rep.is_weak_equivalence
        # listed non-equivalences fail all four conditions
        z2, z4 = P.one_object(G.cyclic(2)), P.one_object(G.cyclic(4))
        non_equivs = [
            P.GFunctor(z2, c1, (0,), (0, 0)).validate(),
            P.GFunctor(d2, P.discrete(1), (0, 0), (0, 0)).validate(),
            P.GFunctor(z2, z4, (0,), (0, 2)).validate(),
            P.GFunctor(c1, d2, (0,), (0,)).validate(),
        ]
        for f in non_equivs:
            assert not f.is_equivalence()
            rep = H.weak_equiv(as_model_morph(f), bundle)
            assert rep.agree and not rep.is_weak_equivalence


def test_criterion_11_cli(tmp_path, capsys):
    """The emitted library replays to an identical tower; fuzzed scripts are
    rejected with exit code 2 and a line/column diagnostic."""
    with criterion(11, "front-end round trip and fuzzing"):
        path = str(tmp_path / "std.tower")
        assert cli.run(["stdlib", "--dim", "3", "--out", path]) == 0
        capsys.readouterr()
        tower, _ = C.stdlib(3)
        reparsed = dsl.parse_tower(open(path).read())
        assert reparsed.names() == tower.names()
        for name in tower.names():
            assert reparsed[name] == tower[name]
        good = dsl.emit_tower(tower)
        rng = random.Random(11)
        fuzz_path = str(tmp_path / "fuzz.tower")
        rejected = 0
        tried = 0
        while tried < 200:
            tokens = good.split(" ")
            kind = rng.randrange(4)
            pos = rng.randrange(len(tokens))
            if kind == 0:
                del tokens[pos]
            elif kind == 1:
                tokens.insert(pos, rng.choice(["%%", "]", "(", "->", ";;", "+x"]))
            elif kind == 2:
                tokens.insert(pos, tokens[pos])
            else:
                tokens[pos] = rng.choice(["?", "lift", ":", "*", "[", "eps0"])
            text = " ".join(tokens)
            if text == good:
                continue
            tried += 1
            with open(fuzz_path, "w") as fh:
                fh.write(text)
            code = cli.run(["check", fuzz_path])
            out = capsys.readouterr()
            if code == 0:
                dsl.parse_tower(text)
                continue
            assert code in (1, 2)
            rejected += 1
            if code == 2:
                assert re.search(r"line \d+, column \d+", out.err)
        assert rejected >= 150
