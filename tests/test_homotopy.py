"""Homotopy quotients, groups, division, base change, weak equivalences."""

import ast
import pathlib
import random

import pytest

from globkit import coherator as C
from globkit import dsl
from globkit import gpd as P
from globkit import groups as G
from globkit import homotopy as H
from globkit import model as M
from globkit.globe import GlobularSet, sword, tword
from globkit.model import Discrete, KAn, KG1, XMod
from oracles import old_base_change_iso, old_divide, old_weak_equiv
from test_gpd import names_in


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


def test_homotopic_examples(std4):
    tower, bundle = std4
    m = M.build_strict(KG1(G.cyclic(3)), tower, bundle)
    assert H.homotopic(m, 1, 1, 1)
    assert not H.homotopic(m, 1, 1, 2)
    m2 = M.build_strict(KAn(G.cyclic(2), 2), tower, bundle)
    assert H.homotopic(m2, 1, 0, 0)
    with pytest.raises(H.HomotopyError):
        H.homotopic(m, 4, 0, 0)


def test_relation_is_equivalence_with_witnesses(std4):
    tower, bundle = std4
    for m in builtin_models(std4):
        for n in range(0, m.trunc):
            H.hom_classes(m, n)  # raises unless reflexive/symmetric/transitive
        # the witnessing cells: units, inverses, compositions one level up
        for n in range(1, m.trunc):
            ka = m.interp_for(tower[bundle.unit_name(n)])
            om = m.interp_for(tower[bundle.inv_name(n + 1, n)])
            nab = m.interp_for(tower[bundle.comp_name(n + 1, n)])
            for c in range(m.carrier.count(n)):
                e = ka[(c,)]
                assert m.carrier.source(n + 1, e) == c == m.carrier.target(n + 1, e)
                r = om[(e,)]
                assert m.carrier.source(n + 1, r) == m.carrier.target(n + 1, e)


def reference_hom_classes(model, n):
    """The quadratic class assignment `hom_classes` replaced, as the oracle."""
    rel = {(model.carrier.source(n + 1, e), model.carrier.target(n + 1, e))
           for e in range(model.carrier.count(n + 1))}
    class_of, classes = {}, []
    for c in range(model.carrier.count(n)):
        for i, cl in enumerate(classes):
            if (cl[0], c) in rel:
                class_of[c] = i
                classes[i] = cl + (c,)
                break
        else:
            class_of[c] = len(classes)
            classes.append((c,))
    return class_of, classes


def test_hom_classes_match_reference_on_strict_specs(strict_models):
    for m in strict_models:
        for n in range(m.trunc):
            assert H.hom_classes(m, n) == reference_hom_classes(m, n), (m.label, n)


def test_hom_classes_rejects_non_equivalences(std4):
    tower, _ = std4

    def relation(*pairs):
        """Four 0-cells, with a 1-cell for each loop and each given pair."""
        pairs = [(c, c) for c in range(4)] + list(pairs)
        carrier = GlobularSet((4, len(pairs)), ((), tuple(a for a, _ in pairs)),
                              ((), tuple(b for _, b in pairs)))
        return M.Model(tower, carrier)

    assert H.hom_classes(relation((1, 3), (3, 1)), 0) == \
        ({0: 0, 1: 1, 2: 2, 3: 1}, [(0,), (1, 3), (2,)])
    with pytest.raises(H.HomotopyError, match="not symmetric"):
        H.hom_classes(relation((2, 3)), 0)
    with pytest.raises(H.HomotopyError, match="not transitive"):
        H.hom_classes(relation((0, 1), (1, 0), (1, 2), (2, 1)), 0)
    with pytest.raises(H.HomotopyError, match="not transitive"):
        H.hom_classes(relation((1, 2), (2, 1), (2, 3), (3, 2)), 0)


def test_pi_groupoid_laws_on_builtins(std4):
    tower, bundle = std4
    for m in builtin_models(std4):
        for n in (1, 2, 3):
            H.pi_groupoid(m, bundle, n)  # raises on any law violation


def test_pi_groupoid_shapes(std4):
    tower, bundle = std4
    m = M.build_strict(KG1(G.symmetric(3)), tower, bundle)
    pg = H.pi_groupoid(m, bundle, 1)
    assert (pg.n_objects, pg.n_arrows, len(H.hom_classes(m, 1)[1])) == (1, 6, 6)
    m = M.build_strict(KAn(G.cyclic(4), 2), tower, bundle)
    pg = H.pi_groupoid(m, bundle, 2)
    assert (pg.n_objects, pg.n_arrows, len(H.hom_classes(m, 2)[1])) == (1, 4, 4)
    m = M.build_strict(Discrete(3), tower, bundle)
    pg = H.pi_groupoid(m, bundle, 1)
    assert (pg.n_objects, pg.n_arrows, len(H.hom_classes(m, 1)[1])) == (3, 3, 3)


def old_pi_groupoid(model, bundle, n):
    """The quotient groupoid as dictionaries, with its laws checked by hand:
    the construction `pi_groupoid` replaced, kept as its oracle."""
    tower = model.tower
    class_of, classes = H.hom_classes(model, n)
    objects = tuple(range(model.carrier.count(n - 1)))
    class_src = tuple(model.carrier.source(n, cl[0]) for cl in classes)
    class_tgt = tuple(model.carrier.target(n, cl[0]) for cl in classes)
    for i, cl in enumerate(classes):
        for c in cl[1:]:
            assert model.carrier.source(n, c) == class_src[i]
            assert model.carrier.target(n, c) == class_tgt[i]
    nab = model.interp_for(tower[bundle.comp_name(n, n - 1)])
    ka = model.interp_for(tower[bundle.unit_name(n - 1)])
    om = model.interp_for(tower[bundle.inv_name(n, n - 1)])
    comp = {}
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            if class_src[i] == class_tgt[j]:
                vals = {class_of[nab[(v, u)]] for v in ci for u in cj}
                assert len(vals) == 1
                comp[(i, j)] = vals.pop()
    unit = {o: class_of[ka[(o,)]] for o in objects}
    inv = {i: class_of[om[(classes[i][0],)]] for i in range(len(classes))}
    for i in range(len(classes)):
        assert {class_of[om[(c,)]] for c in classes[i]} == {inv[i]}
        assert comp[(unit[class_tgt[i]], i)] == i
        assert comp[(i, unit[class_src[i]])] == i
        assert comp[(inv[i], i)] == unit[class_src[i]]
        assert comp[(i, inv[i])] == unit[class_tgt[i]]
    for (i, j) in comp:
        for k in range(len(classes)):
            if class_src[j] == class_tgt[k]:
                assert comp[(comp[(i, j)], k)] == comp[(i, comp[(j, k)])]
    return objects, class_src, class_tgt, comp, unit, inv


def test_pi_groupoid_matches_the_dictionary_oracle(std4, strict_models):
    from globkit import gpd as P
    tower, bundle = std4
    interp = P.TowerGpdInterp(tower)
    models = list(strict_models) + [P.fundamental(X, tower, interp)
                                    for _, X in P.corpus(3, 8)]
    for m in models:
        for n in (1, 2, 3):
            pg = H.pi_groupoid(m, bundle, n)
            objects, class_src, class_tgt, comp, unit, inv = old_pi_groupoid(m, bundle, n)
            assert tuple(range(pg.n_objects)) == objects, (m.label, n)
            assert (pg.src, pg.tgt) == (class_src, class_tgt), (m.label, n)
            assert {(i, j): pg.comp[i][j] for (i, j) in comp} == comp, (m.label, n)
            assert sum(c is not None for row in pg.comp for c in row) == len(comp)
            assert dict(enumerate(pg.ident)) == unit, (m.label, n)
            assert dict(enumerate(pg.inv)) == inv, (m.label, n)


def test_broken_composition_unit_or_inverse_is_a_law_violation():
    tower, bundle = C.stdlib(3)
    z3 = G.cyclic(3)
    pairs = [(v, u) for v in range(3) for u in range(3)]
    broken = [
        # boundaries hold (one object), associativity and the left unit fail
        ("comp1_0", {(v, u): z3.op(v, z3.inv(u)) for v, u in pairs}),
        # associative with identity 2, so the bundle's unit 0 is not the identity
        ("comp1_0", {(v, u): (v + u + 1) % 3 for v, u in pairs}),
        ("unit0", {(0,): 1}),
        ("inv1_0", {(g,): 0 for g in range(3)}),
    ]
    for name, table in broken:
        m = M.build_strict(KG1(z3), tower, bundle)
        H.pi_groupoid(m, bundle, 1)
        m.interp[name] = table
        with pytest.raises(H.LawViolation):
            H.pi_groupoid(m, bundle, 1)


def test_pi_n_values(std4):
    tower, bundle = std4
    for name in ("Z2", "Z3", "S3"):
        grp = G.by_name(name)
        m = M.build_strict(KG1(grp), tower, bundle)
        g1, _, _ = H.pi_n(m, bundle, 1, 0)
        assert G.find_isomorphism(g1, grp) is not None
    m = M.build_strict(KAn(G.cyclic(2), 2), tower, bundle)
    g2, _, _ = H.pi_n(m, bundle, 2, 0)
    assert g2.order == 2
    g1, _, _ = H.pi_n(m, bundle, 1, 0)
    assert g1.order == 1
    m = M.build_strict(Discrete(3), tower, bundle)
    _, classes = H.pi_n(m, bundle, 0)
    assert len(classes) == 3


def test_pi_abelian_at_two_and_up(std4):
    tower, bundle = std4
    for m in builtin_models(std4):
        for n in (2, 3):
            for x in range(m.carrier.count(0)):
                grp, _, _ = H.pi_n(m, bundle, n, x)
                assert grp.is_abelian()


def names_group_builders(tree):
    """The group constructors and isomorphism searches a syntax tree names."""
    return names_in(tree) & {"Group", "find_isomorphism"}


def test_homotopy_builds_no_group_table():
    """The vertex group is `Groupoid.aut_group`'s: homotopy constructs no
    group of its own and searches for no isomorphism."""
    assert names_group_builders(
        ast.parse(pathlib.Path(H.__file__).read_text(encoding="utf-8"))) == set()
    for text in ("groups.Group('pi_1', mult)", "from .groups import Group",
                 "G.find_isomorphism(a, b)"):
        assert names_group_builders(ast.parse(text)), text


def test_pi_refused_at_top_dimension(std4):
    tower, bundle = std4
    m = M.build_strict(KG1(G.cyclic(2)), tower, bundle)
    with pytest.raises(H.HomotopyError):
        H.pi_n(m, bundle, 4, 0)


def test_pi_indep_byte_identical():
    # a private tower: the alternative declarations must not leak into the
    # session fixture, since models built without the alternative bundle
    # would have no valid degenerate filler for `mu`
    tower, bundle = C.stdlib(4)
    t2 = C.glue2(1, 0)
    tower.declare("comp1_0alt",
                  C.compose(C.eps(t2, 1), C.wordt("s", 0, 1)),
                  C.compose(C.eps(t2, 0), C.wordt("t", 0, 1)))
    tower.declare("unit0alt", C.identity(C.disk(0)), C.identity(C.disk(0)))
    tower.declare("inv1_0alt", C.wordt("t", 0, 1), C.wordt("s", 0, 1))
    t22 = C.glue2(2, 1)
    tower.declare("comp2_1alt",
                  C.compose(C.eps(t22, 1), C.wordt("s", 1, 2)),
                  C.compose(C.eps(t22, 0), C.wordt("t", 1, 2)))
    tower.declare("unit1alt", C.identity(C.disk(1)), C.identity(C.disk(1)))
    tower.declare("inv2_1alt", C.wordt("t", 1, 2), C.wordt("s", 1, 2))
    # the two choices are connected by a lifting, as parallel pairs
    tower.declare("mu",
                  C.gen_term(tower["comp1_0"]),
                  C.gen_term(tower["comp1_0alt"]))
    alt = C.PregroupoidBundle(
        comp={**bundle.comp, (1, 0): "comp1_0alt", (2, 1): "comp2_1alt"},
        unit={**bundle.unit, 0: "unit0alt", 1: "unit1alt"},
        inv={**bundle.inv, (1, 0): "inv1_0alt", (2, 1): "inv2_1alt"})
    for spec, label in ((Discrete(3), "d"), (KG1(G.cyclic(2)), "z2"),
                        (KG1(G.cyclic(3)), "z3"), (KG1(G.symmetric(3)), "s3"),
                        (KAn(G.cyclic(2), 2), "a22"), (KAn(G.cyclic(4), 2), "a42"),
                        (XMod(G.trivial_xmod(G.cyclic(2), G.cyclic(2))), "xm")):
        m = M.build_strict(spec, tower, bundle, extra_bundles=(alt,), label=label)
        # mu really is interpreted: a homotopy between the two compositions
        mu = m.interp_for(tower["mu"])
        for x, v in mu.items():
            assert m.carrier.source(2, v) == m.eval1(tower["mu"].fsrc, x)
        for n in (1, 2):
            assert H.pi_groupoid(m, bundle, n) == H.pi_groupoid(m, alt, n), (label, n)


def test_divide_ka22(std4):
    tower, bundle = std4
    m = M.build_strict(KAn(G.cyclic(2), 2), tower, bundle)
    for gamma in (0, 1):
        res = H.divide(m, bundle, 2, 0, gamma, 0, 0)
        assert sorted(res.forward) == [0, 1]
        assert sorted(res.forward.values()) == [0, 1]
        for a, b in res.forward.items():
            assert res.backward[b] == a


def test_divide_crossed_module_nontrivial_gamma(std4):
    tower, bundle = std4
    xm = G.trivial_xmod(G.cyclic(2), G.cyclic(2))
    m = M.build_strict(XMod(xm), tower, bundle)
    # gamma = (g=1, a=1): a 2-cell with nontrivial 1-boundaries
    gamma = 1 * 2 + 1
    u = m.carrier.source(2, gamma)
    v = m.carrier.target(2, gamma)
    assert u == 1 and v == 1
    res = H.divide(m, bundle, 2, 0, gamma, u, v)
    hom = [a for a in range(m.carrier.count(2))
           if m.carrier.source(2, a) == u and m.carrier.target(2, a) == v]
    assert sorted(res.forward) == sorted(hom)
    assert len(set(res.forward.values())) == len(hom)


def test_divide_degenerate_gamma_fixes_classes(std4):
    tower, bundle = std4
    m = M.build_strict(KAn(G.cyclic(2), 2), tower, bundle)
    ka = m.interp_for(tower[bundle.unit_name(1)])
    gamma = ka[(0,)]
    res = H.divide(m, bundle, 2, 0, gamma, 0, 0)
    # whiskering with a degenerate cell leaves every class fixed
    assert all(res.forward[a] == a for a in res.forward)


def test_divide_right_side(std4):
    tower, bundle = std4
    xm = G.trivial_xmod(G.cyclic(2), G.cyclic(2))
    m = M.build_strict(XMod(xm), tower, bundle)
    gamma = 1 * 2 + 0
    u = m.carrier.target(2, gamma)
    res = H.divide(m, bundle, 2, 0, gamma, u, u, side="right")
    assert len(res.forward) == len(res.backward)


def test_divide_hypothesis_violations(std4):
    tower, bundle = std4
    m = M.build_strict(KAn(G.cyclic(2), 2), tower, bundle)
    with pytest.raises(H.HomotopyError):
        H.divide(m, bundle, 1, 0, 0, 0, 0)
    with pytest.raises(H.HomotopyError):
        H.divide(m, bundle, 2, 1, 0, 0, 0)


def test_base_change_cases(std4):
    tower, bundle = std4
    m = M.build_strict(KAn(G.cyclic(2), 2), tower, bundle)
    iso, gu, gx = H.base_change_iso(m, bundle, 2, 0)
    assert iso == {i: i for i in range(gu.order)}
    xm = G.trivial_xmod(G.cyclic(2), G.cyclic(2))
    mx = M.build_strict(XMod(xm), tower, bundle)
    for u in (0, 1):
        iso, gu, gx = H.base_change_iso(mx, bundle, 2, u)
        assert sorted(iso.values()) == list(range(gx.order))
    # n = 1 is tautological
    iso, g1, _ = H.base_change_iso(mx, bundle, 1, 0)
    assert iso == {i: i for i in range(g1.order)}


def test_base_change_refuses_an_out_of_range_u(std4):
    tower, bundle = std4
    m = M.build_strict(KAn(G.cyclic(2), 2), tower, bundle)
    for u in (-1, m.carrier.count(1), 5):
        with pytest.raises(H.HomotopyError, match="u %d is not one of the" % u):
            H.base_change_iso(m, bundle, 2, u)


def test_one_arrow_transport(std4):
    tower, bundle = std4
    # every 1-cell of the builtin models transports pi_n along base change
    for m in builtin_models(std4):
        for u in range(m.carrier.count(1)):
            for n in (2, 3):
                ku = u
                for d in range(1, n - 1):
                    ku = m.interp_for(tower[bundle.unit_name(d)])[(ku,)]
                H.base_change_iso(m, bundle, n, ku)


def _division_corpus(divide, base_change_iso, d):
    """Every division and base change of the differential corpus, on a
    fresh `stdlib(d)`: the results or the exceptions (class and message) in
    call order, then the tower as emitted and its correction cache."""
    tower, bundle = C.stdlib(d)
    specs = [KAn(G.cyclic(2), 2), KAn(G.cyclic(2), 3), KG1(G.symmetric(3)),
             KAn(G.cyclic(4), 2), XMod(G.trivial_xmod(G.cyclic(2), G.cyclic(2))),
             XMod(G.inclusion_xmod(G.cyclic(4)))]
    out = []

    def record(call):
        try:
            out.append(call())
        except Exception as e:
            out.append((type(e), str(e)))

    for spec in specs:
        m = M.build_strict(spec, tower, bundle)
        car = m.carrier
        for n in range(2, d):
            for i in range(n - 1):
                for side in ("left", "right"):
                    word = sword(i, n) if side == "left" else tword(i, n)
                    meet = tword(i, n - 1) if side == "left" else sword(i, n - 1)
                    for gamma in range(min(3, car.count(n))):
                        # the first (n-1)-cell that gamma's iterated face meets
                        u = next((c for c in range(car.count(n - 1))
                                  if car.boundary(meet, c) == car.boundary(word, gamma)), 0)
                        record(lambda: divide(m, bundle, n, i, gamma, u, u, side))
        for n in range(1, d):
            for u in sorted({0, car.count(n - 1) - 1}):
                record(lambda: base_change_iso(m, bundle, n, u))
    return out, dsl.emit_tower(tower), dict(tower.div_cache)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_division_matches_the_general_correction_scheme(d):
    """`divide` and `base_change_iso` against the construction with unit
    words below every wrap and corrections declared by mutual recursion:
    the same maps, class maps and refusals, and the same liftings declared
    under the same names."""
    new = _division_corpus(H.divide, H.base_change_iso, d)
    old = _division_corpus(old_divide, old_base_change_iso, d)
    assert new[0] == old[0]
    assert new[1:] == old[1:]
    results = new[0]
    assert any(isinstance(r, H.DivideResult) for r in results)
    refusals = [r for r in results if isinstance(r, tuple) and r[0] is H.HomotopyError
                and r[1].startswith("correction lifting at level")]
    assert bool(refusals) == (d >= 5)


def test_a_cached_division_builds_no_scheme_term(monkeypatch):
    """A second `divide` reads its correction liftings off the tower's cache
    and builds no scheme term, with the same result, cache and script."""
    tower, bundle = C.stdlib(4)
    m = M.build_strict(KAn(G.cyclic(2), 2), tower, bundle)
    first = H.divide(m, bundle, 2, 0, 1, 0, 0)
    cache, script = dict(tower.div_cache), dsl.emit_tower(tower)
    built = []
    tuple_term = H.tuple_term
    monkeypatch.setattr(H, "tuple_term", lambda *args: built.append(args) or tuple_term(*args))
    assert H.divide(m, bundle, 2, 0, 1, 0, 0) == first
    assert built == []
    assert tower.div_cache == cache and dsl.emit_tower(tower) == script
    # the other side is not cached yet, so its scheme terms are built
    H.divide(m, bundle, 2, 0, 1, 0, 0, side="right")
    assert built


def weq_suite(tower, bundle):
    """(morphism, verdict) pairs of strict models; the first six are
    acceptance criterion 07's."""
    def kg1_morphism(ga, gb, hom):
        ma = M.build_strict(KG1(ga), tower, bundle)
        mb = M.build_strict(KG1(gb), tower, bundle)
        return M.morphism_from_dims(ma, mb, [(0,), tuple(hom)])

    s3, z2, z3, z4 = G.symmetric(3), G.cyclic(2), G.cyclic(3), G.cyclic(4)
    cases = [
        (kg1_morphism(s3, s3, range(6)), True),
        (kg1_morphism(z3, z3, [0, 2, 1]), True),
        (kg1_morphism(z2, z4, [0, 2]), False),
        (kg1_morphism(z4, z2, [0, 1, 0, 1]), False),
    ]
    ms3 = M.build_strict(KG1(s3), tower, bundle)
    mpt = M.build_strict(Discrete(1), tower, bundle)
    cases.append((M.morphism_from_dims(ms3, mpt, [(0,), (0,) * 6]), False))
    m42 = M.build_strict(KAn(z4, 2), tower, bundle)
    cases.append((M.morphism_from_dims(m42, m42, [(0,), (0,), (0, 3, 2, 1)]), True))
    d2 = M.build_strict(Discrete(2), tower, bundle)
    cases.append((M.morphism_from_dims(d2, d2, [(1, 0)]), True))
    d1 = M.build_strict(Discrete(1), tower, bundle)
    cases.append((M.morphism_from_dims(d2, d1, [(0, 0)]), False))
    return cases


def test_weq_suite(std4):
    tower, bundle = std4
    cases = weq_suite(tower, bundle)
    assert len(cases) >= 6
    for morph, expected in cases:
        rep = H.weak_equiv(morph, bundle)
        assert rep.agree
        assert rep.is_weak_equivalence is expected


def test_weq_at_truncation_one_is_the_pi0_bijection_and_refused_at_zero():
    """At truncation 1 no pi-groupoid exists and all four conditions are the
    bijection on pi_0; at truncation 0 there are no 1-cells to form pi_0."""
    for dim in (0, 1):
        tower = dsl.parse_tower("dim %d\n" % dim)
        bundle = C.bundle_of(tower)
        d2, d1 = (M.build_strict(Discrete(k), tower, bundle) for k in (2, 1))
        swap = M.morphism_from_dims(d2, d2, [(1, 0)])
        collapse = M.morphism_from_dims(d2, d1, [(0, 0)])
        if dim == 0:
            with pytest.raises(H.HomotopyError, match="dimension 1 exceeds the represented"):
                H.weak_equiv(swap, bundle)
            continue
        assert H.weak_equiv(swap, bundle) == H.WeqReport(True, True, True, True)
        assert H.weak_equiv(collapse, bundle) == H.WeqReport(False, False, False, False)


def _quotient(grp, normal):
    """grp / normal from the table: cosets sorted by least member, so the
    identity coset is element 0."""
    cosets = sorted({tuple(sorted(grp.op(g, h) for h in normal)) for g in range(grp.order)})
    index = {g: i for i, c in enumerate(cosets) for g in c}
    return G.Group("quotient", tuple(tuple(index[grp.op(c[0], e[0])] for e in cosets)
                                     for c in cosets))


def _subgroup(grp, members):
    members = sorted(members)
    index = {a: i for i, a in enumerate(members)}
    return G.Group("subgroup", tuple(tuple(index[grp.op(a, b)] for b in members)
                                     for a in members))


def _alternating_in_s3():
    """A3 -> S3 by inclusion, S3 acting by conjugation, as a crossed module."""
    s3 = G.symmetric(3)
    r = next(g for g in range(s3.order) if s3.element_order(g) == 3)
    boundary = (0, r, s3.op(r, r))
    pull = {c: k for k, c in enumerate(boundary)}
    action = tuple(tuple(pull[s3.op(s3.op(g, c), s3.inv(g))] for c in boundary)
                   for g in range(s3.order))
    return G.CrossedModule(s3, G.cyclic(3), boundary, action)


def test_crossed_module_homotopy_groups_against_table_oracles(std4):
    """pi_1 of XMod(d: A -> G) is coker d, pi_2 is ker d and pi_3 is trivial;
    the oracles are read off the group tables alone."""
    tower, bundle = std4
    z4 = G.cyclic(4)
    doubling = G.CrossedModule(z4, z4, (0, 2, 0, 2), tuple(tuple(range(4)) for _ in range(4)))
    cases = [(doubling, "Z2", "Z2"),
             (_alternating_in_s3(), "Z2", "Z1"),
             (G.trivial_xmod(G.cyclic(2), G.cyclic(2)), "Z2", "Z2"),
             (G.inclusion_xmod(z4), "Z1", "Z1")]
    for xm, pi1_name, pi2_name in cases:
        coker = _quotient(xm.grp, set(xm.boundary))
        ker = _subgroup(xm.agrp, [a for a in range(xm.agrp.order) if xm.boundary[a] == 0])
        assert (G.recognize(coker), G.recognize(ker)) == (pi1_name, pi2_name)
        m = M.build_strict(XMod(xm), tower, bundle)
        pis = [H.pi_n(m, bundle, n, 0)[0] for n in (1, 2, 3)]
        assert G.find_isomorphism(pis[0], coker) is not None, pi1_name
        assert G.find_isomorphism(pis[1], ker) is not None, pi2_name
        assert pis[2].order == 1


def xmod_morphisms(tower, bundle):
    """The identity of XMod(trivial_xmod(Z2, Z2)) and its projection
    (g, a) -> g onto KG1(Z2), which kills pi_2."""
    z2 = G.cyclic(2)
    mx = M.build_strict(XMod(G.trivial_xmod(z2, z2)), tower, bundle)
    mk = M.build_strict(KG1(z2), tower, bundle)
    return (M.morphism_from_dims(mx, mx, [(0,), (0, 1), (0, 1, 2, 3)]),
            M.morphism_from_dims(mx, mk, [(0,), (0, 1), (0, 0, 1, 1)]))


def test_weq_on_crossed_modules(std3, std4):
    """The four conditions agree on morphisms of crossed modules: the identity
    is a weak equivalence, and the projection fails all four, also at
    truncation 3, where pi_2 sits at the top dimension and condition 4 must
    ask for injectivity there."""
    for tower, bundle in (std3, std4):
        identity, projection = xmod_morphisms(tower, bundle)
        assert H.weak_equiv(identity, bundle) == H.WeqReport(True, True, True, True)
        assert H.weak_equiv(projection, bundle) == H.WeqReport(False, False, False, False)


def test_disagreeing_conditions_are_named_in_the_error(std4, monkeypatch):
    """A report that `weak_equiv` refuses prints its four verdicts: with the
    first hom-set between two distinct 1-cells of KG1(S3) read as not
    surjective, conditions 3 and 4 fail while 1 and 2 hold."""
    tower, bundle = std4
    m = M.build_strict(KG1(G.symmetric(3)), tower, bundle)
    on_homs, forced = P.GFunctor.on_homs, []

    def once_not_surjective(self, x, y):
        if x != y and not forced:
            forced.append((x, y))
            return True, False
        return on_homs(self, x, y)

    monkeypatch.setattr(P.GFunctor, "on_homs", once_not_surjective)
    with pytest.raises(H.HomotopyError) as err:
        H.weak_equiv(M.morphism_from_dims(m, m, [(0,), tuple(range(6))]), bundle)
    assert forced and str(err.value).endswith(
        ": WeqReport(cond1=True, cond2=True, cond3=False, cond4=False)")


def test_weak_equiv_computes_each_hom_classes_once(std4, monkeypatch):
    """Over stdlib(4), one weak_equiv needs the classes of both models at
    dimensions 0 to 3: eight quotients, each computed once and shared with
    the pi-groupoids built from it."""
    tower, bundle = std4
    calls = []
    hom_classes = H.hom_classes

    def counted(model, n):
        calls.append((id(model), n))
        return hom_classes(model, n)

    monkeypatch.setattr(H, "hom_classes", counted)
    morph = weq_suite(tower, bundle)[0][0]
    assert H.weak_equiv(morph, bundle).is_weak_equivalence
    assert len(calls) == len(set(calls)) == 8


def test_weak_equiv_matches_the_replaced_checker(std3, std4):
    """The functor reading of the four conditions against the checker it
    replaced, over the strict-model suite, the crossed-module morphisms, and
    acceptance criterion 10's identities over the corpus and its seven
    functors.  Where the old checker's four verdicts disagree, its known
    defect at the top dimension, the new condition 4 follows condition 1."""
    from globkit import gpd as P

    tower, bundle = std4
    interp = P.TowerGpdInterp(tower)

    def fundamental_morphism(X, Y, objs, arrs):
        P.GFunctor(X, Y, objs, arrs).validate()
        return M.morphism_from_dims(P.fundamental(X, tower, interp),
                                    P.fundamental(Y, tower, interp), [objs, arrs])

    c1, c2, d1, d2 = P.point(), P.codiscrete(2), P.discrete(1), P.discrete(2)
    tz2 = P.connected_groupoid(2, G.cyclic(2))
    oz2, oz4 = P.one_object(G.cyclic(2)), P.one_object(G.cyclic(4))
    functors = [(c2, c1, (0, 0), (0,) * 4),
                (tz2, oz2, (0, 0), tuple(a % 2 for a in range(tz2.n_arrows))),
                (d2, d2, (1, 0), (1, 0)), (oz2, c1, (0,), (0, 0)),
                (d2, d1, (0, 0), (0, 0)), (oz2, oz4, (0,), (0, 2)), (c1, d2, (0,), (0,))]
    cases = [(m, bundle) for m, _ in weq_suite(tower, bundle)]
    cases += [(m, b) for t, b in (std3, std4) for m in xmod_morphisms(t, b)]
    cases += [(fundamental_morphism(X, X, tuple(range(X.n_objects)),
                                    tuple(range(X.n_arrows))), bundle)
              for _, X in P.corpus()]
    cases += [(fundamental_morphism(*f), bundle) for f in functors]
    defects = 0
    for morph, b in cases:
        old, new = old_weak_equiv(morph, b), H.weak_equiv(morph, b)
        if old.agree:
            assert new == old
        else:
            defects += 1
            assert (new.cond1, new.cond2, new.cond3) == (old.cond1, old.cond2, old.cond3)
            assert new.cond4 == new.cond1
    assert len(cases) > 60 and defects == 1


def test_pi_groupoid_built_once_per_query(std4, monkeypatch):
    """compare builds one pi-groupoid per n and base change one in all."""
    from globkit import gpd as P

    tower, bundle = std4
    calls = {"pi_groupoid": 0, "hom_classes": 0}

    def counted(name):
        fn = getattr(H, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(H, name, wrapper)

    counted("pi_groupoid")
    counted("hom_classes")
    P.compare(P.connected_groupoid(3, G.symmetric(3)), tower, bundle)
    assert calls == {"pi_groupoid": 3, "hom_classes": 4}
    m = M.build_strict(KAn(G.cyclic(2), 2), tower, bundle)
    calls.update(pi_groupoid=0, hom_classes=0)
    H.base_change_iso(m, bundle, 2, 0)
    assert calls == {"pi_groupoid": 1, "hom_classes": 3}


def test_pi_commutes_with_restriction(std4):
    from test_coherator import level1_tower
    tower, bundle = std4
    rng = random.Random(3)
    small = level1_tower(4)
    small_bundle = C.PregroupoidBundle(
        comp={(i, i - 1): C.comp_name(i, i - 1) for i in range(1, 5)},
        unit={i: C.unit_name(i) for i in range(4)},
        inv={(i, i - 1): C.inv_name(i, i - 1) for i in range(1, 5)})
    # a random family of tower functors: each generator goes either to its
    # namesake or to a freshly declared duplicate lifting
    big, _ = C.stdlib(4)
    assignment = {}
    for gen in small.gens():
        if rng.random() < 0.5:
            dup = gen.name + "_dup"
            big.declare(dup, gen.fsrc, gen.gtgt)
            assignment[gen.name] = big.term(dup)
    fn = C.tower_functor(small, assignment, big)
    dup_bundle = C.PregroupoidBundle(
        comp={ij: n + "_dup" for ij, n in small_bundle.comp.items() if n + "_dup" in big},
        unit={i: n + "_dup" for i, n in small_bundle.unit.items() if n + "_dup" in big},
        inv={ij: n + "_dup" for ij, n in small_bundle.inv.items() if n + "_dup" in big})
    big_bundle = C.stdlib(4)[1]
    for spec in (Discrete(3), KG1(G.cyclic(3)), KG1(G.symmetric(3)),
                 KAn(G.cyclic(2), 2), KAn(G.cyclic(4), 2),
                 XMod(G.trivial_xmod(G.cyclic(2), G.cyclic(2)))):
        model = M.build_strict(spec, big, big_bundle, extra_bundles=(dup_bundle,))
        restricted = M.restrict(model, fn)
        for n in (1, 2):
            assert H.pi_groupoid(restricted, small_bundle, n) == \
                H.pi_groupoid(model, big_bundle, n)
            assert H.hom_classes(restricted, n) == H.hom_classes(model, n)


def test_restricted_models_refuse_generators_their_functor_does_not_map():
    """Division declares its correction liftings on the model's tower; on a
    model restricted along a tower functor built before them, interpreting
    one is refused by name, through `divide` and `base_change_iso` alike."""
    message = ("generator 'auto.0' was declared after the tower functor, "
               "which does not map it")
    for call in (lambda m, b: H.divide(m, b, 2, 0, 1, 0, 0),
                 lambda m, b: H.base_change_iso(m, b, 2, 0)):
        tower, bundle = C.stdlib(4)
        model = M.build_strict(KAn(G.cyclic(2), 2), tower, bundle)
        restricted = M.restrict(model, C.tower_functor(tower, {}, tower))
        with pytest.raises(M.ModelError) as exc:
            call(restricted, bundle)
        assert str(exc.value) == message
