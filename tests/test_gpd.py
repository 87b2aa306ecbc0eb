"""Folk-structure validators, sums, fillers, fundamental models, comparison."""

import ast
import gc
import itertools
import pathlib
import random
import sys
import weakref

import pytest

from globkit import coherator as C
from globkit import gpd as P
from globkit import groups as G
from globkit import homotopy as H
from globkit import model as M
from globkit.globe import Table, realize_sum
from globkit.theta0 import GMap
from oracles import (all_tables, lifting_oracle, old_codiscrete, old_corpus, old_discrete,
                     old_disjoint_union, old_find_isomorphism, old_one_object,
                     old_realize_gpd, old_recognize)
from test_theta0 import level_map


@pytest.fixture(scope="module")
def interp4(std4):
    tower, _ = std4
    return P.TowerGpdInterp(tower).interpret_all()


def test_groupoid_validation_rejects_non_groupoids():
    with pytest.raises(P.GroupoidError):
        # a composition table that breaks associativity / identity laws
        P.build_groupoid(1, [(0, 0), (0, 0)], lambda g, f: 0)
    # a composite at a non-composable pair, none at a composable one, or both
    X = P.disjoint_union(P.one_object(G.cyclic(2)), P.one_object(G.cyclic(2)))
    for changes in ([(0, 2, 0)], [(0, 1, None)], [(0, 1, None), (0, 2, 0)]):
        comp = [list(row) for row in X.comp]
        for g, f, val in changes:
            comp[g][f] = val
        bad = P.Groupoid(X.n_objects, X.src, X.tgt, tuple(tuple(row) for row in comp),
                         X.ident, X.inv)
        with pytest.raises(P.GroupoidError, match="composability table wrong"):
            bad.validate()


def test_globe_diagram_folk_validators():
    dg = P.globe_diagram(4)
    assert P.validate_globe_diagram(dg)
    # spheres: two points in dimension 0, object-bijective latching above
    assert dg.sphere_objects[1] == [0, 1]
    assert dg.i_obj[1] == (0, 1)
    assert dg.i_obj[2] == (0, 1)


def test_sphere_one_is_the_circle():
    """The pushout of two 2-object contractible groupoids over two points.

    Its arrows are reduced alternating words in the two generating arrows;
    distinct reduced words stay distinct, so the loop has infinite order and
    the latching map into the next disk is a genuine (non-trivial) cofibration.
    """
    # reduced words: alternating f/g letters with signs, f: a->b, g: a->b
    def reduce(word):
        out = []
        for letter in word:
            if out and out[-1] == (letter[0], -letter[1]):
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    # loops at `a` are alternating (g- then f+)-style words; the basic loop
    loop = (("f", 1), ("g", -1))
    powers = set()
    w = ()
    for k in range(4):
        powers.add(w)
        w = reduce(w + loop)
    assert len(powers) == 4  # (gf)^k distinct for k = 0..3: infinite order


def thin_sum_objects(table):
    """Check that the realized sum of `table` stands for a thin, contractible
    groupoid, and return its objects.

    Read off `realize_sum`'s legs, its blocks (disks glued along a positive
    dimension) are edges, each disk of a block joining the same two objects,
    and they form a spanning tree on the objects of the realized sum: there
    is one block fewer than objects, and each `thin_walk` from the first
    object is a path along them to its end.  The free groupoid on a tree has
    exactly one arrow between any two objects.
    """
    real = realize_sum(table)
    leg_objects = [legs[0] for legs in real.legs]
    objs = range(real.carrier.count(0))
    assert {o for leg in leg_objects for o in leg} == set(objs)
    block_of = [0]
    for j in table.lower:
        block_of.append(block_of[-1] + (j < 1))
    blocks = {}
    for k, lo in enumerate(leg_objects):
        if table.upper[k]:
            assert len(set(lo)) == 2 and blocks.setdefault(block_of[k], lo) == lo
    assert len(blocks) == len(objs) - 1
    for o in objs:
        (k, side), steps = P.thin_walk(table, objs[0], o)
        at = leg_objects[k][max(side - 1, 0)]
        assert at == objs[0]
        for k, invert in steps:
            o0, o1 = leg_objects[k]
            assert at == (o1 if invert else o0)
            at = o0 if invert else o1
        assert at == o
    return objs


def test_realized_sums_thin_and_contractible():
    for table in all_tables(4, 4):
        thin_sum_objects(table)


def test_thin_walk_matches_the_block_tree_search():
    """On every pair of objects of every table of width and dimension at
    most 4, the walk read off the line of blocks is the one the search over
    the block tree finds."""
    pairs = 0
    for table in all_tables(4, 4):
        old = old_realize_gpd(table)
        objs = range(realize_sum(table).carrier.count(0))
        for a, b in itertools.product(objs, repeat=2):
            assert P.thin_walk(table, a, b) == old.walk(a, b), (table, a, b)
            pairs += 1
    assert pairs == 27897


def test_lifting_oracle_total_and_unique_on_seeded_pairs():
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
            f = (rng.choice(objs),)
            g = (rng.choice(objs),)
        else:
            f = (rng.choice(objs), rng.choice(objs))
            g = f
        h = lifting_oracle(table, f, g, n)
        # totality: the filler exists; uniqueness: object images are forced,
        # and functors into a thin groupoid are determined by objects
        if n == 0:
            assert h == (f[0], g[0])
        else:
            assert h == f
        count += 1


def test_tower_interpretation_is_deterministic(std4):
    tower, _ = std4
    a = P.TowerGpdInterp(tower).interpret_all()
    b = P.TowerGpdInterp(tower).interpret_all()
    assert a.walks == b.walks


class ObjectImageOracle:
    """The groupoid interpretation by term evaluation: a term's value is the
    tuple of its object images, found by recursion over the normal form, and
    a generator's filler comes from `lifting_oracle` and is checked against
    both boundaries.  The reference for endpoints read off normal forms, and
    with the search over the block tree, for their walks."""

    def __init__(self):
        self.gen_objs = {}

    def gen(self, g):
        if g.name not in self.gen_objs:
            fobj = self.term_objects(g.fsrc)
            gobj = self.term_objects(g.gtgt)
            h = lifting_oracle(g.target, fobj, gobj, g.dim - 1)
            hs = h if g.dim >= 2 else (h[0],)
            ht = h if g.dim >= 2 else (h[1],)
            assert (hs, ht) == (fobj, gobj), g.name
            self.gen_objs[g.name] = h
        return self.gen_objs[g.name]

    def walk(self, g):
        return old_realize_gpd(g.target).walk(*self.gen(g))

    def term_objects(self, t):
        if isinstance(t, GMap):
            return level_map(t).maps[0]
        if isinstance(t, C.TupleT):
            real = realize_sum(t.src_table)
            out = []
            for o in range(real.carrier.count(0)):
                k, w = real.owners[0][o]
                c = 0 if w.is_identity or w.kind == "s" else 1
                out.append(self.term_objects(t.comps[k])[c])
            return tuple(out)
        tail_objs = self.term_objects(t.tail)
        return tuple(tail_objs[o] for o in self.gen(t.gen))


def test_endpoints_from_normal_forms_match_term_evaluation():
    """`gen` and `walk` against the object-image evaluator, on every
    generator of stdlib(2..8) and on the correction liftings that division
    and base change declare."""
    towers = [C.stdlib(trunc) for trunc in range(2, 9)]
    tower, bundle = towers[2]  # stdlib(4)
    for n in (2, 3):
        m = M.build_strict(M.KAn(G.cyclic(2), n), tower, bundle)
        if n == 2:
            for gamma in (0, 1):
                for side in ("left", "right"):
                    H.divide(m, bundle, 2, 0, gamma, 0, 0, side=side)
        H.base_change_iso(m, bundle, n, 0)
    assert sum(name.startswith("auto.") for name in tower.names()) == 12
    checked = 0
    for tower, _ in towers:
        interp, oracle = P.TowerGpdInterp(tower), ObjectImageOracle()
        for g in tower.gens():
            assert interp.gen(g) == oracle.gen(g), g.name
            assert interp.walk(g) == oracle.walk(g), g.name
            checked += 1
    assert checked == 476 + 12


def names_in(tree):
    """Every name, attribute and imported name that a syntax tree names."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.rpartition(".")[2])
    return named


def names_term_nodes(tree):
    """The term node classes of `coherator` that a syntax tree names."""
    return names_in(tree) & {"GMap", "TupleT", "Chain"}


def test_gpd_does_not_evaluate_terms():
    """The groupoid interpretation reads endpoints off normal forms; a second
    term evaluator would have to name the term node classes."""
    assert names_term_nodes(ast.parse(pathlib.Path(P.__file__).read_text(encoding="utf-8"))) \
        == set()
    for text in ("from .theta0 import GMap", "isinstance(t, coh.TupleT)",
                 "from globkit.coherator import Chain as Ch"):
        assert names_term_nodes(ast.parse(text)), text


def test_fundamental_label_does_not_grow_with_the_groupoid(std4, interp4):
    tower, _ = std4
    m = P.fundamental(P.connected_groupoid(3, G.symmetric(3)), tower, interp4)
    assert len(m.label) < 40


def test_fundamental_point_and_contractible(std4, interp4):
    tower, bundle = std4
    m = P.fundamental(P.point(), tower, interp4)
    assert m.carrier.cells == (1, 1, 1, 1, 1)
    _, classes = H.pi0(m)
    assert len(classes) == 1
    m2 = P.fundamental(P.codiscrete(2), tower, interp4)
    _, classes = H.pi0(m2)
    assert len(classes) == 1
    for n in (1, 2, 3):
        grp, _, _ = H.pi_n(m2, bundle, n, 0)
        assert grp.order == 1


def test_fundamental_z4(std4, interp4):
    tower, bundle = std4
    m = P.fundamental(P.one_object(G.cyclic(4)), tower, interp4)
    g1, _, _ = H.pi_n(m, bundle, 1, 0)
    assert G.find_isomorphism(g1, G.cyclic(4)) is not None
    for n in (2, 3):
        gn, _, _ = H.pi_n(m, bundle, n, 0)
        assert gn.order == 1


def test_fundamental_model_checks_clean(std4, interp4):
    tower, _ = std4
    X = P.one_object(G.symmetric(3))
    m = P.fundamental(X, tower, interp4)
    assert m.check() == []


def test_strict_model_of_a_groupoid_is_its_fundamental_model(std4, interp4):
    """The strict formulas over X as the groupoid of 1-cells, with the trivial
    group at dimension 2, against the fundamental model's pasting walks: two
    independent constructions of the same tables."""
    tower, bundle = std4
    for name, X in P.corpus():
        strict = M.build_strict(M.product_spec(X, G.cyclic(1), 2, name), tower, bundle)
        pi = P.fundamental(X, tower, interp4)
        # the carrier the fundamental model had before it shared the strict one
        ident = tuple(range(X.n_arrows))
        assert pi.carrier.cells == (X.n_objects,) + (X.n_arrows,) * tower.trunc
        assert pi.carrier.src == ((), X.src) + (ident,) * (tower.trunc - 1)
        assert pi.carrier.tgt == ((), X.tgt) + (ident,) * (tower.trunc - 1)
        assert pi.units == (X.ident,) + (ident,) * (tower.trunc - 1)
        assert (strict.carrier, strict.units) == (pi.carrier, pi.units), name
        for gen in tower.gens():
            assert strict.interp_for(gen) == pi.interp_for(gen), (name, gen.name)


def test_pi1_of_fundamental_is_the_groupoid_itself(std4, interp4):
    """The comparison theorem: the pi_1-groupoid of Pi(X) is X itself."""
    tower, bundle = std4
    named = P.corpus() + [("Z2+codiscrete2", P.disjoint_union(P.one_object(G.cyclic(2)),
                                                              P.codiscrete(2)))]
    for name, X in named:
        m = P.fundamental(X, tower, interp4)
        # each homotopy class of arrows is one arrow, and the groupoid is X
        assert H.hom_classes(m, 1)[1] == [(a,) for a in range(X.n_arrows)], name
        assert H.pi_groupoid(m, bundle, 1) == X, name


def test_hom_matches_linear_scan():
    for name, X in P.corpus(3, 8):
        for Y in (X, P.path_object(X).P):
            for x in range(Y.n_objects):
                for y in range(Y.n_objects):
                    scan = [a for a in range(Y.n_arrows)
                            if Y.src[a] == x and Y.tgt[a] == y]
                    assert list(Y.hom(x, y)) == scan, (name, x, y)


def test_path_object_and_loops():
    X = P.one_object(G.cyclic(2))
    po = P.path_object(X)
    assert po.P.n_objects == 2
    assert po.P.n_arrows == 8
    assert po.r.is_equivalence()
    om, cx, labels = P.loop_object(X, 0)
    assert om.n_objects == 2 and om.n_arrows == 2  # discrete on Aut(x)
    assert P.pi0_gpd(om) == 2
    pt = P.point()
    assert P.path_object(pt).P.n_objects == 1


def test_path_object_retraction_is_equivalence():
    for X in (P.one_object(G.cyclic(3)), P.codiscrete(2), P.discrete(2),
              P.disjoint_union(P.one_object(G.cyclic(2)), P.point())):
        po = P.path_object(X)
        assert po.r.is_equivalence()
        assert po.r.injective_on_objects()


def test_quillen_pi1_values():
    for grp in (G.cyclic(2), G.cyclic(3), G.symmetric(3)):
        X = P.one_object(grp)
        q, loops, omega = P.quillen_pi1(X, 0)
        assert G.find_isomorphism(q, grp) is not None
        assert P.pi0_gpd(omega) == grp.order
    X = P.codiscrete(2)
    q, _, _ = P.quillen_pi1(X, 0)
    assert q.order == 1
    # higher groups vanish: the loop object is discrete
    assert P.quillen_pi_n(P.one_object(G.cyclic(3)), 0, 2).order == 1
    assert P.quillen_pi_n(P.one_object(G.cyclic(3)), 0, 3).order == 1


def test_one_vertex_group_order(std4, interp4):
    """pi_1 of the fundamental model, Aut(x) and the cylinder classes list
    the same loops in one order, the identity first and the others
    ascending, here where the identity is the greatest loop."""
    tower, bundle = std4
    Y = P.connected_groupoid(2, G.symmetric(3))
    last = Y.n_arrows - 1
    X = P.build_groupoid(Y.n_objects, [(Y.src[last - a], Y.tgt[last - a])
                                       for a in range(Y.n_arrows)],
                         lambda g, f: last - Y.comp[last - g][last - f])
    m = P.fundamental(X, tower, interp4)
    for x in range(X.n_objects):
        aut, loops = X.aut_group(x)
        assert loops[0] == X.ident[x] == max(loops)
        assert loops[1:] == sorted(loops[1:])
        grp, elems, _ = H.pi_n(m, bundle, 1, x)
        q_grp, q_loops, _ = P.quillen_pi1(X, x)
        assert elems == q_loops == loops
        assert grp.mult == q_grp.mult == aut.mult


def test_cylinder_lemma():
    """D(n+1) with (i_{n+1}, collapse) is a cylinder object of (D(n), i_n)."""
    dg = P.globe_diagram(4)
    for n in range(0, 4):
        p = dg.collapse[n + 1]
        s, t = dg.sigma[n + 1], dg.tau[n + 1]
        # the factorization retracts both inclusions and is an equivalence
        assert P.compose_functors(p, s).obj_map == tuple(range(dg.disks[n].n_objects))
        assert P.compose_functors(p, t).obj_map == tuple(range(dg.disks[n].n_objects))
        assert p.is_equivalence()
        # the inclusion part is a cofibration: injective on objects jointly
        # with the latching data recorded in the diagram
        assert len(set(dg.i_obj[n + 1])) == len(dg.i_obj[n + 1])


def test_composition_of_homotopies_agrees_with_cylinder_pasting():
    # the class of a pasted pair equals the class of its filler composite,
    # element-wise over every composable pair of homotopies
    for X in (P.one_object(G.cyclic(3)), P.one_object(G.symmetric(3)),
              P.codiscrete(3)):
        tab = Table((1, 1), (0,))
        from globkit.globe import realize_sum
        real = realize_sum(tab)
        walk = old_realize_gpd(tab).walk(real.legs[1][0][0], real.legs[0][0][1])
        assert walk == P._cylinder_walk()
        for l1 in range(X.n_arrows):
            for l2 in range(X.n_arrows):
                if X.tgt[l1] != X.src[l2]:
                    continue
                composite = P.walk_arrow(X, walk, (l2, l1))
                assert composite == X.comp[l2][l1]


def _paste_functor(X, table, cells):
    """Object/edge images of the functor realizing a fiber-product element
    on the realized sum of `table`: the pasting as a dict, the reference for
    `walk_arrow` folding a `thin_walk`."""
    leg_objects = [legs[0] for legs in realize_sum(table).legs]
    fx = {}
    for k in range(table.width):
        m = table.upper[k]
        if m == 0:
            o = leg_objects[k][0]
            val = cells[k]
            if ("obj", o) in fx:
                assert fx[("obj", o)] == val
            fx[("obj", o)] = val
        else:
            a = cells[k]
            lo = leg_objects[k]
            for o, v in ((lo[0], X.src[a]), (lo[1], X.tgt[a])):
                if ("obj", o) in fx:
                    assert fx[("obj", o)] == v, "pasting tuple is inconsistent"
                fx[("obj", o)] = v
            key = ("edge", lo[0], lo[1])
            if key in fx:
                assert fx[key] == a, "pasting tuple is inconsistent"
            fx[key] = a
    return fx


def _functor_arrow(X, fx, o_from, o_to):
    """Image of the unique arrow o_from -> o_to of a thin sum under a
    pasting, by a search over the edges of the block tree."""
    adj = {}
    for key, a in fx.items():
        if key[0] != "edge":
            continue
        _, o0, o1 = key
        adj.setdefault(o0, []).append((o1, a, False))
        adj.setdefault(o1, []).append((o0, a, True))
    frontier = [(o_from, X.ident[fx[("obj", o_from)]])]
    seen = {o_from}
    while frontier:
        o, arr = frontier.pop()
        if o == o_to:
            return arr
        for (o2, a, invert) in adj.get(o, ()):
            if o2 in seen:
                continue
            seen.add(o2)
            step = X.inv[a] if invert else a
            frontier.append((o2, X.comp[step][arr]))
    raise P.GroupoidError("disconnected pasting shape")


def test_compiled_walk_matches_pasting_oracle(std4, interp4):
    tower, _ = std4
    checked = 0
    for X in (P.connected_groupoid(2, G.cyclic(4)),
              P.disjoint_union(P.one_object(G.symmetric(3)), P.codiscrete(2)),
              P.codiscrete(3)):
        m = P.fundamental(X, tower, interp4)
        for gen in tower.gens():
            h = interp4.gen(gen)
            walk = interp4.walk(gen)
            table = m.interp_for(gen)
            for x in m.cells(gen.target):
                want = _functor_arrow(X, _paste_functor(X, gen.target, x), h[0], h[1])
                assert P.walk_arrow(X, walk, x) == table[x] == want, (gen.name, x)
                checked += 1
    assert checked > 10000


def _loop_object_from_path_object(X, x):
    """The loop object as the sub-groupoid of the path object over (x, x)."""
    po = P.path_object(X)
    loops = [u for u in range(X.n_arrows) if X.src[u] == x and X.tgt[u] == x]
    arrows = []
    for u, v, h, k in po.squares:
        if u in loops and v in loops and h == X.ident[x] and k == X.ident[x]:
            arrows.append((loops.index(u), loops.index(v)))
    omega = P.build_groupoid(len(loops), arrows, lambda g, f: g)
    return omega, loops.index(X.ident[x]), loops


def test_loop_object_matches_path_object_restriction():
    for name, X in P.corpus(3, 8):
        for x in range(X.n_objects):
            assert P.loop_object(X, x) == _loop_object_from_path_object(X, x), (name, x)


def test_out_of_range_objects_are_refused():
    """No object outside 0..n-1 reaches a lookup, where a negative one
    would read the last object's identity."""
    X = P.connected_groupoid(2, G.cyclic(3))
    for x in (-1, 2, 5):
        for call in (X.loops, X.aut_group, lambda x: P.loop_object(X, x),
                     lambda x: P.quillen_pi1(X, x), lambda x: P.quillen_pi_n(X, x, 2)):
            with pytest.raises(P.GroupoidError,
                               match="object %d out of range: the groupoid has 2 objects" % x):
                call(x)
    assert X._loop_objects == {}


def _fresh(X):
    """X as a new instance, which has computed nothing yet."""
    return P.Groupoid(*X._key())


def _types(result):
    return [type(v) for v in result]


@pytest.mark.parametrize("bounds", [(3, 8), (2, 4)])
def test_kept_loop_objects_match_a_fresh_groupoid(bounds):
    """Along each loop chain X, Omega X, Omega^2 X, ..., `loop_object`,
    `quillen_pi1` and `quillen_pi_n` on a groupoid that keeps its loop
    objects, first call and repeat, equal the results on a fresh copy,
    value and type."""
    for name, X in P.corpus(*bounds):
        for x in range(X.n_objects):
            Y, y = X, x
            for n in range(1, 5):
                for fn in (P.loop_object, P.quillen_pi1):
                    want = fn(_fresh(Y), y)
                    for got in (fn(Y, y), fn(Y, y)):
                        assert got == want and _types(got) == _types(want), (name, x, n)
                want = P.quillen_pi_n(_fresh(X), x, n)
                assert P.quillen_pi_n(X, x, n) == want, (name, x, n)
                assert P.quillen_pi_n(X, x, n) == want, (name, x, n)
                Y, y, _ = P.loop_object(Y, y)


def test_kept_loop_objects_do_not_share_their_labels():
    """A repeat returns what the first call returned, the labels as a
    list, and a caller that mutates the labels changes no later call."""
    X = P.connected_groupoid(2, G.symmetric(3))
    want = P.loop_object(_fresh(X), 1)
    first, again = P.loop_object(X, 1), P.loop_object(X, 1)
    assert _types(first) == _types(again) == [P.Groupoid, int, list]
    first[2].append(99)
    again[2].clear()
    assert P.loop_object(X, 1) == want


def test_compare_builds_each_loop_object_once(std4, interp4, monkeypatch):
    """Over one `compare`, every loop object is built once per (groupoid,
    object): quillen_pi_n reuses the chain that quillen_pi1 and lower n
    built."""
    tower, bundle = std4
    built = []
    build = P.build_groupoid

    def counting(*args):
        caller = sys._getframe(1)
        if caller.f_code is P.loop_object.__code__:
            built.append((caller.f_locals["X"], caller.f_locals["x"]))
        return build(*args)

    monkeypatch.setattr(P, "build_groupoid", counting)
    for name, X in P.corpus(3, 8):
        built.clear()
        P.compare(X, tower, bundle, interp4)
        keys = [(id(Y), y) for Y, y in built]
        assert len(keys) == len(set(keys)), name
        assert {(id(X), x) for x in range(X.n_objects)} <= set(keys), name


def test_dropping_a_groupoid_frees_its_loop_objects():
    X = P.connected_groupoid(2, G.cyclic(3))
    assert P.quillen_pi_n(X, 1, 3).order == 1
    omega = P.loop_object(X, 1)[0]
    kept = [weakref.ref(omega), weakref.ref(P.loop_object(omega, 0)[0])]
    del omega
    gc.collect()
    assert all(ref() is not None for ref in kept)
    del X
    gc.collect()
    assert [ref() for ref in kept] == [None, None]


def test_compare_connected_s3_on_three_objects(std4, interp4):
    tower, bundle = std4
    rep = P.compare(P.connected_groupoid(3, G.symmetric(3)), tower, bundle, interp4)
    assert rep.ok()
    assert {names[0] for names in rep.pi1.values()} == {"S3"}


def test_compare_with_check_agrees_without_it(std4, interp4):
    """`compare(..., check=True)` checks the fundamental model first; on
    corpus groupoids it passes and reports what `compare` reports alone."""
    tower, bundle = std4
    for name, X in P.corpus()[::10]:
        rep = P.compare(X, tower, bundle, interp4, check=True)
        assert rep.ok() and rep == P.compare(X, tower, bundle, interp4), name


def test_divide_on_fundamental_model(std4, interp4):
    """The division corrections are interpretable through the filler oracle,
    so the construction runs on fundamental models too."""
    tower, bundle = std4
    X = P.one_object(G.cyclic(4))
    m = P.fundamental(X, tower, interp4)
    # 2-cells are arrows; hom-sets between parallel 1-cells are singletons
    gamma = 1  # the generator of Z4, as a 2-cell
    u = m.carrier.source(2, gamma)
    res = H.divide(m, bundle, 2, 0, gamma, u, u)
    assert res.forward == {u: X.comp[gamma][u]}
    assert res.backward == {X.comp[gamma][u]: u}
    iso, gu, gx = H.base_change_iso(m, bundle, 2, 0)
    assert gu.order == gx.order == 1


def test_compare_two_components(std4, interp4):
    tower, bundle = std4
    X = P.disjoint_union(P.one_object(G.cyclic(2)), P.one_object(G.cyclic(3)))
    rep = P.compare(X, tower, bundle, interp4)
    assert rep.pi0_model == 2
    assert {names[0] for names in rep.pi1.values()} == {"Z2", "Z3"}
    assert rep.higher_trivial


def test_compare_collapse_is_not_weq(std4, interp4):
    tower, bundle = std4
    X = P.one_object(G.cyclic(2))
    pt = P.point()
    mX = P.fundamental(X, tower, interp4)
    mpt = P.fundamental(pt, tower, interp4)
    collapse = M.morphism_from_dims(mX, mpt, [(0,), (0, 0)])
    rep = H.weak_equiv(collapse, bundle)
    assert not rep.is_weak_equivalence and rep.agree


def test_functoriality_of_comparison(std4, interp4):
    """Induced maps on fundamental models commute with the identifications."""
    tower, bundle = std4
    X = P.one_object(G.cyclic(4))
    Y = P.one_object(G.cyclic(2))
    f = P.GFunctor(X, Y, (0,), tuple(a % 2 for a in range(4))).validate()
    mX = P.fundamental(X, tower, interp4)
    mY = P.fundamental(Y, tower, interp4)
    morph = M.morphism_from_dims(mX, mY, [f.obj_map, f.arr_map])
    morph.validate()
    # the identification sends a loop class to its unique member arrow; the
    # naturality square asks that mapping classes and then identifying agrees
    # with identifying and then applying the functor on arrows
    _, classes_x = H.hom_classes(mX, 1)
    class_of_y, classes_y = H.hom_classes(mY, 1)
    for x in range(X.n_objects):
        _, ex, _ = H.pi_n(mX, bundle, 1, x)
        for cls in ex:
            a = classes_x[cls][0]
            image_class = class_of_y[morph.apply(1, a)]
            assert classes_y[image_class] == (f.arr_map[a],)


def test_corpus_shape():
    corp = P.corpus()
    assert len(corp) >= 40
    for name, X in corp:
        assert X.n_objects <= 3
        assert X.n_arrows <= 9  # named codiscrete3 has 9 arrows
        X.validate()


@pytest.mark.parametrize("bounds", [(3, 8), (2, 4), (3, 12), (4, 16), (1, 8)])
def test_corpus_matches_the_pairwise_fold(bounds):
    """One union per multiset of pieces, in ascending piece order, gives the
    recursive walk's corpus: the same names in the same order, and equal
    groupoids."""
    new, old = P.corpus(*bounds), old_corpus(*bounds)
    assert [name for name, _ in new] == [name for name, _ in old]
    assert [X for _, X in new] == [X for _, X in old]


def test_named_groupoids_are_connected_pieces_and_their_unions():
    assert P.point() == old_codiscrete(1)
    for k in range(5):
        assert P.codiscrete(k) == old_codiscrete(k)
        assert P.discrete(k) == old_discrete(k)
    for name in ("Z1", "Z2", "Z3", "V4", "S3", "Q8"):
        assert P.one_object(G.by_name(name)) == old_one_object(G.by_name(name))
    pieces = [P.point(), P.codiscrete(2), P.one_object(G.cyclic(3)),
              P.connected_groupoid(2, G.cyclic(2)), P.discrete(2)]
    assert P.disjoint_union() == P.build_groupoid(0, [], None)
    for r in range(1, 5):
        for parts in itertools.product(pieces, repeat=r):
            folded = parts[0]
            for part in parts[1:]:
                folded = old_disjoint_union(folded, part)
            assert P.disjoint_union(*parts) == folded


def _relabelled(group, rng):
    """The group with its non-identity elements permuted at random."""
    n = group.order
    perm = [0] + rng.sample(range(1, n), n - 1)
    back = {p: x for x, p in enumerate(perm)}
    return G.Group(group.name, tuple(tuple(perm[group.mult[back[x]][back[y]]]
                                           for y in range(n)) for x in range(n)))


def test_isomorphisms_by_generator_images_match_the_backtracking_search():
    """Over every pair of catalogue groups of one order, under six seeded
    relabellings: an isomorphism is found exactly when the old search finds
    one, each is a bijective homomorphism, and `recognize` names each group
    as before."""
    catalogue = [G.by_name(name) for name in G._CATALOGUE]
    found = 0
    for seed in range(6):
        rng = random.Random(seed)
        for a, b in itertools.product(catalogue, repeat=2):
            if a.order != b.order:
                continue
            a2, b2 = _relabelled(a, rng), _relabelled(b, rng)
            phi = G.find_isomorphism(a2, b2)
            assert (phi is None) == (old_find_isomorphism(a2, b2) is None), (a.name, b.name)
            if phi is not None:
                found += 1
                n = a.order
                assert sorted(phi) == list(range(n))
                assert all(phi[a2.op(x, y)] == b2.op(phi[x], phi[y])
                           for x in range(n) for y in range(n))
        for grp in catalogue + [G.dihedral(3), G.symmetric(2)]:
            relabelled = _relabelled(grp, rng)
            assert G.recognize(relabelled) == old_recognize(relabelled)
    # the catalogue names each group once, so each is isomorphic to itself alone
    assert found == 6 * len(catalogue)


def test_groupoid_json_round_trip():
    X = P.disjoint_union(P.one_object(G.cyclic(2)), P.codiscrete(2))
    data = P.groupoid_to_json(X)
    back = P.groupoid_from_json(data)
    assert back == X
    data["inverse"][0] = 1
    with pytest.raises(P.GroupoidError):
        P.groupoid_from_json(data)
