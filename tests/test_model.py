"""Models: evaluation, checking, strict builders, files, restriction."""

import copy
import dataclasses
import itertools
import json
import pickle
import random
import re
import types
from collections import Counter

import pytest

from globkit import coherator as C
from globkit import gpd
from globkit import groups as G
from globkit import model as M
from globkit import rewrite as R
from globkit.globe import MAX_CELLS, GlobeError, GlobularSet, Table, Word, disk, realize_sum
from globkit.model import Discrete, FillerError, KAn, KG1, XMod
from globkit.theta0 import GMap, enumerate_homs
from oracles import all_tables, old_check, old_restrict, old_unit_filler, old_validate
from test_theta0 import level_map


@pytest.fixture(scope="module")
def kg1_z3(std3):
    tower, bundle = std3
    return M.build_strict(KG1(G.cyclic(3)), tower, bundle)


def test_eval_composition_against_group_table(std3, kg1_z3):
    tower, _ = std3
    z3 = G.cyclic(3)
    nab = tower.term("comp1_0")
    for g in range(3):
        for h in range(3):
            assert kg1_z3.eval1(nab, (g, h)) == z3.op(g, h)


def test_eval_unit_degenerate(std3, kg1_z3):
    tower, _ = std3
    ka = tower.term("unit0")
    assert kg1_z3.eval1(ka, (0,)) == 0
    ka1 = tower.term("unit1")
    for g in range(3):
        assert kg1_z3.eval1(ka1, (g,)) == g


def test_eval_inverse_forced_by_constraint(std3, kg1_z3):
    tower, _ = std3
    z3 = G.cyclic(3)
    om = tower.term("inv1_0")
    for g in range(3):
        assert kg1_z3.eval1(om, (g,)) == z3.inv(g)
    # the right-inverse constraint has matching boundaries at every input
    rinv = tower["rinv1"]
    for x in kg1_z3.cells(rinv.target):
        v = kg1_z3.interp_for(rinv)[x]
        assert kg1_z3.carrier.source(2, v) == kg1_z3.eval1(rinv.fsrc, x)
        assert kg1_z3.carrier.target(2, v) == kg1_z3.eval1(rinv.gtgt, x)


def test_check_model_clean_builtins(std3):
    tower, bundle = std3
    for spec in (KG1(G.cyclic(2)), Discrete(2), KAn(G.cyclic(4), 2),
                 XMod(G.trivial_xmod(G.cyclic(2), G.cyclic(2)))):
        model = M.build_strict(spec, tower, bundle)
        assert model.check() == []


def old_kg1_model(group, tower, bundle):
    """KG1(G) by the formulas it had before it became `KAn`'s at n = 1: the
    differential oracle of `build_strict(KG1(G))`."""
    n, trunc = group.order, tower.trunc
    src = ((), (0,) * n) + (tuple(range(n)),) * (trunc - 1)
    carrier = GlobularSet((1,) + (n,) * trunc, src, src)
    units = ((0,),) + (tuple(range(n)),) * (trunc - 1)
    comp = {name: ij for ij, name in bundle.comp.items()}
    unit = {name: i for i, name in bundle.unit.items()}
    inv = {name: ij for ij, name in bundle.inv.items()}

    def filler(model, gen):
        cells = model.cells(gen.target)
        if gen.name in comp:
            j = comp[gen.name][1]
            return {x: group.op(x[0], x[1]) if j == 0 else x[0] for x in cells}
        if gen.name in unit:
            return {x: 0 if unit[gen.name] == 0 else x[0] for x in cells}
        if gen.name in inv:
            j = inv[gen.name][1]
            return {x: group.inv(x[0]) if j == 0 else x[0] for x in cells}
        return M.unit_filler(model, gen)

    tower.seal()
    return M.Model(tower, carrier, {}, filler, units, "old KG1")


def test_kg1_is_kan_at_one_against_the_old_formulas():
    groups = [G.symmetric(3), G.cyclic(8), G.quaternion8(), G.dihedral(4), G.cyclic(1)]
    for trunc in (3, 4, 5):
        tower, bundle = C.stdlib(trunc)
        for group in groups:
            new = M.build_strict(KG1(group), tower, bundle)
            old = old_kg1_model(group, tower, bundle)
            assert (new.carrier, new.units) == (old.carrier, old.units), group.name
            for gen in tower.gens():
                assert new.interp_for(gen) == old.interp_for(gen), (group.name, gen.name)
    with pytest.raises(M.ModelError, match="n >= 2"):
        KAn(G.cyclic(3), 1)


# The strict builders as they were before they became constructors of one
# `StrictSpec`: the differential oracle of `build_strict`.

@dataclasses.dataclass(frozen=True)
class OldDiscrete:
    points: int


@dataclasses.dataclass(frozen=True)
class OldKG1:
    group: G.Group
    n = 1


@dataclasses.dataclass(frozen=True)
class OldKAn:
    group: G.Group
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise M.ModelError("K(A, n) needs n >= 2, got %d" % self.n)
        if not self.group.is_abelian():
            raise M.ModelError("K(A, n) needs an abelian group, %s is not" % self.group.name)


@dataclasses.dataclass(frozen=True)
class OldXMod:
    xm: G.CrossedModule


def old_strict_carrier(spec, trunc):
    if isinstance(spec, OldDiscrete):
        counts = [spec.points] * (trunc + 1)
        ident = lambda d: tuple(range(counts[d]))
        src = ((),) + tuple(ident(d) for d in range(1, trunc + 1))
        units = tuple(tuple(range(spec.points)) for _ in range(trunc))
        return GlobularSet(tuple(counts), src, src), units
    if isinstance(spec, (OldKG1, OldKAn)):
        n, a = spec.n, spec.group.order
        if n > trunc:
            raise M.ModelError("K(A, %d) needs n <= the truncation %d" % (n, trunc))
        counts = [1] * n + [a] * (trunc - n + 1)
        src = [()]
        for d in range(1, n):
            src.append((0,))
        src.append(tuple(0 for _ in range(a)))
        for d in range(n + 1, trunc + 1):
            src.append(tuple(range(a)))
        units = tuple((0,) if d < n else tuple(range(a)) for d in range(trunc))
        gs = GlobularSet(tuple(counts), tuple(src), tuple(src))
        return gs, units
    xm = spec.xm
    G_, A, ng, na = xm.grp, xm.agrp, xm.grp.order, xm.agrp.order
    counts = [1, ng] + [ng * na] * (trunc - 1)
    src = [(), tuple(0 for _ in range(ng))]
    tgt = [(), tuple(0 for _ in range(ng))]
    src.append(tuple(g for g in range(ng) for _ in range(na)))
    tgt.append(tuple(G_.op(xm.boundary[a], g) for g in range(ng) for a in range(na)))
    for d in range(3, trunc + 1):
        src.append(tuple(range(ng * na)))
        tgt.append(tuple(range(ng * na)))
    units = [tuple([0]), tuple(g * na for g in range(ng))]
    for d in range(2, trunc):
        units.append(tuple(range(ng * na)))
    gs = GlobularSet(tuple(counts), tuple(src), tuple(tgt))
    return gs, tuple(units)


class OldStrictOps:
    def __init__(self, spec):
        self.spec = spec

    def comp(self, i, j, v, u):
        s = self.spec
        if isinstance(s, OldDiscrete):
            return v
        if isinstance(s, (OldKG1, OldKAn)):
            if i < s.n:
                return 0
            return s.group.op(v, u) if j < s.n else v
        xm = s.xm
        G_, A, na = xm.grp, xm.agrp, xm.agrp.order
        if i == 1:
            return G_.op(v, u)
        if j >= 2:
            return v
        gv, av = divmod(v, na)
        gu, au = divmod(u, na)
        if j == 0:
            return G_.op(gv, gu) * na + A.op(av, xm.act(gv, au))
        return gu * na + A.op(av, au)

    def unit(self, i, c):
        s = self.spec
        if isinstance(s, (OldDiscrete,)):
            return c
        if isinstance(s, (OldKG1, OldKAn)):
            return 0 if i < s.n else c
        na = s.xm.agrp.order
        if i == 0:
            return 0
        if i == 1:
            return c * na
        return c

    def inv(self, i, j, c):
        s = self.spec
        if isinstance(s, OldDiscrete):
            return c
        if isinstance(s, (OldKG1, OldKAn)):
            if i < s.n:
                return 0
            return s.group.inv(c) if j < s.n else c
        xm = s.xm
        G_, A, na = xm.grp, xm.agrp, xm.agrp.order
        if i == 1:
            return G_.inv(c)
        if j >= 2:
            return c
        g, a = divmod(c, na)
        if j == 0:
            gi = G_.inv(g)
            return gi * na + xm.act(gi, A.inv(a))
        return G_.op(xm.boundary[a], g) * na + A.inv(a)


def old_build_strict(spec, tower, bundle):
    carrier, units = old_strict_carrier(spec, tower.trunc)
    ops = OldStrictOps(spec)
    comp = {name: ij for ij, name in bundle.comp.items()}
    unit = {name: i for i, name in bundle.unit.items()}
    inv = {name: ij for ij, name in bundle.inv.items()}

    def filler(model, gen):
        cells = model.cells(gen.target)
        if gen.name in comp:
            return {x: ops.comp(*comp[gen.name], x[0], x[1]) for x in cells}
        if gen.name in unit:
            return {x: ops.unit(unit[gen.name], x[0]) for x in cells}
        if gen.name in inv:
            return {x: ops.inv(*inv[gen.name], x[0]) for x in cells}
        return M.unit_filler(model, gen)

    tower.seal()
    model = M.Model(tower, carrier, {}, filler, units, spec.__class__.__name__[3:])
    for gen in tower.gens():
        model.interp_for(gen)
    return model


def outcome(build):
    """A built model, or the error that refused it (exit 1 on the CLI)."""
    try:
        return build()
    except (M.ModelError, GlobeError) as e:
        return e


def test_strict_specs_against_the_old_builders():
    z1, z2, z3, z4, v4, s3 = (G.cyclic(1), G.cyclic(2), G.cyclic(3), G.cyclic(4),
                              G.klein4(), G.symmetric(3))
    doubling = G.CrossedModule(z4, z4, (0, 2, 0, 2), (tuple(range(4)),) * 4)
    cases = [(lambda k=k: Discrete(k), OldDiscrete(k)) for k in range(4)]
    cases += [(lambda g=g: KG1(g), OldKG1(g)) for g in (z1, z2, z4, v4, s3)]
    cases += [(lambda g=g, n=n: KAn(g, n), OldKAn(g, n))
              for g in (z2, z3, v4) for n in (2, 3, 4)]
    cases += [(lambda xm=xm: XMod(xm), OldXMod(xm))
              for xm in (G.inclusion_xmod(s3), doubling, G.trivial_xmod(z2, z2),
                         G.trivial_xmod(s3, z2))]
    for trunc in range(6):
        if trunc >= 2:
            tower, bundle = C.stdlib(trunc)
        else:
            tower, bundle = C.Tower(trunc), C.PregroupoidBundle({}, {}, {})
        for make, old_spec in cases:
            new = outcome(lambda: M.build_strict(make(), tower, bundle))
            old = outcome(lambda: old_build_strict(old_spec, tower, bundle))
            if isinstance(old_spec, OldXMod) and trunc < 2:
                # refused as any spec whose group sits above the truncation
                assert "needs boundary rows" in str(old)
                assert str(new) == "K(A, 2) needs n <= the truncation %d" % trunc
                continue
            assert isinstance(new, M.Model) == isinstance(old, M.Model), (old_spec, trunc)
            if not isinstance(new, M.Model):
                assert (type(new), str(new)) == (type(old), str(old))
                continue
            assert (new.carrier, new.units, new.label) == (old.carrier, old.units, old.label)
            for gen in tower.gens():
                assert new.interp_for(gen) == old.interp_for(gen), (old_spec, gen.name)
    # a negative count is refused by the constructor, no longer by the carrier
    assert "not all naturals" in str(outcome(lambda: old_strict_carrier(OldDiscrete(-1), 2)))
    with pytest.raises(M.ModelError, match="points >= 0, got -1"):
        Discrete(-1)


def test_strict_carriers_are_bounded_before_they_are_built(std3):
    tower, bundle = std3
    carrier, units = M.strict_carrier(Discrete(MAX_CELLS), 0)
    assert carrier.cells == (MAX_CELLS,) and units == ()
    with pytest.raises(M.ModelError, match="has %d cells, more than the %d supported"
                       % (MAX_CELLS + 1, MAX_CELLS)):
        M.strict_carrier(Discrete(MAX_CELLS + 1), 0)
    with pytest.raises(M.ModelError, match="truncated at 3 has 4000000000 cells"):
        M.build_strict(Discrete(10 ** 9), tower, bundle)
    # the fundamental model's carrier goes through the same check; a stand-in
    # for a groupoid too large to build is read only through its sizes
    n = MAX_CELLS
    huge = types.SimpleNamespace(n_objects=n, n_arrows=n, src=range(n), tgt=range(n),
                                 ident=range(n))
    with pytest.raises(M.ModelError, match="has %d cells" % (n * 4)):
        gpd.fundamental(huge, tower)


def test_check_model_detects_bad_inverse(std3):
    tower, bundle = std3
    model = M.build_strict(KG1(G.cyclic(3)), tower, bundle)
    # overwrite the inverse with the identity map: the inverse-constraint
    # boundary equations now fail on every nontrivial element
    model.interp["inv1_0"] = {(g,): g for g in range(3)}
    bad = model.check()
    assert bad
    assert any(v[0] in ("rinv1", "linv1") for v in bad)
    assert bad == oracle_check(model)


def test_build_strict_succeeds_on_s3_with_unit_fillers(std3):
    tower, bundle = std3
    model = M.build_strict(KG1(G.symmetric(3)), tower, bundle)
    # every constraint generator is filled degenerately
    for name in ("assoc1", "runit2", "pent1", "exch2", "tri1"):
        gen = tower[name]
        for x, v in model.interp_for(gen).items():
            assert model.carrier.source(gen.dim, v) == model.carrier.target(gen.dim, v)
    assert model.check() == []


def test_strict_coherence_cells_have_equal_boundaries(std3):
    tower, bundle = std3
    model = M.build_strict(KAn(G.cyclic(2), 2), tower, bundle)
    for name in ("assoc2", "lunit2", "rinv2", "pent1", "tri1", "exch2"):
        gen = tower[name]
        for x in model.cells(gen.target):
            assert model.eval1(gen.fsrc, x) == model.eval1(gen.gtgt, x), name


def test_crossed_module_has_genuine_two_cells(std3):
    tower, bundle = std3
    xm = G.trivial_xmod(G.cyclic(2), G.cyclic(2))
    model = M.build_strict(XMod(xm), tower, bundle)
    nab2 = tower.term("comp2_1")
    # vertical composition adds the fiber components
    a1 = 0 * 2 + 1   # (g=0, a=1) : 0 -> 0
    a0 = 0 * 2 + 0
    assert model.eval1(nab2, (a1, a1)) == a0
    assert model.check() == []


def test_filler_failure_names_generator_and_witness(monkeypatch):
    # a lifting of (s2, t2) asks for a section of the boundary map; on a
    # crossed module with nontrivial boundary no degenerate filler exists
    tower, bundle = C.stdlib(3)
    tower.declare("sect", C.wordt("s", 1, 2), C.wordt("t", 1, 2))
    xm = G.inclusion_xmod(G.cyclic(2))
    with pytest.raises(FillerError) as exc:
        M.build_strict(XMod(xm), tower, bundle)
    assert exc.value.gen_name == "sect"
    assert exc.value.witness is not None
    # the same first failing input and sides as one input at a time
    with monkeypatch.context() as mp:
        mp.setattr(M, "unit_filler", per_element_unit_filler)
        want = outcome_of(lambda: M.build_strict(XMod(xm), tower, bundle))
    assert outcome_of(lambda: M.build_strict(XMod(xm), tower, bundle)) == want
    assert want[:5] == ("FillerError", "sect", exc.value.witness, exc.value.got, exc.value.want)
    # on a strict one-object model the same pair fills degenerately
    assert M.build_strict(KG1(G.cyclic(3)), tower, bundle).check() == []


def test_fiber_product_counts_against_hom_oracle(std3):
    tower, bundle = std3
    model = M.build_strict(KG1(G.cyclic(2)), tower, bundle)

    def oracle_count(table):
        """Globular-set maps from the realized sum into the carrier."""
        real = realize_sum(table)
        dims = range(real.carrier.dim + 1)
        choices = [
            list(itertools.product(range(model.carrier.count(d)),
                                   repeat=real.carrier.count(d)))
            for d in dims
        ]
        count = 0
        for combo in itertools.product(*choices):
            ok = True
            for d in range(1, real.carrier.dim + 1):
                for c in range(real.carrier.count(d)):
                    if model.carrier.source(d, combo[d][c]) != combo[d - 1][real.carrier.source(d, c)] or \
                            model.carrier.target(d, combo[d][c]) != combo[d - 1][real.carrier.target(d, c)]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                count += 1
        return count

    for table in all_tables(3, 2):
        assert len(model.cells(table)) == oracle_count(table), table


def oracle_gmap(model, gm, x):
    """A concrete map on a fiber element, read off the target's canonical
    presentations and walked with the carrier's own boundary maps."""
    treal, sreal, maps = realize_sum(gm.target), realize_sum(gm.source), level_map(gm).maps
    out = []
    for k, m in enumerate(gm.source.upper):
        slot, word = treal.owners[m][maps[m][sreal.legs[k][m][0]]]
        out.append(model.carrier.boundary(word, x[slot]))
    return tuple(out)


def oracle_eval(model, raw, x):
    """Evaluate a raw syntax tree node by node, with no compiled program."""
    if isinstance(raw, GMap):
        return oracle_gmap(model, raw, tuple(x))
    if isinstance(raw, C.RGen):
        return (model.interp_for(raw.gen)[tuple(x)],)
    if isinstance(raw, C.RTuple):
        return tuple(oracle_eval(model, c, x)[0] for c in raw.comps)
    return oracle_eval(model, raw.inner, oracle_eval(model, raw.outer, x))


def oracle_check(model):
    """`Model.check`'s report, recomputed with the raw-term oracle."""
    report = []
    for gen in model.tower.gens():
        fsrc, gtgt = C.term_to_raw(gen.fsrc), C.term_to_raw(gen.gtgt)
        for x in model.cells(gen.target):
            v = model.interp_for(gen)[x]
            try:
                wants = [oracle_eval(model, raw, x)[0] for raw in (fsrc, gtgt)]
            except KeyError as e:
                report.append((gen.name, x, "boundary",
                               "a sub-term inside a fiber product", e.args[0]))
                continue
            for side, want, got in zip(("src", "tgt"), wants,
                                       (model.carrier.source(gen.dim, v),
                                        model.carrier.target(gen.dim, v))):
                if got != want:
                    report.append((gen.name, x, side, want, got))
    return report


def per_element_program(model, term):
    """The closure compiler that `Model.program` replaced, as its
    differential oracle: `prog(x, get)` evaluates the term on one fiber
    element and returns a tuple indexed by the term's source table."""
    if isinstance(term, GMap):
        plan = model._plan(term)
        return lambda x, get: tuple([x[k] if table is None else table[x[k]]
                                     for k, table in plan])
    if isinstance(term, C.TupleT):
        comps = tuple(per_element_program(model, c) for c in term.comps)
        return lambda x, get: tuple([comp(x, get)[0] for comp in comps])
    gen, tail = term.gen, per_element_program(model, term.tail)
    return lambda x, get: (get(gen)[tail(x, get)],)


def per_element_unit_filler(model, gen):
    """`unit_filler` with the per-element programs, one input at a time."""
    get = model.interp_for
    fsrc, gtgt = per_element_program(model, gen.fsrc), per_element_program(model, gen.gtgt)
    out = {}
    for x in model.cells(gen.target):
        (a,) = fsrc(x, get)
        (b,) = gtgt(x, get)
        if a != b:
            raise FillerError(gen.name, x, a, b)
        out[x] = model.units[gen.dim - 1][a]
    return out


def column_rows(model, term, table):
    """The column program of a term run over a whole fiber product, read
    back row by row."""
    cols = model.program(term)(model.columns(table), model.interp_for)
    assert all(len(col) == len(model.cells(table)) for col in cols)
    return list(zip(*cols))


def assert_columns_match_per_element(model, term, table):
    prog, get = per_element_program(model, term), model.interp_for
    assert column_rows(model, term, table) == [prog(x, get) for x in model.cells(table)], \
        (model.label, term)


def outcome_of(fill):
    """What a filler returns, or the error it raises, as comparable data."""
    try:
        return fill()
    except FillerError as e:
        return ("FillerError", e.gen_name, e.witness, e.got, e.want, str(e))
    except KeyError as e:
        return ("KeyError", e.args)


def test_eval_matches_raw_oracle_on_random_terms(std3):
    tower, bundle = std3
    models = [M.build_strict(KG1(G.cyclic(3)), tower, bundle),
              M.build_strict(KAn(G.cyclic(2), 2), tower, bundle)]
    rng = random.Random(5)
    for model in models:
        for _ in range(250):
            raw = R.random_raw(tower, rng, budget=5)
            nf = C.normalize(raw)
            for x in model.cells(nf.target):
                assert oracle_eval(model, raw, x) == model.eval(nf, x)
            assert_columns_match_per_element(model, nf, nf.target)


def test_compiled_boundaries_match_raw_oracle(std4, strict_models):
    """Every generator's two boundary programs, on every fiber element of
    the strict models the benchmark builds, a fundamental model and a
    restricted model."""
    tower, _ = std4
    models = list(strict_models)
    models.append(gpd.fundamental(gpd.connected_groupoid(2, G.cyclic(2)), tower))
    models.append(M.restrict(strict_models[0], C.tower_functor(tower, {}, tower)))
    for model in models:
        for gen in tower.gens():
            for term in (gen.fsrc, gen.gtgt):
                raw = C.term_to_raw(term)
                for x in model.cells(gen.target):
                    assert model.eval(term, x) == oracle_eval(model, raw, x), \
                        (model.label, gen.name, x)


def test_column_programs_match_per_element_programs(std4, strict_models):
    """Every generator's two boundary programs, run over its whole fiber
    product, against the per-element programs they replaced, on the models
    of the raw-oracle test above."""
    tower, _ = std4
    models = list(strict_models)
    models.append(gpd.fundamental(gpd.connected_groupoid(2, G.cyclic(2)), tower))
    models.append(M.restrict(strict_models[0], C.tower_functor(tower, {}, tower)))
    for model in models:
        for gen in tower.gens():
            for term in (gen.fsrc, gen.gtgt):
                assert_columns_match_per_element(model, term, gen.target)


def test_carriers_own_faces_fiber_products_and_their_sizes(std4):
    """What a carrier alone determines is kept on it: `faces(w)` is
    `boundary` on each cell for every word up to the truncation; the fiber
    product is built once per carrier, is what `Model.cells` returns, and a
    restricted model shares its source's; and `fiber_count` is the
    product's size, on every table of width up to 3 and dimension up to 4
    and on the carriers of realized sums."""
    tower, bundle = std4
    models = [M.build_strict(spec, tower, bundle) for spec in (
        KG1(G.symmetric(3)), KAn(G.cyclic(2), 2), Discrete(3),
        XMod(G.trivial_xmod(G.cyclic(2), G.cyclic(2))))]
    models.append(gpd.fundamental(gpd.connected_groupoid(2, G.cyclic(2)), tower))
    tables = all_tables(3, 4)
    for model in models:
        car = model.carrier
        for tgt in range(car.dim + 1):
            for src in range(tgt + 1):
                for kind in ("st" if src < tgt else (None,)):
                    word = Word(src, tgt, kind)
                    want = tuple(car.boundary(word, c) for c in range(car.count(tgt)))
                    assert car.faces(word) == want and car.faces(word) is car.faces(word)
        for table in tables:
            assert car.fiber_count(table) == len(car.fiber_product(table)), \
                (model.label, table)
            assert model.cells(table) is car.fiber_product(table)
    restricted = M.restrict(models[0], C.tower_functor(tower, {}, tower))
    assert restricted.check() == []
    for table in tables:
        assert restricted.cells(table) is models[0].cells(table)
    small = all_tables(2, 3)
    for target in small:
        car = realize_sum(target).carrier
        for source in small:
            assert car.fiber_count(source) == len(enumerate_homs(source, target))


def test_empty_fiber_products(std3):
    tower, bundle = std3
    model = M.build_strict(Discrete(0), tower, bundle)
    assert model.check() == []
    for gen in tower.gens():
        assert model.interp_for(gen) == {}
        assert model.columns(gen.target) == ((),) * len(gen.target.upper)
        for term in (gen.fsrc, gen.gtgt):
            assert model.program(term)(model.columns(gen.target), model.interp_for) == ((),)
    assert M.restrict(model, C.tower_functor(tower, {}, tower)).check() == []


def test_check_sees_interpretation_overwritten_after_compiling(std3):
    tower, bundle = std3
    model = M.build_strict(KG1(G.cyclic(3)), tower, bundle)
    assert model.check() == []   # compiles every generator's boundary programs
    model.interp["inv1_0"] = {(g,): 0 for g in range(3)}
    bad = model.check()
    assert bad == oracle_check(model)
    assert {v[0] for v in bad} >= {"rinv1", "linv1"}


def test_check_reports_terms_that_leave_the_fiber_product(std3):
    tower, bundle = std3
    model = M.build_strict(KG1(G.cyclic(3)), tower, bundle)
    # a composite that returns its first input sends boundary terms of the
    # generators built on it outside the fiber products they are applied to
    model.interp["comp1_0"] = {x: x[0] for x in model.cells(tower["comp1_0"].target)}

    def leaves(gen, x):
        try:
            for term in (gen.fsrc, gen.gtgt):
                oracle_eval(model, C.term_to_raw(term), x)
        except KeyError:
            return True
        return False

    bad = model.check()
    outside = {(v[0], v[1]) for v in bad if v[2] == "boundary"}
    assert outside
    assert outside == {(gen.name, x) for gen in tower.gens()
                       for x in model.cells(gen.target) if leaves(gen, x)}
    assert bad == oracle_check(model)
    # pent1's first failing input leaves a fiber product and a later one only
    # mismatches: the report keeps the fiber product's order
    pent = [v[2] for v in bad if v[0] == "pent1"]
    assert pent[0] == "boundary" and {"src", "tgt"} & set(pent)
    # the fillers see the same first failure, input for input
    for gen in tower.gens():
        assert outcome_of(lambda: M.unit_filler(model, gen)) == \
            outcome_of(lambda: per_element_unit_filler(model, gen)), gen.name


def nine_strict_specs():
    """The specs of the nine strict models the strict-models benchmark
    workload builds."""
    return [KG1(G.symmetric(3)), KG1(G.cyclic(8)), KG1(G.quaternion8()), KG1(G.dihedral(4)),
            KAn(G.cyclic(4), 2), KAn(G.cyclic(2), 2), Discrete(3),
            XMod(G.inclusion_xmod(G.cyclic(4))), XMod(G.trivial_xmod(G.cyclic(2), G.cyclic(2)))]


def assert_checks_agree(new, old):
    """`check` on `new` reports what the old check reports on `old`, row for
    row, and the tables and, where the model has units, the degenerate
    filler's outcomes are the old ones."""
    assert new.check() == old_check(old), new.label
    for gen in new.tower.gens():
        assert new.interp_for(gen) == old.interp_for(gen), (new.label, gen.name)
        if new.units is not None:
            assert outcome_of(lambda: M.unit_filler(new, gen)) == \
                outcome_of(lambda: old_unit_filler(old, gen)), (new.label, gen.name)


# the lower tables that test_check_sees_interpretation_overwritten_after_compiling
# and test_check_reports_terms_that_leave_the_fiber_product replace, replaced
# in this order: every inverse is one cell, then a composite that returns its
# first input
BROKEN = (("inv1_0", lambda x: 0), ("comp1_0", lambda x: x[0]))


def test_check_and_fillers_agree_with_the_ones_that_ran_each_term_anew(monkeypatch):
    """`check` reuses the vector `unit_filler` found both sides agree on,
    and `unit_filler` and `restrict`'s filler transpose each product once;
    the old ones ran each program anew.  Reports agree in content and order
    on the nine strict models, their restrictions, fundamental models and
    model files, also after a lower table is edited in place as a plain
    copy that a check and the fillers read first, and after it is
    replaced, when no record may stand for the sides that read it."""
    for d in (3, 4):
        tower, bundle = C.stdlib(d)
        fn = C.tower_functor(tower, {}, tower)
        broken = []
        for spec in nine_strict_specs():
            new = M.build_strict(spec, tower, bundle)
            with monkeypatch.context() as patch:
                patch.setattr(M, "unit_filler", old_unit_filler)
                old = M.build_strict(spec, tower, bundle)
            assert_checks_agree(new, old)
            r_new, r_old = M.restrict(new, fn), old_restrict(old, fn)
            assert_checks_agree(r_new, r_old)
            data = M.model_to_json(new)
            assert_checks_agree(M.model_from_json(data, tower), M.model_from_json(data, tower))
            for name, out in BROKEN:
                for a, b in ((new, old), (r_new, r_old)):
                    kept = a.interp_for(tower[name]), b.interp_for(tower[name])
                    table = dict(kept[0])
                    a.interp[name], b.interp[name] = table, dict(table)
                    assert_checks_agree(a, b)
                    for x in table:
                        table[x] = b.interp[name][x] = out(x)
                    assert_checks_agree(a, b)
                    a.interp[name], b.interp[name] = kept
                    assert_checks_agree(a, b)
                    table = {x: out(x) for x in a.cells(tower[name].target)}
                    a.interp[name], b.interp[name] = table, dict(table)
                    assert_checks_agree(a, b)
            data = M.model_to_json(new)
            assert_checks_agree(M.model_from_json(data, tower), M.model_from_json(data, tower))
            broken.append(bool(new.check()))
        # all but the two K(A, 2), whose one 1-cell is its own inverse and
        # composite
        assert sum(broken) == 7
        interp = gpd.TowerGpdInterp(tower)
        for _, X in gpd.corpus(2, 4):
            assert_checks_agree(gpd.fundamental(X, tower, interp),
                                gpd.fundamental(X, tower, interp))


def test_check_runs_no_program_for_generators_the_unit_filler_filled(std4, monkeypatch):
    tower, bundle = std4
    filled, ran = [], []
    unit_filler, program = M.unit_filler, M.Model.program

    def recording_filler(model, gen):
        filled.append(gen)
        return unit_filler(model, gen)

    def counting_program(model, term):
        prog = program(model, term)

        def run(cols, get):
            ran.append(term)
            return prog(cols, get)
        return run

    monkeypatch.setattr(M, "unit_filler", recording_filler)
    model = M.build_strict(KG1(G.symmetric(3)), tower, bundle)
    monkeypatch.setattr(M.Model, "program", counting_program)
    strict = [tower[name] for ops in (bundle.comp, bundle.unit, bundle.inv)
              for name in ops.values()]
    assert filled and not set(filled) & set(strict)
    assert len(filled) + len(strict) == len(tower)
    assert model.check() == []
    # the strict operations' two sides are run, each once, and no side of a
    # generator the unit filler filled: its record stands for both
    assert Counter(ran) == Counter(t for g in strict for t in (g.fsrc, g.gtgt))
    assert model._agreed == {}
    # the check popped every record, so a second one runs every side, as a
    # check of a model read from a file does
    ran[:] = []
    assert model.check() == []
    assert Counter(ran) == Counter(t for g in tower.gens() for t in (g.fsrc, g.gtgt))


def test_a_record_is_kept_while_the_tables_it_read_are(std3):
    tower, bundle = std3
    model = M.build_strict(KG1(G.cyclic(3)), tower, bundle)
    gen = tower["rinv1"]   # its sides read comp1_0, inv1_0 and unit0
    vector, read = model._agreed[gen.name]
    # one vector for both sides, over the model's own tables
    cols = model.columns(gen.target)
    assert (vector,) == model.program(gen.fsrc)(cols, model.interp_for) == \
        model.program(gen.gtgt)(cols, model.interp_for)
    assert {g.name for g, _ in read} == {"comp1_0", "inv1_0", "unit0"}
    assert all(t is model.interp[g.name] and type(t) is M.FrozenTable for g, t in read)
    # check pops the record; a unit filler over the same tables makes it again
    assert model.check() == [] and gen.name not in model._agreed
    M.unit_filler(model, gen)
    assert model._agreed[gen.name][1] == read
    # after a replacement the record no longer stands for the sides
    model.interp["inv1_0"] = M.FrozenTable({(g,): 0 for g in range(3)})
    bad = model.check()
    assert bad == old_check(model) and {v[0] for v in bad} >= {"rinv1", "linv1"}
    # no record is kept over a plain dict, which can still be edited
    model.interp["inv1_0"] = {(g,): (-g) % 3 for g in range(3)}
    M.unit_filler(model, gen)
    M.unit_filler(model, tower["assoc1"])   # reads comp1_0 alone
    assert list(model._agreed) == ["assoc1"]


def test_a_model_refuses_an_edit_of_its_own_tables(std3):
    tower, bundle = std3
    models = [M.build_strict(KG1(G.cyclic(3)), tower, bundle),
              gpd.fundamental(gpd.connected_groupoid(2, G.cyclic(2)), tower)]
    models += [M.restrict(models[0], C.tower_functor(tower, {}, tower)),
               M.model_from_json(M.model_to_json(models[0]), tower)]
    for model in models:
        for gen in tower.gens():
            table = model.interp_for(gen)
            assert type(table) is M.FrozenTable, (model.label, gen.name)
            x = next(iter(table))
            for edit in (lambda: table.__setitem__(x, 0), lambda: table.__delitem__(x),
                         table.clear, lambda: table.pop(x), table.popitem,
                         lambda: table.setdefault(x, 0), lambda: table.update({x: 0})):
                with pytest.raises(TypeError, match="replaced, never edited in place"):
                    edit()
            with pytest.raises(TypeError):
                table |= {x: 0}
            # a value: it pickles and copies as one, and a plain copy is a dict
            for again in (pickle.loads(pickle.dumps(table)), copy.copy(table),
                          copy.deepcopy(table)):
                assert type(again) is M.FrozenTable and again == table
            assert type(dict(table)) is dict and type(table | {}) is dict


@pytest.mark.parametrize("name, out, want", [("comp1_0", lambda x: x[0], 132),
                                             ("inv1_0", lambda x: 0, 8)])
def test_a_first_check_sees_a_plain_table_edited_in_place(std3, name, out, want):
    """A plain-dict copy that the unit filler read, edited in place, is
    checked as it is now: the filler kept no record over it."""
    tower, bundle = std3
    model = M.build_strict(KG1(G.cyclic(3)), tower, bundle)
    model.interp[name] = table = dict(model.interp[name])
    for gen in tower.gens():
        if gen.name in model._agreed:
            model.interp[gen.name] = M.unit_filler(model, gen)
    assert model._agreed and all(t is not table for _, read in model._agreed.values()
                                 for _, t in read)
    for x in table:
        table[x] = out(x)
    bad = model.check()
    assert bad == old_check(model) and len(bad) == want


def test_check_names_an_input_its_table_lacks(std3):
    tower, bundle = std3
    model = M.build_strict(KG1(G.cyclic(3)), tower, bundle)
    missing = ("inv1_0", (1,), "missing", "a row for this input", "none")
    with pytest.raises(TypeError):
        del model.interp["inv1_0"][(1,)]
    # replaced, as a model's tables are, the generators that apply inv1_0
    # at 1 name the input outside its fiber product
    table = dict(model.interp["inv1_0"])
    del table[(1,)]
    model.interp["inv1_0"] = table
    bad = model.check()
    assert [v for v in bad if v[0] == "inv1_0"] == [missing]
    assert {v[0] for v in bad if v[2] == "boundary"} >= {"rinv1", "linv1"}
    assert {v[2] for v in bad} == {"missing", "boundary"}


def test_model_json_round_trip(std3):
    tower, bundle = std3
    model = M.build_strict(KG1(G.cyclic(2)), tower, bundle)
    data = M.model_to_json(model)
    back = M.model_from_json(data, tower)
    assert back.label == model.label == "KG1"
    assert back.carrier == model.carrier
    assert back.check() == []
    for gen in tower.gens():
        assert back.interp_for(gen) == model.interp_for(gen)


def test_model_json_names_the_first_bad_row(std3):
    """Rows are checked in bulk, but a file with bad rows is refused with
    the message of the first one, as a row-by-row check names it."""
    tower, bundle = std3
    data = M.model_to_json(M.build_strict(KG1(G.cyclic(3)), tower, bundle))
    rows = data["interp"]["comp1_0"]
    cases = [
        ({2: {"in": [0, True]}}, "'comp1_0' has a non-integer input [0, True]"),
        ({2: {"out": 7}}, "'comp1_0' sends [0, 2] to 7, not one of the 3 1-cells"),
        ({2: {"out": True}}, "a row of 'comp1_0' needs a int field 'out'"),
        ({1: {"in": (0, 1)}}, "a row of 'comp1_0' needs a list field 'in'"),
        ({5: {"out": -1}, 7: {"in": ["0"]}}, "sends [1, 2] to -1, not one of"),
        ({5: {"in": [1.0, 2]}, 7: {"out": 9}}, "has a non-integer input [1.0, 2]"),
    ]
    for changes, message in cases:
        bad = json.loads(json.dumps(data))
        for k, fields in changes.items():
            bad["interp"]["comp1_0"][k] = dict(rows[k], **fields)
        with pytest.raises(M.ModelError, match=re.escape(message)):
            M.model_from_json(bad, tower)
    bad = json.loads(json.dumps(data))
    bad["interp"]["comp1_0"][4] = [0, 1]
    with pytest.raises(M.ModelError, match="a row of 'comp1_0' needs a list field 'in'"):
        M.model_from_json(bad, tower)


def test_model_json_refuses_a_repeated_input(std3):
    """Each input of a generator appears once in a model file: a repeated
    one is refused, naming the generator and the input, wherever it
    stands, whether its outputs differ or agree, and in the row-by-row
    check as in the bulk one."""
    tower, bundle = std3
    data = M.model_to_json(M.build_strict(KG1(G.cyclic(2)), tower, bundle))
    rows = data["interp"]["comp1_0"]
    (row,) = [r for r in rows if r["in"] == [0, 1]]
    message = "model file: 'comp1_0' lists the input [0, 1] more than once"
    for copy in (dict(row, out=1 - row["out"]), dict(row)):
        for place in (len(rows), 0):
            bad = json.loads(json.dumps(data))
            bad["interp"]["comp1_0"].insert(place, copy)
            with pytest.raises(M.ModelError, match=re.escape(message)):
                M.model_from_json(bad, tower)
            # a bad row after the repeat sends the check row by row
            bad["interp"]["comp1_0"].append({"in": [0, 0], "out": 9})
            with pytest.raises(M.ModelError, match=re.escape(message)):
                M.model_from_json(bad, tower)
    # before the repeat, the bad row is named
    bad = json.loads(json.dumps(data))
    bad["interp"]["comp1_0"][:0] = [{"in": [0, 0], "out": 9}, dict(row)]
    with pytest.raises(M.ModelError, match="sends \\[0, 0\\] to 9"):
        M.model_from_json(bad, tower)


def test_model_json_rejects_missing_interp(std3):
    tower, _ = std3
    model = M.build_strict(Discrete(1), tower, std3[1])
    data = M.model_to_json(model)
    del data["interp"]["unit0"]
    with pytest.raises(M.ModelError):
        M.model_from_json(data, tower)


def test_restrict_identity_and_naturality(std3):
    tower, bundle = std3
    model = M.build_strict(KG1(G.cyclic(3)), tower, bundle)
    fn = C.tower_functor(tower, {}, tower)
    restricted = M.restrict(model, fn)
    rng = random.Random(11)
    for _ in range(60):
        raw = R.random_raw(tower, rng, budget=4)
        nf = C.normalize(raw)
        for x in model.cells(nf.target):
            assert restricted.eval(nf, x) == model.eval(fn.translate(nf), x)


def test_restrict_swapped_composition(std3):
    from test_coherator import level1_tower
    small = level1_tower(3)
    big, bundle = C.stdlib(3)
    t2 = C.glue2(1, 0)
    big.declare("comp1_0p",
                C.compose(C.eps(t2, 1), C.wordt("s", 0, 1)),
                C.compose(C.eps(t2, 0), C.wordt("t", 0, 1)))
    primed = C.PregroupoidBundle({(1, 0): "comp1_0p"}, {}, {})
    model = M.build_strict(KG1(G.cyclic(3)), big, bundle, extra_bundles=(primed,))
    fn = C.tower_functor(small, {"comp1_0": big.term("comp1_0p")}, big)
    restricted = M.restrict(model, fn)
    # same carrier, and the alternative composition is again the group law
    assert restricted.carrier == model.carrier
    z3 = G.cyclic(3)
    nab = small.term("comp1_0")
    for g in range(3):
        for h in range(3):
            assert restricted.eval1(nab, (g, h)) == z3.op(g, h)


def test_morphism_validate_matches_the_per_input_check(std4):
    """`ModelMorphism.validate`, which the constructor runs, compares
    boundaries a row at a time and each generator a column at a time; it
    accepts and refuses what the old check, one cell and one input at a
    time, did, with the same message, on criterion 07's morphisms, a
    two-object groupoid's identity and a model file whose rows are
    shuffled, and on seeded broken copies."""
    tower, bundle = std4
    s3, z2, z3, z4 = G.symmetric(3), G.cyclic(2), G.cyclic(3), G.cyclic(4)
    kg = {g: M.build_strict(KG1(g), tower, bundle) for g in (s3, z2, z3, z4)}
    mpt = M.build_strict(Discrete(1), tower, bundle)
    m42 = M.build_strict(KAn(z4, 2), tower, bundle)
    mx = gpd.fundamental(gpd.connected_groupoid(2, z2), tower, gpd.TowerGpdInterp(tower))
    data = M.model_to_json(kg[z3])
    rng = random.Random(1800)
    for rows in data["interp"].values():
        rng.shuffle(rows)
    shuffled = M.model_from_json(data, tower)
    cases = [(kg[s3], kg[s3], [(0,), range(6)]), (kg[z3], kg[z3], [(0,), (0, 2, 1)]),
             (kg[z2], kg[z4], [(0,), (0, 2)]), (kg[z4], kg[z2], [(0,), (0, 1, 0, 1)]),
             (kg[s3], mpt, [(0,), (0,) * 6]), (m42, m42, [(0,), (0,), (0, 3, 2, 1)]),
             (mx, mx, [range(mx.carrier.count(d)) for d in range(mx.trunc + 1)]),
             (shuffled, kg[z3], [(0,), (0, 2, 1)])]

    def outcome(check):
        try:
            check()
            return "ok"
        except (M.ModelError, KeyError) as e:
            return "%s: %s" % (type(e).__name__, e)

    morphs = []
    for ms, mt, dims in cases:
        maps = [list(dims[min(d, len(dims) - 1)]) for d in range(ms.trunc + 1)]
        morphs.append(M.ModelMorphism(ms, mt, maps))
        assert morphs[-1].maps == tuple(map(tuple, maps))
        assert outcome(morphs[-1].validate) == "ok"
    seen = set()
    for k in range(400):
        if k % 2:   # break a map cell by cell
            morph = rng.choice(morphs)
            ms, mt, maps = morph.source, morph.target, [list(row) for row in morph.maps]
            for _ in range(rng.choice((1, 1, 2, 3))):
                d = rng.randrange(len(maps))
                if maps[d]:
                    maps[d][rng.randrange(len(maps[d]))] = rng.randrange(mt.carrier.count(d))
        else:       # any function of groups commutes with the faces of KG1
            g, h = rng.choice(list(kg)), rng.choice(list(kg))
            ms, mt = rng.choice((kg[g], shuffled)) if g is z3 else kg[g], kg[h]
            f = [rng.randrange(h.order) for _ in range(g.order)]
            maps = [[0]] + [f] * ms.trunc
        # made through the constructor, which validates
        want = outcome(lambda: old_validate(types.SimpleNamespace(source=ms, target=mt,
                                                                  maps=maps)))
        assert outcome(lambda: M.ModelMorphism(ms, mt, maps)) == want, maps
        seen.add(re.sub(r"dim \d+|'\w+' at .*", "", want))
    assert seen >= {"ok", "ModelError: morphism does not commute with src at ",
                    "ModelError: morphism does not commute with tgt at ",
                    "ModelError: morphism does not commute with "}, seen

