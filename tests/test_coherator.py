"""The term kernel: normalization, admissibility, the structural library."""

import copy
import dataclasses
import gc
import pickle
import random
import re

import pytest

from globkit import coherator as C
from globkit import dsl, globe
from globkit import rewrite as R
from globkit import theta0
from globkit.coherator import (
    InadmissibleError, TermError, Tower, admissible, compose, eps, gen_term,
    glob_source, glob_target, identity, legs_base, normalize, parallel,
    stdlib, term_to_raw, tuple_term, verify_bundle, wordt,
)
from globkit.globe import GlobeError, MAX_DIM, Table, Word, disk, idword
from globkit.theta0 import GMap, MatchingError
import oracles as O
from test_theta0 import level_map


def test_normalize_projection_law(std3):
    tower, _ = std3
    # a concrete map through the second leg collapses against a tuple
    t2 = C.glue2(1, 0)
    ka = tower.term("unit0")          # D1 -> D0
    tup = tuple_term([ka, ka], t2)
    picked = compose(tup, theta0_cell(t2, 1, "s"))
    assert picked == compose(ka, wordt("s", 0, 1))
    assert picked == identity(disk(0))


def theta0_cell(table, leg, kind):
    """The concrete map picking an endpoint of a leg, as a term."""
    w = wordt(kind, 0, table.upper[leg])
    return compose(eps(table, leg), w)


def test_boundary_equations_are_rewrites(std3):
    tower, _ = std3
    for gen in tower.gens():
        h = tower.term(gen.name)
        assert glob_source(h) == gen.fsrc, gen.name
        assert glob_target(h) == gen.gtgt, gen.name


def test_normalize_idempotent_and_raw_round_trip(std3):
    tower, _ = std3
    rng = random.Random(7)
    for _ in range(200):
        raw = R.random_raw(tower, rng, budget=6)
        nf = normalize(raw)
        assert normalize(term_to_raw(nf)) == nf


def test_two_strategy_confluence_and_termination(std3):
    tower, _ = std3
    rng = random.Random(42)
    for _ in range(300):
        raw = R.random_raw(tower, rng, budget=6)
        nf0 = normalize(raw)
        nf1, s1 = R.reduce_steps(raw, "inner")
        nf2, s2 = R.reduce_steps(raw, "outer")
        assert nf0 == nf1 == nf2
        bound = 10 * R.raw_size(raw)
        assert s1 <= bound and s2 <= bound


def test_a_tuple_over_one_disk_is_its_component(std4):
    """`[c]` over a single disk is `c` itself, not a second normal form of
    it: built by `tuple_term`, parsed, nested, for a chain and for a
    concrete map, and as the small-step engine reaches it from a raw tree."""
    tower, _ = std4
    chain, target = tower.term("comp1_0"), tower["comp1_0"].target
    concrete = eps(target, 1)
    for c in (chain, concrete):
        assert tuple_term([c], disk(1)) is c
        assert tuple_term([tuple_term([c], disk(1))], disk(1)) is c
    assert dsl.parse_term("[comp1_0]", tower, target) is chain
    assert dsl.parse_term("[[comp1_0]]", tower, target) is chain
    assert dsl.parse_term("[eps2]", tower, target) is concrete
    assert dsl.term_str(dsl.parse_term("[comp1_0] * s1", tower, target)) == "eps2 * s1"
    raw = C.RTuple(disk(1), (C.RGen(tower["comp1_0"]),))
    assert normalize(raw) is chain
    for strategy in ("inner", "outer"):
        assert R.reduce_steps(raw, strategy)[0] is chain


def test_adversarial_composites_normalize(std4):
    tower, _ = std4
    # the pentagon against a full word chain down to the point
    pent = tower.term("pent2")
    t = compose(pent, wordt("s", 3, 4))
    for d in (2, 1, 0):
        t = compose(t, wordt("t" if d % 2 else "s", d, d + 1))
        raw = term_to_raw(t)
        nf1, s1 = R.reduce_steps(raw, "inner")
        nf2, s2 = R.reduce_steps(raw, "outer")
        assert nf1 == nf2 == t
        assert max(s1, s2) <= 10 * R.raw_size(raw)
    # a deep alternating inverse/word chain, reduced from both ends
    om1, om2, om3 = (tower.term(n) for n in ("inv1_0", "inv2_0", "inv3_0"))
    chain = compose(om3, compose(wordt("s", 2, 3),
                                 compose(om2, compose(wordt("s", 1, 2), om1))))
    assert chain.source == disk(1) and chain.target == disk(3)
    # its bottom boundary peels through all three inverse generators: each
    # flip swaps the word kind once, for an odd number of flips overall
    assert compose(chain, wordt("s", 0, 1)) == wordt("t", 0, 3)
    assert compose(chain, wordt("t", 0, 1)) == wordt("s", 0, 3)
    raw = term_to_raw(chain)
    nf1, _ = R.reduce_steps(raw, "inner")
    nf2, _ = R.reduce_steps(raw, "outer")
    assert nf1 == nf2 == chain


def test_glob_source_examples(std3):
    tower, _ = std3
    t2 = C.glue2(1, 0)
    nab = tower.term("comp1_0")
    assert glob_source(nab) == compose(eps(t2, 1), wordt("s", 0, 1))
    assert glob_target(nab) == compose(eps(t2, 0), wordt("t", 0, 1))
    ka = tower.term("unit0")
    assert glob_source(ka) == identity(disk(0)) == glob_target(ka)
    om = tower.term("inv1_0")
    assert glob_source(om) == wordt("t", 0, 1)
    assert glob_target(om) == wordt("s", 0, 1)


def test_unit_collapse_composites(std3):
    tower, _ = std3
    ka = tower.term("unit0")
    # unit . s1 and unit . t1 are the identity of the point
    assert compose(ka, wordt("s", 0, 1)) == identity(disk(0))
    assert compose(ka, wordt("t", 0, 1)) == identity(disk(0))
    # the inverse against its top cotarget gives the source word
    om = tower.term("inv1_0")
    assert compose(om, wordt("t", 0, 1)) == wordt("s", 0, 1)


def test_parallel_examples(std3):
    tower, _ = std3
    t2 = C.glue2(1, 0)
    f = compose(eps(t2, 1), wordt("s", 0, 1))
    g = compose(eps(t2, 0), wordt("t", 0, 1))
    assert parallel(f, g)
    s1 = wordt("s", 0, 1)
    assert parallel(s1, s1)
    assert parallel(s1, wordt("t", 0, 1))  # 0-dimensional sources always parallel


def test_tuple_gluing_failure_names_the_lowest_differing_dimension(std3):
    """A tuple with a non-concrete component is checked term by term, and a
    failure names the lowest dimension where the glued faces differ, as a
    concrete map's does."""
    tower, _ = std3
    comps = [tower.term("comp2_0"), eps(C.glue2(2, 0), 0)]
    left = compose(comps[0], wordt("s", 1, 2))
    right = compose(comps[1], wordt("t", 1, 2))
    # the two 1-faces differ, and so do their source 0-faces
    assert left != right
    assert compose(left, wordt("s", 0, 1)) != compose(right, wordt("s", 0, 1))
    with pytest.raises(MatchingError) as exc:
        tuple_term(comps, C.glue2(2, 1))
    assert (exc.value.k, exc.value.dim) == (0, 0)
    assert (C.gluing_error(0, 1, *comps).k, C.gluing_error(0, 1, *comps).dim) == (0, 0)


def test_admissible_examples(std3):
    tower, _ = std3
    for i in (1, 2, 3):
        t2 = C.glue2(i, i - 1)
        f = compose(eps(t2, 1), wordt("s", i - 1, i))
        g = compose(eps(t2, 0), wordt("t", i - 1, i))
        assert admissible(f, g)
    # the exchange pair at i = 2
    f, g = C.exchange_pair(tower, 2)
    assert admissible(f, g)
    # dimension clause violation
    v = admissible(compose(wordt("s", 1, 2), wordt("s", 0, 1)),
                   compose(wordt("t", 1, 2), wordt("t", 0, 1)))
    assert not v and "exceeds n+1" in v.reason


def test_declare_levels(std3):
    tower, _ = std3
    assert tower["comp1_0"].level == 1
    assert tower["comp2_0"].level == 2
    assert tower["pent1"].level == 3
    assert tower["exch2"].level == 3
    assert tower["tri1"].level == 3
    assert tower["comp3_0"].level == 3
    assert tower["assoc2"].level == 2


def mentioned_gens(t, acc=None):
    """Every generator a term names, through the boundaries of the
    generators it names: the walk `Tower.declare` used to take a level from."""
    if acc is None:
        acc = {}
    if isinstance(t, C.Chain):
        acc[t.gen.name] = t.gen
        mentioned_gens(t.gen.fsrc, acc)
        mentioned_gens(t.gen.gtgt, acc)
        mentioned_gens(t.tail, acc)
    elif isinstance(t, C.TupleT):
        for c in t.comps:
            mentioned_gens(c, acc)
    return acc


def test_declare_levels_match_transitive_walk():
    towers = [C.stdlib(d)[0] for d in range(2, 9)]
    towers.append(dsl.parse_tower(dsl.emit_tower(towers[-1])))
    for tower in towers:
        for gen in tower.gens():
            deps = mentioned_gens(gen.fsrc)
            mentioned_gens(gen.gtgt, deps)
            assert gen.level == 1 + max((g.level for g in deps.values()), default=0), gen


def test_declare_rejects_duplicates_and_inadmissible():
    tower = Tower(3)
    f = wordt("t", 0, 1)
    g = wordt("s", 0, 1)
    tower.declare("w", f, g)
    with pytest.raises(TermError):
        tower.declare("w", f, g)
    with pytest.raises(InadmissibleError):
        tower.declare("bad", compose(wordt("s", 1, 2), wordt("s", 0, 1)),
                      compose(wordt("t", 1, 2), wordt("t", 0, 1)))


def test_truncation_bound():
    assert Tower(MAX_DIM).trunc == MAX_DIM
    with pytest.raises(TermError, match="exceeds the largest supported dimension"):
        Tower(MAX_DIM + 1)
    assert Tower(0).trunc == 0
    with pytest.raises(TermError, match="truncation -1 is negative"):
        Tower(-1)
    tower = Tower(2)
    with pytest.raises(TermError):
        # a level-1 lifting at dimension 3 exceeds the truncation
        t2 = C.glue2(3, 2)
        tower.declare("too_high",
                      compose(eps(t2, 1), wordt("s", 2, 3)),
                      compose(eps(t2, 0), wordt("t", 2, 3)))


# --- the displayed derivations of the structural library -------------------

def test_codim1_composition_derivation_chain():
    # e2.s.s = e2.t.s = e1.s.s = e1.t.s (and the target-side chain)
    for i in (2, 3):
        t2 = C.glue2(i, i - 1)
        chains = [
            compose(compose(eps(t2, 1), wordt("s", i - 1, i)), wordt("s", i - 2, i - 1)),
            compose(compose(eps(t2, 1), wordt("t", i - 1, i)), wordt("s", i - 2, i - 1)),
            compose(compose(eps(t2, 0), wordt("s", i - 1, i)), wordt("s", i - 2, i - 1)),
            compose(compose(eps(t2, 0), wordt("t", i - 1, i)), wordt("s", i - 2, i - 1)),
        ]
        assert len(set(chains)) == 1
        chains_t = [
            compose(compose(eps(t2, 1), wordt("s", i - 1, i)), wordt("t", i - 2, i - 1)),
            compose(compose(eps(t2, 0), wordt("t", i - 1, i)), wordt("t", i - 2, i - 1)),
        ]
        assert len(set(chains_t)) == 1


def test_codim2_composition_derivation(std4):
    tower, _ = std4
    for i in (2, 3):
        nab2 = tower.term(C.comp_name(i, i - 2))
        t2 = C.glue2(i, i - 2)
        # boundary of the codim-2 composition ends at the glued boundary word
        lhs = compose(glob_source(nab2), wordt("s", i - 2, i - 1))
        rhs = compose(compose(eps(t2, 1), wordt("s", i - 1, i)), wordt("s", i - 2, i - 1))
        assert lhs == rhs


def test_codim2_inverse_derivation(std4):
    tower, _ = std4
    for i in (2, 3):
        om2 = tower.term(C.inv_name(i, i - 2))
        om1 = tower.term(C.inv_name(i - 1, i - 2))
        assert glob_source(om2) == compose(wordt("s", i - 1, i), om1)
        assert glob_target(om2) == compose(wordt("t", i - 1, i), om1)
        # the parallelism chain: s.w.s = s.t = t.t = t.w.s
        lhs = compose(glob_source(om2), wordt("s", i - 2, i - 1))
        rhs = compose(glob_target(om2), wordt("s", i - 2, i - 1))
        assert lhs == rhs


def test_associativity_boundaries(std4):
    tower, _ = std4
    for i in (1, 2, 3):
        al = tower.term("assoc%d" % i)
        t2 = C.glue2(i, i - 1)
        t3 = Table((i, i, i), (i - 1, i - 1))
        nab = tower.term(C.comp_name(i, i - 1))
        want_s = compose(tuple_term([compose(legs_base(t3, (0, 1), t2), nab),
                                     eps(t3, 2)], t2), nab)
        want_t = compose(tuple_term([eps(t3, 0),
                                     compose(legs_base(t3, (1, 2), t2), nab)], t2), nab)
        assert glob_source(al) == want_s
        assert glob_target(al) == want_t


def test_unit_constraint_boundaries(std4):
    tower, _ = std4
    for i in (1, 2, 3):
        t2 = C.glue2(i, i - 1)
        nab = tower.term(C.comp_name(i, i - 1))
        ka = tower.term(C.unit_name(i - 1))
        rho = tower.term("runit%d" % i)
        lam = tower.term("lunit%d" % i)
        assert glob_source(rho) == compose(
            tuple_term([identity(disk(i)), compose(wordt("s", i - 1, i), ka)], t2), nab)
        assert glob_target(rho) == identity(disk(i))
        assert glob_source(lam) == compose(
            tuple_term([compose(wordt("t", i - 1, i), ka), identity(disk(i))], t2), nab)
        assert glob_target(lam) == identity(disk(i))


def test_inverse_constraint_boundaries(std4):
    tower, _ = std4
    for i in (1, 2, 3):
        t2 = C.glue2(i, i - 1)
        nab = tower.term(C.comp_name(i, i - 1))
        ka = tower.term(C.unit_name(i - 1))
        om = tower.term(C.inv_name(i, i - 1))
        rinv = tower.term("rinv%d" % i)
        linv = tower.term("linv%d" % i)
        assert glob_source(rinv) == compose(
            tuple_term([identity(disk(i)), om], t2), nab)
        assert glob_target(rinv) == compose(wordt("t", i - 1, i), ka)
        assert glob_source(linv) == compose(
            tuple_term([om, identity(disk(i))], t2), nab)
        assert glob_target(linv) == compose(wordt("s", i - 1, i), ka)


def test_pentagon_derivation(std4):
    tower, _ = std4
    for i in (1, 2):
        pent = tower.term("pent%d" % i)
        c3, c2 = C.pentagon_pair(tower, i)
        assert glob_source(pent) == c3
        assert glob_target(pent) == c2
        # the displayed calculation: c3.s = (nab + D + D)(nab + D)nab
        q4 = Table((i,) * 4, (i - 1,) * 3)
        t3 = Table((i, i, i), (i - 1, i - 1))
        t2 = C.glue2(i, i - 1)
        nab = tower.term(C.comp_name(i, i - 1))
        ndd = tuple_term([compose(legs_base(q4, (0, 1), t2), nab),
                          eps(q4, 2), eps(q4, 3)], t3)
        nd = tuple_term([compose(legs_base(t3, (0, 1), t2), nab), eps(t3, 2)], t2)
        assert compose(c3, wordt("s", i, i + 1)) == compose(ndd, compose(nd, nab))
        # c2.s equals the same composite, and the targets agree
        assert compose(c2, wordt("s", i, i + 1)) == compose(ndd, compose(nd, nab))
        dd_n = tuple_term([eps(q4, 0), eps(q4, 1),
                           compose(legs_base(q4, (2, 3), t2), nab)], t3)
        d_n = tuple_term([eps(t3, 0), compose(legs_base(t3, (1, 2), t2), nab)], t2)
        assert compose(c3, wordt("t", i, i + 1)) == compose(dd_n, compose(d_n, nab))
        assert compose(c2, wordt("t", i, i + 1)) == compose(dd_n, compose(d_n, nab))


def test_exchange_derivation(std4):
    tower, _ = std4
    for i in (2, 3):
        ex = tower.term("exch%d" % i)
        f, g = C.exchange_pair(tower, i)
        assert glob_source(ex) == f
        assert glob_target(ex) == g
        # the displayed boundary chain: f.s = (e2.s, e4.s) nab_{i-1}
        e4 = Table((i, i, i, i), (i - 1, i - 2, i - 1))
        t2lo = C.glue2(i - 1, i - 2)
        nab_lo = tower.term(C.comp_name(i - 1, i - 2))
        want = compose(tuple_term(
            [compose(eps(e4, 1), wordt("s", i - 1, i)),
             compose(eps(e4, 3), wordt("s", i - 1, i))], t2lo), nab_lo)
        assert compose(f, wordt("s", i - 1, i)) == want
        assert compose(g, wordt("s", i - 1, i)) == want
        want_t = compose(tuple_term(
            [compose(eps(e4, 0), wordt("t", i - 1, i)),
             compose(eps(e4, 2), wordt("t", i - 1, i))], t2lo), nab_lo)
        assert compose(f, wordt("t", i - 1, i)) == want_t
        assert compose(g, wordt("t", i - 1, i)) == want_t


def test_triangle_derivation(std4):
    tower, _ = std4
    for i in (1, 2):
        tri = tower.term("tri%d" % i)
        d2, d1 = C.triangle_pair(tower, i)
        assert glob_source(tri) == d2
        assert glob_target(tri) == d1
        t2 = C.glue2(i, i - 1)
        nab = tower.term(C.comp_name(i, i - 1))
        ka_lo = tower.term(C.unit_name(i - 1))
        # d2.s = d1.s = (e1 (id, s.unit) nab, e2) nab
        inner = compose(tuple_term(
            [identity(disk(i)), compose(wordt("s", i - 1, i), ka_lo)], t2), nab)
        want = compose(tuple_term([compose(eps(t2, 0), inner), eps(t2, 1)], t2), nab)
        assert compose(d2, wordt("s", i, i + 1)) == want
        assert compose(d1, wordt("s", i, i + 1)) == want
        # d2.t = d1.t = nab
        assert compose(d2, wordt("t", i, i + 1)) == nab
        assert compose(d1, wordt("t", i, i + 1)) == nab


def test_bundle_case_formulas(std4):
    tower, bundle = std4
    assert verify_bundle(tower, bundle)
    # stdlib declares from the same case formulas verify_bundle checks, so
    # the check must also be seen to fail: a (2, 0) slot naming a
    # codimension-1 generator breaks the codimension-2 formula
    for field, wrong in (("comp", "comp2_1"), ("inv", "inv2_1")):
        fields = {"comp": bundle.comp, "unit": bundle.unit, "inv": bundle.inv}
        fields[field] = {**fields[field], (2, 0): wrong}
        bad = C.PregroupoidBundle(**fields)
        with pytest.raises(TermError, match=wrong):
            verify_bundle(tower, bad)


def regex_bundle(tower):
    """The bundle the command line used to parse back out of generator names."""
    comp, unit, inv = {}, {}, {}
    for name in tower.names():
        for pattern, table in ((r"^comp(\d+)_(\d+)$", comp), (r"^unit(\d+)$", unit),
                               (r"^inv(\d+)_(\d+)$", inv)):
            m = re.match(pattern, name)
            if m:
                key = tuple(int(g) for g in m.groups())
                table[key if len(key) > 1 else key[0]] = name
    return C.PregroupoidBundle(comp, unit, inv)


def test_bundle_of_matches_name_parsing_and_stdlib_ranges():
    for d in range(2, 9):
        tower, bundle = stdlib(d)
        listed = C.PregroupoidBundle(
            comp={(i, j): C.comp_name(i, j) for i in range(1, d + 1) for j in range(i)},
            unit={i: C.unit_name(i) for i in range(d)},
            inv={(i, j): C.inv_name(i, j) for i in range(1, d + 1) for j in range(i)})
        assert bundle == C.bundle_of(tower) == regex_bundle(tower) == listed, d
    # a tower's bundle keeps only the names it declares with their stdlib shape
    tower = Tower(3)
    tower.declare(C.unit_name(1), identity(disk(1)), identity(disk(1)))
    tower.declare(C.comp_name(1, 0), wordt("s", 0, 1), wordt("t", 0, 1))
    tower.declare(C.unit_name(3), wordt("s", 0, 1), wordt("s", 0, 1))
    assert C.bundle_of(tower) == C.PregroupoidBundle({}, {1: "unit1"}, {})


def gmap_word(gm):
    """The word of a disk-to-disk map, read off its top cell's image: the
    reading `decompose` replaced on the coherator path."""
    m, i = gm.source.upper[0], gm.target.upper[0]
    if m == i:
        return idword(m)
    return Word(m, i, "s" if level_map(gm).maps[m][0] == 0 else "t")


def test_decomposed_word_matches_gmap_word_oracle():
    for i in range(9):
        for j in range(i + 1):
            for kind in "st":
                gm = wordt(kind, j, i)
                assert theta0.decompose(gm) == (0, gmap_word(gm)), (kind, j, i)


def test_stdlib_families_present(std3):
    tower, _ = std3
    names = set(tower.names())
    expected = {"comp1_0", "comp2_1", "comp3_2", "comp2_0", "comp3_1", "comp3_0",
                "unit0", "unit1", "unit2",
                "inv1_0", "inv2_1", "inv3_2", "inv2_0", "inv3_1", "inv3_0",
                "assoc1", "assoc2", "runit1", "runit2", "lunit1", "lunit2",
                "rinv1", "rinv2", "linv1", "linv2", "pent1", "exch2", "tri1"}
    assert names == expected


# --- tower functors ---------------------------------------------------------

def test_tower_functor_identity(std3):
    tower, _ = std3
    fn = C.tower_functor(tower, {}, tower)
    for gen in tower.gens():
        assert fn.translate(gen.fsrc) == gen.fsrc


def level1_tower(trunc=3):
    """Codimension-1 compositions, units, and inverses only."""
    tower = Tower(trunc)
    for i in range(1, trunc + 1):
        t2 = C.glue2(i, i - 1)
        tower.declare(C.comp_name(i, i - 1),
                      compose(eps(t2, 1), wordt("s", i - 1, i)),
                      compose(eps(t2, 0), wordt("t", i - 1, i)))
    for i in range(0, trunc):
        tower.declare(C.unit_name(i), identity(disk(i)), identity(disk(i)))
    for i in range(1, trunc + 1):
        tower.declare(C.inv_name(i, i - 1), wordt("t", i - 1, i), wordt("s", i - 1, i))
    return tower


def test_tower_functor_to_primed_choice(std3):
    # swapping a composition for a second declared lifting of the same pair
    # is a valid functor out of the tower of primary operations
    small = level1_tower(3)
    primed = stdlib(3)[0]
    t2 = C.glue2(1, 0)
    primed.declare("comp1_0p",
                   compose(eps(t2, 1), wordt("s", 0, 1)),
                   compose(eps(t2, 0), wordt("t", 0, 1)))
    fn = C.tower_functor(small, {"comp1_0": primed.term("comp1_0p")}, primed)
    assert fn.translate(small.term("comp1_0")) == primed.term("comp1_0p")
    # but the same swap does not extend identically over generators whose
    # boundary pairs mention the swapped one
    with pytest.raises(TermError):
        C.tower_functor(std3[0], {"comp1_0": primed.term("comp1_0p")}, primed)


def test_tower_functor_rejects_non_lifting(std3):
    tower, _ = std3
    target = stdlib(3)[0]
    with pytest.raises(TermError) as exc:
        C.tower_functor(tower, {"unit0": target.term("inv1_0")}, target)
    assert "unit0" in str(exc.value)


def test_composition_matches_the_replaced_calculus(monkeypatch):
    """The identity and inherited-gluing short-circuits against the
    composition that rebuilt every composite and re-checked the gluing of
    every tuple it made: equal generator boundaries, globular faces, script
    replays and normal forms, and not one of the old path's gluing checks
    fails."""
    check = O.old_gluing_error
    runs, failures = [0], []

    def recorded(k, j, left, right):
        error = check(k, j, left, right)
        runs[0] += 1
        if error is not None:
            failures.append((k, j, left, right))
        return error

    def under_old(build):
        with monkeypatch.context() as patch:
            patch.setattr(C, "compose", O.old_compose)
            patch.setattr(C, "tuple_term", O.old_tuple_term)
            patch.setattr(O, "old_gluing_error", recorded)
            return build()

    def boundaries(tower):
        return [(g.name, g.level, g.fsrc, g.gtgt) for g in tower.gens()]

    towers = {}
    for d in range(2, 9):
        tower = towers[d] = stdlib(d)[0]
        assert boundaries(under_old(lambda: stdlib(d)[0])) == boundaries(tower)
        text = dsl.emit_tower(tower)
        assert boundaries(under_old(lambda: dsl.parse_tower(text))) == \
            boundaries(dsl.parse_tower(text)) == boundaries(tower)
        for gen in tower.gens():
            h, n = tower.term(gen.name), gen.dim
            assert glob_source(h) == O.old_compose(h, wordt("s", n - 1, n)) == gen.fsrc
            assert glob_target(h) == O.old_compose(h, wordt("t", n - 1, n)) == gen.gtgt
    for d in (3, 4, 6):
        rng = random.Random(1500 + d)
        for _ in range(300):
            raw = R.random_raw(towers[d], rng, budget=8)
            assert under_old(lambda: normalize(raw)) == normalize(raw)
    assert runs[0] > 5000 and failures == []


def test_tuple_term_refuses_what_the_replaced_one_refused():
    """User tuples of random normal forms, glued over every dimension their
    disks allow: `tuple_term` builds the replaced constructor's tuple or
    raises its error, naming the same gluing and dimension."""
    tower = stdlib(3)[0]
    rng = random.Random(15)
    pool = {}
    for _ in range(400):
        nf = normalize(R.random_raw(tower, rng, budget=5))
        if nf.source.is_disk and nf.source.upper[0] >= 1:
            pool.setdefault(nf.target, []).append(nf)

    def outcome(build, comps, table):
        try:
            return build(comps, table)
        except MatchingError as e:
            return (e.k, e.dim, str(e))

    built = refused = 0
    for _ in range(300):
        comps = rng.sample(rng.choice([p for p in pool.values() if len(p) > 1]), 2)
        i0, i1 = (c.source.upper[0] for c in comps)
        table = Table((i0, i1), (rng.randrange(min(i0, i1)),))
        new = outcome(tuple_term, comps, table)
        assert new == outcome(O.old_tuple_term, comps, table)
        if isinstance(new, tuple):
            refused += 1
        elif isinstance(new, C.TupleT):
            built += 1
    assert built > 20 and refused > 100


def test_generators_store_their_value_hash():
    """A `Gen` hashes as the tuple of its fields, computed once when it is
    built; equal generators of separately built towers, a script replay
    included, are one object (`globe.Interned`), and so are a copy and a
    pickle."""
    for d in range(2, 9):
        gens = stdlib(d)[0].gens()
        again = stdlib(d)[0].gens()
        replayed = dsl.parse_tower(dsl.emit_tower(stdlib(d)[0])).gens()
        assert again == gens and replayed == gens
        for g, h, r in zip(gens, again, replayed):
            assert g is h and g is r
            assert hash(g) == hash(h) == hash(r) == \
                hash((g.name, g.dim, g.target, g.fsrc, g.gtgt, g.level))
    g = gens[-1]
    for twin in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and hash(twin) == hash(g)
    other = C.Gen(g.name + "'", g.dim, g.target, g.fsrc, g.gtgt, g.level)
    assert other != g and {g: 1}.get(other) is None


def _term_on(t, chain, tuple_, tower):
    """A term rebuilt node by node with the node constructors `chain`, of
    (tail, gen), and `tuple_`, its generators read off `tower` by name; an
    old chain's arg must be the identity."""
    if isinstance(t, GMap):
        return t
    if hasattr(t, "comps"):
        return tuple_(t.src_table, tuple(_term_on(c, chain, tuple_, tower) for c in t.comps))
    assert O.old_arg(t) is identity(disk(t.gen.dim)), t
    return chain(_term_on(t.tail, chain, tuple_, tower), tower[t.gen.name])


def as_old(t, tower):
    return _term_on(t, O.old_chain, O.OldTupleT, tower)


def as_new(t, tower):
    return _term_on(t, C.Chain, C.TupleT, tower)


def _raw_on(raw, tower):
    """A raw tree with its generators read off `tower` by name."""
    if isinstance(raw, C.RGen):
        return C.RGen(tower[raw.gen.name])
    if isinstance(raw, C.RTuple):
        return C.RTuple(raw.src_table, tuple(_raw_on(c, tower) for c in raw.comps))
    if isinstance(raw, C.RComp):
        return C.RComp(_raw_on(raw.outer, tower), _raw_on(raw.inner, tower))
    return raw


def test_interned_terms_match_the_dataclass_terms(monkeypatch):
    """Interned nodes and the composites kept on them against the
    value-compared dataclass nodes that every composition built afresh:
    every composite that building stdlib(2..8) asks for, every generator
    boundary, script round trips, and 1,000 normal forms are the same term
    node for node."""
    old = {"Chain": O.OldChain, "TupleT": O.OldTupleT, "gen_term": O.old_gen_term,
           "compose": O.old_term_compose, "tuple_term": O.old_term_tuple_term,
           "_tuple": O.old_term_tuple, "gluing_error": O.old_term_gluing_error}

    def under_old(build):
        with monkeypatch.context() as patch:
            for name, value in old.items():
                patch.setattr(C, name, value)
            return build()

    def same_tower(old_tower, tower):
        assert old_tower.names() == tower.names()
        for g, h in zip(old_tower.gens(), tower.gens()):
            assert (g.dim, g.target, g.level) == (h.dim, h.target, h.level), h.name
            assert as_new(g.fsrc, tower) is h.fsrc and as_new(g.gtgt, tower) is h.gtgt, h.name
            assert old_tower.term(h.name) == as_old(tower.term(h.name), old_tower)

    new_compose, asked = C.compose, {}

    def recorded(t2, t1):
        result = new_compose(t2, t1)
        asked[t2, t1] = result
        return result

    towers, old_towers, total = {}, {}, 0
    for d in range(2, 9):
        old_tower = old_towers[d] = under_old(lambda: stdlib(d)[0])
        assert isinstance(old_tower.term("comp1_0"), O.OldChain)
        asked.clear()
        with monkeypatch.context() as patch:
            patch.setattr(C, "compose", recorded)
            tower = towers[d] = stdlib(d)[0]
        total += len(asked)
        for (t2, t1), result in asked.items():
            want = O.old_term_compose(as_old(t2, old_tower), as_old(t1, old_tower))
            assert as_new(want, tower) is result, (t2, t1)
        same_tower(old_tower, tower)
        text = dsl.emit_tower(tower)
        replayed = under_old(lambda: dsl.parse_tower(text))
        same_tower(replayed, dsl.parse_tower(text))
        assert under_old(lambda: dsl.emit_tower(replayed)) == text
        assert dsl.emit_tower(dsl.parse_tower(text)) == text
    assert total > 4000
    rng = random.Random(1700)
    for k in range(1000):
        d = (3, 4, 6, 8)[k % 4]
        raw = R.random_raw(towers[d], rng, budget=8)
        want = under_old(lambda: normalize(_raw_on(raw, old_towers[d])))
        tower = towers[d]
        assert as_new(want, tower) is normalize(raw), raw


def test_term_nodes_are_interned():
    """One live `Chain` or `TupleT` per value, keyed by class and children
    (`globe.Interned`, whose shared contract `test_globe` checks): the
    equal generator of another tower is the same object, so a chain over
    it is the same node; the repr is the dataclass's; and a composite is
    kept on its outer term."""
    tower = stdlib(4)[0]
    h = tower.term("assoc1")
    tup = tower["assoc1"].fsrc.tail
    assert isinstance(tup, C.TupleT)
    twin = stdlib(4)[0]["assoc1"]
    assert twin is h.gen and C.Chain(h.tail, twin) is h
    assert C.TupleT(tup.src_table, tuple(tup.comps)) is tup
    assert globe._INTERNED[(C.Chain, h.tail, h.gen)] is h
    assert globe._INTERNED[(C.TupleT, tup.src_table, tup.comps)] is tup
    assert h.source is disk(2) and h.target is h.tail.target
    assert tup.source is tup.src_table and tup.target is tup.comps[0].target
    chain, tuple_ = (dataclasses.make_dataclass(name, fields, frozen=True) for name, fields
                     in (("Chain", ["tail", "gen"]), ("TupleT", ["src_table", "comps"])))
    for t in (h, tup):
        assert repr(t) == repr(_term_on(t, chain, tuple_, tower)) and not t.is_identity
    assert repr(tower.term("unit0")) == (
        "Chain(tail=GMap(source=Table(upper=(0,), lower=()), target=Table(upper=(0,), "
        "lower=()), cells=(0,)), gen=Gen(unit0))")
    # the generator's term is stored once, and a composite kept on its outer term
    assert tower.term("comp1_0") is tower.term("comp1_0") is gen_term(tower["comp1_0"])
    face = compose(h, wordt("s", 1, 2))
    assert h.memo()[wordt("s", 1, 2)] is face is tower["assoc1"].fsrc


def test_term_nodes_and_their_composites_die_with_their_last_reference():
    """Building and dropping stdlib(8) leaves the live nodes and the
    composites kept on them as they were (that a node nothing holds is
    gone, `test_globe` checks for every interned class)."""
    counts = []
    for _ in range(4):
        stdlib(8)
        gc.collect()
        nodes = [t for t in list(globe._INTERNED.values()) if type(t) in (C.Chain, C.TupleT)]
        counts.append((len(nodes), sum(len(t._memo or ()) for t in nodes)))
        del nodes
    assert len(set(counts)) == 1


def test_stored_levels_match_the_walk():
    """A chain or tuple stores the highest level of a generator it names,
    as `Tower.declare`'s old walk over the whole term finds it: on every
    boundary term of stdlib(2..8) and on 300 normalized random terms."""
    towers, count = {}, 0
    for d in range(2, 9):
        tower = towers[d] = stdlib(d)[0]
        for g in tower.gens():
            assert g.level == 1 + max(O.old_top_level(g.fsrc), O.old_top_level(g.gtgt))
            for t in (g.fsrc, g.gtgt, tower.term(g.name)):
                assert t.level == O.old_top_level(t), (g.name, t)
                count += 1
    rng = random.Random(1800)
    levels = set()
    for k in range(300):
        t = normalize(R.random_raw(towers[(3, 4, 6, 8)[k % 4]], rng, budget=8))
        assert t.level == O.old_top_level(t), t
        levels.add(t.level)
    assert count > 1400 and len(levels) > 2


def test_word_maps_are_cached_on_their_fields():
    """`wordt` and `globe_functor` read one cache keyed by (src, tgt, kind);
    a word is checked when its map is first built, and a bad one is never
    cached."""
    assert wordt("t", 1, 3) is theta0.globe_functor(Word(1, 3, "t")) is \
        theta0.word_gmap(1, 3, "t")
    assert wordt("s", 2, 2) is theta0.globe_functor(idword(2)) is identity(disk(2))
    for args in (("x", 1, 3), ("s", 3, 1), ("t", -1, 0)):
        with pytest.raises(GlobeError):
            wordt(*args)
    with pytest.raises(GlobeError, match="kind 'x'"):
        theta0.word_gmap(1, 3, "x")
    with pytest.raises(GlobeError, match="has kind 's'"):
        theta0.word_gmap(2, 2, "s")
