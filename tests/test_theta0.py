"""Concrete maps of realized sums: composition, pairing, decomposition.

`LevelMap` is the representation `GMap` replaced, kept as the differential
oracle: a cell map for every dimension of the source's realized sum,
validated cell by cell, with cellwise composition and pasting through the
owners.  `level_map(gm)` builds it from the cells a `GMap` picks, through the
old Yoneda maps and the old pairing check; the other test modules read a
map's lower cells through it.
"""

import functools
import gc
import itertools
import random
from dataclasses import dataclass

import pytest

from globkit import coherator as C
from globkit import globe, theta0
from globkit.coherator import TermError, tuple_term
from globkit.globe import (
    GlobeError, Table, Word, disk, disk_cell_word, realize_sum, sword, tword,
)
from globkit.theta0 import MatchingError
from oracles import (
    OldGMap, all_tables, old_gmap_compose, old_identity_gmap, old_leg_gmap,
)


@dataclass(frozen=True)
class LevelMap:
    """A map of realized sums, given cell-wise per dimension."""

    source: Table
    target: Table
    maps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sc = realize_sum(self.source).carrier
        tc = realize_sum(self.target).carrier
        if len(self.maps) != sc.dim + 1:
            raise GlobeError("map has rows for %d dimensions, %s has %d"
                             % (len(self.maps), self.source, sc.dim + 1))
        for d in range(sc.dim + 1):
            if len(self.maps[d]) != sc.count(d):
                raise GlobeError("map has %d entries at dim %d" % (len(self.maps[d]), d))
            for v in self.maps[d]:
                if not 0 <= v < tc.count(d):
                    raise GlobeError("map sends a %d-cell to %r" % (d, v))
        for d in range(1, sc.dim + 1):
            for c in range(sc.count(d)):
                if tc.source(d, self.maps[d][c]) != self.maps[d - 1][sc.source(d, c)]:
                    raise GlobeError("map does not commute with src at dim %d" % d)
                if tc.target(d, self.maps[d][c]) != self.maps[d - 1][sc.target(d, c)]:
                    raise GlobeError("map does not commute with tgt at dim %d" % d)


def level_compose(g, f):
    """g after f, cell by cell, through the validating constructor."""
    maps = tuple(tuple(g.maps[d][c] for c in f.maps[d]) for d in range(len(f.maps)))
    return LevelMap(f.source, g.target, maps)


@functools.cache
def level_cell(table, m, cell):
    """The map D_m -> sum picking a given m-cell of the carrier (Yoneda)."""
    carrier = realize_sum(table).carrier
    maps = tuple(
        tuple(carrier.boundary(disk_cell_word(m, d, c), cell)
              for c in range(2 if d < m else 1))
        for d in range(m + 1))
    return LevelMap(disk(m), table, maps)


def level_word(word):
    """The map of representables induced by a globe-category word."""
    return level_cell(disk(word.tgt), word.src,
                      realize_sum(disk(word.tgt)).carrier.boundary(word, 0))


def owner_paste(components, source_table):
    """Each carrier cell reads its owning leg's component at the disk cell
    the owner's word presents."""
    real = realize_sum(source_table)
    maps = []
    for d in range(real.carrier.dim + 1):
        row = []
        for k, w in real.owners[d]:
            c = 0 if d == source_table.upper[k] or w.kind == "s" else 1
            row.append(components[k].maps[d][c])
        maps.append(tuple(row))
    return LevelMap(source_table, components[0].target, tuple(maps))


def level_pair(components, source_table):
    """The old `pair`: each gluing checked by composing both components
    with their face words, a failure naming the lowest differing dimension;
    then the owner paste."""
    for k, j in enumerate(source_table.lower):
        left = level_compose(components[k], level_word(sword(j, source_table.upper[k])))
        right = level_compose(components[k + 1], level_word(tword(j, source_table.upper[k + 1])))
        if left != right:
            raise MatchingError(k, next(d for d in range(j + 1)
                                        if left.maps[d] != right.maps[d]))
    return owner_paste(components, source_table)


def level_cells(source_table, target_table, cells):
    """The per-dimension map out of a sum picking the given cells."""
    return level_pair(tuple(level_cell(target_table, m, c)
                            for m, c in zip(source_table.upper, cells)), source_table)


@functools.cache
def level_map(gm):
    """The per-dimension map of a `GMap`, built from the element it is."""
    return level_cells(gm.source, gm.target, gm.cells)


def small_tables(max_width=3, max_dim=3):
    return [t for t in all_tables(max_width, max_dim)]


def test_compose_identity_and_shared_cell():
    tab = Table((1, 1), (0,))
    f = theta0.leg_gmap(tab, 1)
    assert theta0.compose(theta0.identity_gmap(tab), f) == f
    assert theta0.compose(f, theta0.identity_gmap(disk(1))) == f
    # eps1 . s1 agrees with eps2 . t1: both pick the glued middle object
    left = theta0.compose(theta0.leg_gmap(tab, 0), theta0.globe_functor(sword(0, 1)))
    right = theta0.compose(theta0.leg_gmap(tab, 1), theta0.globe_functor(tword(0, 1)))
    assert left == right


def test_no_dimension_collapsing_maps():
    # cell maps cannot lower dimension: collapses such as D1 -> D0 only
    # appear as unit generators one level up, never in the concrete layer
    assert theta0.enumerate_homs(disk(1), disk(0)) == ()
    assert len(theta0.enumerate_homs(disk(0), disk(0))) == 1


def test_compose_associative_random():
    rng = random.Random(1)
    tables = small_tables(3, 3)
    # the tables each table maps into; every table maps to itself, so a
    # chain drawn through them always extends
    succ = {a: [b for b in tables if realize_sum(b).carrier.fiber_product(a)]
            for a in tables}
    for _ in range(300):
        a = rng.choice(tables)
        b = rng.choice(succ[a])
        c = rng.choice(succ[b])
        d = rng.choice(succ[c])
        f = rng.choice(theta0.enumerate_homs(a, b))
        g = rng.choice(theta0.enumerate_homs(b, c))
        h = rng.choice(theta0.enumerate_homs(c, d))
        lhs = theta0.compose(h, theta0.compose(g, f))
        rhs = theta0.compose(theta0.compose(h, g), f)
        assert lhs == rhs
        assert theta0.compose(f, theta0.identity_gmap(a)) == f
        assert theta0.compose(theta0.identity_gmap(b), f) == f


def test_level_map_of_each_element_commutes_and_composes_cellwise():
    tables = all_tables(2, 2)
    elements = composites = 0
    for a in tables:
        for b in tables:
            for x in realize_sum(b).carrier.fiber_product(a):
                # LevelMap's constructor checks that it commutes with src/tgt
                f = theta0.GMap(a, b, x)
                old = level_cells(a, b, x)
                assert level_map(f) == old
                elements += 1
                for c in tables:
                    for g in theta0.enumerate_homs(b, c):
                        got = level_map(theta0.compose(g, f))
                        assert got == level_compose(level_map(g), old), (g, x)
                        composites += 1
    assert (elements, composites) == (61, 248)


def test_gmap_accepts_exactly_the_fiber_product():
    """Yoneda: among all in-range cell tuples, a map is exactly a fiber
    product element, and a refused tuple fails where the old pairing does,
    whether built as a map, as the tuple term of its disk maps, or checked
    by the term-level gluing predicate."""
    accepted = refused = 0
    tables = small_tables(3, 2)
    for a in tables:
        for b in tables:
            carrier = realize_sum(b).carrier
            elements = set(carrier.fiber_product(a))
            for x in itertools.product(*(range(carrier.count(m)) for m in a.upper)):
                comps = tuple(theta0.GMap(disk(m), b, (c,)) for m, c in zip(a.upper, x))
                term_errors = [e for e in (C.gluing_error(k, j, comps[k], comps[k + 1])
                                           for k, j in enumerate(a.lower)) if e is not None]
                try:
                    gm = theta0.GMap(a, b, x)
                except MatchingError as e:
                    assert x not in elements
                    with pytest.raises(MatchingError) as old:
                        level_cells(a, b, x)
                    want = (old.value.k, old.value.dim)
                    assert (e.k, e.dim) == want, (a, b, x)
                    with pytest.raises(MatchingError) as via_term:
                        tuple_term(comps, a)
                    assert (via_term.value.k, via_term.value.dim) == want, (a, b, x)
                    assert (term_errors[0].k, term_errors[0].dim) == want, (a, b, x)
                    refused += 1
                else:
                    assert x in elements and gm.cells == x
                    assert tuple_term(comps, a) == gm and term_errors == []
                    accepted += 1
    assert (accepted, refused) == (373, 6152)
    assert accepted == sum(len(realize_sum(b).carrier.fiber_product(a))
                           for a in tables for b in tables)


def test_memoized_compose_matches_cellwise_oracle():
    tables = small_tables(2, 3)
    pairs = 0
    for a in tables:
        for b in tables:
            for f in theta0.enumerate_homs(a, b):
                for c in tables:
                    for g in theta0.enumerate_homs(b, c):
                        got = theta0.compose(g, f)
                        assert level_map(got) == level_compose(level_map(g), level_map(f)), (g, f)
                        assert theta0.compose(g, f) is got
                        pairs += 1
    assert pairs == 1582
    f = theta0.leg_gmap(Table((1, 1), (0,)), 0)
    with pytest.raises(GlobeError):
        theta0.compose(f, f)
    with pytest.raises(GlobeError):
        theta0.compose(theta0.identity_gmap(disk(2)), f)


def test_globe_functor_is_one_map_per_word():
    for j in range(4):
        for i in range(j, 4):
            for w in {sword(j, i), tword(j, i)}:
                gm = theta0.globe_functor(w)
                assert theta0.globe_functor(Word(w.src, w.tgt, w.kind)) is gm
                assert gm.source == disk(w.src) and gm.target == disk(w.tgt)
                assert theta0.decompose(gm) == (0, w)


def test_pair_matches_owner_paste_oracle():
    tables = all_tables(2, 2)
    for s in tables:
        for t in tables:
            for h in theta0.enumerate_homs(s, t):
                comps = tuple(theta0.compose(h, theta0.leg_gmap(s, k))
                              for k in range(s.width))
                assert comps == tuple(h.leg(k) for k in range(s.width))
                assert tuple_term(comps, s) == h, (s, t)
                assert owner_paste(tuple(map(level_map, comps)), s) == level_map(h)


def test_pair_of_legs_is_identity_width_up_to_4():
    for table in all_tables(4, 3):
        legs = tuple(theta0.leg_gmap(table, k) for k in range(table.width))
        identity = theta0.identity_gmap(table)
        assert tuple_term(legs, table) == identity
        assert owner_paste(tuple(map(level_map, legs)), table) == level_map(identity)
        assert all(row == tuple(range(len(row))) for row in level_map(identity).maps)


def test_cached_is_identity_matches_row_scan():
    tables = small_tables(2, 3)
    identities = 0
    for a in tables:
        for b in tables:
            for f in theta0.enumerate_homs(a, b):
                scan = f.source == f.target and \
                    all(row == tuple(range(len(row))) for row in level_map(f).maps)
                assert f.is_identity == scan, f
                identities += scan
    assert identities == len(tables)


def test_pair_of_inner_legs():
    # pairing two adjacent legs of a wider sum embeds the smaller sum
    tab = Table((1, 1), (0,))
    t3 = Table((1, 1, 1), (0, 0))
    emb = theta0.legs_pair_gmap(t3, (1, 2), tab)
    assert emb.source == tab and emb.target == t3
    assert level_map(emb).maps[1] == (realize_sum(t3).legs[1][1][0], realize_sum(t3).legs[2][1][0])
    # legs of other dimensions do not span the smaller sum
    with pytest.raises(GlobeError):
        theta0.legs_pair_gmap(Table((1, 2, 1), (0, 0)), (0, 1), tab)


def test_pair_matching_violation_reports_position():
    tab = Table((1, 1), (0,))
    # two legs of a disjoint-looking choice: eps1 with itself mismatches
    f = theta0.leg_gmap(tab, 0)
    with pytest.raises(MatchingError) as exc:
        tuple_term((f, f), tab)
    assert exc.value.k == 0 and exc.value.dim == 0
    # arity, sources and targets are checked before the gluing
    for comps in ((f,), (f, theta0.leg_gmap(Table((1, 2), (0,)), 0)),
                  (f, theta0.identity_gmap(disk(2)))):
        with pytest.raises(TermError):
            tuple_term(comps, tab)


def test_globe_functor_examples():
    s1 = level_map(theta0.globe_functor(sword(0, 1)))
    assert s1.maps[0] == (0,)
    t20 = level_map(theta0.globe_functor(tword(0, 2)))
    assert t20.maps[0] == (1,)
    s2 = level_map(theta0.globe_functor(sword(1, 2)))
    # commutes with boundaries by construction; the 1-cell goes to the s-face
    assert s2.maps[1] == (0,)
    assert s2.maps[0] == (0, 1)


def test_disk_sourced_maps_decompose_as_leg_and_word():
    for table in small_tables(3, 3):
        for m in range(0, 4):
            for gm in theta0.enumerate_homs(disk(m), table):
                k, w = theta0.decompose(gm)
                rebuilt = theta0.compose(theta0.leg_gmap(table, k),
                                         theta0.globe_functor(w))
                assert rebuilt == gm


def test_enumerate_homs_counts_match_cells():
    # maps out of a disk are exactly the cells of that dimension (Yoneda)
    for table in small_tables(3, 3):
        real = realize_sum(table)
        for m in range(table.dimension + 1):
            assert len(theta0.enumerate_homs(disk(m), table)) == real.carrier.count(m)


def product_enumeration(source_table, target_table):
    """Maps source -> target by filtering every choice of one cell per disk:
    the enumeration `enumerate_homs` used before the fiber product."""
    real = realize_sum(target_table)
    out = []
    choices = [range(real.carrier.count(m)) for m in source_table.upper]
    for combo in itertools.product(*choices):
        if all(real.carrier.boundary(sword(j, source_table.upper[k]), combo[k])
               == real.carrier.boundary(tword(j, source_table.upper[k + 1]), combo[k + 1])
               for k, j in enumerate(source_table.lower)):
            out.append(level_cells(source_table, target_table, combo))
    return tuple(out)


def test_enumerate_homs_matches_product_enumeration_in_order():
    tables = small_tables(3, 3)
    for a in tables:
        for b in tables:
            homs = tuple(map(level_map, theta0.enumerate_homs(a, b)))
            assert homs == product_enumeration(a, b), (a, b)


def test_malformed_maps_raise_globe_error():
    tab = Table((1, 1), (0,))
    good = theta0.leg_gmap(tab, 0).cells
    for cells in ((), good + good, (7,), (-1,)):
        with pytest.raises(GlobeError):
            theta0.GMap(disk(1), tab, cells)
    with pytest.raises(MatchingError):
        theta0.GMap(tab, tab, good + good)
    old = level_map(theta0.leg_gmap(tab, 0)).maps
    for maps in (old[:1], (old[0], old[1] + (0,)), (old[0], (7,))):
        with pytest.raises(GlobeError):
            LevelMap(disk(1), tab, maps)
    with pytest.raises(GlobeError):
        theta0.decompose(theta0.identity_gmap(tab))


def test_gmaps_are_interned():
    """Equal maps are one object (`globe.Interned`, whose shared contract
    `test_globe` checks); refused cells never reach the intern table; and
    a map's composites live on the map, so building and dropping a tower
    leaves the live maps and their memos as they were."""
    tab = Table((1, 1), (0,))
    f = theta0.GMap(tab, tab, theta0.identity_gmap(tab).cells)
    assert f is theta0.identity_gmap(tab) and f.is_identity
    assert theta0.GMap(disk(1), tab, (0,)) is theta0.leg_gmap(tab, 0)
    assert repr(theta0.leg_gmap(tab, 1)) == \
        "GMap(source=Table(upper=(1,), lower=()), target=Table(upper=(1, 1), lower=(0,)), " \
        "cells=(1,))"
    for name in ("cells", "is_identity", "other"):
        with pytest.raises(AttributeError, match="GMap is immutable"):
            setattr(f, name, None)
    # a float or bool cell would otherwise be interned and handed out for
    # the equal int value; this target is used nowhere else
    target = Table((5, 6, 5), (2, 4))
    key = (theta0.GMap, disk(0), target, (0,))
    assert key not in globe._INTERNED
    for cells in ((0.0,), (False,), [0], (0, 1.0)):
        with pytest.raises(GlobeError, match="map cells must be a tuple of ints"):
            theta0.GMap(disk(0), target, cells)
    assert key not in globe._INTERNED

    def live_maps():
        return [g for g in list(globe._INTERNED.values()) if type(g) is theta0.GMap]

    counts = []
    for _ in range(4):
        C.stdlib(8)
        gc.collect()
        maps = live_maps()
        counts.append((len(maps), sum(len(g._memo or ()) for g in maps)))
        del maps
    assert len(set(counts)) == 1 and counts[0][1] > 0


def old_of(gm):
    return OldGMap(gm.source, gm.target, gm.cells)


def same_value(new, old):
    return (new.source, new.target, new.cells) == (old.source, old.target, old.cells)


def test_interned_maps_match_the_dataclass_maps(monkeypatch):
    """Every composite, leg and identity that building `stdlib(2..8)` asks
    for, and every map `enumerate_homs` lists into its generators' targets,
    has the value the replaced dataclass maps give; and a tuple of cells
    the replaced constructor refused is refused with the same error."""
    seen = {"compose": 0, "leg": 0, "identity": 0}
    compose, identity, leg = theta0.compose, theta0.identity_gmap, theta0.GMap.leg

    def checked_compose(g, f):
        h = compose(g, f)
        assert same_value(h, old_gmap_compose(old_of(g), old_of(f))), (g, f)
        seen["compose"] += 1
        return h

    def checked_identity(table):
        gm = identity(table)
        assert same_value(gm, old_identity_gmap(table)) and gm.is_identity
        seen["identity"] += 1
        return gm

    def checked_leg(self, k):
        gm = leg(self, k)
        assert same_value(gm, old_of(self).leg(k)) and \
            gm.is_identity == old_of(gm).is_identity, (self, k)
        seen["leg"] += 1
        return gm

    monkeypatch.setattr(theta0, "compose", checked_compose)
    monkeypatch.setattr(theta0, "identity_gmap", checked_identity)
    monkeypatch.setattr(theta0.GMap, "leg", checked_leg)
    targets = set()
    for d in range(2, 9):
        tower, _ = C.stdlib(d)
        targets.update(gen.target for gen in tower.gens())
    assert min(seen.values()) > 100, seen
    monkeypatch.undo()
    homs = 0
    for table in sorted(targets, key=repr):
        for k in range(table.width):
            assert same_value(theta0.leg_gmap(table, k), old_leg_gmap(table, k))
        for source in [disk(m) for m in range(table.dimension + 1)] + [table]:
            new = theta0.enumerate_homs(source, table)
            old = [OldGMap(source, table, x)
                   for x in realize_sum(table).carrier.fiber_product(source)]
            assert len(new) == len(old)
            for gm, want in zip(new, old):
                assert same_value(gm, want) and gm.is_identity == want.is_identity, gm
            homs += len(new)
    assert homs > 1000

    rng = random.Random(16)
    tables = small_tables(3, 3)
    refused, built, unglued = 0, 0, 0
    while refused < 1000:
        a, b = rng.choice(tables), rng.choice(tables)
        carrier = realize_sum(b).carrier
        width = a.width + rng.choice((0, 0, 0, 0, 0, 0, -1, 1))
        cells = tuple(rng.randrange(-1, carrier.count(m) + 1)
                      for m in (a.upper * 2)[:width])
        try:
            want = OldGMap(a, b, cells)
        except GlobeError as e:
            with pytest.raises(GlobeError) as got:
                theta0.GMap(a, b, cells)
            assert type(got.value) is type(e) and str(got.value) == str(e), (a, b, cells)
            assert (getattr(got.value, "k", None), getattr(got.value, "dim", None)) == \
                (getattr(e, "k", None), getattr(e, "dim", None))
            refused += 1
            unglued += isinstance(e, MatchingError)
        else:
            assert same_value(theta0.GMap(a, b, cells), want)
            built += 1
    assert built > 20 and unglued > 100
