"""Concrete maps between realized sums of disks.

Objects are tables of dimensions.  By the colimit property and Yoneda, a
morphism out of a table's sum of disks is the tuple of target cells its
disks pick whose glued faces agree: one element of the target carrier's
fiber product over the source table.  Every other cell of the source goes
where its owner (leg, word) sends it.  This gives composition, the cocone
legs, and the embedding of globe-category words, all with decidable
equality.  A `GMap` is also the concrete node of `coherator`'s term trees,
and its constructor is the one check of a concrete tuple's gluing.

Maps are hash-consed as tables are, by `globe.Interned`: one live `GMap`
per value, checked once when that value is first built.  A memo keyed by a
map or a table lives on that object, so it is dropped with it: a map keeps
its legs and its composites after other maps (`Interned.memo`), and a
table keeps its identity map.  `word_gmap`, which `globe_functor` reads
(keyed by a word's three fields), stays process-global.  A hom-set is read
off the fiber product that the target's realized carrier keeps.
"""

from __future__ import annotations

from functools import lru_cache

from .globe import GlobeError, Interned, Word, all_ints, disk, realize_sum, sword, tword


class MatchingError(GlobeError):
    """A family of disk maps fails the gluing condition of a table."""

    def __init__(self, k, dim, msg=None):
        self.k = k
        self.dim = dim
        super().__init__(msg or "matching condition fails at gluing %d, dimension %d" % (k, dim))


def gluing_error(k, j, a, b, face):
    """The failure of gluing k over dimension j, whose two j-cells a and b
    differ: it names the lowest dimension at which their faces differ, j if
    all their lower faces agree.  `face(word, x)` is x's face along a word."""
    return MatchingError(k, next((d for d in range(j)
                                  if any(face(w(d, j), a) != face(w(d, j), b)
                                         for w in (sword, tword))), j))


class GMap(Interned):
    """A map of realized sums: `cells[k]` is the target cell that the top
    cell of the source's k-th disk goes to.

    Building one checks the gluing condition alone: at each gluing k over
    dimension j, the s-face of `cells[k]` is the t-face of `cells[k + 1]`.
    A failure names k and the lowest dimension where the two faces differ.

    Maps are interned (`globe.Interned`), with `is_identity` stored.
    `cells` must be a tuple of ints; every new value is checked before it
    is interned.  The map's legs are kept on the map, built on first use,
    and die with it.
    """

    __slots__ = ("source", "target", "cells", "is_identity", "_legs")
    _fields = __slots__[:3]
    level = 0   # the highest generator level a term names (`coherator.Chain`)

    @staticmethod
    def _check_types(source, target, cells):
        if type(cells) is not tuple or not all_ints(cells):
            raise GlobeError("map cells must be a tuple of ints, not %r" % (cells,))

    def _build(self):
        source, target, cells = self.source, self.target, self.cells
        self._check_types(source, target, cells)
        carrier = realize_sum(target).carrier
        upper = source.upper
        if len(cells) != len(upper):
            raise GlobeError("map picks %d cells for the %d disks of %s"
                             % (len(cells), len(upper), source))
        for k, (m, c) in enumerate(zip(upper, cells)):
            if not 0 <= c < carrier.count(m):
                raise GlobeError("map sends disk %d to %r, not one of the %d %d-cells "
                                 "of %s" % (k, c, carrier.count(m), m, target))
        for k, j in enumerate(source.lower):
            a = carrier.boundary(sword(j, upper[k]), cells[k])
            b = carrier.boundary(tword(j, upper[k + 1]), cells[k + 1])
            if a != b:
                raise gluing_error(k, j, a, b, carrier.boundary)
        object.__setattr__(self, "is_identity",
                           source is target and cells == _identity_cells(source))
        object.__setattr__(self, "_legs", None)

    def leg(self, k):
        """This map after the source's k-th cocone leg: the map out of the
        k-th disk picking `cells[k]`."""
        legs = self._legs
        if legs is None:
            legs = tuple(GMap(disk(m), self.target, (c,))
                         for m, c in zip(self.source.upper, self.cells))
            object.__setattr__(self, "_legs", legs)
        return legs[k]


def _identity_cells(table):
    """The top cells of a table's own disks in its realized sum."""
    return tuple(leg[m][0] for leg, m in zip(realize_sum(table).legs, table.upper))


def identity_gmap(table):
    """The identity of a table's sum, built once and kept on the table."""
    gmap = table._identity
    if gmap is None:
        gmap = GMap(table, table, _identity_cells(table))
        object.__setattr__(table, "_identity", gmap)
    return gmap


def compose(g, f):
    """g after f: each cell f picks has an owner (leg, word) in g's source,
    and goes to that word's face of the cell g's leg picks.  Each distinct
    composite is built and checked once, and kept on g."""
    memo = g.memo()
    h = memo.get(f)
    if h is not None:
        return h
    if f.target is not g.source:
        raise GlobeError("object mismatch: cannot compose %s after %s"
                         % (g.source, f.target))
    owners = realize_sum(g.source).owners
    boundary = realize_sum(g.target).carrier.boundary
    cells = []
    for m, c in zip(f.source.upper, f.cells):
        leg, word = owners[m][c]
        cells.append(boundary(word, g.cells[leg]))
    h = memo[f] = GMap(f.source, g.target, tuple(cells))
    return h


def leg_gmap(table, k):
    """The k-th cocone leg D_{i_k} -> sum (0-indexed)."""
    return identity_gmap(table).leg(k)


def globe_functor(word):
    """The map of representables induced by a globe-category word."""
    return word_gmap(word.src, word.tgt, word.kind)


@lru_cache(maxsize=None)
def word_gmap(src, tgt, kind):
    """`globe_functor` of the word (src, tgt, kind), cached on the three
    fields: the `Word` is built, and checked, only on a miss."""
    word = Word(src, tgt, kind)
    return GMap(disk(src), disk(tgt), (realize_sum(disk(tgt)).carrier.boundary(word, 0),))


def decompose(gmap):
    """Write a disk-sourced map as (leg k, word): the owner of the cell it picks."""
    if not gmap.source.is_disk:
        raise GlobeError("only a map out of a disk decomposes, not one out of %s"
                         % gmap.source)
    return realize_sum(gmap.target).owners[gmap.source.upper[0]][gmap.cells[0]]


def legs_pair_gmap(target_table, ks, source_table):
    """Pairing of several cocone legs of `target_table` over `source_table`:
    the map picking the top cells of the disks `ks`."""
    if tuple(target_table.upper[k] for k in ks) != source_table.upper:
        raise GlobeError("legs %s of %s do not span %s" % (ks, target_table, source_table))
    cells = identity_gmap(target_table).cells
    return GMap(source_table, target_table, tuple(cells[k] for k in ks))


def enumerate_homs(source_table, target_table):
    """All maps source -> target, one per element of the target carrier's
    fiber product over the source table, in its lexicographic order."""
    return tuple(GMap(source_table, target_table, x)
                 for x in realize_sum(target_table).carrier.fiber_product(source_table))
