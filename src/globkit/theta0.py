"""Concrete maps between realized sums of disks.

Objects are tables of dimensions; a morphism is a dimension-wise cell map
between the realized carriers that commutes with source and target.  This
gives composition, cocone pairing, and the embedding of globe-category
words, all with decidable equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .globe import (
    GlobeError, Table, disk, disk_cell_word, realize_sum, sword, tword,
)


class MatchingError(GlobeError):
    """A family of disk maps fails the gluing condition of a table."""

    def __init__(self, k, dim, msg=None):
        self.k = k
        self.dim = dim
        super().__init__(msg or "matching condition fails at gluing %d, dimension %d" % (k, dim))


@dataclass(frozen=True)
class GMap:
    """A map of realized sums, given cell-wise per dimension."""

    source: Table
    target: Table
    maps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sreal = realize_sum(self.source)
        treal = realize_sum(self.target)
        sc, tc = sreal.carrier, treal.carrier
        if len(self.maps) != sc.dim + 1:
            raise GlobeError("map has rows for %d dimensions, %s has %d"
                             % (len(self.maps), self.source, sc.dim + 1))
        for d in range(sc.dim + 1):
            if len(self.maps[d]) != sc.count(d):
                raise GlobeError("map has %d entries at dim %d for the %d cells of %s"
                                 % (len(self.maps[d]), d, sc.count(d), self.source))
            for c, v in enumerate(self.maps[d]):
                if not 0 <= v < tc.count(d):
                    raise GlobeError("map sends %d-cell %d to %r, not one of the %d "
                                     "cells of %s" % (d, c, v, tc.count(d), self.target))
        for d in range(1, sc.dim + 1):
            for c in range(sc.count(d)):
                if tc.source(d, self.maps[d][c]) != self.maps[d - 1][sc.source(d, c)]:
                    raise GlobeError("map does not commute with src at dim %d" % d)
                if tc.target(d, self.maps[d][c]) != self.maps[d - 1][sc.target(d, c)]:
                    raise GlobeError("map does not commute with tgt at dim %d" % d)

    @cached_property
    def is_identity(self):
        return self.source == self.target and \
            all(row == tuple(range(len(row))) for row in self.maps)


@lru_cache(maxsize=None)
def identity_gmap(table):
    real = realize_sum(table)
    maps = tuple(tuple(range(real.carrier.count(d)))
                 for d in range(real.carrier.dim + 1))
    return GMap(table, table, maps)


@lru_cache(maxsize=None)
def compose(g, f):
    """g after f, cell-wise; each distinct composite is built and checked once."""
    if f.target != g.source:
        raise GlobeError("object mismatch: cannot compose %s after %s"
                         % (g.source, f.target))
    maps = tuple(
        tuple(g.maps[d][c] for c in f.maps[d])
        for d in range(len(f.maps))
    )
    return GMap(f.source, g.target, maps)


@lru_cache(maxsize=None)
def leg_gmap(table, k):
    """The k-th cocone leg D_{i_k} -> sum (0-indexed)."""
    real = realize_sum(table)
    m = table.upper[k]
    return GMap(disk(m), table, real.legs[k])


@lru_cache(maxsize=None)
def cell_gmap(table, m, cell):
    """The map D_m -> sum picking a given m-cell of the carrier (Yoneda)."""
    carrier = realize_sum(table).carrier
    maps = tuple(
        tuple(carrier.boundary(disk_cell_word(m, d, c), cell)
              for c in range(2 if d < m else 1))
        for d in range(m + 1))
    return GMap(disk(m), table, maps)


@lru_cache(maxsize=None)
def globe_functor(word):
    """The map of representables induced by a globe-category word."""
    return cell_gmap(disk(word.tgt), word.src,
                     realize_sum(disk(word.tgt)).carrier.boundary(word, 0))


def decompose(gmap):
    """Write a disk-sourced map as (leg k, word): the owner of the cell it picks."""
    if not gmap.source.is_disk:
        raise GlobeError("only a map out of a disk decomposes, not one out of %s"
                         % gmap.source)
    m = gmap.source.upper[0]
    return realize_sum(gmap.target).owners[m][gmap.maps[m][0]]


def pair(components, source_table):
    """The unique map out of a sum restricting to the given legs.

    components[k] must be a map out of the k-th disk of `source_table`; the
    gluing conditions are checked and violations report the failing gluing
    index and dimension.
    """
    width = source_table.width
    if len(components) != width:
        raise GlobeError("expected %d components, got %d" % (width, len(components)))
    target = components[0].target
    for k, comp in enumerate(components):
        if comp.source != disk(source_table.upper[k]):
            raise GlobeError("component %d has source %s, expected D%d"
                             % (k, comp.source, source_table.upper[k]))
        if comp.target != target:
            raise GlobeError("component %d has a different target" % k)
    for k, j in enumerate(source_table.lower):
        left = compose(components[k], globe_functor(sword(j, source_table.upper[k])))
        right = compose(components[k + 1], globe_functor(tword(j, source_table.upper[k + 1])))
        if left != right:
            dim = next(d for d in range(j + 1)
                       if left.maps[d] != right.maps[d])
            raise MatchingError(k, dim)
    return paste(components, source_table)


def paste(components, source_table):
    """`pair` without its checks, for legs known to satisfy them: each leg
    writes its component's cells through the leg's map into the sum."""
    real = realize_sum(source_table)
    maps = [[0] * n for n in real.carrier.cells]
    for comp, leg in zip(components, real.legs):
        for row, leg_row, comp_row in zip(maps, leg, comp.maps):
            for cell, image in zip(leg_row, comp_row):
                row[cell] = image
    return GMap(source_table, components[0].target, tuple(map(tuple, maps)))


def legs_pair_gmap(target_table, ks, source_table):
    """Pairing of several cocone legs of `target_table` over `source_table`."""
    return pair(tuple(leg_gmap(target_table, k) for k in ks), source_table)


@lru_cache(maxsize=None)
def enumerate_homs(source_table, target_table):
    """All maps source -> target, one per element of the target carrier's
    fiber product over the source table, in its lexicographic order."""
    carrier = realize_sum(target_table).carrier
    return tuple(
        pair(tuple(cell_gmap(target_table, m, c) for m, c in zip(source_table.upper, x)),
             source_table)
        for x in carrier.fiber_product(source_table))
