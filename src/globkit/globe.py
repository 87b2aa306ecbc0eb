"""The globe category, tables of dimensions, and finite globular sets.

Disks D0, D1, ... are connected by cosource/cotarget maps s_n, t_n : D_{n-1} -> D_n
subject to (composing right to left) s.s = t.s and s.t = t.t.  A table of
dimensions prescribes an iterated amalgamated sum of disks; `realize_sum`
computes that colimit concretely as a finite globular set together with its
cocone legs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

DEFAULT_TRUNC = 6


class GlobeError(Exception):
    pass


@dataclass(frozen=True)
class Word:
    """A morphism D_src -> D_tgt of the globe category, in normal form.

    The relations let every letter except the lowest one be rewritten to `s`,
    so a word is determined by its endpoints and its lowest letter (`kind`).
    """

    src: int
    tgt: int
    kind: str | None  # 's' or 't' for the lowest letter; None iff identity

    def __post_init__(self):
        if not 0 <= self.src <= self.tgt:
            raise GlobeError("word D%r -> D%r needs 0 <= src <= tgt" % (self.src, self.tgt))
        if self.src == self.tgt:
            if self.kind is not None:
                raise GlobeError("identity word on D%d has kind %r, not None"
                                 % (self.src, self.kind))
        elif self.kind not in ("s", "t"):
            raise GlobeError("word kind %r is not 's' or 't'" % (self.kind,))

    @property
    def is_identity(self):
        return self.src == self.tgt

    def letters(self):
        """Letters from lowest to highest dimension, e.g. [('t', 1), ('s', 2)]."""
        if self.is_identity:
            return []
        out = [(self.kind, self.src + 1)]
        out.extend(("s", d) for d in range(self.src + 2, self.tgt + 1))
        return out

    def __str__(self):
        if self.is_identity:
            return "id"
        return " * ".join("%s%d" % (k, d) for (k, d) in reversed(self.letters()))


def idword(m):
    return Word(m, m, None)


def sword(j, i):
    return Word(j, i, None if i == j else "s")


def tword(j, i):
    return Word(j, i, None if i == j else "t")


def compose_words(w2, w1):
    """Normal form of w2 composed after w1."""
    if w1.tgt != w2.src:
        raise GlobeError("word composition mismatch: %s then %s" % (w1, w2))
    if w1.is_identity:
        return w2
    return Word(w1.src, w2.tgt, w1.kind)


@dataclass(frozen=True)
class Table:
    """A table of dimensions: upper row (i_1..i_n), lower row (i'_1..i'_{n-1})."""

    upper: tuple[int, ...]
    lower: tuple[int, ...]

    def __post_init__(self):
        if len(self.upper) < 1 or len(self.lower) != len(self.upper) - 1:
            raise GlobeError("table rows have mismatched widths")
        if any(i < 0 for i in self.upper) or any(i < 0 for i in self.lower):
            raise GlobeError("table entries must be naturals")
        for k, j in enumerate(self.lower):
            if not (self.upper[k] > j and self.upper[k + 1] > j):
                raise GlobeError(
                    "table entry %d not dominated by its neighbours" % j)

    @property
    def width(self):
        return len(self.upper)

    @property
    def dimension(self):
        return max(self.upper)

    @property
    def is_disk(self):
        return self.width == 1

    def __str__(self):
        parts = ["D%d" % self.upper[0]]
        for k, j in enumerate(self.lower):
            parts.append("+%d D%d" % (j, self.upper[k + 1]))
        return " ".join(parts)


@lru_cache(maxsize=None)
def disk(m):
    """The one-disk table D_m, one shared object per m."""
    return Table((m,), ())


def all_tables(max_width, max_dim):
    """Every valid table with the given width and dimension bounds."""
    out = []
    for width in range(1, max_width + 1):
        for upper in itertools.product(range(max_dim + 1), repeat=width):
            lowers = [
                range(min(upper[k], upper[k + 1]))
                for k in range(width - 1)
            ]
            for lower in itertools.product(*lowers):
                out.append(Table(tuple(upper), tuple(lower)))
    return out


@dataclass(frozen=True)
class GlobularSet:
    """A finite globular set: cell counts per dimension plus boundary maps."""

    cells: tuple[int, ...]
    src: tuple[tuple[int, ...], ...]
    tgt: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.cells or len(self.src) != len(self.cells) or \
                len(self.tgt) != len(self.cells):
            raise GlobeError("globular set needs boundary rows for each of its %d "
                             "dimensions" % len(self.cells))
        if any(not isinstance(n, int) or n < 0 for n in self.cells):
            raise GlobeError("cell counts %s are not all naturals" % (self.cells,))
        if self.src[0] != () or self.tgt[0] != ():
            raise GlobeError("0-cells have no boundary")
        for d in range(1, len(self.cells)):
            for name, row in (("src", self.src[d]), ("tgt", self.tgt[d])):
                if len(row) != self.cells[d]:
                    raise GlobeError("%s at dim %d has %d entries for %d cells"
                                     % (name, d, len(row), self.cells[d]))
                for c, v in enumerate(row):
                    if not (isinstance(v, int) and not isinstance(v, bool)
                            and 0 <= v < self.cells[d - 1]):
                        raise GlobeError("%s of %d-cell %d is %r, not one of the %d "
                                         "%d-cells" % (name, d, c, v, self.cells[d - 1], d - 1))
        for d in range(2, len(self.cells)):
            for c in range(self.cells[d]):
                a, b = self.src[d][c], self.tgt[d][c]
                if self.src[d - 1][a] != self.src[d - 1][b] or \
                        self.tgt[d - 1][a] != self.tgt[d - 1][b]:
                    raise GlobeError("globular relations fail at dim %d cell %d" % (d, c))

    @property
    def dim(self):
        return len(self.cells) - 1

    def count(self, d):
        return self.cells[d] if 0 <= d <= self.dim else 0

    def source(self, d, c):
        return self.src[d][c]

    def target(self, d, c):
        return self.tgt[d][c]

    def boundary(self, word, c):
        """Apply a globe-category word to a cell of dimension word.tgt."""
        if word.is_identity:
            return c
        d = word.tgt
        while d > word.src + 1:
            c = self.src[d][c]
            d -= 1
        return self.src[d][c] if word.kind == "s" else self.tgt[d][c]

    def fiber_product(self, table):
        """The maps from a table's sum of disks into this set, as the tuples
        of cells the disks pick whose glued faces agree, in lexicographic
        order."""
        def faces(word):
            return [self.boundary(word, c) for c in range(self.count(word.tgt))]

        combos = [(c,) for c in range(self.count(table.upper[0]))]
        for k, j in enumerate(table.lower):
            lo = faces(sword(j, table.upper[k]))
            over = {}
            for c, face in enumerate(faces(tword(j, table.upper[k + 1]))):
                over.setdefault(face, []).append(c)
            combos = [t + (c,) for t in combos for c in over.get(lo[t[-1]], ())]
        return tuple(combos)


@lru_cache(maxsize=None)
def disk_gset(m):
    """The representable globular set of the m-disk."""
    cells = tuple(2 for _ in range(m)) + (1,)
    src = ((),) + tuple(tuple(0 for _ in range(cells[d])) for d in range(1, m + 1))
    tgt = ((),) + tuple(tuple(1 for _ in range(cells[d])) for d in range(1, m + 1))
    return GlobularSet(cells, src, tgt)


def disk_cell_word(m, d, c):
    """The word presenting cell (d, c) of the m-disk."""
    if d == m:
        return idword(m)
    return Word(d, m, "s" if c == 0 else "t")


@dataclass(frozen=True)
class SumRealization:
    """A table's amalgamated sum of disks, realized as a globular set."""

    table: Table
    carrier: GlobularSet
    # legs[k][d][c] = carrier cell hit by cell (d, c) of the k-th disk
    legs: tuple[tuple[tuple[int, ...], ...], ...]

    def presentations(self, d):
        """For each d-cell of the carrier: canonical (leg k, word into D_{i_k})."""
        return _presentations(self.table, d)

    def presentation(self, d, cell):
        return _presentations(self.table, d)[cell]


@lru_cache(maxsize=None)
def realize_sum(table):
    """Colimit of the zig-zag of disks prescribed by a table of dimensions.

    Consecutive disks are glued by identifying the s-word image of the lower
    disk in the left factor with its t-word image in the right factor.  Glued
    cells are owned by the lowest leg.
    """
    width = table.width
    dims = table.upper
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for k in range(width):
        g = disk_gset(dims[k])
        for d in range(g.dim + 1):
            for c in range(g.count(d)):
                parent[(k, d, c)] = (k, d, c)

    for k, j in enumerate(table.lower):
        # dims below the gluing dimension are identified cell-by-cell
        for d in range(j):
            for c in (0, 1):
                union((k, d, c), (k + 1, d, c))
        # at the gluing dimension: s-image of the left disk, t-image of the right
        union((k, j, 0), (k + 1, j, 1))

    top = table.dimension
    index = {}
    counts = []
    for d in range(top + 1):
        reps = sorted({find((k, d, c))
                       for k in range(width)
                       for c in range(disk_gset(dims[k]).count(d))})
        for i, r in enumerate(reps):
            index[(d, r)] = i
        counts.append(len(reps))

    def cell_of(k, d, c):
        return index[(d, find((k, d, c)))]

    src = [()]
    tgt = [()]
    for d in range(1, top + 1):
        s_row = [None] * counts[d]
        t_row = [None] * counts[d]
        for k in range(width):
            g = disk_gset(dims[k])
            for c in range(g.count(d)):
                i = cell_of(k, d, c)
                s_val = cell_of(k, d - 1, g.source(d, c))
                t_val = cell_of(k, d - 1, g.target(d, c))
                assert s_row[i] in (None, s_val), "boundary not respected by gluing"
                assert t_row[i] in (None, t_val)
                s_row[i] = s_val
                t_row[i] = t_val
        src.append(tuple(s_row))
        tgt.append(tuple(t_row))

    carrier = GlobularSet(tuple(counts), tuple(src), tuple(tgt))
    legs = tuple(
        tuple(
            tuple(cell_of(k, d, c) for c in range(disk_gset(dims[k]).count(d)))
            for d in range(dims[k] + 1)
        )
        for k in range(width)
    )
    return SumRealization(table, carrier, legs)


@lru_cache(maxsize=None)
def _presentations(table, d):
    real = realize_sum(table)
    out = [None] * real.carrier.count(d)
    for k in range(table.width - 1, -1, -1):
        m = table.upper[k]
        if d > m:
            continue
        for c in range(disk_gset(m).count(d) - 1, -1, -1):
            out[real.legs[k][d][c]] = (k, disk_cell_word(m, d, c))
    return tuple(out)
