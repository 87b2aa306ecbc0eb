"""The globe category, tables of dimensions, and finite globular sets.

Disks D0, D1, ... are connected by cosource/cotarget maps s_n, t_n : D_{n-1} -> D_n
subject to (composing right to left) s.s = t.s and s.t = t.t.  A table of
dimensions prescribes an iterated amalgamated sum of disks; `realize_sum`
computes that colimit concretely, in one pass over the disks, as a finite
globular set together with its cocone legs and, for each cell, the lowest leg
that hits it and the word presenting it there.  No dimension exceeds
`MAX_DIM`, so nothing sized by a dimension grows without bound, and no
strict model's carrier or fiber product has more than `MAX_CELLS` elements.
"""

from __future__ import annotations

import math
import weakref
from functools import lru_cache

DEFAULT_TRUNC = 6
# the largest dimension of a table or truncation of a tower
MAX_DIM = 64
# the most cells, over all dimensions, of a strict model's carrier, and the
# most elements of a fiber product: Discrete(25000) at truncation 3, 10^5
# cells, builds and checks in 1.5 s and 114 MB
MAX_CELLS = 10 ** 6


class GlobkitError(Exception):
    """The base of the library's errors: a refused input or a failed check.
    The command line reports one with exit code `exit_code`."""

    exit_code = 1


class GlobeError(GlobkitError):
    pass


def all_ints(row):
    """Whether every entry is an int, not a float or bool equal to one (a
    loop: on the short rows of tables and maps it is faster than `all`)."""
    for i in row:
        if type(i) is not int:
            return False
    return True


# The live interned values by (class,) + fields: each is built and checked
# once while any reference to it is held, and dropped with the last one.
_INTERNED = weakref.WeakValueDictionary()


class Interned:
    """A hash-consed immutable value: one live object per (class, fields).

    A subclass lists its fields in `_fields`, which open its `__slots__`,
    and its derived slots after them.  A new value is checked, and its
    derived slots set, by the subclass's `_build()` before it is interned,
    so a refused value never enters the table.  The lookup matches fields
    by equality, under which 1.0 and True are 1, so a hit passes the same
    field type checks, `_check_types()`, that `_build()` starts with.
    Equality is identity, the hash of the fields is stored, copies and
    pickles are the interned object, and `memo()` is the dict of composites
    with this object as outer factor, built on first use, which dies with
    it.
    """

    __slots__ = ("_hash", "_memo", "__weakref__")
    _fields = ()
    _check_types = None   # a class with typed fields checks them in a staticmethod

    def __new__(cls, *fields):
        key = (cls,) + fields
        try:
            self = _INTERNED[key]
        except (KeyError, TypeError):  # TypeError: an unhashable field
            pass
        else:
            if cls._check_types is not None:
                cls._check_types(*fields)
            return self
        if len(fields) != len(cls._fields):
            raise TypeError("%s takes the %d fields %s" % (cls.__name__, len(cls._fields),
                                                           ", ".join(cls._fields)))
        self = object.__new__(cls)
        for name, value in zip(cls._fields, fields):
            object.__setattr__(self, name, value)
        self._build()
        object.__setattr__(self, "_hash", hash(fields))
        object.__setattr__(self, "_memo", None)
        _INTERNED[key] = self
        return self

    def _build(self):
        """Check a new value and set its derived slots; a value of fields
        alone has nothing to do."""

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % item for item in zip(self._fields, self._values())))

    def memo(self):
        """The composites with this object as outer factor, by inner factor."""
        memo = self._memo
        if memo is None:
            memo = {}
            object.__setattr__(self, "_memo", memo)
        return memo


class Word(Interned):
    """A morphism D_src -> D_tgt of the globe category, in normal form.

    The relations let every letter except the lowest one be rewritten to `s`,
    so a word is determined by its endpoints and its lowest letter (`kind`:
    's' or 't', None iff the word is an identity).  Words are interned;
    `is_identity` is stored.
    """

    __slots__ = ("src", "tgt", "kind", "is_identity")
    _fields = __slots__[:3]

    @staticmethod
    def _check_types(src, tgt, kind):
        if type(src) is not int or type(tgt) is not int:
            raise GlobeError("word endpoints must be ints, not %r and %r" % (src, tgt))

    def _build(self):
        self._check_types(self.src, self.tgt, self.kind)
        if not 0 <= self.src <= self.tgt:
            raise GlobeError("word D%r -> D%r needs 0 <= src <= tgt" % (self.src, self.tgt))
        if self.src == self.tgt:
            if self.kind is not None:
                raise GlobeError("identity word on D%d has kind %r, not None"
                                 % (self.src, self.kind))
        elif self.kind not in ("s", "t"):
            raise GlobeError("word kind %r is not 's' or 't'" % (self.kind,))
        object.__setattr__(self, "is_identity", self.src == self.tgt)

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


class Table(Interned):
    """A table of dimensions: upper row (i_1..i_n), lower row (i'_1..i'_{n-1}).

    Tables are interned: `width`, `dimension` and `is_disk` are stored.
    Both rows must be tuples of ints; every new value is checked before it
    is interned.  `_identity` holds the identity map of the table's sum
    once `theta0.identity_gmap` has built it, and dies with the table.
    """

    __slots__ = ("upper", "lower", "width", "dimension", "is_disk", "_identity")
    _fields = __slots__[:2]

    @staticmethod
    def _check_types(upper, lower):
        if type(upper) is not tuple or type(lower) is not tuple:
            raise GlobeError("table rows must be tuples, not %s and %s"
                             % (type(upper).__name__, type(lower).__name__))
        if not all_ints(upper + lower):
            raise GlobeError("table entries must be naturals")

    def _build(self):
        upper, lower = self.upper, self.lower
        self._check_types(upper, lower)
        if len(upper) < 1 or len(lower) != len(upper) - 1:
            raise GlobeError("table rows have mismatched widths")
        if any(i < 0 for i in upper + lower):
            raise GlobeError("table entries must be naturals")
        if max(upper) > MAX_DIM:
            raise GlobeError("table dimension %d exceeds the largest supported "
                             "dimension %d" % (max(upper), MAX_DIM))
        for k, j in enumerate(lower):
            if not (upper[k] > j and upper[k + 1] > j):
                raise GlobeError(
                    "table entry %d not dominated by its neighbours" % j)
        object.__setattr__(self, "width", len(upper))
        object.__setattr__(self, "dimension", max(upper))
        object.__setattr__(self, "is_disk", len(upper) == 1)
        object.__setattr__(self, "_identity", None)

    def __str__(self):
        parts = ["D%d" % self.upper[0]]
        for k, j in enumerate(self.lower):
            parts.append("+%d D%d" % (j, self.upper[k + 1]))
        return " ".join(parts)


@lru_cache(maxsize=None)
def disk(m):
    """The one-disk table D_m, one shared object per m."""
    return Table((m,), ())


class GlobularSet:
    """A finite globular set: cell counts per dimension plus boundary maps.

    Sets are compared, hashed and printed by `cells`, `src` and `tgt`.  A
    set keeps what it alone determines, each computed on first use: the
    faces of its cells along a word and its fiber product over a table, in
    one memo keyed by word or by table that takes no part in equality, hash
    or repr."""

    __slots__ = ("cells", "src", "tgt", "_memo")

    def __init__(self, cells, src, tgt):
        self.cells, self.src, self.tgt, self._memo = cells, src, tgt, {}
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

    def __eq__(self, other):
        if type(other) is not GlobularSet:
            return NotImplemented
        return (self.cells, self.src, self.tgt) == (other.cells, other.src, other.tgt)

    def __hash__(self):
        return hash((self.cells, self.src, self.tgt))

    def __repr__(self):
        return "GlobularSet(cells=%r, src=%r, tgt=%r)" % (self.cells, self.src, self.tgt)

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

    def faces(self, word):
        """The word applied to every cell of dimension word.tgt, computed
        once per set."""
        faces = self._memo.get(word)
        if faces is None:
            faces = self._memo[word] = tuple(self.boundary(word, c)
                                             for c in range(self.count(word.tgt)))
        return faces

    def fiber_product(self, table):
        """The maps from a table's sum of disks into this set, as the tuples
        of cells the disks pick whose glued faces agree, in lexicographic
        order; computed once per set, and refused when it has more than
        `MAX_CELLS` elements."""
        combos = self._memo.get(table)
        if combos is None:
            upper = table.upper
            # the disks' cell counts multiplied bound the size; a table is
            # counted only when that bound does not keep it within the limit
            if math.prod(map(self.count, upper)) > MAX_CELLS:
                size = self.fiber_count(table)
                if size > MAX_CELLS:
                    raise GlobeError("the fiber product over %s has %d elements, more "
                                     "than the %d supported" % (table, size, MAX_CELLS))
            combos = [(c,) for c in range(self.count(upper[0]))]
            for k, j in enumerate(table.lower):
                lo = self.faces(sword(j, upper[k]))
                over = {}
                for c, face in enumerate(self.faces(tword(j, upper[k + 1]))):
                    over.setdefault(face, []).append(c)
                combos = [t + (c,) for t in combos for c in over.get(lo[t[-1]], ())]
            combos = self._memo[table] = tuple(combos)
        return combos

    def fiber_count(self, table):
        """The size of `fiber_product(table)`, without building the product:
        one pass per gluing counts the tuples so far by their glued face.  A
        disk's is its dimension's cell count, which a model file gives for
        its 0-cells without listing them."""
        upper = table.upper
        if table.is_disk:
            return self.count(upper[0])
        ends = None   # ends[c]: the tuples so far ending at cell c; None: one each
        for k, j in enumerate(table.lower):
            over = {}
            for c, face in enumerate(self.faces(sword(j, upper[k]))):
                over[face] = over.get(face, 0) + (1 if ends is None else ends[c])
            ends = [over.get(face, 0) for face in self.faces(tword(j, upper[k + 1]))]
        return sum(ends)


def disk_cell_word(m, d, c):
    """The word presenting cell (d, c) of the m-disk: below m, cell 0 is the
    source and cell 1 the target; the one m-cell is the disk itself."""
    if d == m:
        return idword(m)
    return Word(d, m, "s" if c == 0 else "t")


class SumRealization:
    """A table's amalgamated sum of disks, realized as a globular set.

    `legs[k][d][c]` is the carrier cell hit by cell (d, c) of the k-th disk;
    `owners[d][cell]` is (k, word D_d -> D_{i_k}): the lowest leg hitting
    the cell and the word presenting it in that leg's disk."""

    __slots__ = ("table", "carrier", "legs", "owners")

    def __init__(self, table, carrier, legs, owners):
        self.table, self.carrier, self.legs, self.owners = table, carrier, legs, owners


@lru_cache(maxsize=None)
def realize_sum(table):
    """Colimit of the zig-zag of disks prescribed by a table of dimensions.

    Gluing only joins neighbours: disk k shares its cells below the gluing
    dimension j with disk k - 1, and its target j-cell is disk k - 1's source
    j-cell.  Every other cell of disk k is new; it is numbered in leg order,
    owned by leg k, and takes its faces from the disk's own cells one
    dimension down.
    """
    top = table.dimension
    src = [[] for _ in range(top + 1)]
    tgt = [[] for _ in range(top + 1)]
    owners = [[] for _ in range(top + 1)]
    legs = []
    for k, m in enumerate(table.upper):
        j = table.lower[k - 1] if k else -1
        leg = []
        for d in range(m + 1):
            row = []
            for c in range(2 if d < m else 1):
                if d < j:
                    cell = legs[k - 1][d][c]
                elif d == j and c == 1:
                    cell = legs[k - 1][d][0]
                else:
                    cell = len(owners[d])
                    owners[d].append((k, disk_cell_word(m, d, c)))
                    if d:
                        src[d].append(leg[d - 1][0])
                        tgt[d].append(leg[d - 1][1])
                row.append(cell)
            leg.append(tuple(row))
        legs.append(tuple(leg))
    carrier = GlobularSet(tuple(len(row) for row in owners),
                          tuple(map(tuple, src)), tuple(map(tuple, tgt)))
    return SumRealization(table, carrier, tuple(legs), tuple(map(tuple, owners)))
