"""Finite models of a tower: carriers, evaluation, checking, strict builders.

A model is a truncated globular set together with an interpretation of every
generator of the tower as a function from the fiber product over its target
table to cells one dimension up.  The fiber products themselves realize the
gluing condition, so the concrete layer acts by boundary words through the
canonical presentations of the target's realization.  Each term is compiled
once per model into a column program, which evaluates it on a whole fiber
product at once: the product is read as one column per slot of its table, a
concrete map gathers each source leg's column through its boundary word's
table on the carrier, a tuple takes its components' columns, and a generator
chain gathers its generator's table over the zipped columns of its tail.  A
single input is a product of one row.  A model's tables are replaced, never
edited: each table it builds is a read-only `FrozenTable`.  Besides them it
keeps one record per generator the degenerate filler filled over read-only
tables, the vector both boundary sides agree on, which `check` pops.
"""

from __future__ import annotations

from functools import partial
from itertools import starmap

from . import groups
from .coherator import TupleT
from .globe import MAX_CELLS, GlobeError, GlobkitError, GlobularSet, Record, realize_sum
from .theta0 import GMap


class ModelError(GlobkitError):
    pass


class FillerError(ModelError):
    """A generator cannot be interpreted by the requested filler policy."""

    def __init__(self, gen_name, witness, got=None, want=None):
        self.gen_name, self.witness, self.got, self.want = gen_name, witness, got, want
        msg = "no degenerate filler for %r at input %s" % (gen_name, (witness,))
        if got is not None:
            msg += ": boundary sides evaluate to %s vs %s" % (got, want)
        super().__init__(msg)


class FrozenTable(dict):
    """A generator's table as a model builds it: a dict whose mutators raise
    `TypeError`, so that what a model keeps over it cannot go stale.  It
    pickles and copies as a value."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a model's table is replaced, never edited in place")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class Model:
    """A carrier plus (possibly lazy) generator interpretations.

    `interp` maps a generator name to its table; `filler(model, gen)`, when
    given, builds the table of a generator `interp` lacks; `units[d][c]` is
    the degenerate (d+1)-cell over cell c.  A model's tables are replaced,
    never edited in place: each table it builds is a `FrozenTable`, and a
    table a caller assigns is read but nothing is kept over it unless it is
    one.  `_programs` holds the compiled terms (`program`); `_agreed` holds
    the records of `unit_filler`, which `check` pops.  A model can be weakly
    referenced, as `perfbench`'s tracer does to count each model's fiber
    products once."""

    __slots__ = ("tower", "carrier", "interp", "filler", "units", "label", "_programs",
                 "_agreed", "__weakref__")

    def __init__(self, tower, carrier, interp=None, filler=None, units=None, label=""):
        self.tower, self.carrier = tower, carrier
        self.interp = {} if interp is None else interp
        self.filler, self.units, self.label = filler, units, label
        self._programs, self._agreed = {}, {}

    @property
    def trunc(self):
        return self.carrier.dim

    def cells(self, table):
        """The carrier's fiber product over a table of dimensions
        (`GlobularSet.fiber_product`), kept on the carrier."""
        return self.carrier.fiber_product(table)

    def columns(self, table):
        """The fiber product over a table as one column per slot of the
        table, built anew on each call."""
        return tuple(zip(*self.cells(table))) or ((),) * len(table.upper)

    def interp_for(self, gen):
        if gen.name not in self.interp:
            if self.filler is None:
                raise ModelError("generator %r is uninterpreted" % gen.name)
            self.interp[gen.name] = self.filler(self, gen)
        return self.interp[gen.name]

    def program(self, term):
        """The term compiled against this carrier, compiled once per model.

        A program is called as `program(cols, get)`: `cols` holds one
        column per slot of the term's target table, row i of the columns
        being an element of its fiber product (`columns`, or one row for a
        single element); `get` is `interp_for`.  The result holds one column
        per slot of the term's source table, row for row.  Generator tables
        are fetched through `get` on every call, never at compile time, so
        an interpretation overwritten or filled later is the one used.  A
        row that a generator's table lacks raises `KeyError` with that row.
        """
        prog = self._programs.get(term)
        if prog is None:
            prog = self._programs[term] = self._compile(term)
        return prog

    def _compile(self, term):
        if isinstance(term, GMap):
            plan = self._plan(term)
            return lambda cols, get: tuple([
                cols[k] if table is None else tuple(map(table.__getitem__, cols[k]))
                for k, table in plan])
        if isinstance(term, TupleT):
            comps = tuple(self._compile(c) for c in term.comps)
            return lambda cols, get: tuple([comp(cols, get)[0] for comp in comps])
        gen, tail = term.gen, self._compile(term.tail)
        return lambda cols, get: (tuple(map(get(gen).__getitem__, zip(*tail(cols, get)))),)

    def _plan(self, gm):
        """Per leg of the source: (input slot, word table) of its top cell's
        image, through the owner the target's realization records for it;
        the word table is the carrier's faces along the word, None for an
        identity word."""
        owners = realize_sum(gm.target).owners
        plan = []
        for m, c in zip(gm.source.upper, gm.cells):
            slot, word = owners[m][c]
            plan.append((slot, None if word.is_identity else self.carrier.faces(word)))
        return tuple(plan)

    def eval(self, term, x):
        """Evaluate a term on an element of the fiber product of its target.

        Returns a tuple indexed by the term's source table; use `eval1` for
        disk-sourced terms.
        """
        return tuple(col[0] for col in self.program(term)(_row(x), self.interp_for))

    def eval1(self, term, x):
        (out,) = self.eval(term, x)
        return out

    def check(self):
        """Verify the two boundary equations of each generator on every input.

        Each generator is checked on its whole fiber product first.  Its
        record in `_agreed` is popped, and stands for both sides while
        `interp_for` returns the tables it was made over; otherwise each side
        is run over the columns of the product.  A generator that fails is
        checked again element by element, in the fiber product's order, for
        the report, where an input that its table lacks is a `missing` row.
        A checked model keeps no record."""
        report = []
        get = self.interp_for
        for gen in self.tower.gens():
            table = get(gen)
            src, tgt = self.carrier.src[gen.dim], self.carrier.tgt[gen.dim]
            cells = self.cells(gen.target)
            kept = self._agreed.pop(gen.name, None)   # (vector, ((gen, table), ...))
            if kept is not None and all(get(g) is t for g, t in kept[1]):
                def side(term, vector=kept[0]):
                    return vector
            else:
                def side(term, cols=self.columns(gen.target)):
                    return self.program(term)(cols, get)[0]
            try:
                # the first side is dropped before the second is read: the
                # columns, the outputs and one side are held at once
                want_s = side(gen.fsrc)
                vals = tuple(map(table.__getitem__, cells))
                ok = want_s == tuple(map(src.__getitem__, vals))
                del want_s
                if ok and side(gen.gtgt) == tuple(map(tgt.__getitem__, vals)):
                    continue
            except KeyError:
                pass
            fsrc, gtgt = self.program(gen.fsrc), self.program(gen.gtgt)
            for x in cells:
                if x not in table:
                    report.append((gen.name, x, "missing", "a row for this input", "none"))
                    continue
                try:
                    ((want_s,),) = fsrc(_row(x), get)
                    ((want_t,),) = gtgt(_row(x), get)
                except KeyError as e:
                    # an interpretation sent a sub-term outside the fiber
                    # product of the generator applied to it
                    report.append((gen.name, x, "boundary",
                                   "a sub-term inside a fiber product", e.args[0]))
                    continue
                v = table[x]
                got_s, got_t = src[v], tgt[v]
                if got_s != want_s:
                    report.append((gen.name, x, "src", want_s, got_s))
                if got_t != want_t:
                    report.append((gen.name, x, "tgt", want_t, got_t))
        return report


def _row(x):
    """A single fiber element as columns of one row."""
    return tuple((c,) for c in x)


def unit_filler(model, gen):
    """Fill a generator degenerately when its two boundary sides agree; the
    error names the first input, in the fiber product's order, where they
    do not.  The product is transposed once for both sides.  When every
    table the sides read is a `FrozenTable`, the vector they agree on is
    kept, with those tables, under the generator's name in `_agreed`, for
    `check` to pop."""
    read = {}

    def get(g):
        table = read[g] = model.interp_for(g)
        return table

    cols = model.columns(gen.target)
    try:
        (a,), (b,) = model.program(gen.fsrc)(cols, get), model.program(gen.gtgt)(cols, get)
    except KeyError:   # raised again below, at the first input that needs it
        a = b = None
    if a is None or a != b:
        get = model.interp_for
        fsrc, gtgt = model.program(gen.fsrc), model.program(gen.gtgt)
        for x in model.cells(gen.target):
            ((a,),), ((b,),) = fsrc(_row(x), get), gtgt(_row(x), get)
            if a != b:
                raise FillerError(gen.name, x, a, b)
    elif all(type(t) is FrozenTable for t in read.values()):
        model._agreed[gen.name] = (a, tuple(read.items()))
    return FrozenTable(zip(model.cells(gen.target), map(model.units[gen.dim - 1].__getitem__, a)))


# ---------------------------------------------------------------------------
# Builtin strict models

class _Rows:
    """A read-only sequence of n rows, each made from its index when read, so
    a spec sized by a count allocates nothing before `strict_carrier` has
    checked the size of its carrier."""

    def __init__(self, n, row):
        self.n, self.row = n, row

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if not 0 <= i < self.n:
            raise IndexError(i)
        return self.row(i)


class _Copies:
    """k disjoint copies of the one-object groupoid of a group, read through
    the names that `gpd.Groupoid` has: arrow x |G| + g is g at object x."""

    def __init__(self, k, group):
        n, self.group = group.order, group
        self.src = self.tgt = _Rows(k * n, lambda f: f // n)
        self.ident = range(0, k * n, n)
        self.inv = _Rows(k * n, lambda f: f - f % n + group.inv(f % n))

    def compose(self, g, f):
        """g after f."""
        n = self.group.order
        return f - f % n + self.group.op(g % n, f % n)


class StrictSpec(Record):
    """A strict model as data: a groupoid of 1-cells and one group A placed
    at dimension m (Brown-Higgins: a crossed module over a groupoid, when
    m = 2).

    Dimension 0 holds the objects and dimensions 1..m-1 the arrows,
    degenerate above dimension 1.  Dimension m and above hold the pairs
    (f, a), numbered f |A| + a; at dimension m the pair goes from f to
    d(a) f, and above it every cell is an identity.
    """

    # arrows: read through src, tgt, ident, inv and compose; fiber: A;
    # boundary[x][a] = d(a), a loop at object x; action[f][a] = f . a
    __slots__ = _fields = ("arrows", "fiber", "m", "boundary", "action", "label")

    def comp(self, i, j, v, u):
        """v after u along their j-cells, for i-cells v and u."""
        if j >= self.m:   # the cells are identities over their j-cells: v == u
            return v
        X = self.arrows
        if i < self.m:    # arrows
            return X.compose(v, u) if j == 0 else v
        A, na = self.fiber, self.fiber.order
        (fv, av), (fu, au) = divmod(v, na), divmod(u, na)
        if j == 0:        # where the action enters
            return X.compose(fv, fu) * na + A.op(av, self.action[fv][au])
        return fu * na + A.op(av, au)   # v starts at d(au) fu, where u ends

    def inv(self, i, j, c):
        """The inverse of the i-cell c for composition along j-cells."""
        if j >= self.m:
            return c
        X = self.arrows
        if i < self.m:
            return X.inv[c] if j == 0 else c
        A, na = self.fiber, self.fiber.order
        f, a = divmod(c, na)
        if j == 0:
            g = X.inv[f]
            return g * na + self.action[g][A.inv(a)]
        return X.compose(self.boundary[X.tgt[f]][a], f) * na + A.inv(a)


def product_spec(arrows, group, m, label):
    """The product of a groupoid with K(group, m): trivial boundary and
    action."""
    n, row = group.order, tuple(range(group.order))
    return StrictSpec(arrows, group, m, _Rows(len(arrows.ident), lambda x: (arrows.ident[x],) * n),
                      _Rows(len(arrows.src), lambda f: row), label)


def Discrete(points):
    """The discrete model on `points` objects."""
    if points < 0:
        raise ModelError("a discrete model needs points >= 0, got %d" % points)
    z1 = groups.cyclic(1)
    return product_spec(_Copies(points, z1), z1, 0, "Discrete")


def KG1(group):
    """K(G, 1): G at dimension 1 over the point, for any G."""
    return product_spec(_Copies(1, groups.cyclic(1)), group, 1, "KG1")


def KAn(group, n):
    """K(A, n) for n >= 2: the abelian group A at dimension n over the point."""
    if n < 2:
        raise ModelError("K(A, n) needs n >= 2, got %d" % n)
    if not group.is_abelian():
        raise ModelError("K(A, n) needs an abelian group, %s is not" % group.name)
    return product_spec(_Copies(1, groups.cyclic(1)), group, n, "KAn")


def XMod(xm):
    """The strict 2-groupoid of a crossed module d : A -> G over one object."""
    return StrictSpec(_Copies(1, xm.grp), xm.agrp, 2, (xm.boundary,), xm.action, "XMod")


def strict_carrier(spec, trunc):
    """The carrier of a strict spec truncated at `trunc`, and its units:
    units[d][c] is the identity (d+1)-cell on the d-cell c.  A carrier of
    more than `MAX_CELLS` cells is refused before any of it is built."""
    X, na = spec.arrows, spec.fiber.order
    top = max(spec.m, 1)   # the lowest dimension of the pairs
    n_arr = len(X.src)
    counts = (len(X.ident),) + tuple(n_arr * na if d >= top else n_arr
                                     for d in range(1, trunc + 1))
    if sum(counts) > MAX_CELLS:
        raise ModelError("a %s model truncated at %d has %d cells, more than the %d "
                         "supported" % (spec.label, trunc, sum(counts), MAX_CELLS))
    src, tgt = [()], [()]
    for d in range(1, trunc + 1):
        if d == top:
            s = tuple(f for f in range(n_arr) for a in range(na))
            t = tuple(X.compose(spec.boundary[X.tgt[f]][a], f)
                      for f in range(n_arr) for a in range(na))
        else:
            s = t = tuple(range(n_arr * na if d > top else n_arr))
        if d == 1:   # the arrows these name, read as the objects they join
            s, t = tuple(X.src[f] for f in s), tuple(X.tgt[f] for f in t)
        src.append(s)
        tgt.append(t)
    units = tuple(tuple((X.ident[c] if d == 0 else c) * (na if d + 1 == top else 1)
                        for c in range(counts[d])) for d in range(trunc))
    return GlobularSet(counts, tuple(src), tuple(tgt)), units


def build_strict(spec, tower, bundle, extra_bundles=(), label=""):
    """Strict model: pregroupoid generators get the strict operations, every
    other generator is filled degenerately (or the build fails with a witness).

    Generators named by any bundle in `extra_bundles` are also interpreted by
    the strict operations, so alternative declared choices of composition,
    unit, or inverse receive the same interpretation as the primary ones.
    """
    if spec.m > tower.trunc:
        raise ModelError("K(A, %d) needs n <= the truncation %d" % (spec.m, tower.trunc))
    carrier, units = strict_carrier(spec, tower.trunc)
    ops = {}   # generator name -> its strict operation, on the cells of an input
    for b in (bundle,) + tuple(extra_bundles):
        ops.update({name: partial(spec.comp, i, j) for (i, j), name in b.comp.items()})
        ops.update({name: units[i].__getitem__ for i, name in b.unit.items()})
        ops.update({name: partial(spec.inv, i, j) for (i, j), name in b.inv.items()})

    def filler(model, gen):
        op = ops.get(gen.name)
        if op is None:
            return unit_filler(model, gen)
        cells = model.cells(gen.target)
        return FrozenTable(zip(cells, starmap(op, cells)))

    tower.seal()
    model = Model(tower, carrier, {}, filler, units, label or spec.label)
    for gen in tower.gens():
        model.interp_for(gen)
    return model


# ---------------------------------------------------------------------------
# Restriction along tower functors

def restrict(model, functor):
    """Inverse image of a model along a validated tower functor."""

    def filler(m, gen):
        img = functor.assignment.get(gen.name)
        if img is None:
            raise ModelError("generator %r was declared after the tower functor, "
                             "which does not map it" % gen.name)
        (vals,) = model.program(img)(model.columns(img.target), model.interp_for)
        return FrozenTable(zip(m.cells(gen.target), vals))

    out = Model(functor.source, model.carrier, {}, filler, model.units,
                model.label + "|restricted")
    return out


# ---------------------------------------------------------------------------
# Model files

def model_to_json(model):
    data = {
        "label": model.label,
        "dimension": model.trunc,
        "cells": [{"count": model.carrier.count(0)}] + [
            {"src": list(model.carrier.src[d]), "tgt": list(model.carrier.tgt[d])}
            for d in range(1, model.trunc + 1)
        ],
        "interp": {
            gen.name: [{"in": list(x), "out": v}
                       for x, v in sorted(model.interp_for(gen).items())]
            for gen in model.tower.gens()
        },
    }
    return data


def _is_int(value):
    """A JSON integer: an int that is not a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_index(value, count):
    return _is_int(value) and 0 <= value < count


def _json_field(obj, key, kind, where, file="model file", error=ModelError):
    """obj[key] from an input file, which must be a JSON value of `kind`;
    model, groupoid and morphism files are all read through here."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise error("%s: %s needs a %s field %r" % (file, where, kind.__name__, key))
    return value


def _interp_rows(name, rows, dim, count):
    """The table of one generator's rows, each input listed once.  The rows
    are checked in bulk first, and only if that fails one at a time, in
    order, so that the first bad row is named as before."""
    ins = [r.get("in") if type(r) is dict else None for r in rows]
    outs = [r.get("out") if type(r) is dict else None for r in rows]
    if all(type(x) is list for x in ins) and \
            all(type(c) is int for x in ins for c in x) and \
            all(type(v) is int and 0 <= v < count for v in outs):
        table = FrozenTable(zip(map(tuple, ins), outs))
        if len(table) == len(rows):
            return table
    table = {}
    for r in rows:
        ins = _json_field(r, "in", list, "a row of %r" % name)
        out = _json_field(r, "out", int, "a row of %r" % name)
        if not all(_is_int(c) for c in ins):
            raise ModelError("model file: %r has a non-integer input %r" % (name, ins))
        if not _is_index(out, count):
            raise ModelError("model file: %r sends %s to %d, not one of the %d %d-cells"
                             % (name, ins, out, count, dim))
        if tuple(ins) in table:
            raise ModelError("model file: %r lists the input %s more than once"
                             % (name, ins))
        table[tuple(ins)] = out
    return FrozenTable(table)


def model_from_json(data, tower):
    trunc = _json_field(data, "dimension", int, "the top level")
    if trunc != tower.trunc:
        raise ModelError("model dimension %d does not match tower truncation %d"
                         % (trunc, tower.trunc))
    entries = _json_field(data, "cells", list, "the top level")
    if len(entries) != trunc + 1:
        raise ModelError("model file: %d cell entries, expected one per dimension 0..%d"
                         % (len(entries), trunc))
    cells = [_json_field(entries[0], "count", int, "cells[0]")]
    src = [()]
    tgt = [()]
    for d in range(1, trunc + 1):
        src.append(tuple(_json_field(entries[d], "src", list, "cells[%d]" % d)))
        tgt.append(tuple(_json_field(entries[d], "tgt", list, "cells[%d]" % d)))
        cells.append(len(src[d]))
    try:
        carrier = GlobularSet(tuple(cells), tuple(src), tuple(tgt))
    except GlobeError as e:
        raise ModelError("model file: %s" % e) from None
    interp = {}
    for name, rows in _json_field(data, "interp", dict, "the top level").items():
        if name not in tower:
            raise ModelError("interpretation for unknown generator %r" % name)
        if not isinstance(rows, list):
            raise ModelError("model file: the interpretation of %r is not a list" % name)
        dim = tower[name].dim
        interp[name] = _interp_rows(name, rows, dim, carrier.count(dim))
    label = _json_field(data, "label", str, "the top level") if "label" in data else "file"
    model = Model(tower, carrier, interp, None, None, label)
    for gen in tower.gens():
        if gen.name not in interp:
            raise ModelError("missing interpretation for generator %r" % gen.name)
        rows, target = interp[gen.name], gen.target
        # sizes first, so that no product is built larger than the rows
        # the file lists
        if len(rows) != carrier.fiber_count(target) or \
                set(rows) != set(model.cells(target)):
            raise ModelError("interpretation of %r does not cover the fiber product"
                             % gen.name)
    return model


# ---------------------------------------------------------------------------
# Morphisms of models

class ModelMorphism(Record):
    """A map of models: `maps[d][c]` is the image of the d-cell c.  Its rows
    are stored as tuples and validated once, when it is made."""

    __slots__ = _fields = ("source", "target", "maps")

    def _build(self):
        self.maps = tuple(map(tuple, self.maps))
        self.validate()

    def apply(self, d, c):
        return self.maps[d][c]

    def validate(self):
        ms, mt = self.source, self.target
        if ms.tower is not mt.tower:
            raise ModelError("morphisms require a common tower")
        if len(self.maps) != ms.trunc + 1:
            raise ModelError("morphism has maps for %d dimensions, expected %d"
                             % (len(self.maps), ms.trunc + 1))
        for d in range(ms.trunc + 1):
            if len(self.maps[d]) != ms.carrier.count(d):
                raise ModelError("morphism map at dim %d has %d entries, expected %d"
                                 % (d, len(self.maps[d]), ms.carrier.count(d)))
            for c, v in enumerate(self.maps[d]):
                if not _is_index(v, mt.carrier.count(d)):
                    raise ModelError("morphism sends %d-cell %d to %r, not one of the "
                                     "target's %d cells" % (d, c, v, mt.carrier.count(d)))
        maps = self.maps
        for d in range(1, ms.trunc + 1):
            # the first cell, src before tgt, where a face fails to commute
            bad = []
            for side, here, there in (("src", ms.carrier.src, mt.carrier.src),
                                      ("tgt", ms.carrier.tgt, mt.carrier.tgt)):
                got = tuple(map(there[d].__getitem__, maps[d]))
                want = tuple(map(maps[d - 1].__getitem__, here[d]))
                if got != want:
                    bad.append((next(c for c, (a, b) in enumerate(zip(got, want)) if a != b),
                                side))
            if bad:
                raise ModelError("morphism does not commute with %s at dim %d"
                                 % (min(bad)[1], d))
        for gen in ms.tower.gens():
            fsrc = ms.interp_for(gen)
            ftgt = mt.interp_for(gen)
            cells = ms.cells(gen.target)
            # every input at once, through the columns of the fiber product
            # when they are exactly the table's inputs; the first failing
            # input is then found in the table's own order
            if len(fsrc) == len(cells):
                images = zip(*[tuple(map(maps[m].__getitem__, col))
                               for m, col in zip(gen.target.upper, ms.columns(gen.target))])
                try:
                    if tuple(map(ftgt.__getitem__, images)) == \
                            tuple(map(maps[gen.dim].__getitem__, map(fsrc.__getitem__, cells))):
                        continue
                except KeyError:
                    pass
            for x, v in fsrc.items():
                fx = tuple(maps[gen.target.upper[k]][x[k]] for k in range(len(x)))
                if ftgt[fx] != maps[gen.dim][v]:
                    raise ModelError("morphism does not commute with %r at %s"
                                     % (gen.name, (x,)))
        return self


def morphism_from_dims(source, target, dim_maps):
    """Build a morphism from maps given up to some dimension, repeating the top."""
    if not dim_maps:
        raise ModelError("morphism has no dimension maps")
    return ModelMorphism(source, target, [dim_maps[min(d, len(dim_maps) - 1)]
                                          for d in range(source.trunc + 1)])
