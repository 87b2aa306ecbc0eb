"""Finite models of a tower: carriers, evaluation, checking, strict builders.

A model is a truncated globular set together with an interpretation of every
generator of the tower as a function from the fiber product over its target
table to cells one dimension up.  The fiber products themselves realize the
gluing condition, so the concrete layer acts by boundary words through the
canonical presentations of the target's realization.  Each term is compiled
once per model: a concrete map becomes, per source leg, an input slot and a
table of its boundary word on the carrier; a tuple becomes its components'
programs; a generator chain looks its generator's table up when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import coherator as coh
from . import groups
from .coherator import BaseT, TupleT
from .globe import GlobeError, GlobularSet, realize_sum


class ModelError(Exception):
    pass


class FillerError(ModelError):
    """A generator cannot be interpreted by the requested filler policy."""

    def __init__(self, gen_name, witness, got=None, want=None):
        self.gen_name = gen_name
        self.witness = witness
        msg = "no degenerate filler for %r at input %s" % (gen_name, (witness,))
        if got is not None:
            msg += ": boundary sides evaluate to %s vs %s" % (got, want)
        super().__init__(msg)


@dataclass
class Model:
    """A carrier plus (possibly lazy) generator interpretations."""

    tower: Tower
    carrier: GlobularSet
    interp: dict = field(default_factory=dict)
    filler: object = None  # callable (model, gen) -> dict, for missing generators
    units: tuple = None    # units[d][c] = degenerate (d+1)-cell over cell c
    label: str = ""

    def __post_init__(self):
        self._fibers = {}
        self._words = {}     # word -> boundary of each carrier cell of dim word.tgt
        self._programs = {}  # term -> compiled program

    @property
    def trunc(self):
        return self.carrier.dim

    def cells(self, table):
        """The carrier's fiber product over a table of dimensions
        (`GlobularSet.fiber_product`), computed once per model."""
        combos = self._fibers.get(table)
        if combos is None:
            combos = self._fibers[table] = self.carrier.fiber_product(table)
        return combos

    def _word_table(self, word):
        """The word applied to every carrier cell of its top dimension, or
        None for an identity word."""
        if word.is_identity:
            return None
        table = self._words.get(word)
        if table is None:
            table = tuple(self.carrier.boundary(word, c)
                          for c in range(self.carrier.count(word.tgt)))
            self._words[word] = table
        return table

    def interp_for(self, gen):
        if gen.name not in self.interp:
            if self.filler is None:
                raise ModelError("generator %r is uninterpreted" % gen.name)
            self.interp[gen.name] = self.filler(self, gen)
        return self.interp[gen.name]

    def program(self, term):
        """The term compiled against this carrier, compiled once per model.

        A program is called as `program(x, get)`: `x` is an element of the
        fiber product over the term's target, `get` is `interp_for`, and the
        result is a tuple indexed by the term's source table.  Generator
        tables are fetched through `get` on every call, never at compile
        time, so an interpretation overwritten or filled later is the one
        used.
        """
        prog = self._programs.get(term)
        if prog is None:
            prog = self._programs[term] = self._compile(term)
        return prog

    def _compile(self, term):
        if isinstance(term, BaseT):
            plan = self._plan(term.gmap)
            if len(plan) == 1:  # disk-sourced, the common case: no loop
                ((k, table),) = plan
                if table is None:
                    return lambda x, get: (x[k],)
                return lambda x, get: (table[x[k]],)
            return lambda x, get: tuple([x[k] if table is None else table[x[k]]
                                         for k, table in plan])
        if isinstance(term, TupleT):
            comps = tuple(self._compile(c) for c in term.comps)
            return lambda x, get: tuple([comp(x, get)[0] for comp in comps])
        gen, tail, arg = term.gen, self._compile(term.tail), self._compile(term.arg)
        return lambda x, get: arg((get(gen)[tail(x, get)],), get)

    def _plan(self, gm):
        """Per leg of the source: (input slot, word table) of its top cell's
        image, through the target's canonical presentation."""
        treal = realize_sum(gm.target)
        sreal = realize_sum(gm.source)
        plan = []
        for k, m in enumerate(gm.source.upper):
            slot, word = treal.presentation(m, gm.maps[m][sreal.legs[k][m][0]])
            plan.append((slot, self._word_table(word)))
        return tuple(plan)

    def eval(self, term, x):
        """Evaluate a term on an element of the fiber product of its target.

        Returns a tuple indexed by the term's source table; use `eval1` for
        disk-sourced terms.
        """
        return self.program(term)(tuple(x), self.interp_for)

    def eval1(self, term, x):
        (out,) = self.eval(term, x)
        return out

    def degenerate(self, d, c):
        if self.units is None:
            raise ModelError("model has no degeneracy structure")
        return self.units[d][c]

    def check(self, gens=None):
        """Verify the two boundary equations of each generator on every input."""
        report = []
        get = self.interp_for
        for gen in (gens if gens is not None else self.tower.gens()):
            table = get(gen)
            fsrc, gtgt = self.program(gen.fsrc), self.program(gen.gtgt)
            src, tgt = self.carrier.src[gen.dim], self.carrier.tgt[gen.dim]
            for x in self.cells(gen.target):
                v = table[x]
                try:
                    (want_s,) = fsrc(x, get)
                    (want_t,) = gtgt(x, get)
                except KeyError as e:
                    # an interpretation sent a sub-term outside the fiber
                    # product of the generator applied to it
                    report.append((gen.name, x, "boundary",
                                   "a sub-term inside a fiber product", e.args[0]))
                    continue
                got_s, got_t = src[v], tgt[v]
                if got_s != want_s:
                    report.append((gen.name, x, "src", want_s, got_s))
                if got_t != want_t:
                    report.append((gen.name, x, "tgt", want_t, got_t))
        return report


def unit_filler(model, gen):
    """Fill a generator degenerately when its two boundary sides agree."""
    get = model.interp_for
    fsrc, gtgt = model.program(gen.fsrc), model.program(gen.gtgt)
    out = {}
    for x in model.cells(gen.target):
        (a,) = fsrc(x, get)
        (b,) = gtgt(x, get)
        if a != b:
            raise FillerError(gen.name, x, a, b)
        out[x] = model.degenerate(gen.dim - 1, a)
    return out


# ---------------------------------------------------------------------------
# Builtin strict models

@dataclass(frozen=True)
class Discrete:
    points: int


@dataclass(frozen=True)
class KG1:
    """K(G, 1): the strict model has `KAn`'s formulas at n = 1, for any G."""

    group: groups.Group
    n = 1


@dataclass(frozen=True)
class KAn:
    group: groups.Group
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ModelError("K(A, n) needs n >= 2, got %d" % self.n)
        if not self.group.is_abelian():
            raise ModelError("K(A, n) needs an abelian group, %s is not" % self.group.name)


@dataclass(frozen=True)
class XMod:
    xm: groups.CrossedModule


def _strict_carrier(spec, trunc):
    if isinstance(spec, Discrete):
        counts = [spec.points] * (trunc + 1)
        ident = lambda d: tuple(range(counts[d]))
        src = ((),) + tuple(ident(d) for d in range(1, trunc + 1))
        units = tuple(tuple(range(spec.points)) for _ in range(trunc))
        return GlobularSet(tuple(counts), src, src), units
    if isinstance(spec, (KG1, KAn)):
        n, a = spec.n, spec.group.order
        if n > trunc:
            raise ModelError("K(A, %d) needs n <= the truncation %d" % (n, trunc))
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
    if isinstance(spec, XMod):
        xm = spec.xm
        G, A = xm.grp, xm.agrp
        ng, na = G.order, A.order
        counts = [1, ng] + [ng * na] * (trunc - 1)
        src = [(), tuple(0 for _ in range(ng))]
        tgt = [(), tuple(0 for _ in range(ng))]
        # 2-cells (g, a) : g -> d(a)g, encoded as g*|A| + a
        src.append(tuple(g for g in range(ng) for _ in range(na)))
        tgt.append(tuple(G.op(xm.boundary[a], g) for g in range(ng) for a in range(na)))
        for d in range(3, trunc + 1):
            src.append(tuple(range(ng * na)))
            tgt.append(tuple(range(ng * na)))
        units = [tuple([0]), tuple(g * na for g in range(ng))]
        for d in range(2, trunc):
            units.append(tuple(range(ng * na)))
        gs = GlobularSet(tuple(counts), tuple(src), tuple(tgt))
        return gs, tuple(units)
    raise ModelError("unknown strict model spec %r" % (spec,))


class _StrictOps:
    """Composition, unit, and inverse operations of a strict structure."""

    def __init__(self, spec):
        self.spec = spec

    def comp(self, i, j, v, u):
        s = self.spec
        if isinstance(s, Discrete):
            return v
        if isinstance(s, (KG1, KAn)):
            if i < s.n:
                return 0
            return s.group.op(v, u) if j < s.n else v
        xm = s.xm
        G, A, na = xm.grp, xm.agrp, xm.agrp.order
        if i == 1:
            return G.op(v, u)
        if j >= 2:
            return v
        gv, av = divmod(v, na)
        gu, au = divmod(u, na)
        if j == 0:
            return G.op(gv, gu) * na + A.op(av, xm.act(gv, au))
        return gu * na + A.op(av, au)

    def unit(self, i, c):
        s = self.spec
        if isinstance(s, (Discrete,)):
            return c
        if isinstance(s, (KG1, KAn)):
            return 0 if i < s.n else c
        na = s.xm.agrp.order
        if i == 0:
            return 0
        if i == 1:
            return c * na
        return c

    def inv(self, i, j, c):
        s = self.spec
        if isinstance(s, Discrete):
            return c
        if isinstance(s, (KG1, KAn)):
            if i < s.n:
                return 0
            return s.group.inv(c) if j < s.n else c
        xm = s.xm
        G, A, na = xm.grp, xm.agrp, xm.agrp.order
        if i == 1:
            return G.inv(c)
        if j >= 2:
            return c
        g, a = divmod(c, na)
        if j == 0:
            gi = G.inv(g)
            return gi * na + xm.act(gi, A.inv(a))
        return G.op(xm.boundary[a], g) * na + A.inv(a)


def build_strict(spec, tower, bundle, extra_bundles=(), label=""):
    """Strict model: pregroupoid generators get the strict operations, every
    other generator is filled degenerately (or the build fails with a witness).

    Generators named by any bundle in `extra_bundles` are also interpreted by
    the strict operations, so alternative declared choices of composition,
    unit, or inverse receive the same interpretation as the primary ones.
    """
    carrier, units = _strict_carrier(spec, tower.trunc)
    ops = _StrictOps(spec)
    comp_names, unit_names, inv_names = {}, {}, {}
    for b in (bundle,) + tuple(extra_bundles):
        comp_names.update({name: ij for ij, name in b.comp.items()})
        unit_names.update({name: i for i, name in b.unit.items()})
        inv_names.update({name: ij for ij, name in b.inv.items()})

    def filler(model, gen):
        if gen.name in comp_names:
            i, j = comp_names[gen.name]
            return {x: ops.comp(i, j, x[0], x[1]) for x in model.cells(gen.target)}
        if gen.name in unit_names:
            i = unit_names[gen.name]
            return {x: ops.unit(i, x[0]) for x in model.cells(gen.target)}
        if gen.name in inv_names:
            i, j = inv_names[gen.name]
            return {x: ops.inv(i, j, x[0]) for x in model.cells(gen.target)}
        return unit_filler(model, gen)

    tower.seal()
    model = Model(tower, carrier, {}, filler, units,
                  label or spec.__class__.__name__)
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
            img = functor.translate(coh.gen_term(gen))
        prog, get = model.program(img), model.interp_for
        return {x: prog(x, get)[0] for x in m.cells(gen.target)}

    out = Model(functor.source, model.carrier, {}, filler, model.units,
                model.label + "|restricted")
    return out


# ---------------------------------------------------------------------------
# Model files

def model_to_json(model):
    data = {
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


def _is_index(value, count):
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < count


def _json_field(obj, key, kind, where, file="model file", error=ModelError):
    """obj[key] from an input file, which must be a JSON value of `kind`;
    model, groupoid and morphism files are all read through here."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise error("%s: %s needs a %s field %r" % (file, where, kind.__name__, key))
    return value


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
        table = interp[name] = {}
        for r in rows:
            ins = _json_field(r, "in", list, "a row of %r" % name)
            out = _json_field(r, "out", int, "a row of %r" % name)
            if not all(isinstance(c, int) for c in ins):
                raise ModelError("model file: %r has a non-integer input %r" % (name, ins))
            if not _is_index(out, carrier.count(dim)):
                raise ModelError("model file: %r sends %s to %d, not one of the %d %d-cells"
                                 % (name, ins, out, carrier.count(dim), dim))
            table[tuple(ins)] = out
    model = Model(tower, carrier, interp, None, None, data.get("label", "file"))
    for gen in tower.gens():
        if gen.name not in interp:
            raise ModelError("missing interpretation for generator %r" % gen.name)
        if set(interp[gen.name]) != set(model.cells(gen.target)):
            raise ModelError("interpretation of %r does not cover the fiber product"
                             % gen.name)
    return model


# ---------------------------------------------------------------------------
# Morphisms of models

@dataclass
class ModelMorphism:
    source: Model
    target: Model
    maps: tuple  # maps[d][c]

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
        for d in range(1, ms.trunc + 1):
            for c in range(ms.carrier.count(d)):
                if mt.carrier.source(d, self.maps[d][c]) != self.maps[d - 1][ms.carrier.source(d, c)]:
                    raise ModelError("morphism does not commute with src at dim %d" % d)
                if mt.carrier.target(d, self.maps[d][c]) != self.maps[d - 1][ms.carrier.target(d, c)]:
                    raise ModelError("morphism does not commute with tgt at dim %d" % d)
        for gen in ms.tower.gens():
            fsrc = ms.interp_for(gen)
            ftgt = mt.interp_for(gen)
            for x, v in fsrc.items():
                fx = tuple(self.maps[gen.target.upper[k]][x[k]] for k in range(len(x)))
                if ftgt[fx] != self.maps[gen.dim][v]:
                    raise ModelError("morphism does not commute with %r at %s"
                                     % (gen.name, (x,)))
        return self


def morphism_from_dims(source, target, dim_maps):
    """Build a morphism from maps given up to some dimension, repeating the top."""
    if not dim_maps:
        raise ModelError("morphism has no dimension maps")
    maps = []
    for d in range(source.trunc + 1):
        row = dim_maps[d] if d < len(dim_maps) else dim_maps[-1]
        maps.append(tuple(row))
    return ModelMorphism(source, target, tuple(maps)).validate()
