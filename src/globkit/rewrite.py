"""The small-step rewriting engine, the oracle for `coherator.normalize`.

It drives the rewrite rules that `coherator`'s smart constructors apply all
at once, one redex at a time, under a selectable strategy: the innermost or
the outermost redex first.  Both strategies must reach `normalize`'s normal
form within ten times the weighted size of the input, which is what the
confluence and termination checks test.  `random_raw` draws seeded
well-typed raw terms for those checks.  Its concrete factors are
`theta0.GMap`s, as in `coherator`'s raw trees.  The engine has its own rules
for a tuple over one disk (its component) and a tuple of concrete maps (the
map picking their cells), and reads the tree it stops at off as `Chain` and
`TupleT` nodes, built directly, so no production term constructor makes its
answer.  No production module imports this module; it exists to be compared
against.
"""

from __future__ import annotations

from . import theta0
from .coherator import Chain, RComp, RGen, RTuple, TermError, TupleT, term_to_raw
from .globe import Word, disk
from .theta0 import GMap


def raw_size(raw):
    """Size measure; generators weigh their defining pair so substitution pays."""
    return _size(raw, {})


def _size(raw, weights):
    """`raw_size`, with the generator weights found so far keyed by the
    generator object: two towers may declare different generators under one
    name.  Every generator is reachable from `raw`, so its id stays valid."""
    if isinstance(raw, GMap):
        return 1
    if isinstance(raw, RGen):
        gen = raw.gen
        weight = weights.get(id(gen))
        if weight is None:
            weight = weights[id(gen)] = (1 + _size(term_to_raw(gen.fsrc), weights)
                                         + _size(term_to_raw(gen.gtgt), weights))
        return weight
    if isinstance(raw, RTuple):
        return 1 + sum(_size(c, weights) for c in raw.comps)
    return _size(raw.outer, weights) + _size(raw.inner, weights)


def _spine(raw):
    """Flatten nested compositions into [outermost, ..., innermost]."""
    if isinstance(raw, RComp):
        return _spine(raw.outer) + _spine(raw.inner)
    return [raw]


def _unspine(factors):
    out = factors[-1]
    for f in reversed(factors[:-1]):
        out = RComp(f, out)
    return out


def _pair_redex(x, y):
    """Reduct of the adjacent pair x ∘ y, or None."""
    if isinstance(y, GMap) and y.is_identity:
        return [x]
    if isinstance(x, GMap) and x.is_identity:
        return [y]
    if isinstance(x, GMap) and isinstance(y, GMap):
        return [theta0.compose(x, y)]
    if isinstance(y, RTuple):
        comps = tuple(RComp(x, c) for c in y.comps)
        return [RTuple(y.src_table, comps)]
    if isinstance(y, GMap) and y.source.is_disk:
        if isinstance(x, RTuple):
            k, w = theta0.decompose(y)
            rest = [] if w.is_identity else [theta0.globe_functor(w)]
            return _spine(x.comps[k]) + rest
        if isinstance(x, RGen):
            gen = x.gen
            w = theta0.decompose(y)[1]
            if w.src == gen.dim - 1:
                side = gen.fsrc if w.kind == "s" else gen.gtgt
                return _spine(term_to_raw(side))
            rest = Word(w.src, gen.dim - 1, w.kind)
            return _spine(term_to_raw(gen.fsrc)) + [theta0.globe_functor(rest)]
    if isinstance(y, GMap) and y.source.width > 1 and not isinstance(x, GMap):
        comps = tuple(RComp(x, y.leg(k)) for k in range(y.source.width))
        return [RTuple(y.source, comps)]
    return None


def _tuple_collapse(t):
    """Reduct of a tuple factor over one disk, its component, or of one whose
    components are all concrete, the map picking their cells."""
    if t.src_table.is_disk:
        return t.comps[0]
    if all(isinstance(c, GMap) for c in t.comps):
        return GMap(t.src_table, t.comps[0].target, tuple(c.cells[0] for c in t.comps))
    return None


def _redexes(raw, path=()):
    """All redex positions in a deterministic depth-first order.

    A position is (path, index, 'pair' | 'collapse'), the path descending
    through tuple components as (factor index, component index) steps.
    """
    out = []
    factors = _spine(raw)
    for idx, f in enumerate(factors):
        if isinstance(f, RTuple):
            for ci, c in enumerate(f.comps):
                out.extend(_redexes(c, path + ((idx, ci),)))
            if _tuple_collapse(f) is not None:
                out.append((path, idx, "collapse"))
        if idx + 1 < len(factors):
            if _pair_redex(factors[idx], factors[idx + 1]) is not None:
                out.append((path, idx, "pair"))
    return out


def reduce_steps(raw, strategy="inner"):
    """Drive single-step reduction to normal form; returns (term, steps).

    strategy 'inner' picks the last redex in depth-first order (innermost),
    'outer' picks the first.  The step count is checked against ten times
    the weighted size of the input.
    """
    bound = 10 * raw_size(raw)
    steps = 0
    while True:
        reds = _redexes(raw)
        if not reds:
            break
        pos = reds[-1] if strategy == "inner" else reds[0]
        raw = _apply_pos(raw, pos)
        steps += 1
        if steps > bound:
            raise TermError("reduction exceeded %d steps" % bound)
    return _read_off(raw), steps


def _read_off(raw):
    """The term node of a tree without redexes: a spine ending in a
    generator is the chain of the rest after it, and one ending in a tuple
    or a concrete map is that factor alone, since anything before it would
    make a pair redex."""
    *rest, last = _spine(raw)
    if isinstance(last, RGen):
        tail = _read_off(_unspine(rest)) if rest else theta0.identity_gmap(last.gen.target)
        return Chain(tail, last.gen)
    if isinstance(last, RTuple):
        return TupleT(last.src_table, tuple(_read_off(c) for c in last.comps))
    return last


def _apply_pos(raw, pos):
    path, idx, kind = pos
    factors = _spine(raw)
    if path:
        fidx, ci = path[0]
        t = factors[fidx]
        comps = list(t.comps)
        comps[ci] = _apply_pos(comps[ci], (path[1:], idx, kind))
        factors[fidx] = RTuple(t.src_table, tuple(comps))
    elif kind == "collapse":
        factors[idx] = _tuple_collapse(factors[idx])
    else:
        factors[idx:idx + 2] = _pair_redex(factors[idx], factors[idx + 1])
    return _unspine(factors)


# ---------------------------------------------------------------------------
# Seeded random well-typed raw terms (for the confluence/termination suite)

def random_raw(tower, rng, budget=8):
    """A random well-typed raw term over a tower."""
    gens = tower.gens()
    pool_tables = sorted({g.target for g in gens} | {disk(m) for m in range(tower.trunc + 1)},
                         key=str)
    target = rng.choice(pool_tables)
    return _random_into(tower, rng, target, budget)


def _random_into(tower, rng, target, budget):
    gens = tower.gens()
    opts = ["base"]
    if budget > 0:
        opts += ["gen", "gen", "pool", "wrap"]
    kind = rng.choice(opts)
    if kind == "gen":
        cands = [g for g in gens if g.target == target]
        if cands:
            g = rng.choice(cands)
            inner = _random_into(tower, rng, disk(g.dim), budget - 1)
            return RComp(RGen(g), inner)
        kind = "base"
    if kind == "pool":
        cands = [g for g in gens if g.fsrc.target == target]
        if cands:
            g = rng.choice(cands)
            t = rng.choice([g.fsrc, g.gtgt])
            inner = _random_into(tower, rng, t.source, budget - 1)
            return RComp(term_to_raw(t), inner)
        kind = "base"
    if kind == "wrap":
        homs = [h for m in range(target.dimension + 1)
                for h in theta0.enumerate_homs(disk(m), target)]
        if homs:
            h = rng.choice(homs)
            inner = _random_into(tower, rng, h.source, budget - 1)
            return RComp(h, inner)
        kind = "base"
    # a random concrete map out of a random small source
    sources = [disk(m) for m in range(target.dimension + 1)] + [target]
    rng.shuffle(sources)
    for s in sources:
        homs = theta0.enumerate_homs(s, target)
        if homs:
            return rng.choice(homs)
    return theta0.identity_gmap(target)
