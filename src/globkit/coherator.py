"""Free extensions of the disk calculus by declared lifting generators.

A tower starts from the concrete maps of `theta0` and freely adds, level by
level, generators h : D_{n+1} -> S whose two boundary equations h.s = f and
h.t = g are the only new relations.  Morphisms are kept in a normal form
built from concrete maps (`theta0.GMap` itself, the one concrete node of
both the normal forms and the raw syntax trees), generator chains, and
tuples over amalgamated sums; the smart constructors below orient the
relations as rewrites:

  * a concrete map out of a disk into a sum collapses against a tuple
    through its canonical (leg, word) presentation;
  * a generator chain is tail ∘ h, nothing applied before h: h after a
    non-identity word into its disk reduces to the declared f or g (after
    the rest of the word), and h after a chain joins that chain's tail;
  * a tuple over one disk is its component;
  * a tuple whose components are all concrete recombines into one concrete
    map, whose constructor checks its gluing; only a tuple with a
    non-concrete component has its gluing checked here, term by term, and
    only when `tuple_term` builds it from components it is handed;
  * identities are units: every term is already a normal form, so composing
    with an identity returns the other factor unchanged;
  * post-composition keeps gluing: t ∘ (c_1, ..., c_n) is the tuple of the
    t ∘ c_k, glued because the c_k are, so it is built without a check.

Generators, chains and tuples are hash-consed as tables and concrete maps
are, by `globe.Interned`: one live object per (class, fields) value, so
equality is identity, and the hash and, for a term node, the highest level
of a generator it names are stored.  `compose` keeps each composite whose
outer factor is a chain or a tuple on that factor (`Interned.memo`), so the
memo dies with its term; a tower keeps each generator's term.

`normalize` evaluates an arbitrary raw syntax tree through these
constructors.  `comp_pair` and `inv_pair` state the two-case boundary
formulas of composition and inverse once; `stdlib` declares its generators
from them and `verify_bundle` checks a bundle against them.  The small-step
engine that drives the same rules one redex at a time, the independent
oracle for `normalize`, lives in `globkit.rewrite`.
"""

from __future__ import annotations

from . import theta0
from .globe import DEFAULT_TRUNC, MAX_DIM, GlobkitError, Interned, Record, Table, disk
from .theta0 import GMap


class TermError(GlobkitError):
    pass


class InadmissibleError(TermError):
    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(verdict.reason)


class Gen(Interned):
    """A declared lifting generator h : D_dim -> target with boundaries (fsrc, gtgt).

    Generators are interned (`globe.Interned`): equal generators of two
    towers are one object, whose hash of its fields is stored.
    """

    __slots__ = ("name", "dim", "target", "fsrc", "gtgt", "level")
    _fields = __slots__

    def __repr__(self):
        return "Gen(%s)" % self.name


class Chain(Interned):
    """tail ∘ gen, the generator applied first.

    Chains are interned (`globe.Interned`), with `source` (the generator's
    disk), `target` (tail's) and `level` stored: the highest level of a
    generator the term names, 0 for a concrete map.  Only the generators
    named directly are read: `Tower.declare` gives each generator a level
    above every generator its boundaries name, so their boundaries cannot
    raise it.
    """

    __slots__ = ("tail", "gen", "source", "target", "level")
    _fields = __slots__[:2]
    is_identity = False

    def _build(self):
        object.__setattr__(self, "source", disk(self.gen.dim))
        object.__setattr__(self, "target", self.tail.target)
        object.__setattr__(self, "level", max(self.gen.level, self.tail.level))


class TupleT(Interned):
    """A morphism out of a sum, by its tuple of disk-sourced components.

    Tuples are interned (`globe.Interned`), `comps` being a tuple, with
    `source` (src_table), `target` (its components') and `level` (theirs,
    the highest) stored.
    """

    __slots__ = ("src_table", "comps", "source", "target", "level")
    _fields = __slots__[:2]
    is_identity = False

    def _build(self):
        object.__setattr__(self, "source", self.src_table)
        object.__setattr__(self, "target", self.comps[0].target)
        object.__setattr__(self, "level", max(c.level for c in self.comps))


def identity(table):
    return theta0.identity_gmap(table)


def wordt(kind, j, i):
    """The word map s/t from D_j to D_i as a term."""
    return theta0.word_gmap(j, i, None if i == j else kind)


def eps(table, k):
    """The k-th cocone leg as a term (0-indexed)."""
    return theta0.leg_gmap(table, k)


def legs_base(target_table, ks, src_table):
    """Pairing of cocone legs as a single concrete map."""
    return theta0.legs_pair_gmap(target_table, ks, src_table)


def gen_term(gen):
    return Chain(identity(gen.target), gen)


def _gen_face(gen, word):
    """The normal form of gen ∘ word, for a non-identity word map into the
    generator's disk, by its boundary equations."""
    w = theta0.decompose(word)[1]
    m = w.src
    if m == gen.dim - 1:
        return gen.fsrc if w.kind == "s" else gen.gtgt
    # peel the (canonicalized) top letter; lower letters keep the kind
    return compose(gen.fsrc, theta0.word_gmap(m, gen.dim - 1, w.kind))


def tuple_term(comps, src_table):
    """Tuple constructor, the one that validates: it checks the arity, the
    components' spans and, for a tuple with a non-concrete component, the
    gluing term by term, then builds the tuple with `_tuple`."""
    comps = tuple(comps)
    if len(comps) != src_table.width:
        raise TermError("expected %d components, got %d" % (src_table.width, len(comps)))
    target = comps[0].target
    for k, c in enumerate(comps):
        if c.source != disk(src_table.upper[k]):
            raise TermError("component %d has source %s, expected D%d"
                            % (k, c.source, src_table.upper[k]))
        if c.target != target:
            raise TermError("component %d has target %s, expected %s"
                            % (k, c.target, target))
    if not all(isinstance(c, GMap) for c in comps):
        for k, j in enumerate(src_table.lower):
            error = gluing_error(k, j, comps[k], comps[k + 1])
            if error is not None:
                raise error
    return _tuple(comps, src_table)


def _tuple(comps, src_table):
    """The tuple of components that are known to span and glue: an
    all-concrete tuple recombines into the one concrete map picking their
    cells, whose constructor checks its gluing."""
    if src_table.is_disk:
        return comps[0]
    if all(isinstance(c, GMap) for c in comps):
        return GMap(src_table, comps[0].target, tuple(c.cells[0] for c in comps))
    return TupleT(src_table, comps)


def gluing_error(k, j, left, right):
    """None if `right` glues after `left` over D_j, the source j-face of
    `left` being the target j-face of `right`; otherwise the failure of
    gluing k, at the lowest dimension where those faces differ."""
    a = compose(left, wordt("s", j, _disk_dim(left)))
    b = compose(right, wordt("t", j, _disk_dim(right)))
    if a == b:
        return None
    return theta0.gluing_error(k, j, a, b, lambda w, x: compose(x, theta0.globe_functor(w)))


def compose(t2, t1):
    """Normal form of t2 ∘ t1 (t1 applied first).  Each distinct composite
    whose outer factor is a chain or a tuple is built once, and kept on it."""
    if t1.target is not t2.source:
        raise TermError("cannot compose: %s then %s" % (t1.target, t2.source))
    # every term is a normal form, and identities are units
    if t1.is_identity:
        return t2
    if t2.is_identity:
        return t1
    if isinstance(t2, GMap):
        if isinstance(t1, GMap):
            return theta0.compose(t2, t1)
        return _compose(t2, t1)
    memo = t2.memo()
    t = memo.get(t1)
    if t is None:
        t = memo[t1] = _compose(t2, t1)
    return t


def _compose(t2, t1):
    """`compose` of two terms that are not both concrete and neither an
    identity, built afresh."""
    # post-composition keeps a glued tuple glued
    if isinstance(t1, TupleT):
        return _tuple(tuple([compose(t2, c) for c in t1.comps]), t1.src_table)
    if isinstance(t1, GMap):
        if t1.source.width > 1:
            comps = tuple([compose(t2, t1.leg(k)) for k in range(t1.source.width)])
            return _tuple(comps, t1.source)
        if isinstance(t2, TupleT):
            k, w = theta0.decompose(t1)
            return compose(t2.comps[k], theta0.globe_functor(w))
        # t2 is a Chain, t1 a non-identity word into its generator's disk
        return compose(t2.tail, _gen_face(t2.gen, t1))
    # t1 is a Chain
    return Chain(compose(t2, t1.tail), t1.gen)


def glob_source(t):
    """Normal form of t ∘ s_n for a term out of D_n, n >= 1."""
    n = _disk_dim(t)
    if n == 0:
        raise TermError("0-dimensional terms have no globular source")
    return compose(t, wordt("s", n - 1, n))


def glob_target(t):
    n = _disk_dim(t)
    if n == 0:
        raise TermError("0-dimensional terms have no globular target")
    return compose(t, wordt("t", n - 1, n))


def _disk_dim(t):
    if not t.source.is_disk:
        raise TermError("term is not disk-sourced")
    return t.source.upper[0]


def parallel(f, g):
    """Globular parallelism of two terms out of the same disk."""
    if f.source != g.source or f.target != g.target:
        raise TermError("terms are not co-spanned: %s/%s vs %s/%s"
                        % (f.source, f.target, g.source, g.target))
    n = _disk_dim(f)
    if n == 0:
        return True
    return glob_source(f) == glob_source(g) and glob_target(f) == glob_target(g)


class Verdict(Record):
    """An admissibility verdict: true when `ok`, else with the `reason`."""

    __slots__ = _fields = ("ok", "reason")

    def __bool__(self):
        return self.ok


def admissible(f, g):
    """Admissibility verdict for a pair of terms out of D_n."""
    try:
        n = _disk_dim(f)
        if not g.source.is_disk:
            return Verdict(False, "pair is not disk-sourced")
        if f.source != g.source or f.target != g.target:
            return Verdict(False, "pair members have different spans")
    except TermError as e:
        return Verdict(False, str(e))
    if not parallel(f, g):
        return Verdict(False, "pair is not globularly parallel")
    if f.target.dimension > n + 1:
        return Verdict(False, "dimension of target exceeds n+1 (%d > %d)"
                       % (f.target.dimension, n + 1))
    return Verdict(True, None)


class Tower:
    """An append-only, level-stratified list of lifting generators."""

    def __init__(self, trunc=DEFAULT_TRUNC):
        if trunc > MAX_DIM:
            raise TermError("truncation %d exceeds the largest supported dimension %d"
                            % (trunc, MAX_DIM))
        if trunc < 0:
            raise TermError("truncation %d is negative" % trunc)
        self.trunc = trunc
        self._gens = {}     # name -> generator, in declaration order
        self._terms = {}    # name -> the generator as a term
        self._sealed = False
        self.div_cache = {}

    def __contains__(self, name):
        return name in self._gens

    def __getitem__(self, name):
        return self._gens[name]

    def __len__(self):
        return len(self._gens)

    def gens(self):
        return list(self._gens.values())

    def names(self):
        return list(self._gens)

    def seal(self):
        self._sealed = True
        return self

    def declare(self, name, fsrc, gtgt, auto=False):
        """Add a lifting of (fsrc, gtgt); the pair must be admissible."""
        if self._sealed and not auto:
            raise TermError("tower is sealed")
        if name in self._gens:
            raise TermError("duplicate generator name %r" % name)
        verdict = admissible(fsrc, gtgt)
        if not verdict:
            raise InadmissibleError(verdict)
        dim = _disk_dim(fsrc) + 1
        if dim > self.trunc:
            raise TermError("generator dimension %d exceeds truncation %d"
                            % (dim, self.trunc))
        level = 1 + max(fsrc.level, gtgt.level)
        gen = Gen(name, dim, fsrc.target, fsrc, gtgt, level)
        self._gens[name] = gen
        self._terms[name] = gen_term(gen)
        return gen

    def term(self, name):
        """The generator as a term, built once when it is declared."""
        return self._terms[name]


# ---------------------------------------------------------------------------
# The standard library of structural generators

class PregroupoidBundle(Record):
    """Named selections of composition, unit, and inverse generators:
    `comp` and `inv` by (i, j), `unit` by i."""

    __slots__ = _fields = ("comp", "unit", "inv")

    def comp_name(self, i, j):
        if (i, j) not in self.comp:
            raise TermError("the tower has no composition generator at (%d, %d)" % (i, j))
        return self.comp[(i, j)]

    def unit_name(self, i):
        if i not in self.unit:
            raise TermError("the tower has no unit generator at dimension %d" % i)
        return self.unit[i]

    def inv_name(self, i, j):
        if (i, j) not in self.inv:
            raise TermError("the tower has no inverse generator at (%d, %d)" % (i, j))
        return self.inv[(i, j)]


def comp_name(i, j):
    return "comp%d_%d" % (i, j)


def unit_name(i):
    return "unit%d" % i


def inv_name(i, j):
    return "inv%d_%d" % (i, j)


def glue2(i, j):
    return Table((i, i), (j,))


def comp_pair(i, j, lower=None):
    """The boundary pair of the (i, j) composition D_{i-1} -> D_i +_j D_i.

    Codimension 1: the source of the second leg and the target of the first.
    Codimension >= 2: the (i-1, j) composition `lower`, followed by the
    sources (resp. targets) of both legs.
    """
    t2 = glue2(i, j)
    if j == i - 1:
        return (compose(eps(t2, 1), wordt("s", j, i)),
                compose(eps(t2, 0), wordt("t", j, i)))
    return tuple(
        compose(tuple_term([compose(eps(t2, k), wordt(kind, i - 1, i)) for k in (0, 1)],
                           glue2(i - 1, j)), lower)
        for kind in "st")


def inv_pair(i, j, lower=None):
    """The boundary pair of the (i, j) inverse D_{i-1} -> D_i.

    Codimension 1: the two faces, swapped.  Codimension >= 2: the (i-1, j)
    inverse `lower`, followed by the source (resp. target) word.
    """
    if j == i - 1:
        return wordt("t", j, i), wordt("s", j, i)
    return tuple(compose(wordt(kind, i - 1, i), lower) for kind in "st")


def stdlib(trunc=4):
    """Generate the standard tower of structural generators up to `trunc`.

    Level 1: codimension-1 compositions, units, codimension-1 inverses.
    Level c >= 2: codimension-c compositions and inverses (by the two-case
    boundary formulas), and at level 2 the associativity, unit, and inverse
    constraints.  Level 3: pentagon, exchange, and triangle constraints.
    """
    if trunc < 2:
        raise TermError("stdlib needs truncation >= 2")
    tw = Tower(trunc)

    def g(name):
        return tw.term(name)

    # codimension 1 compositions, units, inverses
    for i in range(1, trunc + 1):
        tw.declare(comp_name(i, i - 1), *comp_pair(i, i - 1))
    for i in range(0, trunc):
        tw.declare(unit_name(i), identity(disk(i)), identity(disk(i)))
    for i in range(1, trunc + 1):
        tw.declare(inv_name(i, i - 1), *inv_pair(i, i - 1))

    # higher codimension by the case formulas
    for c in range(2, trunc + 1):
        for i in range(c, trunc + 1):
            j = i - c
            tw.declare(comp_name(i, j), *comp_pair(i, j, g(comp_name(i - 1, j))))
            tw.declare(inv_name(i, j), *inv_pair(i, j, g(inv_name(i - 1, j))))

    # associativity, unit, and inverse constraints
    for i in range(1, trunc):
        t2 = glue2(i, i - 1)
        t3 = Table((i, i, i), (i - 1, i - 1))
        nab = g(comp_name(i, i - 1))
        e12 = legs_base(t3, (0, 1), t2)
        e23 = legs_base(t3, (1, 2), t2)
        tw.declare("assoc%d" % i,
                   compose(tuple_term([compose(e12, nab), eps(t3, 2)], t2), nab),
                   compose(tuple_term([eps(t3, 0), compose(e23, nab)], t2), nab))
        unit_lo = g(unit_name(i - 1))
        tw.declare("runit%d" % i,
                   compose(tuple_term([identity(disk(i)),
                                       compose(wordt("s", i - 1, i), unit_lo)], t2), nab),
                   identity(disk(i)))
        tw.declare("lunit%d" % i,
                   compose(tuple_term([compose(wordt("t", i - 1, i), unit_lo),
                                       identity(disk(i))], t2), nab),
                   identity(disk(i)))
        om = g(inv_name(i, i - 1))
        tw.declare("rinv%d" % i,
                   compose(tuple_term([identity(disk(i)), om], t2), nab),
                   compose(wordt("t", i - 1, i), unit_lo))
        tw.declare("linv%d" % i,
                   compose(tuple_term([om, identity(disk(i))], t2), nab),
                   compose(wordt("s", i - 1, i), unit_lo))

    # pentagon constraints
    for i in range(1, trunc - 1):
        tw.declare("pent%d" % i, *pentagon_pair(tw, i))

    # exchange constraints
    for i in range(2, trunc):
        tw.declare("exch%d" % i, *exchange_pair(tw, i))

    # triangle constraints
    for i in range(1, trunc - 1):
        tw.declare("tri%d" % i, *triangle_pair(tw, i))

    return tw, bundle_of(tw)


def bundle_of(tower):
    """The stdlib-named composition, unit and inverse generators a tower
    declares with their stdlib shapes: the (i, j) composition D_i -> D_i +_j
    D_i and inverse D_i -> D_i for i <= trunc, the unit D_{i+1} -> D_i for
    i < trunc."""
    def has(name, dim, target):
        return name in tower and (tower[name].dim, tower[name].target) == (dim, target)

    n = tower.trunc
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i)]
    return PregroupoidBundle(
        comp={(i, j): comp_name(i, j) for i, j in pairs
              if has(comp_name(i, j), i, glue2(i, j))},
        unit={i: unit_name(i) for i in range(n) if has(unit_name(i), i + 1, disk(i))},
        inv={(i, j): inv_name(i, j) for i, j in pairs if has(inv_name(i, j), i, disk(i))},
    )


def pentagon_pair(tw, i):
    """The two sides (c3, c2) of the pentagon for the codim-1 composition."""
    g = tw.term
    q4 = Table((i, i, i, i), (i - 1, i - 1, i - 1))
    t3 = Table((i, i, i), (i - 1, i - 1))
    t2 = glue2(i, i - 1)
    t2up = glue2(i + 1, i)
    t2wide = glue2(i + 1, i - 1)
    t3up = Table((i + 1, i + 1, i + 1), (i, i))
    nab, nab_up = g(comp_name(i, i - 1)), g(comp_name(i + 1, i))
    nab_wide = g(comp_name(i + 1, i - 1))
    al, ka = g("assoc%d" % i), g(unit_name(i))

    dda = tuple_term([eps(q4, 0), eps(q4, 1),
                      compose(legs_base(q4, (2, 3), t2), nab)], t3)
    add = tuple_term([compose(legs_base(q4, (0, 1), t2), nab),
                      eps(q4, 2), eps(q4, 3)], t3)
    c2 = compose(tuple_term([compose(dda, al), compose(add, al)], t2up), nab_up)

    x1 = compose(tuple_term([compose(eps(q4, 0), ka),
                             compose(legs_base(q4, (1, 2, 3), t3), al)], t2wide),
                 nab_wide)
    x2 = compose(tuple_term([eps(q4, 0),
                             compose(legs_base(q4, (1, 2), t2), nab),
                             eps(q4, 3)], t3), al)
    x3 = compose(tuple_term([compose(legs_base(q4, (0, 1, 2), t3), al),
                             compose(eps(q4, 3), ka)], t2wide),
                 nab_wide)
    mid = tuple_term([compose(legs_base(t3up, (0, 1), t2up), nab_up),
                      eps(t3up, 2)], t2up)
    c3 = compose(tuple_term([x1, x2, x3], t3up), compose(mid, nab_up))
    return c3, c2


def exchange_pair(tw, i):
    """The two sides of the exchange constraint between codim 1 and codim 2."""
    g = tw.term
    e4 = Table((i, i, i, i), (i - 1, i - 2, i - 1))
    t2 = glue2(i, i - 1)
    t2c2 = glue2(i, i - 2)
    nab, nab2 = g(comp_name(i, i - 1)), g(comp_name(i, i - 2))
    f = compose(tuple_term([compose(legs_base(e4, (0, 2), t2c2), nab2),
                            compose(legs_base(e4, (1, 3), t2c2), nab2)], t2), nab)
    gg = compose(tuple_term([compose(legs_base(e4, (0, 1), t2), nab),
                             compose(legs_base(e4, (2, 3), t2), nab)], t2c2), nab2)
    return f, gg


def triangle_pair(tw, i):
    """The two sides (d2, d1) of the triangle constraint."""
    g = tw.term
    t2 = glue2(i, i - 1)
    t3 = Table((i, i, i), (i - 1, i - 1))
    t2up = glue2(i + 1, i)
    t2wide = glue2(i + 1, i - 1)
    nab, nab_up, nab_wide = g(comp_name(i, i - 1)), g(comp_name(i + 1, i)), g(comp_name(i + 1, i - 1))
    ka, ka_lo = g(unit_name(i)), g(unit_name(i - 1))
    al, rho, lam = g("assoc%d" % i), g("runit%d" % i), g("lunit%d" % i)

    d1 = compose(tuple_term([compose(eps(t2, 0), rho),
                             compose(eps(t2, 1), ka)], t2wide), nab_wide)
    left = compose(tuple_term([compose(eps(t2, 0), ka),
                               compose(eps(t2, 1), lam)], t2wide), nab_wide)
    right = compose(tuple_term([eps(t2, 0),
                                compose(compose(eps(t2, 0), wordt("s", i - 1, i)), ka_lo),
                                eps(t2, 1)], t3), al)
    d2 = compose(tuple_term([left, right], t2up), nab_up)
    return d2, d1


def verify_bundle(tower, bundle):
    """Check the two-case boundary formulas of a pregroupoid bundle up to the
    tower's truncation."""
    trunc = tower.trunc
    g = tower.term

    def sides(name):
        return glob_source(g(name)), glob_target(g(name))

    for (i, j), name in bundle.comp.items():
        if i > trunc:
            continue
        lower = None if j == i - 1 else g(bundle.comp_name(i - 1, j))
        if sides(name) != comp_pair(i, j, lower):
            raise TermError("bundle composition %s violates its case formula" % name)
    for i, name in bundle.unit.items():
        if i + 1 > trunc:
            continue
        if sides(name) != (identity(disk(i)), identity(disk(i))):
            raise TermError("bundle unit %s violates its formula" % name)
    for (i, j), name in bundle.inv.items():
        if i > trunc:
            continue
        lower = None if j == i - 1 else g(bundle.inv_name(i - 1, j))
        if sides(name) != inv_pair(i, j, lower):
            raise TermError("bundle inverse %s violates its case formula" % name)
    return True


# ---------------------------------------------------------------------------
# Tower functors

class TowerFunctor(Record):
    """A morphism of towers: `assignment` maps each generator name of
    `source` to a term of `target`."""

    __slots__ = _fields = ("source", "target", "assignment")

    def translate(self, t):
        if isinstance(t, GMap):
            return t
        if isinstance(t, TupleT):
            return tuple_term([self.translate(c) for c in t.comps], t.src_table)
        return compose(self.translate(t.tail), self.assignment[t.gen.name])


def tower_functor(source, assignment, target):
    """Validated morphism of towers: each generator goes to a lifting of its pair."""
    full = {}
    for gen in source.gens():
        img = assignment.get(gen.name)
        if img is None:
            if gen.name not in target:
                raise TermError("no assignment for generator %r" % gen.name)
            img = target.term(gen.name)
        full[gen.name] = img
    fn = TowerFunctor(source, target, full)
    for gen in source.gens():
        img = full[gen.name]
        if img.source != disk(gen.dim) or img.target != gen.target:
            raise TermError("image of %r has the wrong span" % gen.name)
        if glob_source(img) != fn.translate(gen.fsrc):
            raise TermError("image of %r violates its source equation" % gen.name)
        if glob_target(img) != fn.translate(gen.gtgt):
            raise TermError("image of %r violates its target equation" % gen.name)
    return fn


# ---------------------------------------------------------------------------
# Raw syntax trees and their evaluation

# Raw nodes are interned as the normal forms are, so a tree is compared
# and hashed in constant time: a generator, a tuple of raw components over
# a table, and `outer` after `inner`.

class RGen(Interned):
    __slots__ = ("gen",)
    _fields = __slots__


class RTuple(Interned):
    __slots__ = ("src_table", "comps")
    _fields = __slots__


class RComp(Interned):
    __slots__ = ("outer", "inner")
    _fields = __slots__


Raw = (GMap, RGen, RTuple, RComp)


def term_to_raw(t):
    if isinstance(t, GMap):
        return t
    if isinstance(t, TupleT):
        return RTuple(t.src_table, tuple(term_to_raw(c) for c in t.comps))
    raw = RGen(t.gen)
    if not (isinstance(t.tail, GMap) and t.tail.is_identity):
        raw = RComp(term_to_raw(t.tail), raw)
    return raw


def normalize(raw):
    """Normal form of a raw syntax tree."""
    return _eval_raw(raw)


def _eval_raw(raw):
    if isinstance(raw, GMap):
        return raw
    if isinstance(raw, RGen):
        return gen_term(raw.gen)
    if isinstance(raw, RTuple):
        return tuple_term([_eval_raw(c) for c in raw.comps], raw.src_table)
    return compose(_eval_raw(raw.outer), _eval_raw(raw.inner))
