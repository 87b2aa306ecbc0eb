"""Oracles that only the tests read: every small table, the filler of an
admissible pair in the groupoid globe diagram found from object images
alone, the weak-equivalence checker that restated the functor properties of
the induced pi-groupoid functors by hand, the term composition that rebuilt
every composite node by node and re-checked the gluing of every tuple it
made, the concrete maps that were value-compared dataclasses with
process-global memos, the term nodes that were value-compared dataclasses
built afresh by every composition, the generator chains of three fields
(tail ∘ gen ∘ arg) that both calculi built, the walk that found a term's
highest generator level before nodes stored it, the model-morphism check
that went one input at a time, the tokenizer that matched blanks as tokens
of their own, the parser whose every token carried its position, and the
division construction with its general correction scheme: unit words
(kappa-chains) below each wrap, the scheme terms and correction liftings
declared by mutual recursion, and base change inverting a forward class map
by hand, the named groupoids that each had a constructor of their own, the
two-part union that the corpus folded pairwise over a recursive walk, the
element-by-element backtracking search for a group isomorphism, and the
search over a realized sum's block tree for the walk of a thin arrow."""

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

from globkit import coherator as coh, groups, theta0
from globkit.coherator import (Chain, Gen, InadmissibleError, TermError, Tower, TupleT,
                               _disk_dim, compose, eps, gen_term, identity, tuple_term, wordt)
from globkit.dsl import _DISK_RE, _EPS_RE, _WORD_RE, CheckError, ParseError
from globkit.globe import (DEFAULT_TRUNC, MAX_DIM, GlobeError, Table, Word, disk, realize_sum,
                           sword, tword)
from globkit.theta0 import GMap, MatchingError
from globkit.gpd import GroupoidError, build_groupoid, connected_groupoid
from globkit.homotopy import (DivideResult, HomotopyError, WeqReport, _check_cell, _pair_table,
                              hom_classes, iterated_unit, parallel_cells, pi_groupoid, pi_n_at)
from globkit.model import ModelError, _is_index


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


def lifting_oracle(table, fpair, gpair, n):
    """The unique filler of an admissible pair into the thin sum on `table`.

    Pairs are given by object images; for n >= 1 parallelism forces the two
    maps to agree, and the filler is determined by those objects.
    """
    if n == 0:
        return (fpair[0], gpair[0])
    if fpair != gpair:
        raise GroupoidError("parallel pair disagrees on objects: %s vs %s"
                            % (fpair, gpair))
    return fpair


class OldGpdSum:
    """A realized sum in groupoids: its cocone data and its block tree.

    `leg_objects[k]` holds the object images of disk k's objects, and
    `edges` a (k, o0, o1) for each disk of dimension >= 1.
    """

    __slots__ = ("table", "leg_objects", "edges")

    def __init__(self, table, leg_objects, edges):
        self.table, self.leg_objects, self.edges = table, leg_objects, edges

    def walk(self, o_from, o_to):
        """The arrow o_from -> o_to of the thin sum as a path of legs, in the
        shape of `gpd.thin_walk`, found by a search over the block tree."""
        start = next((k, 0 if len(objs) == 1 else 1 + objs.index(o_from))
                     for k, objs in enumerate(self.leg_objects) if o_from in objs)
        adj = {}
        for k, o0, o1 in self.edges:
            adj.setdefault(o0, []).append((o1, k, False))
            adj.setdefault(o1, []).append((o0, k, True))
        paths = {o_from: ()}
        frontier = [o_from]
        while frontier:
            o = frontier.pop()
            if o == o_to:
                return start, paths[o]
            for o2, k, invert in adj.get(o, ()):
                if o2 not in paths:
                    paths[o2] = paths[o] + ((k, invert),)
                    frontier.append(o2)
        raise GroupoidError("disconnected pasting shape")


def old_realize_gpd(table):
    """The realized sum in groupoids, with its block graph checked to be a
    connected tree (disks merged along positive-dimensional faces agree on
    objects, and there is one block fewer than objects)."""
    real = realize_sum(table)
    leg_objects = tuple(legs[0] for legs in real.legs)
    edges, blocks = [], 0
    for k, objs in enumerate(leg_objects):
        if table.upper[k] == 0:
            continue
        edges.append((k,) + objs)
        if k and table.lower[k - 1] >= 1:
            if objs != leg_objects[k - 1]:
                raise GroupoidError("merged disks disagree on objects")
        else:
            blocks += 1
    if blocks != real.carrier.count(0) - 1:
        raise GroupoidError("realized sum is not simply connected: %s" % (table,))
    return OldGpdSum(table, leg_objects, tuple(edges))


def old_weak_equiv(morph, bundle):
    """The four characterizations of weak equivalence as `homotopy.weak_equiv`
    stated them before they were read off the induced pi-groupoid functors.

    It returns the four verdicts even when they disagree, where the library
    raises, so that a test can see its known defect: at the top dimension
    trunc - 1, condition 4 asks only for surjectivity on classes, so a map
    that kills pi there passes condition 4 alone.  It needs trunc >= 2.
    """
    G, H = morph.source, morph.target
    morph.validate()
    top_n = G.trunc - 1
    cls_G = {n: hom_classes(G, n) for n in range(0, top_n + 1)}
    cls_H = {n: hom_classes(H, n) for n in range(0, top_n + 1)}
    pg_G = {n: pi_groupoid(G, bundle, n) for n in range(1, top_n + 1)}
    pg_H = {n: pi_groupoid(H, bundle, n) for n in range(1, top_n + 1)}

    def pi0_bijection():
        a_of, a_cls = cls_G[0]
        b_of, b_cls = cls_H[0]
        img = {i: b_of[morph.apply(0, cl[0])] for i, cl in enumerate(a_cls)}
        return len(set(img.values())) == len(b_cls) and len(img) == len(b_cls)

    def class_image(n, i):
        """The class in H of the image of a member of class i of G."""
        return cls_H[n][0][morph.apply(n, cls_G[n][1][i][0])]

    def group_iso(n, u):
        pgu, pgh = pg_G[n], pg_H[n]
        fu = morph.apply(n - 1, u)
        eu, eh = pgu.hom(u, u), pgh.hom(fu, fu)
        img = {i: class_image(n, i) for i in eu}
        if len(set(img.values())) != len(img) or sorted(set(img.values())) != sorted(eh):
            return False
        return all(img[pgu.comp[a][b]] == pgh.comp[img[a]][img[b]]
                   for a in eu for b in eu)

    def class_bijection(n, u, v):
        dom = pg_G[n].hom(u, v)
        cod = set(pg_H[n].hom(morph.apply(n - 1, u), morph.apply(n - 1, v)))
        img = {class_image(n, i) for i in dom}
        return img == cod and len(img) == len(dom), img == cod

    def parallel_pairs(n):
        for u in range(G.carrier.count(n - 1)):
            for v in range(G.carrier.count(n - 1)):
                if parallel_cells(G, n - 1, u, v):
                    yield u, v

    # (1) pi_0 bijection and group isos at objects
    cond1 = pi0_bijection() and all(
        group_iso(n, iterated_unit(G, bundle, x, n - 1))
        for n in range(1, top_n + 1) for x in range(G.carrier.count(0)))

    # (2) pi_0 bijection and group isos at every cell
    cond2 = pi0_bijection() and all(
        group_iso(n, u)
        for n in range(1, top_n + 1) for u in range(G.carrier.count(n - 1)))

    # (3) the dimension-1 quotient is an equivalence, higher classes biject
    def pi1_equivalence(full_only=False):
        b_of = cls_H[0][0]
        hit = {b_of[morph.apply(0, x)] for x in range(G.carrier.count(0))}
        if any(b_of[y] not in hit for y in range(H.carrier.count(0))):
            return False
        for u in range(G.carrier.count(0)):
            for v in range(G.carrier.count(0)):
                bij, surj = class_bijection(1, u, v)
                if full_only:
                    if not surj:
                        return False
                elif not bij:
                    return False
        return True

    cond3 = pi1_equivalence() and all(
        class_bijection(n, u, v)[0]
        for n in range(2, top_n + 1) for (u, v) in parallel_pairs(n))

    # (4) dimension 1 full and essentially surjective, higher classes surject
    cond4 = pi1_equivalence(full_only=True) and all(
        class_bijection(n, u, v)[1]
        for n in range(2, top_n + 1) for (u, v) in parallel_pairs(n))

    return WeqReport(cond1, cond2, cond3, cond4)


# The concrete maps before they were interned: `GMap`, `compose`,
# `identity_gmap` and `leg_gmap` as `theta0` stated them, renamed so that
# they call one another.

@dataclass(frozen=True)
class OldGMap:
    """A map of realized sums: `cells[k]` is the target cell that the top
    cell of the source's k-th disk goes to.

    Building one checks the gluing condition alone: at each gluing k over
    dimension j, the s-face of `cells[k]` is the t-face of `cells[k + 1]`.
    A failure names k and the lowest dimension where the two faces differ.
    """

    source: Table
    target: Table
    cells: tuple[int, ...]

    def __post_init__(self):
        carrier = realize_sum(self.target).carrier
        upper = self.source.upper
        if len(self.cells) != len(upper):
            raise GlobeError("map picks %d cells for the %d disks of %s"
                             % (len(self.cells), len(upper), self.source))
        for k, (m, c) in enumerate(zip(upper, self.cells)):
            if not 0 <= c < carrier.count(m):
                raise GlobeError("map sends disk %d to %r, not one of the %d %d-cells "
                                 "of %s" % (k, c, carrier.count(m), m, self.target))
        for k, j in enumerate(self.source.lower):
            a = carrier.boundary(sword(j, upper[k]), self.cells[k])
            b = carrier.boundary(tword(j, upper[k + 1]), self.cells[k + 1])
            if a != b:
                raise theta0.gluing_error(k, j, a, b, carrier.boundary)

    @cached_property
    def is_identity(self):
        return self.source == self.target and self == old_identity_gmap(self.source)

    def leg(self, k):
        """This map after the source's k-th cocone leg: the map out of the
        k-th disk picking `cells[k]`."""
        return OldGMap(disk(self.source.upper[k]), self.target, (self.cells[k],))


@lru_cache(maxsize=None)
def old_identity_gmap(table):
    return OldGMap(table, table, tuple(leg[m][0] for leg, m in zip(realize_sum(table).legs, table.upper)))


@lru_cache(maxsize=None)
def old_gmap_compose(g, f):
    """g after f: each cell f picks has an owner (leg, word) in g's source,
    and goes to that word's face of the cell g's leg picks.  Each distinct
    composite is built and checked once."""
    if f.target != g.source:
        raise GlobeError("object mismatch: cannot compose %s after %s"
                         % (g.source, f.target))
    owners = realize_sum(g.source).owners
    boundary = realize_sum(g.target).carrier.boundary
    cells = []
    for m, c in zip(f.source.upper, f.cells):
        leg, word = owners[m][c]
        cells.append(boundary(word, g.cells[leg]))
    return OldGMap(f.source, g.target, tuple(cells))


@lru_cache(maxsize=None)
def old_leg_gmap(table, k):
    """The k-th cocone leg D_{i_k} -> sum (0-indexed)."""
    return old_identity_gmap(table).leg(k)


# The term composition before identities short-circuited it and before a
# post-composed tuple inherited its gluing: `compose`, `tuple_term`,
# `gluing_error` and `_make_chain` as `coherator` stated them, renamed so
# that they call one another.  Chains were tail ∘ gen ∘ arg then; a chain
# of today's two fields is read with the identity as its arg, and the
# chain constructors refuse any other arg their boundary equations leave.

def old_arg(chain):
    """The arg of a chain of the three-field calculus: an `OldChain`'s own,
    the identity of its generator's disk for a `Chain`."""
    return chain.arg if isinstance(chain, OldChain) else identity(disk(chain.gen.dim))


def _identity_arg(arg):
    """`arg` if it is an identity, the only arg a chain was ever built
    with; a `TermError` otherwise."""
    if not (isinstance(arg, GMap) and arg.is_identity):
        raise TermError("a chain is built with a non-identity arg %r" % (arg,))
    return arg


def old_make_chain(tail, gen, arg):
    """Chain constructor applying the generator's boundary equations."""
    if isinstance(arg, GMap) and not arg.is_identity:
        w = theta0.decompose(arg)[1]
        m = w.src
        if m == gen.dim - 1:
            side = gen.fsrc if w.kind == "s" else gen.gtgt
            return old_compose(tail, side)
        # peel the (canonicalized) top letter; lower letters keep the kind
        rest = Word(m, gen.dim - 1, w.kind)
        return old_compose(tail, old_compose(gen.fsrc, theta0.globe_functor(rest)))
    _identity_arg(arg)
    return Chain(tail, gen)


def old_tuple_term(comps, src_table):
    """Tuple constructor: an all-concrete tuple recombines into the one
    concrete map picking its components' cells, which checks its gluing;
    any other tuple is checked here."""
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
    if all(isinstance(c, GMap) for c in comps):
        return GMap(src_table, target, tuple(c.cells[0] for c in comps))
    for k, j in enumerate(src_table.lower):
        error = old_gluing_error(k, j, comps[k], comps[k + 1])
        if error is not None:
            raise error
    return TupleT(src_table, comps)


def old_gluing_error(k, j, left, right):
    """None if `right` glues after `left` over D_j, the source j-face of
    `left` being the target j-face of `right`; otherwise the failure of
    gluing k, at the lowest dimension where those faces differ."""
    a = old_compose(left, wordt("s", j, _disk_dim(left)))
    b = old_compose(right, wordt("t", j, _disk_dim(right)))
    if a == b:
        return None
    return theta0.gluing_error(k, j, a, b, lambda w, x: old_compose(x, theta0.globe_functor(w)))


def old_compose(t2, t1):
    """Normal form of t2 ∘ t1 (t1 applied first)."""
    if t1.target != t2.source:
        raise TermError("cannot compose: %s then %s" % (t1.target, t2.source))
    if isinstance(t2, GMap) and isinstance(t1, GMap):
        return theta0.compose(t2, t1)
    if isinstance(t1, TupleT):
        return old_tuple_term([old_compose(t2, c) for c in t1.comps], t1.src_table)
    if isinstance(t1, GMap):
        if t1.source.width > 1:
            comps = [old_compose(t2, t1.leg(k)) for k in range(t1.source.width)]
            return old_tuple_term(comps, t1.source)
        if isinstance(t2, TupleT):
            k, w = theta0.decompose(t1)
            return old_compose(t2.comps[k], theta0.globe_functor(w))
        # t2 is a Chain
        return old_make_chain(t2.tail, t2.gen, old_compose(old_arg(t2), t1))
    # t1 is a Chain
    return old_make_chain(old_compose(t2, t1.tail), t1.gen, old_arg(t1))


# The term nodes before they were interned: `Chain` and `TupleT` as
# value-compared frozen dataclasses, and `gen_term`, `_make_chain`,
# `tuple_term`, `_tuple`, `gluing_error` and `compose` as `coherator` stated
# them, with the identity and inherited-gluing short-circuits but without a
# memo, renamed so that they call one another.

def old_top_level(t):
    """The highest level of a generator the term names, 0 if it names none,
    found by walking the term: `Tower.declare`'s rule before chains and
    tuples stored it.

    Only the generators named directly are read: `Tower.declare` gives each
    generator a level above every generator its boundaries name, so their
    boundaries cannot raise the maximum.
    """
    if isinstance(t, (Chain, OldChain)):
        return max(t.gen.level, old_top_level(t.tail), old_top_level(old_arg(t)))
    if isinstance(t, (TupleT, OldTupleT)):
        return max(old_top_level(c) for c in t.comps)
    return 0


@dataclass(frozen=True)
class OldChain:
    """tail ∘ gen ∘ arg with arg a disk-to-disk morphism in normal form."""

    tail: "Term"
    gen: Gen
    arg: "Term"

    @property
    def source(self):
        return self.arg.source

    @property
    def target(self):
        return self.tail.target

    @property
    def level(self):
        return old_top_level(self)


@dataclass(frozen=True)
class OldTupleT:
    """A morphism out of a sum, by its tuple of disk-sourced components."""

    src_table: Table
    comps: tuple

    @property
    def source(self):
        return self.src_table

    @property
    def target(self):
        return self.comps[0].target

    @property
    def level(self):
        return old_top_level(self)


def old_chain(tail, gen):
    """The old chain tail ∘ gen ∘ id."""
    return OldChain(tail, gen, identity(disk(gen.dim)))


def old_gen_term(gen):
    return old_chain(identity(gen.target), gen)


def old_term_make_chain(tail, gen, arg):
    """Chain constructor applying the generator's boundary equations."""
    if isinstance(arg, GMap) and not arg.is_identity:
        w = theta0.decompose(arg)[1]
        m = w.src
        if m == gen.dim - 1:
            side = gen.fsrc if w.kind == "s" else gen.gtgt
            return old_term_compose(tail, side)
        # peel the (canonicalized) top letter; lower letters keep the kind
        rest = Word(m, gen.dim - 1, w.kind)
        return old_term_compose(tail, old_term_compose(gen.fsrc, theta0.globe_functor(rest)))
    return OldChain(tail, gen, _identity_arg(arg))


def old_term_tuple_term(comps, src_table):
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
            error = old_term_gluing_error(k, j, comps[k], comps[k + 1])
            if error is not None:
                raise error
    return old_term_tuple(comps, src_table)


def old_term_tuple(comps, src_table):
    """The tuple of components that are known to span and glue: an
    all-concrete tuple recombines into the one concrete map picking their
    cells, whose constructor checks its gluing."""
    if all(isinstance(c, GMap) for c in comps):
        return GMap(src_table, comps[0].target, tuple(c.cells[0] for c in comps))
    return OldTupleT(src_table, comps)


def old_term_gluing_error(k, j, left, right):
    """None if `right` glues after `left` over D_j, the source j-face of
    `left` being the target j-face of `right`; otherwise the failure of
    gluing k, at the lowest dimension where those faces differ."""
    a = old_term_compose(left, wordt("s", j, _disk_dim(left)))
    b = old_term_compose(right, wordt("t", j, _disk_dim(right)))
    if a == b:
        return None
    return theta0.gluing_error(k, j, a, b,
                               lambda w, x: old_term_compose(x, theta0.globe_functor(w)))


def old_term_compose(t2, t1):
    """Normal form of t2 ∘ t1 (t1 applied first)."""
    if t1.target != t2.source:
        raise TermError("cannot compose: %s then %s" % (t1.target, t2.source))
    # every term is a normal form, and identities are units
    if isinstance(t1, GMap) and t1.is_identity:
        return t2
    if isinstance(t2, GMap) and t2.is_identity:
        return t1
    if isinstance(t2, GMap) and isinstance(t1, GMap):
        return theta0.compose(t2, t1)
    # post-composition keeps a glued tuple glued
    if isinstance(t1, OldTupleT):
        return old_term_tuple(tuple([old_term_compose(t2, c) for c in t1.comps]), t1.src_table)
    if isinstance(t1, GMap):
        if t1.source.width > 1:
            comps = tuple([old_term_compose(t2, t1.leg(k)) for k in range(t1.source.width)])
            return old_term_tuple(comps, t1.source)
        if isinstance(t2, OldTupleT):
            k, w = theta0.decompose(t1)
            return old_term_compose(t2.comps[k], theta0.globe_functor(w))
        # t2 is a Chain
        return old_term_make_chain(t2.tail, t2.gen, old_term_compose(old_arg(t2), t1))
    # t1 is a Chain
    return old_term_make_chain(old_term_compose(t2, t1.tail), t1.gen, old_arg(t1))


# The tokenizer of tower scripts before tokens became named tuples and
# blanks stopped being matched on their own.

@dataclass(frozen=True)
class OldToken:
    kind: str
    value: str
    line: int
    col: int


_OLD_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<arrow>->)
  | (?P<sym>[:;=*\[\]()+])
""", re.VERBOSE)


def old_tokenize(text):
    out = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _OLD_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, col, "unexpected character %r" % text[pos])
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            out.append(OldToken("nl", value, line, col))
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        else:
            out.append(OldToken(kind, value, line, col))
            col += len(value)
        pos = m.end()
    out.append(OldToken("eof", "", line, col))
    return out


# The parser of tower scripts before it scanned a script once into lists of
# token kinds and values and computed positions only for errors: every token
# carried its line and column, and each name atom was elaborated afresh.  It
# reads `old_tokenize`'s tokens, which the tests hold equal to
# `dsl.tokenize`'s.

class OldParser:
    def __init__(self, text):
        self.tokens = old_tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, value=None):
        t = self.next()
        if t.kind != kind or (value is not None and t.value != value):
            raise ParseError(t.line, t.col,
                             "expected %s, found %r" % (value or kind, t.value or t.kind))
        return t

    def skip_newlines(self):
        while self.peek().kind == "nl":
            self.next()


def old_parse_tower(text, trunc=None):
    """Parse and replay a tower script; returns the declared Tower."""
    p = OldParser(text)
    tower = None
    declared_dim = None
    p.skip_newlines()
    while p.peek().kind != "eof":
        t = p.peek()
        if t.kind == "name" and t.value == "dim":
            p.next()
            n = p.expect("int")
            if tower is not None and len(tower):
                raise ParseError(n.line, n.col, "dim must precede all lifts")
            declared_dim = int(n.value)
            tower = Tower(declared_dim if trunc is None else trunc)
        elif t.kind == "name" and t.value == "lift":
            if tower is None:
                tower = Tower(trunc if trunc is not None else DEFAULT_TRUNC)
            _old_parse_lift(p, tower)
        else:
            raise ParseError(t.line, t.col, "expected 'dim' or 'lift', found %r"
                             % (t.value or t.kind))
        if p.peek().kind not in ("nl", "eof"):
            t = p.peek()
            raise ParseError(t.line, t.col, "trailing input %r" % t.value)
        p.skip_newlines()
    if tower is None:
        tower = Tower(trunc if trunc is not None else DEFAULT_TRUNC)
    return tower


def _old_parse_lift(p, tower):
    kw = p.expect("name", "lift")
    name_tok = p.next()
    if name_tok.kind != "name":
        raise ParseError(name_tok.line, name_tok.col, "expected a generator name")
    name = name_tok.value
    for pat in (_DISK_RE, _WORD_RE, _EPS_RE):
        if pat.match(name) or name == "id":
            raise ParseError(name_tok.line, name_tok.col,
                             "name %r shadows built-in syntax" % name)
    p.expect("sym", ":")
    dtok = p.next()
    md = _DISK_RE.match(dtok.value) if dtok.kind == "name" else None
    if md is None:
        raise ParseError(dtok.line, dtok.col, "expected a disk D<n>")
    gdim = int(md.group(1))
    if not 1 <= gdim <= MAX_DIM:
        raise ParseError(dtok.line, dtok.col, "a lift starts at D1 to D%d, not D%d"
                         % (MAX_DIM, gdim))
    source = disk(gdim - 1)
    p.expect("arrow")
    table = _old_parse_table(p)
    p.expect("sym", ";")
    p.expect("name", "src")
    p.expect("sym", "=")
    fsrc = _old_elab_chain(_old_read_chain(p), tower, table)
    p.expect("sym", ";")
    p.expect("name", "tgt")
    p.expect("sym", "=")
    gtgt = _old_elab_chain(_old_read_chain(p), tower, table)
    if fsrc.source != source:
        raise ParseError(kw.line, kw.col,
                         "src term starts at %s, expected %s" % (fsrc.source, source))
    if gtgt.source != source:
        raise ParseError(kw.line, kw.col,
                         "tgt term starts at %s, expected %s" % (gtgt.source, source))
    try:
        tower.declare(name, fsrc, gtgt)
    except (InadmissibleError, TermError) as e:
        raise CheckError(kw.line, "lift %s: %s" % (name, e))


def _old_parse_table(p):
    t = p.next()
    m = _DISK_RE.match(t.value) if t.kind == "name" else None
    if m is None:
        raise ParseError(t.line, t.col, "expected a disk D<n>")
    upper = [int(m.group(1))]
    lower = []
    while p.peek().kind == "sym" and p.peek().value == "+":
        p.next()
        j = p.expect("int")
        d = p.next()
        m = _DISK_RE.match(d.value) if d.kind == "name" else None
        if m is None:
            raise ParseError(d.line, d.col, "expected a disk D<n>")
        lower.append(int(j.value))
        upper.append(int(m.group(1)))
    try:
        return Table(tuple(upper), tuple(lower))
    except Exception as e:
        raise ParseError(t.line, t.col, "invalid table: %s" % e)


def old_parse_table(text):
    """Parse a whole text as one table of dimensions, e.g. `D1 +0 D1`."""
    p = OldParser(text)
    table = _old_parse_table(p)
    _old_expect_end(p)
    return table


def old_parse_term(text, tower, target):
    """Parse a whole text as one term into the table `target`."""
    p = OldParser(text)
    term = _old_elab_chain(_old_read_chain(p), tower, target)
    _old_expect_end(p)
    return term


def _old_expect_end(p):
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(t.line, t.col, "trailing input %r" % (t.value or t.kind))


def _old_read_chain(p):
    """The atoms of a `*`-chain, read but not yet elaborated."""
    atoms = [_old_parse_atom(p)]
    while p.peek().kind == "sym" and p.peek().value == "*":
        p.next()
        atoms.append(_old_parse_atom(p))
    return atoms


def _old_parse_atom(p):
    t = p.peek()
    if t.kind == "sym" and t.value == "(":
        p.next()
        inner = _old_read_chain(p)
        p.expect("sym", ")")
        return ("group", inner, t)
    if t.kind == "sym" and t.value == "[":
        p.next()
        comps = []
        glues = []
        comps.append(_old_read_chain(p))
        while p.peek().value == ";":
            p.next()
            if p.peek().kind == "int":
                glues.append(int(p.next().value))
            else:
                glues.append(None)
            comps.append(_old_read_chain(p))
        p.expect("sym", "]")
        return ("tuple", (comps, glues), t)
    if t.kind == "name":
        p.next()
        return ("name", t.value, t)
    raise ParseError(t.line, t.col, "expected a term, found %r" % (t.value or t.kind))


def _old_elab_chain(atoms, tower, target):
    """Elaborate a `*`-chain left to right: each atom maps into the source
    of the one before it, the first into `target`."""
    term = None
    for atom in atoms:
        t = _old_elab_atom(atom, tower, target)
        term = t if term is None else coh.compose(term, t)
        target = t.source
    return term


def _old_elab_atom(atom, tower, target):
    kind, val, tok = atom
    if kind == "group":
        return _old_elab_chain(val, tower, target)
    if kind == "tuple":
        comps_atoms, glues = val
        comps = [_old_elab_chain(a, tower, target) for a in comps_atoms]
        for c in comps:
            if not c.source.is_disk:
                raise ParseError(tok.line, tok.col, "tuple components must start at disks")
        upper = tuple(c.source.upper[0] for c in comps)
        lower = []
        for k, g in enumerate(glues):
            if g is not None:
                lower.append(g)
                continue
            found = next((j for j in range(min(upper[k], upper[k + 1]) - 1, -1, -1)
                          if coh.gluing_error(k, j, comps[k], comps[k + 1]) is None), None)
            if found is None:
                raise ParseError(tok.line, tok.col,
                                 "no gluing dimension matches tuple components %d, %d"
                                 % (k + 1, k + 2))
            lower.append(found)
        try:
            return coh.tuple_term(comps, Table(upper, tuple(lower)))
        except (MatchingError, TermError) as e:
            raise ParseError(tok.line, tok.col, "bad tuple: %s" % e)
    name = val
    if name == "id":
        return coh.identity(target)
    m = _WORD_RE.match(name)
    if m is not None:
        k = int(m.group(2))
        if k < 1:
            raise ParseError(tok.line, tok.col, "boundary words start at s1/t1")
        if not (target.is_disk and target.dimension == k):
            raise ParseError(tok.line, tok.col,
                             "%s maps into D%d, but %s is expected here" % (name, k, target))
        return coh.wordt(m.group(1), k - 1, k)
    m = _EPS_RE.match(name)
    if m is not None:
        k = int(m.group(1))
        if not (1 <= k <= target.width):
            raise ParseError(tok.line, tok.col,
                             "leg %d out of range for %s" % (k, target))
        return coh.eps(target, k - 1)
    if name in tower:
        gen = tower[name]
        if gen.target != target:
            raise ParseError(tok.line, tok.col,
                             "%s maps into %s, but %s is expected here"
                             % (name, gen.target, target))
        return tower.term(name)
    raise ParseError(tok.line, tok.col, "unknown name %r" % name)


def old_validate(morph):
    """`ModelMorphism.validate` as it checked boundaries cell by cell and
    each generator one input at a time, in the order of its table."""
    ms, mt = morph.source, morph.target
    if ms.tower is not mt.tower:
        raise ModelError("morphisms require a common tower")
    if len(morph.maps) != ms.trunc + 1:
        raise ModelError("morphism has maps for %d dimensions, expected %d"
                         % (len(morph.maps), ms.trunc + 1))
    for d in range(ms.trunc + 1):
        if len(morph.maps[d]) != ms.carrier.count(d):
            raise ModelError("morphism map at dim %d has %d entries, expected %d"
                             % (d, len(morph.maps[d]), ms.carrier.count(d)))
        for c, v in enumerate(morph.maps[d]):
            if not _is_index(v, mt.carrier.count(d)):
                raise ModelError("morphism sends %d-cell %d to %r, not one of the "
                                 "target's %d cells" % (d, c, v, mt.carrier.count(d)))
    for d in range(1, ms.trunc + 1):
        for c in range(ms.carrier.count(d)):
            if mt.carrier.source(d, morph.maps[d][c]) != morph.maps[d - 1][ms.carrier.source(d, c)]:
                raise ModelError("morphism does not commute with src at dim %d" % d)
            if mt.carrier.target(d, morph.maps[d][c]) != morph.maps[d - 1][ms.carrier.target(d, c)]:
                raise ModelError("morphism does not commute with tgt at dim %d" % d)
    for gen in ms.tower.gens():
        fsrc = ms.interp_for(gen)
        ftgt = mt.interp_for(gen)
        for x, v in fsrc.items():
            fx = tuple(morph.maps[gen.target.upper[k]][x[k]] for k in range(len(x)))
            if ftgt[fx] != morph.maps[gen.dim][v]:
                raise ModelError("morphism does not commute with %r at %s"
                                 % (gen.name, (x,)))
    return morph


def _kappa_chain(tower, bundle, j, n):
    """The unit word D_n -> D_j as a term (iterated units from dim j to n)."""
    t = identity(disk(j))
    for d in range(j, n):
        t = compose(t, gen_term(tower[bundle.unit_name(d)]))
    return t


def _s_hat(tower, bundle, n, i, j, side):
    """Terms S_j (or T_j) : D_{n-1} -> D_{n-1} +_i D_{n-1} of the correction scheme."""
    tab = _pair_table(n, i)
    nab = gen_term(tower[bundle.comp_name(n - 1, i)])
    om = gen_term(tower[bundle.inv_name(n - 1, i)])
    if side == "left":
        out = compose(tuple_term([compose(eps(tab, 0), om), nab], tab), nab)
    else:
        out = compose(tuple_term([nab, compose(eps(tab, 1), om)], tab), nab)
    for j2 in range(i + 3, j + 1):
        c_gen = _correction_gen(tower, bundle, n, i, j2 - 1, "c", side)
        d_gen = _correction_gen(tower, bundle, n, i, j2 - 1, "d", side)
        lo = _pair_table(n, j2 - 2)
        nab_lo = gen_term(tower[bundle.comp_name(n - 1, j2 - 2)])
        wrap = tuple_term(
            [_with_kappa(tower, bundle, d_gen, j2 - 1, n - 1),
             compose(tuple_term([out, _with_kappa(tower, bundle, c_gen, j2 - 1, n - 1)],
                                lo), nab_lo)],
            lo)
        out = compose(wrap, nab_lo)
    return out


def _with_kappa(tower, bundle, gen, j, n):
    """kappa^{n}_{j} of a correction generator, as a term D_n -> its target."""
    return compose(gen_term(gen), _kappa_chain(tower, bundle, j, n))


def _correction_gen(tower, bundle, n, i, j, which, side):
    """Get or declare the level-j correction lifting (cached per tower)."""
    key = (n, i, j, which, side)
    if key in tower.div_cache:
        return tower[tower.div_cache[key]]
    tab = _pair_table(n, i)
    u_leg = eps(tab, 1) if side == "left" else eps(tab, 0)
    v_leg = u_leg
    sj = _s_hat(tower, bundle, n, i, j, side)
    if which == "c":
        lo = compose(u_leg, wordt("s", j - 1, n - 1))
        hi = compose(sj, wordt("s", j - 1, n - 1))
    else:
        # the target-side correction runs from the iterated *target* of the
        # scheme term: the level-(j+1) wrapping is ill-typed otherwise
        lo = compose(sj, wordt("t", j - 1, n - 1))
        hi = compose(v_leg, wordt("t", j - 1, n - 1))
    name = "auto.%d" % len(tower.div_cache)
    try:
        gen = tower.declare(name, lo, hi, auto=True)
    except coh.InadmissibleError as e:
        raise HomotopyError(
            "correction lifting at level %d is not admissible (%s); the "
            "construction is limited to corrections at levels >= n-1" % (j, e))
    tower.div_cache[key] = name
    return gen


def old_divide(model, bundle, n, i, gamma, u, v, side="left"):
    """Whisker by gamma in codimension n - i and build the explicit inverse.

    side='left' sends a to gamma * a, side='right' to a * gamma; both return
    verified mutually-inverse bijections on homotopy classes.
    """
    if not (n >= 2 and 0 <= i < n - 1):
        raise HomotopyError("division needs n >= 2 and 0 <= i < n-1")
    _check_cell(model, n, gamma, "gamma")
    _check_cell(model, n - 1, u, "u")
    _check_cell(model, n - 1, v, "v")
    tower = model.tower
    car = model.carrier
    if not parallel_cells(model, n - 1, u, v):
        raise HomotopyError("u and v are not parallel")
    up, vp = car.source(n, gamma), car.target(n, gamma)
    if side == "left":
        if car.boundary(sword(i, n), gamma) != car.boundary(tword(i, n - 1), u):
            raise HomotopyError("iterated source of gamma does not meet u")
    else:
        if car.boundary(tword(i, n), gamma) != car.boundary(sword(i, n - 1), u):
            raise HomotopyError("iterated target of gamma does not meet u")

    nab_n = model.interp_for(tower[bundle.comp_name(n, i)])
    nab = model.interp_for(tower[bundle.comp_name(n - 1, i)])
    om_n = model.interp_for(tower[bundle.inv_name(n, i)])

    def star_n(a, b):
        return nab_n[(a, b)]

    def star(a, b):
        return nab[(a, b)]

    def w(a, b):
        return star_n(a, b) if side == "left" else star_n(b, a)

    def w_lo(a, b):
        return star(a, b) if side == "left" else star(b, a)

    hom_uv = [a for a in range(car.count(n))
              if car.source(n, a) == u and car.target(n, a) == v]
    u2, v2 = w_lo(up, u), w_lo(vp, v)
    hom_uv2 = [b for b in range(car.count(n))
               if car.source(n, b) == u2 and car.target(n, b) == v2]

    forward = {a: w(gamma, a) for a in hom_uv}
    for a, b in forward.items():
        if car.source(n, b) != u2 or car.target(n, b) != v2:
            raise HomotopyError("whiskering left the expected hom-set")

    # corrections (levels i+2 .. n), evaluated on (u', u) and (v', v)
    pair_uv = (up, u) if side == "left" else (u, up)
    pair_vv = (vp, v) if side == "left" else (v, vp)
    cs, ds = {}, {}
    for j in range(i + 2, n + 1):
        cg = _correction_gen(tower, bundle, n, i, j, "c", side)
        dg = _correction_gen(tower, bundle, n, i, j, "d", side)
        cs[j] = model.interp_for(cg)[pair_uv]
        ds[j] = model.interp_for(dg)[pair_vv]

    def backward_of(b):
        alpha = w(om_n[(gamma,)], b)
        for j in range(i + 2, n + 1):
            nab_j = model.interp_for(tower[bundle.comp_name(n, j - 1)])
            cj = iterated_unit(model, bundle, cs[j], n, j)
            dj = iterated_unit(model, bundle, ds[j], n, j)
            alpha = nab_j[(dj, nab_j[(alpha, cj)])]
        return alpha

    backward = {b: backward_of(b) for b in hom_uv2}
    for b, a in backward.items():
        if car.source(n, a) != u or car.target(n, a) != v:
            raise HomotopyError("division landed outside the expected hom-set")

    class_of, _ = hom_classes(model, n)

    def class_map(mapping, dom):
        out = {}
        for a in dom:
            ca, cb = class_of[a], class_of[mapping[a]]
            if ca in out and out[ca] != cb:
                raise HomotopyError("map is not constant on homotopy classes")
            out[ca] = cb
        return out

    fwd_cls = class_map(forward, hom_uv)
    bwd_cls = class_map(backward, hom_uv2)
    for a in hom_uv:
        if class_of[backward[forward[a]]] != class_of[a]:
            raise HomotopyError("backward . forward is not the identity on classes")
    for b in hom_uv2:
        if class_of[forward[backward[b]]] != class_of[b]:
            raise HomotopyError("forward . backward is not the identity on classes")
    return DivideResult(forward, backward, fwd_cls, bwd_cls)


def old_base_change_iso(model, bundle, n, u):
    """The isomorphism from loops at an (n-1)-cell to loops at its base object.

    Returns (iso on class indices of pi_n(G, u) -> pi_n(G, x), groups), and
    verifies bijectivity and the homomorphism property element-wise.
    """
    tower = model.tower
    if n < 1:
        raise HomotopyError("base change needs n >= 1")
    _check_cell(model, n - 1, u, "u")
    pg = pi_groupoid(model, bundle, n)
    grp_u, elems_u = pi_n_at(pg, n, u)
    if n == 1:
        return {i: i for i in range(len(elems_u))}, grp_u, grp_u
    x = model.carrier.boundary(sword(0, n - 1), u)
    kx = iterated_unit(model, bundle, x, n - 1)
    grp_x, elems_x = pi_n_at(pg, n, kx)

    gamma_r = iterated_unit(model, bundle, x, n)
    phi = old_divide(model, bundle, n, 0, gamma_r, u, u, side="right")
    ka = model.interp_for(tower[bundle.unit_name(n - 1)])
    gamma_l = ka[(u,)]
    psi = old_divide(model, bundle, n, 0, gamma_l, kx, kx, side="left")

    psi_inv = {}
    for cls, img in psi.fwd_classes.items():
        psi_inv[img] = cls
    iso = {}
    for i, cl in enumerate(elems_u):
        mid = phi.fwd_classes[cl]
        iso[i] = elems_x.index(psi_inv[mid])
    if sorted(iso.values()) != list(range(len(elems_x))):
        raise HomotopyError("base change is not a bijection")
    for a in range(len(elems_u)):
        for b in range(len(elems_u)):
            if iso[grp_u.op(a, b)] != grp_x.op(iso[a], iso[b]):
                raise HomotopyError("base change is not a homomorphism")
    return iso, grp_u, grp_x


def old_discrete(k):
    arrows = [(x, x) for x in range(k)]
    return build_groupoid(k, arrows, lambda g, f: g)


def old_codiscrete(k):
    """Exactly one arrow between each ordered pair of objects."""
    arrows = [(x, y) for x in range(k) for y in range(k)]
    index = {a: i for i, a in enumerate(arrows)}
    return build_groupoid(k, arrows,
                          lambda g, f: index[(arrows[f][0], arrows[g][1])])


def old_one_object(group):
    arrows = [(0, 0)] * group.order
    return build_groupoid(1, arrows, lambda g, f: group.op(g, f))


def old_disjoint_union(a, b):
    no, na = a.n_objects, a.n_arrows
    arrows = [(a.src[i], a.tgt[i]) for i in range(na)] + \
             [(b.src[i] + no, b.tgt[i] + no) for i in range(b.n_arrows)]

    def compose_fn(g, f):
        if g < na and f < na:
            return a.comp[g][f]
        if g >= na and f >= na:
            return b.comp[g - na][f - na] + na
        raise GroupoidError("unreachable")

    return build_groupoid(no + b.n_objects, arrows, compose_fn)


def old_corpus(max_objects=3, max_arrows=8):
    """All groupoids with bounded objects and arrows, plus named examples.

    A groupoid is a disjoint union of connected groupoids; a connected piece
    with k objects and vertex group H contributes k^2 |H| arrows.
    """
    pieces = []
    for k in (1, 2, 3):
        for gname in ("Z1", "Z2", "Z3", "Z4", "V4", "Z5", "Z6", "S3", "Z7",
                      "Z8", "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8"):
            g = groups.by_name(gname)
            if k * k * g.order <= max_arrows:
                pieces.append((k, gname))
    out = []

    def build(piece_list):
        gpd = None
        for (k, gname) in piece_list:
            part = connected_groupoid(k, groups.by_name(gname))
            gpd = part if gpd is None else old_disjoint_union(gpd, part)
        return gpd

    def rec(start, chosen, objs, arrs):
        if chosen:
            out.append(tuple(chosen))
        for i in range(start, len(pieces)):
            k, gname = pieces[i]
            cost = k * k * groups.by_name(gname).order
            if objs + k <= max_objects and arrs + cost <= max_arrows:
                rec(i, chosen + [(k, gname)], objs + k, arrs + cost)

    rec(0, [], 0, 0)
    named = [("corpus:%s" % "+".join("%dx%s" % p for p in combo), build(combo))
             for combo in out]
    named.append(("codiscrete3", old_codiscrete(3)))
    named.append(("discrete3", old_discrete(3)))
    return named


def old_find_isomorphism(a, b):
    """Backtracking search for a group isomorphism a -> b, or None."""
    if a.order != b.order:
        return None
    n = a.order
    orders_a = [a.element_order(x) for x in range(n)]
    orders_b = [b.element_order(x) for x in range(n)]
    if sorted(orders_a) != sorted(orders_b):
        return None
    phi = [None] * n
    phi[0] = 0
    used = {0}

    def extend(x):
        if x == n:
            return True
        if phi[x] is not None:
            return extend(x + 1)
        for y in range(n):
            if y in used or orders_b[y] != orders_a[x]:
                continue
            # tentatively map x -> y and close under known products
            trail = []
            ok = True
            phi[x] = y
            used.add(y)
            trail.append(x)
            pending = [x]
            while pending and ok:
                u = pending.pop()
                for v in range(n):
                    if phi[v] is None:
                        continue
                    for (p, q) in ((u, v), (v, u)):
                        w = a.mult[p][q]
                        img = b.mult[phi[p]][phi[q]]
                        if phi[w] is None:
                            if img in used:
                                ok = False
                                break
                            phi[w] = img
                            used.add(img)
                            trail.append(w)
                            pending.append(w)
                        elif phi[w] != img:
                            ok = False
                            break
                    if not ok:
                        break
            if ok and extend(x + 1):
                return True
            for t in trail:
                used.discard(phi[t])
                phi[t] = None
        return False

    if extend(0):
        return tuple(phi)
    return None


def old_recognize(group):
    """Catalogue name for a group, or a generic descriptor."""
    for name in groups._CATALOGUE:
        cand = groups.by_name(name)
        if cand.order == group.order and old_find_isomorphism(group, cand) is not None:
            return cand.name
    return "group of order %d" % group.order
