"""Finite groupoids as a home for the fundamental-groupoid comparison.

Cofibrations are functors injective on objects and weak equivalences are
equivalences of groupoids; every object is fibrant.  The globe diagram built
here takes the point in dimension 0 and the two-object contractible groupoid
in every positive dimension.  A realized sum of disks is then a line of
blocks (runs of disks glued along positive dimensions), each a single arrow,
so the sum is thin and fillers for admissible pairs are unique: a
generator's filler is the one arrow between the two objects its boundary
picks, the 0-faces of its boundary terms.

The fundamental model of a groupoid X has the objects of X as 0-cells and
the arrows of X as n-cells for every n >= 1; generator interpretations are
computed by pasting a tuple of cells into a functor on the realized sum and
restricting along the interpreted generator.  The Quillen-side constructions
(path objects, loop objects, homotopy classes of cylinders) are built
concretely and compared against the quotient pipeline.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, partial

from . import coherator as coh
from . import groups
from .globe import GlobkitError, Table, realize_sum
from .model import Model, _is_index, _json_field, product_spec, strict_carrier


class GroupoidError(GlobkitError):
    pass


class Groupoid:
    """Objects 0..n-1, arrows with boundaries, composition/identity/inverse:
    `comp[g][f]` is g after f, or None, and `ident[x]` the identity at x.

    Groupoids are compared, hashed and printed by these six fields.  What
    they alone determine is kept on the instance once computed and dies with
    it: the lists of arrows by object and by hom-set, and the loop object at
    each base object (`loop_object`)."""

    def __init__(self, n_objects, src, tgt, comp, ident, inv):
        self.n_objects, self.src, self.tgt = n_objects, src, tgt
        self.comp, self.ident, self.inv = comp, ident, inv

    def _key(self):
        return self.n_objects, self.src, self.tgt, self.comp, self.ident, self.inv

    def __eq__(self, other):
        if type(other) is not Groupoid:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return ("Groupoid(n_objects=%r, src=%r, tgt=%r, comp=%r, ident=%r, inv=%r)"
                % self._key())

    @property
    def n_arrows(self):
        return len(self.src)

    def compose(self, g, f):
        out = self.comp[g][f]
        if out is None:
            raise GroupoidError("arrows %d after %d are not composable" % (g, f))
        return out

    @cached_property
    def _in_out(self):
        return _in_out_lists(self.n_objects, self.src, self.tgt)

    @cached_property
    def _homs(self):
        out = {}
        for a, key in enumerate(zip(self.src, self.tgt)):
            out.setdefault(key, []).append(a)
        return {key: tuple(arrs) for key, arrs in out.items()}

    @cached_property
    def _loop_objects(self):
        """What `loop_object` built, by base object: (Omega, c_x, loops)."""
        return {}

    def hom(self, x, y):
        """The arrows x -> y, ascending."""
        return self._homs.get((x, y), ())

    def validate(self):
        n, arrows = self.n_objects, self.n_arrows
        src, tgt, comp = self.src, self.tgt, self.comp
        for a in range(arrows):
            if not (0 <= src[a] < n and 0 <= tgt[a] < n):
                raise GroupoidError("arrow %d has boundaries out of range" % a)
        for x in range(n):
            e = self.ident[x]
            if src[e] != x or tgt[e] != x:
                raise GroupoidError("no identity at object %d" % x)
        into, outof = self._in_out
        for g in range(arrows):
            row = comp[g]
            # None exactly at the non-composable pairs: none among the
            # composable ones, and as many as there are non-composable ones
            composable = into[src[g]]
            if row.count(None) != arrows - len(composable):
                raise GroupoidError("composability table wrong in row %d" % g)
            for f in composable:
                val = row[f]
                if val is None:
                    raise GroupoidError("composability table wrong at (%d, %d)" % (g, f))
                if src[val] != src[f] or tgt[val] != tgt[g]:
                    raise GroupoidError("composite (%d, %d) has wrong boundaries" % (g, f))
        for f in range(arrows):
            if comp[f][self.ident[src[f]]] != f:
                raise GroupoidError("right identity law fails at arrow %d" % f)
            if comp[self.ident[tgt[f]]][f] != f:
                raise GroupoidError("left identity law fails at arrow %d" % f)
        for g in range(arrows):
            for f in into[src[g]]:
                for h in outof[tgt[g]]:
                    if comp[h][comp[g][f]] != comp[comp[h][g]][f]:
                        raise GroupoidError(
                            "composition not associative at (%d, %d, %d)" % (h, g, f))
        for f in range(arrows):
            i = self.inv[f]
            if src[i] != tgt[f] or tgt[i] != src[f]:
                raise GroupoidError("arrow %d has no inverse" % f)
            if comp[i][f] != self.ident[src[f]] or comp[f][i] != self.ident[tgt[f]]:
                raise GroupoidError("inverse law fails at arrow %d" % f)
        return self

    def iso_classes(self):
        """Partition of objects by isomorphism."""
        classes = []
        for x in range(self.n_objects):
            for cl in classes:
                if self.hom(cl[0], x):
                    cl.append(x)
                    break
            else:
                classes.append([x])
        return [tuple(c) for c in classes]

    def loops(self, x):
        """The loops at an object in vertex-group order: the identity first,
        the other loops ascending."""
        check_object(self, x)
        return [self.ident[x]] + [a for a in self.hom(x, x) if a != self.ident[x]]

    def aut_group(self, x):
        """The vertex group at an object and its loops, element i being
        `loops(x)[i]`.  It is the one vertex group: `homotopy.pi_n_at` reads
        it, and `quillen_pi1` builds its table on the same loops."""
        loops = self.loops(x)
        index = {a: i for i, a in enumerate(loops)}
        mult = tuple(tuple(index[self.comp[a][b]] for b in loops) for a in loops)
        return groups.Group("Aut(%d)" % x, mult), loops


def check_object(X, x):
    """Refuse a base object x that is not one of X's objects."""
    if not 0 <= x < X.n_objects:
        raise GroupoidError("object %d out of range: the groupoid has %d objects"
                            % (x, X.n_objects))


def _in_out_lists(n_objects, src, tgt):
    """The arrows into and out of each object, ascending."""
    into = [[] for _ in range(n_objects)]
    outof = [[] for _ in range(n_objects)]
    for f, (x, y) in enumerate(zip(src, tgt)):
        into[y].append(f)
        outof[x].append(f)
    return into, outof


def build_groupoid(n_objects, arrows, compose_fn):
    """Assemble a groupoid from arrow boundary data and a partial composition.

    `compose_fn(g, f)` is called once per composable pair; identities and
    inverses are searched among each object's incoming and outgoing arrows.
    """
    src = tuple(a[0] for a in arrows)
    tgt = tuple(a[1] for a in arrows)
    n = len(arrows)
    if n_objects > n:
        raise GroupoidError("%d objects need as many identity arrows, but there are "
                            "%d arrows" % (n_objects, n))
    for a in range(n):
        if not (0 <= src[a] < n_objects and 0 <= tgt[a] < n_objects):
            raise GroupoidError("arrow %d has boundaries out of range" % a)
    into, outof = _in_out_lists(n_objects, src, tgt)
    comp = []
    for g in range(n):
        row = [None] * n
        for f in into[src[g]]:
            row[f] = compose_fn(g, f)
        comp.append(tuple(row))
    ident = []
    for x in range(n_objects):
        e = next((f for f in outof[x] if tgt[f] == x
                  and all(comp[f][g] == g for g in into[x])), None)
        if e is None:
            raise GroupoidError("no identity at object %d" % x)
        ident.append(e)
    inv = []
    for f in range(n):
        g = next((g for g in outof[tgt[f]] if tgt[g] == src[f]
                  and comp[g][f] == ident[src[f]]), None)
        if g is None:
            raise GroupoidError("arrow %d has no inverse" % f)
        inv.append(g)
    return Groupoid(n_objects, src, tgt, tuple(comp), tuple(ident), tuple(inv)).validate()


def point():
    return codiscrete(1)


def discrete(k):
    return disjoint_union(*[point()] * k)


def codiscrete(k):
    """Exactly one arrow between each ordered pair of objects."""
    return connected_groupoid(k, groups.cyclic(1))


def one_object(group):
    return connected_groupoid(1, group)


def connected_groupoid(k, group):
    """k objects, all isomorphic, with the given vertex group."""
    arrows = [(x, y, a) for x in range(k) for y in range(k) for a in range(group.order)]
    index = {t: i for i, t in enumerate(arrows)}

    def compose_fn(g, f):
        (y1, z, a), (x, y2, b) = arrows[g], arrows[f]
        return index[(x, z, group.op(a, b))]

    return build_groupoid(k, [(t[0], t[1]) for t in arrows], compose_fn)


def disjoint_union(*parts):
    """The parts side by side, numbered part after part; each composite is
    read from the part its arrows belong to."""
    arrows, owner, n_objects = [], [], 0
    for part in parts:
        owner += [(part, len(arrows))] * part.n_arrows
        arrows += [(x + n_objects, y + n_objects) for x, y in zip(part.src, part.tgt)]
        n_objects += part.n_objects

    def compose_fn(g, f):
        part, base = owner[g]
        return part.comp[g - base][f - base] + base

    return build_groupoid(n_objects, arrows, compose_fn)


class GFunctor:
    """A functor of groupoids, by its maps on objects and on arrows."""

    __slots__ = ("source", "target", "obj_map", "arr_map")

    def __init__(self, source, target, obj_map, arr_map):
        self.source, self.target, self.obj_map, self.arr_map = source, target, obj_map, arr_map

    def validate(self):
        s, t = self.source, self.target
        for a in range(s.n_arrows):
            if t.src[self.arr_map[a]] != self.obj_map[s.src[a]] or \
                    t.tgt[self.arr_map[a]] != self.obj_map[s.tgt[a]]:
                raise GroupoidError("functor does not respect boundaries at %d" % a)
        for x in range(s.n_objects):
            if self.arr_map[s.ident[x]] != t.ident[self.obj_map[x]]:
                raise GroupoidError("functor does not respect identities at %d" % x)
        into = s._in_out[0]
        for g in range(s.n_arrows):
            for f in into[s.src[g]]:
                if self.arr_map[s.comp[g][f]] != t.comp[self.arr_map[g]][self.arr_map[f]]:
                    raise GroupoidError("functor does not respect composition")
        return self

    def injective_on_objects(self):
        return len(set(self.obj_map)) == len(self.obj_map)

    def on_homs(self, x, y):
        """(injective, surjective) on the arrows x -> y."""
        dom = self.source.hom(x, y)
        img = {self.arr_map[a] for a in dom}
        return (len(img) == len(dom),
                img == set(self.target.hom(self.obj_map[x], self.obj_map[y])))

    def is_equivalence(self):
        s, t = self.source, self.target
        for y in range(t.n_objects):
            if not any(t.hom(self.obj_map[x], y) for x in range(s.n_objects)):
                return False
        return all(all(self.on_homs(x, y))
                   for x in range(s.n_objects) for y in range(s.n_objects))


def compose_functors(g, f):
    return GFunctor(f.source, g.target,
                    tuple(g.obj_map[x] for x in f.obj_map),
                    tuple(g.arr_map[a] for a in f.arr_map)).validate()


def is_contractible(gpd):
    """Equivalent to the point: connected with trivial automorphisms."""
    return len(gpd.iso_classes()) == 1 and all(
        len(gpd.hom(x, x)) == 1 for x in range(gpd.n_objects))


# ---------------------------------------------------------------------------
# The globe diagram and its folk-class validators

class GlobeDiagram:
    """The disks D(n) (`disks[n]`), the functors sigma[n], tau[n] :
    D(n-1) -> D(n) (from index 1), the objects of each latching sum S(n-1)
    (`sphere_objects`), the object maps i_n : S(n-1) -> D(n) (`i_obj`) and
    the collapse witnesses p_n : D(n) -> D(n-1) (`collapse`, from index 1)."""

    __slots__ = ("trunc", "disks", "sigma", "tau", "sphere_objects", "i_obj", "collapse")

    def __init__(self, trunc, disks, sigma, tau, sphere_objects, i_obj, collapse):
        self.trunc, self.disks, self.sigma, self.tau = trunc, disks, sigma, tau
        self.sphere_objects, self.i_obj, self.collapse = sphere_objects, i_obj, collapse


def globe_diagram(trunc):
    """Point in dimension 0, two-object contractible groupoid above it."""
    pt = point()
    c2 = codiscrete(2)
    disks = [pt] + [c2 for _ in range(trunc)]
    sigma, tau = [None], [None]
    id_c2 = GFunctor(c2, c2, (0, 1), tuple(range(4))).validate()
    s1 = GFunctor(pt, c2, (0,), (c2.ident[0],)).validate()
    t1 = GFunctor(pt, c2, (1,), (c2.ident[1],)).validate()
    sigma.append(s1)
    tau.append(t1)
    for n in range(2, trunc + 1):
        sigma.append(id_c2)
        tau.append(id_c2)
    sphere_objects = [[]]           # S(-1) is empty
    i_obj = [()]                    # i_0 : empty -> D(0)
    sphere_objects.append([0, 1])   # S(0) = two points
    i_obj.append((0, 1))            # i_1 = (tau_1, sigma_1) on objects
    for n in range(2, trunc + 1):
        # S(n-1) = D(n-1) +_{S(n-2)} D(n-1); with i_{n-1} surjective on
        # objects from n >= 2 on, the pushout keeps the same objects.
        sphere_objects.append([0, 1])
        i_obj.append((0, 1))
    collapse = [None, GFunctor(c2, pt, (0, 0), (0, 0, 0, 0)).validate()]
    for n in range(2, trunc + 1):
        collapse.append(id_c2)
    return GlobeDiagram(trunc, disks, sigma, tau, sphere_objects, i_obj, collapse)


def validate_globe_diagram(dg):
    """Folk-class checks: each i_n is a cofibration, each disk contractible."""
    for n in range(dg.trunc + 1):
        objs = dg.i_obj[n]
        if len(set(objs)) != len(objs):
            raise GroupoidError("i_%d is not injective on objects" % n)
        if not is_contractible(dg.disks[n]):
            raise GroupoidError("disk %d is not weakly contractible" % n)
    for n in range(1, dg.trunc + 1):
        p, s, t = dg.collapse[n], dg.sigma[n], dg.tau[n]
        lo = dg.disks[n - 1]
        if compose_functors(p, s).obj_map != tuple(range(lo.n_objects)) or \
                compose_functors(p, t).obj_map != tuple(range(lo.n_objects)):
            raise GroupoidError("collapse %d is not a retraction of s/t" % n)
        if not p.is_equivalence():
            raise GroupoidError("collapse %d is not an equivalence" % n)
    for n in range(2, dg.trunc + 1):
        if compose_functors(dg.sigma[n], dg.sigma[n - 1]).obj_map != \
                compose_functors(dg.tau[n], dg.sigma[n - 1]).obj_map:
            raise GroupoidError("coglobular relation fails at %d" % n)
    return True


# ---------------------------------------------------------------------------
# Realized sums of disks in groupoids

def thin_walk(table, o_from, o_to):
    """The arrow o_from -> o_to of the thin sum on `table` as a path of legs,
    read off its line of blocks: block b runs from its source object to the
    source of block b - 1, and block 0 to its own target.

    Returns `((leg, side), steps)`.  The start names the leg that gives
    o_from's object image: side 0 when the leg's cell is an object, 1 or 2
    when it is the source or target of the leg's arrow.  Each step
    `(leg, invert)` composes the leg's arrow, or its inverse, after the path
    so far; each block is passed by its first leg.  `walk_arrow` folds the
    path over an element of the fiber product.
    """
    legs = realize_sum(table).legs
    firsts = [k for k in range(table.width) if k == 0 or table.lower[k - 1] == 0]
    # the objects in line order: block 0's target, then each block's source
    line = legs[0][0][1:] + tuple(legs[k][0][0] for k in firsts)
    i, j = line.index(o_from), line.index(o_to)
    k = firsts[max(i - 1, 0)]
    objs = legs[k][0]
    start = (k, 0 if len(objs) == 1 else 1 + objs.index(o_from))
    if j < i:
        return start, tuple((firsts[b], False) for b in range(i - 1, j - 1, -1))
    return start, tuple((firsts[b], True) for b in range(i, j))


def walk_arrow(X, walk, cells):
    """The image in X of a `thin_walk` under the pasting of `cells`, a
    fiber-product element with objects of X on 0-disks and arrows above."""
    (k, side), steps = walk
    c = cells[k]
    arr = X.ident[c if side == 0 else X.src[c] if side == 1 else X.tgt[c]]
    comp, inv = X.comp, X.inv
    for k, invert in steps:
        a = cells[k]
        arr = comp[inv[a] if invert else a][arr]
    return arr


class TowerGpdInterp:
    """Interpretation of a tower in the groupoid globe diagram.

    Targets are thin, so a generator's filler is the one arrow of its
    realized sum between the two objects its boundary picks, and its image
    under a pasting is that arrow's walk folded over the fiber product.
    Generators are interpreted on demand, so later auto-declared liftings
    are covered too.
    """

    def __init__(self, tower):
        self.tower = tower
        self.walks = {}

    def interpret_all(self):
        for gen in self.tower.gens():
            self.walk(gen)
        return self

    def gen(self, g):
        """The objects of g's realized sum that its filler joins: the source
        0-face of its source boundary and the target 0-face of its target
        boundary, read off their normal forms, which are concrete maps."""
        return (_zero_face(g.fsrc, "s"), _zero_face(g.gtgt, "t"))

    def walk(self, g):
        """The pasting walk of a generator's filler, from the first to the
        second object of `gen(g)` (`thin_walk`), found once."""
        if g.name not in self.walks:
            self.walks[g.name] = thin_walk(g.target, *self.gen(g))
        return self.walks[g.name]


def _zero_face(term, kind):
    """The 0-cell that the s or t 0-face of a disk-sourced term hits."""
    face = coh.compose(term, coh.wordt(kind, 0, term.source.upper[0]))
    return face.cells[0]


def fundamental(X, tower, interp=None):
    """The fundamental model of a finite groupoid over an interpreted tower."""
    interp = interp or TowerGpdInterp(tower)
    tower.seal()
    label = "Pi(%d objects, %d arrows)" % (X.n_objects, X.n_arrows)
    carrier, units = strict_carrier(product_spec(X, groups.cyclic(1), 2, label), tower.trunc)

    def filler(model, gen):
        walk = interp.walk(gen)
        return {x: walk_arrow(X, walk, x) for x in model.cells(gen.target)}

    return Model(tower, carrier, {}, filler, units, label)


# ---------------------------------------------------------------------------
# Quillen-side constructions

class PathObject:
    """The path object `P` with its functor `r` from X; `squares[i]` is
    (u, v, h, k), a square from arrow u to arrow v.  A path object can be
    weakly referenced, as `perfbench`'s tracer does to count its squares
    once."""

    __slots__ = ("P", "r", "squares", "__weakref__")

    def __init__(self, P, r, squares):
        self.P, self.r, self.squares = P, r, squares


def path_object(X):
    """The arrow groupoid of X: objects are arrows, morphisms are squares."""
    sqs = []
    for u in range(X.n_arrows):
        for v in range(X.n_arrows):
            for h in X.hom(X.src[u], X.src[v]):
                k_arr = X.comp[v][h]
                k = X.comp[k_arr][X.inv[u]]
                if X.comp[k][u] == X.comp[v][h]:
                    sqs.append((u, v, h, k))
    index = {s: i for i, s in enumerate(sqs)}

    def compose_fn(g, f):
        (u2, v2, h2, k2), (u1, v1, h1, k1) = sqs[g], sqs[f]
        return index[(u1, v2, X.comp[h2][h1], X.comp[k2][k1])]

    P = build_groupoid(X.n_arrows, [(s[0], s[1]) for s in sqs], compose_fn)
    r_obj = tuple(X.ident[x] for x in range(X.n_objects))
    r_arr = tuple(index[(X.ident[X.src[a]], X.ident[X.tgt[a]], a, a)]
                  for a in range(X.n_arrows))
    r = GFunctor(X, P, r_obj, r_arr).validate()
    return PathObject(P, r, tuple(sqs))


def loop_object(X, x):
    """The pullback of the path object against the doubled base point.

    Built from that definition, without the path object: the objects are
    the loops u at x in ascending arrow order, and the arrows are the
    squares (u, v, id_x, id_x), those with v . id_x == id_x . u in X.
    Returns (Omega, base object index, object labels); the groupoid is
    discrete.  X keeps Omega, so each object's is built once; the labels
    are a fresh list on every call.
    """
    check_object(X, x)
    if x not in X._loop_objects:
        e = X.ident[x]
        loops = X.hom(x, x)
        arrows = [(i, j) for i, u in enumerate(loops) for j, v in enumerate(loops)
                  if X.comp[v][e] == X.comp[e][u]]
        index = {a: i for i, a in enumerate(arrows)}
        omega = build_groupoid(len(loops), arrows,
                               lambda g, f: index[(arrows[f][0], arrows[g][1])])
        X._loop_objects[x] = omega, loops.index(e), loops
    omega, c_x, loops = X._loop_objects[x]
    return omega, c_x, list(loops)


def pi0_gpd(X):
    """Connected components: homotopy classes of points."""
    return len(X.iso_classes())


@cache
def _cylinder_walk():
    """The walk of the filler of (eps2.s1, eps1.t1) on D1 +0 D1, from its
    source end to its target end: loops compose along it."""
    tab = Table((1, 1), (0,))
    legs = realize_sum(tab).legs
    return thin_walk(tab, legs[1][0][0], legs[0][0][1])


def quillen_pi1(X, x):
    """The fundamental group two ways: cylinder classes and loop components.

    Classes of homotopies from x to x compose through the filler of the
    two-cylinder pasting; the loop object's components give the same set.
    Both the group table, on `X.loops(x)` in that order, and the agreement
    of the two routes are returned.  The loop object is the one X keeps.
    """
    loops = X.loops(x)
    walk = _cylinder_walk()
    index = {a: i for i, a in enumerate(loops)}
    mult = tuple(tuple(index[walk_arrow(X, walk, (a, b))] for b in loops)
                 for a in loops)
    grp = groups.Group("pi1(%d)" % x, mult)
    omega, c_x, olabels = loop_object(X, x)
    if pi0_gpd(omega) != grp.order or sorted(olabels) != sorted(loops):
        raise GroupoidError("loop-object components disagree with cylinder classes")
    return grp, loops, omega


def quillen_pi_n(X, x, n):
    """Higher homotopy groups by looping.

    The loop object is discrete, so looping soon returns the groupoid it
    started from; from there every further loop is the same.  Each groupoid
    keeps its loop objects, so a larger n walks the chain a smaller n built.
    """
    check_object(X, x)
    if n < 1:
        raise GroupoidError("pi_n by looping needs n >= 1, got %d" % n)
    while n > 1:
        omega, c_x, _ = loop_object(X, x)
        if (omega, c_x) == (X, x):
            break
        X, x, n = omega, c_x, n - 1
    return quillen_pi1(X, x)[0]


# ---------------------------------------------------------------------------
# The comparison harness

class ComparisonReport:
    """What `compare` found: pi_0 both ways, `pi1` by object as (model group
    name, aut group name), and whether every higher group is trivial."""

    __slots__ = ("pi0_model", "pi0_gpd", "pi1", "higher_trivial")

    def __init__(self, pi0_model, pi0_gpd, pi1, higher_trivial):
        self.pi0_model, self.pi0_gpd, self.pi1 = pi0_model, pi0_gpd, pi1
        self.higher_trivial = higher_trivial

    def _key(self):
        return self.pi0_model, self.pi0_gpd, self.pi1, self.higher_trivial

    def __eq__(self, other):
        if type(other) is not ComparisonReport:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return ("ComparisonReport(pi0_model=%r, pi0_gpd=%r, pi1=%r, higher_trivial=%r)"
                % self._key())

    def ok(self):
        return self.pi0_model == self.pi0_gpd and self.higher_trivial and \
            all(a == b for (a, b) in self.pi1.values())


def compare(X, tower, bundle, interp=None, check=False):
    """Compare the quotient pipeline on the fundamental model with the
    groupoid-side constructions; any disagreement raises."""
    from . import homotopy as H

    interp = interp or TowerGpdInterp(tower)
    model = fundamental(X, tower, interp)
    if check:
        bad = model.check()
        if bad:
            raise GroupoidError("fundamental model fails checks: %s" % bad[:3])
    _, classes = H.pi0(model)
    n_iso = len(X.iso_classes())
    if len(classes) != n_iso:
        raise GroupoidError("pi0 disagreement: %d vs %d" % (len(classes), n_iso))
    # one pi-groupoid per n, read at the iterated unit of each object
    pgs = {n: H.pi_groupoid(model, bundle, n) for n in range(1, tower.trunc)}

    def pi_n_model(n, x):
        return H.pi_n_at(pgs[n], n, H.iterated_unit(model, bundle, x, n - 1))[0]

    pi1 = {}
    for x in range(X.n_objects):
        aut, loops = X.aut_group(x)
        q_grp, q_loops, _ = quillen_pi1(X, x)
        # all three pipelines build their tables on the loops in one order
        if pi_n_model(1, x).mult != aut.mult:
            raise GroupoidError("pi1 at %d disagrees with Aut" % x)
        if q_loops != loops or q_grp.mult != aut.mult:
            raise GroupoidError("Quillen pi1 at %d disagrees with Aut" % x)
        name = groups.recognize(aut)
        pi1[x] = (name, name)
    higher = True
    for n in range(2, tower.trunc):
        for x in range(X.n_objects):
            if pi_n_model(n, x).order != 1:
                higher = False
            if quillen_pi_n(X, x, n).order != 1:
                higher = False
    report = ComparisonReport(len(classes), n_iso, pi1, higher)
    if not report.ok():
        raise GroupoidError("comparison failed: %s" % (report,))
    return report


# ---------------------------------------------------------------------------
# Groupoid files and the small corpus

def groupoid_to_json(X):
    return {
        "objects": X.n_objects,
        "arrows": [{"src": X.src[a], "tgt": X.tgt[a]} for a in range(X.n_arrows)],
        "compose": [[c if c is not None else None for c in row] for row in X.comp],
        "inverse": list(X.inv),
    }


_groupoid_field = partial(_json_field, file="groupoid file", error=GroupoidError)


def groupoid_from_json(data):
    """The groupoid of a file written by `groupoid_to_json`; a file of the
    wrong shape raises GroupoidError."""
    n = _groupoid_field(data, "objects", int, "the top level")
    if n < 0:
        raise GroupoidError("groupoid file: %d objects" % n)
    arrows = [(_groupoid_field(a, "src", int, "arrow %d" % i),
               _groupoid_field(a, "tgt", int, "arrow %d" % i))
              for i, a in enumerate(_groupoid_field(data, "arrows", list, "the top level"))]
    m = len(arrows)
    comp_table = _groupoid_field(data, "compose", list, "the top level")
    if len(comp_table) != m or not all(isinstance(row, list) and len(row) == m
                                       for row in comp_table):
        raise GroupoidError("groupoid file: 'compose' must be a %d x %d table, "
                            "a row and a column per arrow" % (m, m))

    def compose_fn(g, f):
        val = comp_table[g][f]
        if val is None:
            raise GroupoidError("missing composite (%d, %d)" % (g, f))
        if not _is_index(val, m):
            raise GroupoidError("groupoid file: composite (%d, %d) is %r, not one of "
                                "the %d arrows" % (g, f, val, m))
        return val

    gpd = build_groupoid(n, arrows, compose_fn)
    for g, row in enumerate(comp_table):
        for f, val in enumerate(row):
            if val is not None and gpd.comp[g][f] is None:
                raise GroupoidError("groupoid file: composite (%d, %d) is %r, but arrow %d "
                                    "does not start where arrow %d ends, so it must be null"
                                    % (g, f, val, g, f))
    inverse = data.get("inverse")
    if inverse is not None and (not isinstance(inverse, list) or tuple(inverse) != gpd.inv):
        raise GroupoidError("inverse table disagrees with the inverse law")
    for f, val in enumerate(inverse or ()):
        if not _is_index(val, m):
            raise GroupoidError("groupoid file: inverse of arrow %d is %r, not one of the "
                                "%d arrows" % (f, val, m))
    return gpd


def corpus(max_objects=3, max_arrows=8):
    """All groupoids with bounded objects and arrows, plus named examples.

    A groupoid is a disjoint union of connected groupoids; a connected piece
    with k objects and vertex group H contributes k^2 |H| arrows.  Each
    multiset of pieces within the bounds (so of at most as many pieces as
    objects and as arrows) is one union, ordered by its piece indices.
    """
    pieces = [("%dx%s" % (k, gname), connected_groupoid(k, groups.by_name(gname)))
              for k in (1, 2, 3)
              for gname in ("Z1", "Z2", "Z3", "Z4", "V4", "Z5", "Z6", "S3", "Z7",
                            "Z8", "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8")
              if k * k * groups.by_name(gname).order <= max_arrows]
    combos = sorted(
        combo for r in range(1, min(max_objects, max_arrows) + 1)
        for combo in itertools.combinations_with_replacement(range(len(pieces)), r)
        if sum(pieces[i][1].n_objects for i in combo) <= max_objects
        and sum(pieces[i][1].n_arrows for i in combo) <= max_arrows)
    named = [("corpus:%s" % "+".join(pieces[i][0] for i in combo),
              disjoint_union(*(pieces[i][1] for i in combo)))
             for combo in combos]
    named.append(("codiscrete3", codiscrete(3)))
    named.append(("discrete3", discrete(3)))
    return named
