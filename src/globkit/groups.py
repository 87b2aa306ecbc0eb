"""Finite groups as multiplication tables, plus isomorphism search.

Elements are dense integers, the identity is always element 0.  This is
enough group theory for building strict models and naming the homotopy
groups that come out of the quotient constructions.
"""

from __future__ import annotations

import itertools

from .globe import GlobkitError


class GroupError(GlobkitError):
    pass


class Group:
    """A named finite group: `mult[a][b]` is a * b.  The group laws are
    checked on construction; groups are compared, hashed and printed by
    name and table."""

    __slots__ = ("name", "mult")

    def __init__(self, name, mult):
        self.name, self.mult = name, mult
        n = len(self.mult)

        def law(holds, what):
            if not holds:
                raise GroupError("group %s violates the group laws: %s" % (self.name, what))

        law(n >= 1, "the table is empty")
        law(all(len(row) == n for row in self.mult), "the table is not %d x %d" % (n, n))
        law(all(isinstance(x, int) and 0 <= x < n for row in self.mult for x in row),
            "a product is not one of the %d elements" % n)
        law(all(self.mult[0][a] == a and self.mult[a][0] == a for a in range(n)),
            "element 0 is not the identity")
        m = self.mult
        for a, b, c in itertools.product(range(n), repeat=3):
            if m[m[a][b]][c] != m[a][m[b][c]]:
                law(False, "(%d*%d)*%d != %d*(%d*%d)" % (a, b, c, a, b, c))
        for a in range(n):
            law(any(self.mult[a][b] == 0 for b in range(n)), "element %d has no inverse" % a)

    def __eq__(self, other):
        if type(other) is not Group:
            return NotImplemented
        return (self.name, self.mult) == (other.name, other.mult)

    def __hash__(self):
        return hash((self.name, self.mult))

    def __repr__(self):
        return "Group(name=%r, mult=%r)" % (self.name, self.mult)

    @property
    def order(self):
        return len(self.mult)

    def op(self, a, b):
        return self.mult[a][b]

    def inv(self, a):
        return next(b for b in range(self.order) if self.mult[a][b] == 0)

    def is_abelian(self):
        n = self.order
        return all(self.mult[a][b] == self.mult[b][a] for a in range(n) for b in range(n))

    def element_order(self, a):
        k, x = 1, a
        while x != 0:
            x = self.mult[x][a]
            k += 1
        return k


def cyclic(n):
    mult = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return Group("Z%d" % n, mult)


def product(g, h, name=None):
    pairs = [(a, b) for a in range(g.order) for b in range(h.order)]
    index = {p: i for i, p in enumerate(pairs)}
    mult = tuple(
        tuple(index[(g.op(a1, a2), h.op(b1, b2))] for (a2, b2) in pairs)
        for (a1, b1) in pairs
    )
    return Group(name or "%sx%s" % (g.name, h.name), mult)


def symmetric(n):
    if not 2 <= n <= 4:
        raise GroupError("symmetric groups are built for n = 2..4, not %r" % (n,))
    perms = sorted(itertools.permutations(range(n)))
    ident = tuple(range(n))
    perms.remove(ident)
    perms.insert(0, ident)
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p∘q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    mult = tuple(tuple(index[compose(p, q)] for q in perms) for p in perms)
    return Group("S%d" % n, mult)


def dihedral(n):
    """Symmetries of the regular n-gon: 2n elements (rot k, flip f)."""
    elems = [(k, f) for f in (0, 1) for k in range(n)]
    elems.remove((0, 0))
    elems.insert(0, (0, 0))
    index = {e: i for i, e in enumerate(elems)}

    def op(x, y):
        (k1, f1), (k2, f2) = x, y
        k = (k1 + k2) % n if f1 == 0 else (k1 - k2) % n
        return (k, f1 ^ f2)

    mult = tuple(tuple(index[op(x, y)] for y in elems) for x in elems)
    return Group("D%d" % n, mult)


def quaternion8():
    # elements: 1, -1, i, -i, j, -j, k, -k  encoded as (axis, sign)
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def op(a, b):
        # quaternion unit products with signs
        prod = {
            ("i", "i"): ("1", -1), ("j", "j"): ("1", -1), ("k", "k"): ("1", -1),
            ("i", "j"): ("k", 1), ("j", "i"): ("k", -1),
            ("j", "k"): ("i", 1), ("k", "j"): ("i", -1),
            ("k", "i"): ("j", 1), ("i", "k"): ("j", -1),
            ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1),
            ("1", "k"): ("k", 1), ("i", "1"): ("i", 1), ("j", "1"): ("j", 1),
            ("k", "1"): ("k", 1),
        }
        sa = -1 if a.startswith("-") else 1
        sb = -1 if b.startswith("-") else 1
        ua, ub = a.lstrip("-"), b.lstrip("-")
        u, s = prod[(ua, ub)]
        s *= sa * sb
        return ("" if s == 1 else "-") + u

    index = {x: i for i, x in enumerate(names)}
    mult = tuple(tuple(index[op(a, b)] for b in names) for a in names)
    return Group("Q8", mult)


def klein4():
    return product(cyclic(2), cyclic(2), "V4")


_NAMED = {}


def by_name(name):
    """Look up a group by a short name like Z3, S3, V4, D4, Q8, Z2xZ4."""
    if not _NAMED:
        for n in range(1, 13):
            g = cyclic(n)
            _NAMED[g.name] = g
        _NAMED["V4"] = klein4()
        _NAMED["Z2xZ2"] = _NAMED["V4"]
        _NAMED["Z2xZ4"] = product(cyclic(2), cyclic(4))
        _NAMED["Z2xZ2xZ2"] = product(cyclic(2), klein4(), "Z2xZ2xZ2")
        for n in (2, 3, 4):
            g = symmetric(n)
            _NAMED[g.name] = g
        _NAMED["D4"] = dihedral(4)
        _NAMED["Q8"] = quaternion8()
    if name not in _NAMED:
        raise KeyError("unknown group name %r" % name)
    return _NAMED[name]


def find_isomorphism(a, b):
    """A group isomorphism a -> b as the tuple of images, or None.

    Each choice of images, of matching orders, for a greedy generating set of
    a extends phi from the identity by phi(x s) = phi(x) phi(s) for each
    generator s.  The first choice under which no element gets two images
    and phi is bijective is an isomorphism, by induction on word length."""
    if a.order != b.order:
        return None
    n = a.order
    orders_a, orders_b = ([g.element_order(x) for x in range(n)] for g in (a, b))
    if sorted(orders_a) != sorted(orders_b):
        return None
    gens, reached, edges = [], [0], []
    for x in range(1, n):
        if x not in reached:
            gens.append(x)
            reached, edges = _cayley_walk(a, gens)
    for images in itertools.product(*[[y for y in range(n) if orders_b[y] == orders_a[s]]
                                      for s in gens]):
        phi = [0] + [None] * (n - 1)
        for x, i, w in edges:
            img = b.mult[phi[x]][images[i]]
            if phi[w] is None:
                phi[w] = img
            elif phi[w] != img:
                break
        else:
            if len(set(phi)) == n:
                return tuple(phi)
    return None


def _cayley_walk(a, gens):
    """The elements reached from the identity by right multiplication by
    `gens`, in the order first reached, and the edges (x, i, x gens[i]) from
    them, each after the edge that first reaches its x."""
    reached, edges = [0], []
    for x in reached:
        for i, s in enumerate(gens):
            w = a.mult[x][s]
            edges.append((x, i, w))
            if w not in reached:
                reached.append(w)
    return reached, edges


_CATALOGUE = [
    "Z1", "Z2", "Z3", "Z4", "V4", "Z5", "Z6", "S3", "Z7", "Z8", "Z2xZ4",
    "Z2xZ2xZ2", "D4", "Q8", "Z9", "Z10", "Z11", "Z12", "S4",
]


def recognize(group):
    """Catalogue name for a group, or a generic descriptor."""
    for name in _CATALOGUE:
        cand = by_name(name)
        if cand.order == group.order and find_isomorphism(group, cand) is not None:
            return cand.name
    return "group of order %d" % group.order


class CrossedModule:
    """A boundary map d : A -> G with a G-action on A.

    `grp` is G, the base group, `agrp` A, the fiber group, `boundary[a]` is
    d(a) and `action[g][a]` is g.a.  Satisfies equivariance
    d(g.a) = g d(a) g^-1 and the Peiffer rule d(a).b = a b a^-1; both are
    checked on construction.
    """

    __slots__ = ("grp", "agrp", "boundary", "action")

    def __init__(self, grp, agrp, boundary, action):
        self.grp, self.agrp, self.boundary, self.action = grp, agrp, boundary, action
        G, A, d, act = grp, agrp, boundary, action

        def law(holds, what):
            if not holds:
                raise GroupError("crossed module data violates its laws: %s" % what)

        law(len(d) == A.order and len(act) == G.order
            and all(len(row) == A.order for row in act), "table sizes")
        law(d[0] == 0, "the boundary does not fix the identity")
        for a, b in itertools.product(range(A.order), repeat=2):
            law(d[A.op(a, b)] == G.op(d[a], d[b]), "the boundary is not a homomorphism")
        for g in range(G.order):
            law(act[g][0] == 0, "the action does not fix the identity")
            for a, b in itertools.product(range(A.order), repeat=2):
                law(act[g][A.op(a, b)] == A.op(act[g][a], act[g][b]),
                    "the action is not by homomorphisms")
        for g, h in itertools.product(range(G.order), repeat=2):
            for a in range(A.order):
                law(act[G.op(g, h)][a] == act[g][act[h][a]], "the action is not a group action")
        for g in range(G.order):
            for a in range(A.order):
                law(d[act[g][a]] == G.op(G.op(g, d[a]), G.inv(g)),
                    "the boundary is not equivariant")
        for a, b in itertools.product(range(A.order), repeat=2):
            law(act[d[a]][b] == A.op(A.op(a, b), A.inv(a)), "the Peiffer rule fails")

    def act(self, g, a):
        return self.action[g][a]


def trivial_xmod(grp, agrp):
    """Crossed module with zero boundary and trivial action; needs A central-ish data only."""
    if not agrp.is_abelian():
        raise GroupError("a trivial crossed module needs an abelian fiber, not %s" % agrp.name)
    boundary = tuple(0 for _ in range(agrp.order))
    action = tuple(tuple(range(agrp.order)) for _ in range(grp.order))
    return CrossedModule(grp, agrp, boundary, action)


def inclusion_xmod(grp):
    """The identity boundary G -> G acting by conjugation."""
    boundary = tuple(range(grp.order))
    action = tuple(
        tuple(grp.op(grp.op(g, a), grp.inv(g)) for a in range(grp.order))
        for g in range(grp.order)
    )
    return CrossedModule(grp, grp, boundary, action)
