"""Homotopy of finite models: quotient groupoids, homotopy groups, division.

Two n-cells are homotopic when some (n+1)-cell connects them.  The quotient
of n-cells by that relation, with composition, units, and inverses evaluated
from a chosen bundle of structural generators, forms a groupoid whose laws
are verified exactly; automorphism groups of iterated units are the homotopy
groups, each read by `gpd.Groupoid.aut_group`.  The division construction
whiskers by a fixed cell and builds an explicit inverse from auto-declared
correction liftings.  The weak-equivalence checker reads its four
characterizations off the functors a morphism induces on the pi-groupoids
and its bijection on pi_0; condition 4 asks for injectivity at the top
dimension, where the truncation cuts the surjectivity one dimension up that
would imply it.  It needs a truncation of at least 1.
"""

from __future__ import annotations

from . import coherator as coh
from . import gpd
from .coherator import compose, eps, gen_term, tuple_term, wordt
from .globe import GlobkitError, Table, sword, tword


class HomotopyError(GlobkitError):
    pass


class LawViolation(HomotopyError):
    """A groupoid law fails on homotopy classes: the model or tower is broken."""


def _check_cell(model, d, c, what):
    count = model.carrier.count(d)
    if not 0 <= c < count:
        raise HomotopyError("%s %d is not one of the %d %d-cells" % (what, c, count, d))


def _check_n(model, n, lowest, what):
    """Refuse an n outside lowest..trunc-1: reading homotopy classes of
    n-cells needs the (n+1)-cells."""
    top = model.trunc - 1
    if not lowest <= n <= top:
        allowed = "%d <= n <= %d" % (lowest, top) if lowest <= top else "no n"
        raise HomotopyError("%s at n = %d is out of range: truncation %d allows %s"
                            % (what, n, model.trunc, allowed))


def parallel_cells(model, n, a, b):
    if n == 0:
        return True
    return (model.carrier.source(n, a) == model.carrier.source(n, b)
            and model.carrier.target(n, a) == model.carrier.target(n, b))


def homotopic(model, n, a, b):
    """Is there an (n+1)-cell from a to b?  Exhaustive scan."""
    if not parallel_cells(model, n, a, b):
        raise HomotopyError("cells are not parallel")
    if n + 1 > model.trunc:
        raise HomotopyError("dimension %d exceeds the represented range" % (n + 1))
    return bool(hom(model, n + 1, a, b))


def hom(model, n, x, y):
    """The n-cells from the (n-1)-cell x to the (n-1)-cell y, ascending."""
    car = model.carrier
    return [c for c, ends in enumerate(zip(car.src[n], car.tgt[n])) if ends == (x, y)]


def hom_classes(model, n):
    """Quotient of n-cells by the homotopy relation, verified an equivalence.

    Returns (class_of, classes) with classes sorted by least member.
    """
    if n + 1 > model.trunc:
        raise HomotopyError("dimension %d exceeds the represented range" % (n + 1))
    cells = range(model.carrier.count(n))
    rel = set(zip(model.carrier.src[n + 1], model.carrier.tgt[n + 1]))
    for c in cells:
        if (c, c) not in rel:
            raise HomotopyError("homotopy relation not reflexive at %d-cell %d" % (n, c))
    for (a, b) in rel:
        if (b, a) not in rel:
            raise HomotopyError("homotopy relation not symmetric at (%d, %d)" % (a, b))
    related = {c: set() for c in cells}
    for (a, b) in rel:
        related[a].add(b)
    # A reflexive, symmetric relation is transitive iff related cells have
    # equal neighbourhoods.  Comparing each class's least cell with its
    # neighbours suffices: a neighbour placed in an earlier class would have
    # put that least cell there too.
    class_of = {}
    classes = []
    for c in cells:
        if c in class_of:
            continue
        for b in related[c]:
            if related[b] != related[c]:
                raise HomotopyError("homotopy relation not transitive")
            class_of[b] = len(classes)
        classes.append(tuple(sorted(related[c])))
    return dict(sorted(class_of.items())), classes


def pi_groupoid(model, bundle, n):
    """The groupoid of (n-1)-cells and homotopy classes of n-cells.

    Arrow i is class i of `hom_classes(model, n)`.  Composition is the
    bundle's, read on class members; `Groupoid.validate` checks the groupoid
    laws, and the bundle's unit and inverse must land on the groupoid's.
    Any failure is a LawViolation.
    """
    if n < 1:
        raise HomotopyError("pi groupoid needs n >= 1")
    return _pi_groupoid(model, bundle, n, hom_classes(model, n))


def _pi_groupoid(model, bundle, n, hom_cls):
    """`pi_groupoid` on the classes `hom_cls = hom_classes(model, n)`."""
    tower, car = model.tower, model.carrier
    class_of, classes = hom_cls
    arrows = [(car.source(n, cl[0]), car.target(n, cl[0])) for cl in classes]
    for i, cl in enumerate(classes):
        for c in cl[1:]:
            if (car.source(n, c), car.target(n, c)) != arrows[i]:
                raise LawViolation("homotopy class %d has unstable boundaries" % i)

    nab = model.interp_for(tower[bundle.comp_name(n, n - 1)])
    ka = model.interp_for(tower[bundle.unit_name(n - 1)])
    om = model.interp_for(tower[bundle.inv_name(n, n - 1)])

    def compose_fn(i, j):
        vals = {class_of[nab[(v, u)]] for v in classes[i] for u in classes[j]}
        if len(vals) != 1:
            raise LawViolation(
                "composition not constant on classes (%d, %d): %s" % (i, j, vals))
        return vals.pop()

    try:
        pg = gpd.build_groupoid(car.count(n - 1), arrows, compose_fn)
    except gpd.GroupoidError as e:
        raise LawViolation("the classes of %d-cells do not form a groupoid: %s" % (n, e))
    for o in range(pg.n_objects):
        if class_of[ka[(o,)]] != pg.ident[o]:
            raise LawViolation("the unit at %d-cell %d is not an identity class" % (n - 1, o))
    for i, cl in enumerate(classes):
        if {class_of[om[(c,)]] for c in cl} != {pg.inv[i]}:
            raise LawViolation("inversion on class %d is not constant or not the inverse" % i)
    return pg


def pi0(model):
    """Connected components: the quotient of objects by the homotopy relation."""
    class_of, classes = hom_classes(model, 0)
    return class_of, classes


def iterated_unit(model, bundle, c, n, start=0):
    """The degenerate n-cell over a `start`-cell c, through the bundle's units."""
    for d in range(start, n):
        c = model.interp_for(model.tower[bundle.unit_name(d)])[(c,)]
    return c


def pi_n_at(pg, n, u):
    """The group of classes of loops at an (n-1)-cell u in the pi-groupoid
    `pg = pi_groupoid(model, bundle, n)`, for n >= 1.

    This is `pg.aut_group(u)`: it returns (group, elements), element i being
    the class of group element i, the identity first and the other loops
    ascending.
    """
    grp, elems = pg.aut_group(u)
    if n >= 2 and not grp.is_abelian():
        raise LawViolation("homotopy group at dimension %d is not abelian" % n)
    return grp, elems


def pi_n(model, bundle, n, x=0):
    """Homotopy group (group, elements, pi-groupoid) at a base object for
    n >= 1, or the components for n = 0; the base must be a 0-cell either way."""
    _check_n(model, n, 0, "pi_n")
    _check_cell(model, 0, x, "base object")
    if n == 0:
        return pi0(model)
    u = iterated_unit(model, bundle, x, n - 1)
    pg = pi_groupoid(model, bundle, n)
    return pi_n_at(pg, n, u) + (pg,)


# ---------------------------------------------------------------------------
# The division construction

def _pair_table(n, i):
    return Table((n - 1, n - 1), (i,))


def _corrections(tower, bundle, n, i, side):
    """The correction liftings of the division scheme, one level at a time:
    yields (j, c_j, d_j) for j = i+2 .. n, declaring each lifting on first
    use as the next `auto.<k>` and caching it per tower.

    The level-j liftings lift the scheme term S_j : D_{n-1} -> D_{n-1} +_i
    D_{n-1}.  S_{i+2} whiskers by the inverse; each later S_j wraps S_{j-1}
    in the level-(j-1) corrections.  A lifting at level j is admissible only
    when j >= n-1, so for i <= n-4 the first declaration is refused, and
    otherwise the one wrap (j = n) takes corrections already of dimension
    n-1.  Once every level's liftings are cached, they are read off the
    cache and no scheme term is built."""
    levels = range(i + 2, n + 1)
    cached = [[tower.div_cache.get((n, i, j, which, side)) for which in "cd"] for j in levels]
    if all(all(names) for names in cached):
        for j, (c_name, d_name) in zip(levels, cached):
            yield j, tower[c_name], tower[d_name]
        return
    tab = _pair_table(n, i)
    nab = tower.term(bundle.comp_name(n - 1, i))
    om = tower.term(bundle.inv_name(n - 1, i))
    if side == "left":
        s = compose(tuple_term([compose(eps(tab, 0), om), nab], tab), nab)
    else:
        s = compose(tuple_term([nab, compose(eps(tab, 1), om)], tab), nab)
    leg = eps(tab, 1) if side == "left" else eps(tab, 0)
    for j in levels:
        if j > i + 2:
            tab_lo = _pair_table(n, j - 2)
            nab_lo = tower.term(bundle.comp_name(n - 1, j - 2))
            s = compose(tuple_term([gen_term(d_gen), compose(
                tuple_term([s, gen_term(c_gen)], tab_lo), nab_lo)], tab_lo), nab_lo)
        sw, tw = wordt("s", j - 1, n - 1), wordt("t", j - 1, n - 1)
        gens = []
        for which, lo, hi in (("c", compose(leg, sw), compose(s, sw)),
                              # the target-side correction runs from the iterated
                              # *target* of the scheme term: the level-(j+1)
                              # wrapping is ill-typed otherwise
                              ("d", compose(s, tw), compose(leg, tw))):
            key = (n, i, j, which, side)
            if key not in tower.div_cache:
                name = "auto.%d" % len(tower.div_cache)
                try:
                    tower.declare(name, lo, hi, auto=True)
                except coh.InadmissibleError as e:
                    raise HomotopyError(
                        "correction lifting at level %d is not admissible (%s); the "
                        "construction is limited to corrections at levels >= n-1" % (j, e))
                tower.div_cache[key] = name
            gens.append(tower[tower.div_cache[key]])
        c_gen, d_gen = gens
        yield j, c_gen, d_gen


class DivideResult:
    """The division maps on cells (`forward`, `backward`: cell -> cell) and
    on homotopy classes (`fwd_classes`, `bwd_classes`: class index -> class
    index); results are equal when their maps are."""

    __slots__ = ("forward", "backward", "fwd_classes", "bwd_classes")

    def __init__(self, forward, backward, fwd_classes, bwd_classes):
        self.forward, self.backward = forward, backward
        self.fwd_classes, self.bwd_classes = fwd_classes, bwd_classes

    def __eq__(self, other):
        if type(other) is not DivideResult:
            return NotImplemented
        return (self.forward, self.backward, self.fwd_classes, self.bwd_classes) == \
            (other.forward, other.backward, other.fwd_classes, other.bwd_classes)


def divide(model, bundle, n, i, gamma, u, v, side="left"):
    """Whisker by gamma in codimension n - i and build the explicit inverse.

    side='left' sends a to gamma * a, side='right' to a * gamma; both return
    verified mutually-inverse bijections on homotopy classes.
    """
    _check_n(model, n, 2, "division")
    if not 0 <= i < n - 1:
        raise HomotopyError("division needs 0 <= i < n-1")
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

    def w(table, a, b):
        return table[(a, b)] if side == "left" else table[(b, a)]

    hom_uv = hom(model, n, u, v)
    hom_uv2 = hom(model, n, w(nab, up, u), w(nab, vp, v))
    forward = {a: w(nab_n, gamma, a) for a in hom_uv}
    if not set(forward.values()) <= set(hom_uv2):
        raise HomotopyError("whiskering left the expected hom-set")

    # corrections (levels i+2 .. n), evaluated on (u', u) and (v', v)
    cs, ds = {}, {}
    for j, c_gen, d_gen in _corrections(tower, bundle, n, i, side):
        cs[j] = w(model.interp_for(c_gen), up, u)
        ds[j] = w(model.interp_for(d_gen), vp, v)

    def backward_of(b):
        alpha = w(nab_n, om_n[(gamma,)], b)
        for j in range(i + 2, n + 1):
            nab_j = model.interp_for(tower[bundle.comp_name(n, j - 1)])
            cj = iterated_unit(model, bundle, cs[j], n, j)
            dj = iterated_unit(model, bundle, ds[j], n, j)
            alpha = nab_j[(dj, nab_j[(alpha, cj)])]
        return alpha

    backward = {b: backward_of(b) for b in hom_uv2}
    if not set(backward.values()) <= set(hom_uv):
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


def base_change_iso(model, bundle, n, u):
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
    phi = divide(model, bundle, n, 0, gamma_r, u, u, side="right")
    ka = model.interp_for(tower[bundle.unit_name(n - 1)])
    gamma_l = ka[(u,)]
    psi = divide(model, bundle, n, 0, gamma_l, kx, kx, side="left")

    iso = {k: elems_x.index(psi.bwd_classes[phi.fwd_classes[cl]])
           for k, cl in enumerate(elems_u)}
    if sorted(iso.values()) != list(range(len(elems_x))):
        raise HomotopyError("base change is not a bijection")
    for a in range(len(elems_u)):
        for b in range(len(elems_u)):
            if iso[grp_u.op(a, b)] != grp_x.op(iso[a], iso[b]):
                raise HomotopyError("base change is not a homomorphism")
    return iso, grp_u, grp_x


# ---------------------------------------------------------------------------
# Weak equivalences

class WeqReport:
    """The verdicts of the four characterizations of weak equivalence;
    reports are equal when their verdicts are."""

    __slots__ = ("cond1", "cond2", "cond3", "cond4")

    def __init__(self, cond1, cond2, cond3, cond4):
        self.cond1, self.cond2, self.cond3, self.cond4 = cond1, cond2, cond3, cond4

    def __eq__(self, other):
        if type(other) is not WeqReport:
            return NotImplemented
        return (self.cond1, self.cond2, self.cond3, self.cond4) == \
            (other.cond1, other.cond2, other.cond3, other.cond4)

    @property
    def agree(self):
        return self.cond1 == self.cond2 == self.cond3 == self.cond4

    @property
    def is_weak_equivalence(self):
        return self.cond1


def weak_equiv(morph, bundle):
    """Evaluate the four characterizations of weak equivalence.

    Each is read off the functors F_n : pi_groupoid(G, n) -> pi_groupoid(H, n)
    that the morphism induces for 1 <= n <= trunc - 1 (objects through the
    (n-1)-cell map, each class to the class of its first member's image),
    together with the bijection on pi_0:
    (1) F_n bijective on the loops at each object's iterated unit;
    (2) F_n bijective on the loops at every (n-1)-cell;
    (3) F_n bijective on the arrows between every parallel pair;
    (4) F_n surjective on the arrows between every parallel pair, and at
        n = trunc - 1 also injective: injectivity at n follows from
        surjectivity at n + 1, which the truncation leaves only as whether
        a trunc-cell exists.
    The truncation must be at least 1, since pi_0 needs 1-cells.  The four
    verdicts are asserted to agree; disagreement raises, since it would
    falsify either the implementation or the model.
    """
    G, H = morph.source, morph.target
    morph.validate()
    _, g_classes = hom_classes(G, 0)
    h_of, h_classes = hom_classes(H, 0)
    pi0_bijective = len(g_classes) == len(h_classes) == len(
        {h_of[morph.apply(0, cl[0])] for cl in g_classes})
    conds = [pi0_bijective] * 4
    top_n = G.trunc - 1
    for n in range(1, top_n + 1):
        g_cls, h_cls = hom_classes(G, n), hom_classes(H, n)
        g_classes, h_of = g_cls[1], h_cls[0]
        cells = range(G.carrier.count(n - 1))
        F = gpd.GFunctor(_pi_groupoid(G, bundle, n, g_cls),
                         _pi_groupoid(H, bundle, n, h_cls),
                         tuple(morph.apply(n - 1, u) for u in cells),
                         tuple(h_of[morph.apply(n, cl[0])] for cl in g_classes)).validate()
        homs = {(u, v): F.on_homs(u, v) for u in cells for v in cells
                if parallel_cells(G, n - 1, u, v)}
        units = {iterated_unit(G, bundle, x, n - 1) for x in range(G.carrier.count(0))}
        conds[0] = conds[0] and all(all(homs[e, e]) for e in units)
        conds[1] = conds[1] and all(all(homs[u, u]) for u in cells)
        conds[2] = conds[2] and all(all(h) for h in homs.values())
        conds[3] = conds[3] and all(surj and (inj or n < top_n)
                                    for inj, surj in homs.values())
    report = WeqReport(*conds)
    if not report.agree:
        raise HomotopyError("the four weak-equivalence conditions disagree: %s" % (report,))
    return report
