"""Answers the benchmark checks against, computed without the layer under test.

Group isomorphism, quotients and connected components are worked out here
from multiplication tables and arrow lists, so a wrong answer from
`globkit.groups`, `globkit.homotopy` or `globkit.gpd` cannot also produce a
matching expectation.  The relabelling helpers turn the benchmark seed into
inputs: an input and its relabelling cost the same, but they are different
objects to every cache in the program.
"""

import random


def relabel_mult(mult, rng):
    """The table of a group with its non-identity elements permuted.

    Returns (new table, sigma) where sigma[old] = new; the identity stays 0.
    """
    n = len(mult)
    rest = list(range(1, n))
    rng.shuffle(rest)
    sigma = [0] + rest
    inv = [0] * n
    for old, new in enumerate(sigma):
        inv[new] = old
    table = tuple(tuple(sigma[mult[inv[a]][inv[b]]] for b in range(n))
                  for a in range(n))
    return table, sigma


def _element_order(mult, a):
    k, x = 1, a
    while x != 0:
        x = mult[x][a]
        k += 1
    return k


def _generators(mult):
    """A small generating set, greedily: each adds a new element."""
    n = len(mult)
    span, gens = {0}, []
    for a in range(n):
        if a in span:
            continue
        gens.append(a)
        frontier = list(span)
        span.add(a)
        frontier.append(a)
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (mult[x][g], mult[g][x]):
                    if y not in span:
                        span.add(y)
                        frontier.append(y)
    return gens


def isomorphic(ma, mb):
    """Do two multiplication tables (identity 0) describe isomorphic groups?

    Tries every assignment of a generating set of `ma` to elements of `mb`
    of the same orders and checks the extended map on the full table.
    """
    n = len(ma)
    if n != len(mb):
        return False
    oa = [_element_order(ma, a) for a in range(n)]
    ob = [_element_order(mb, b) for b in range(n)]
    if sorted(oa) != sorted(ob):
        return False
    gens = _generators(ma)

    def extend(images):
        phi = {0: 0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g, h in zip(gens, images):
                y = ma[x][g]
                img = mb[phi[x]][h]
                if y in phi:
                    if phi[y] != img:
                        return None
                else:
                    phi[y] = img
                    frontier.append(y)
        return phi

    def search(i, images):
        if i == len(gens):
            phi = extend(images)
            if phi is None or len(set(phi.values())) != n:
                return False
            return all(phi[ma[a][b]] == mb[phi[a]][phi[b]]
                       for a in range(n) for b in range(n))
        return any(search(i + 1, images + [h])
                   for h in range(n) if ob[h] == oa[gens[i]])

    return search(0, [])


TRIVIAL = ((0,),)  # the table of the trivial group


def quotient_mult(mult, normal):
    """The table of G/N for a normal subgroup N, identity coset first."""
    n = len(mult)
    cosets, coset_of = [], {}
    for g in range(n):
        if g in coset_of:
            continue
        c = frozenset(mult[g][k] for k in normal)
        for x in c:
            coset_of[x] = len(cosets)
        cosets.append(min(c))
    return tuple(tuple(coset_of[mult[a][b]] for b in cosets) for a in cosets)


def kernel_mult(gmult, amult, boundary):
    """The table of ker(boundary : A -> G), identity first."""
    ker = [a for a in range(len(amult)) if boundary[a] == 0]
    index = {a: i for i, a in enumerate(ker)}
    return tuple(tuple(index[amult[a][b]] for b in ker) for a in ker)


def components(n_objects, src, tgt):
    """Connected components of a graph given by arrow endpoints."""
    parent = list(range(n_objects))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, t in zip(src, tgt):
        parent[find(s)] = find(t)
    return len({find(x) for x in range(n_objects)})


def relabel_groupoid(gpd_mod, X, rng):
    """A copy of a groupoid with objects and arrows permuted.

    Returns (Y, tau, pi): object x of X is tau[x] in Y, arrow a is pi[a].
    """
    tau = list(range(X.n_objects))
    pi = list(range(X.n_arrows))
    rng.shuffle(tau)
    rng.shuffle(pi)
    pinv = [0] * len(pi)
    for a, b in enumerate(pi):
        pinv[b] = a
    arrows = [None] * len(pi)
    for a in range(X.n_arrows):
        arrows[pi[a]] = (tau[X.src[a]], tau[X.tgt[a]])

    def compose_fn(g, f):
        return pi[X.comp[pinv[g]][pinv[f]]]

    return gpd_mod.build_groupoid(X.n_objects, arrows, compose_fn), tau, pi


def relabel_functor_maps(obj_map, arr_map, src_relabel, tgt_relabel):
    """Object and arrow maps of a functor transported along two relabellings."""
    (_, tau_s, pi_s), (_, tau_t, pi_t) = src_relabel, tgt_relabel
    objs = [0] * len(obj_map)
    arrs = [0] * len(arr_map)
    for x, y in enumerate(obj_map):
        objs[tau_s[x]] = tau_t[y]
    for a, b in enumerate(arr_map):
        arrs[pi_s[a]] = pi_t[b]
    return tuple(objs), tuple(arrs)


def rng_for(seed, pass_index, salt):
    """The generator for one pass: inputs differ between passes and seeds."""
    return random.Random("%d/%d/%s" % (seed, pass_index, salt))

