"""Words, tables, disks, and realized sums against brute-force oracles."""

import ast
import collections
import copy
import dataclasses
import gc
import io
import itertools
import pathlib
import pickle
import random

import pytest

import globkit
from globkit import coherator, globe, theta0
from globkit.globe import (
    MAX_DIM, GlobeError, GlobularSet, Table, Word, compose_words, disk, idword, realize_sum,
    sword, tword,
)
from oracles import all_tables


def disk_count(m, d):
    """Cells of dimension d in the m-disk: a source and a target below m,
    the disk itself at m, none above."""
    return 2 if d < m else 1 if d == m else 0


# --- oracle: the free category on s/t letters modulo the two relations ----

def letter_words(max_dim):
    """All words as explicit letter sequences (bottom first)."""
    out = {(j, j): [()] for j in range(max_dim + 1)}
    for j in range(max_dim + 1):
        for i in range(j + 1, max_dim + 1):
            seqs = []
            for kinds in itertools.product("st", repeat=i - j):
                seqs.append(tuple(zip(kinds, range(j + 1, i + 1))))
            out[(j, i)] = seqs
    return out


def congruence_classes(max_dim):
    """Quotient letter sequences by s.s = t.s and s.t = t.t (adjacent flips)."""
    words = letter_words(max_dim)
    classes = {}
    for (j, i), seqs in words.items():
        parent = {s: s for s in seqs}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s in seqs:
            for p in range(len(s) - 1):
                # the letter above position p may flip regardless of p's kind
                flipped = list(s)
                k, d = s[p + 1]
                flipped[p + 1] = ("t" if k == "s" else "s", d)
                a, b = find(s), find(tuple(flipped))
                if a != b:
                    parent[max(a, b)] = min(a, b)
        classes[(j, i)] = {}
        for s in seqs:
            classes[(j, i)].setdefault(find(s), []).append(s)
    return classes


def seq_to_word(j, i, seq):
    if not seq:
        return idword(j)
    return Word(j, i, seq[0][0])


def test_normal_form_soundness_up_to_dim_5():
    classes = congruence_classes(5)
    for (j, i), byrep in classes.items():
        for members in byrep.values():
            nfs = {seq_to_word(j, i, s) for s in members}
            assert len(nfs) == 1
        # distinct classes get distinct normal forms
        reps = [seq_to_word(j, i, members[0]) for members in byrep.values()]
        assert len(set(reps)) == len(byrep)
        # and there are exactly two classes when i > j
        assert len(byrep) == (2 if i > j else 1)


def test_compose_words_examples():
    # the relation s2 s1 = t2 s1, with the top letter canonicalized
    assert compose_words(sword(1, 2), sword(0, 1)) == Word(0, 2, "s")
    assert compose_words(tword(1, 2), sword(0, 1)) == Word(0, 2, "s")
    # identity laws
    assert compose_words(idword(3), tword(2, 3)) == tword(2, 3)
    assert compose_words(tword(2, 3), idword(2)) == tword(2, 3)
    # t3 . t2 . s1 keeps its lowest letter: the class of s^3_0
    w = compose_words(tword(2, 3), compose_words(tword(1, 2), sword(0, 1)))
    assert w == Word(0, 3, "s")


def test_compose_words_matches_congruence_oracle():
    classes = congruence_classes(4)
    rep_of = {}
    for (j, i), byrep in classes.items():
        for members in byrep.values():
            for s in members:
                rep_of[(j, i, s)] = seq_to_word(j, i, members[0])
    for (j, i), byrep in classes.items():
        for members in byrep.values():
            for s in members:
                for i2 in range(i, 5):
                    for s2 in letter_words(4)[(i, i2)]:
                        seq = s + s2
                        composed = compose_words(seq_to_word(i, i2, s2),
                                                 seq_to_word(j, i, s))
                        assert composed == rep_of[(j, i2, seq)]


def test_compose_words_associative_unital_random():
    rng = random.Random(0)
    for _ in range(1000):
        a = rng.randrange(0, 4)
        b = rng.randrange(a, 5)
        c = rng.randrange(b, 6)
        d = rng.randrange(c, 7)
        w1 = Word(a, b, None if a == b else rng.choice("st"))
        w2 = Word(b, c, None if b == c else rng.choice("st"))
        w3 = Word(c, d, None if c == d else rng.choice("st"))
        assert compose_words(w3, compose_words(w2, w1)) == \
            compose_words(compose_words(w3, w2), w1)
        assert compose_words(w1, idword(a)) == w1
        assert compose_words(idword(b), w1) == w1


def test_table_validation():
    with pytest.raises(GlobeError):
        Table((1, 1), (1,))
    with pytest.raises(GlobeError):
        Table((2,), (0,))
    assert Table((2, 2, 1), (1, 0)).dimension == 2
    assert str(Table((2, 2, 1), (1, 0))) == "D2 +1 D2 +0 D1"


def test_word_validation():
    assert Word(1, 3, "t").letters() == [("t", 2), ("s", 3)]
    for src, tgt, kind in ((2, 1, "s"), (-1, 1, "s"), (1, 1, "s"), (0, 1, None), (0, 1, "x")):
        with pytest.raises(GlobeError):
            Word(src, tgt, kind)


def test_disk_is_one_shared_table():
    for m in range(8):
        assert disk(m) == Table((m,), ())
        assert disk(m) is disk(m)
        assert disk(m).is_disk and disk(m).dimension == m
    with pytest.raises(GlobeError):
        disk(-1)


def test_dimension_examples():
    assert Table((1, 2, 2), (0, 1)).dimension == 2
    assert Table((3,), ()).dimension == 3
    # the wide pasting scheme with five 2-cells over four 1-composites
    assert Table((1, 2, 2, 2, 2, 2), (0, 1, 1, 0, 1)).dimension == 2


# --- oracle: brute-force pushout over word-indexed disk cells --------------

def oracle_realize(table):
    """Independent gluing: cells are (leg, word) pairs identified along faces."""
    width = table.width
    cells = {}
    for k in range(width):
        m = table.upper[k]
        for d in range(m + 1):
            for c in range(disk_count(m, d)):
                cells[(k, d, c)] = (k, d, c)

    def find(x):
        while cells[x] != x:
            cells[x] = cells[cells[x]]
            x = cells[x]
        return x

    def union(x, y):
        a, b = find(x), find(y)
        if a != b:
            cells[max(a, b)] = min(a, b)

    for k, j in enumerate(table.lower):
        # identify the whole image of the j-disk under s-word / t-word
        for d in range(j + 1):
            for c in range(disk_count(j, d)):
                # image of cell (d, c) of D_j inside D_m under a word map:
                # below the top it is the same cell, the top goes to s/t
                def img(m, kind):
                    if d < j:
                        return (d, c)
                    return (d, 0 if kind == "s" else 1) if d < m else (d, 0)
                union((k,) + img(table.upper[k], "s"),
                      (k + 1,) + img(table.upper[k + 1], "t"))
    counts = []
    for d in range(table.dimension + 1):
        reps = {find((k, d, c)) for k in range(width)
                for c in range(disk_count(table.upper[k], d))}
        counts.append(len(reps))
    return tuple(counts)


def test_realize_examples_against_oracle():
    cases = {
        Table((1, 1), (0,)): (3, 2),
        Table((2,), ()): (2, 2, 1),
        Table((2, 2), (1,)): (2, 3, 2),
    }
    for table, counts in cases.items():
        assert oracle_realize(table) == counts
        assert realize_sum(table).carrier.cells == counts


def test_realize_matches_oracle_widths_up_to_4():
    for table in all_tables(4, 3):
        assert realize_sum(table).carrier.cells == oracle_realize(table), table


def test_realize_wide_pasting_scheme():
    # an arrow followed by a fan of three 2-cells and a fan of two 2-cells:
    # four objects, eight arrows, five 2-cells
    table = Table((1, 2, 2, 2, 2, 2), (0, 1, 1, 0, 1))
    real = realize_sum(table)
    assert real.carrier.cells == (4, 8, 5)
    assert real.carrier.cells == oracle_realize(table)


def test_realized_sums_are_globular():
    # GlobularSet raises on construction if the relations fail; touch them all
    for table in all_tables(4, 4):
        real = realize_sum(table)
        assert isinstance(real.carrier, GlobularSet)


def test_cocone_compatibility():
    for table in all_tables(4, 3):
        real = realize_sum(table)
        for k, j in enumerate(table.lower):
            for d in range(j + 1):
                for c in range(disk_count(j, d)):
                    # s-word image in the left disk / t-word image in the right
                    li = (d, c) if d < j else (j, 0)
                    ri = (d, c) if d < j else (j, 1)
                    assert real.legs[k][li[0]][li[1]] == real.legs[k + 1][ri[0]][ri[1]]


def test_presentations():
    real = realize_sum(Table((1, 1), (0,)))
    pres = real.owners[0]
    assert [(k, str(w)) for k, w in pres] == [(0, "s1"), (0, "t1"), (1, "s1")]
    assert [(k, str(w)) for k, w in real.owners[1]] == [(0, "id"), (1, "id")]
    real22 = realize_sum(Table((2, 2), (1,)))
    pres1 = real22.owners[1]
    # the shared middle 1-cell is presented through the first leg
    assert [(k, str(w)) for k, w in pres1] == [(0, "s2"), (0, "t2"), (1, "s2")]


def test_glued_cells_lowest_leg_and_uniqueness():
    for table in all_tables(3, 3):
        real = realize_sum(table)
        for d in range(table.dimension + 1):
            hits = {}
            for k in range(table.width):
                m = table.upper[k]
                if d > m:
                    continue
                for c in range(disk_count(m, d)):
                    hits.setdefault(real.legs[k][d][c], []).append(k)
            for cell, legs in hits.items():
                k, w = real.owners[d][cell]
                assert k == min(legs)


# --- oracle: the union-find realization that `realize_sum` replaced --------

def union_find_realize(table):
    """(cells, src, tgt, legs, owners) of a table's sum, by a general
    union-find over every cell of every disk; each class is numbered by, and
    owned by, its least (leg, dimension, cell) member."""
    parent = {(k, d, c): (k, d, c) for k, m in enumerate(table.upper)
              for d in range(m + 1) for c in range(disk_count(m, d))}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for k, j in enumerate(table.lower):
        for d in range(j):
            for c in (0, 1):
                union((k, d, c), (k + 1, d, c))
        union((k, j, 0), (k + 1, j, 1))

    top = table.dimension
    index, counts, owners = {}, [], []
    for d in range(top + 1):
        reps = sorted({find((k, d, c)) for k, m in enumerate(table.upper)
                       for c in range(disk_count(m, d))})
        index.update({(d, r): i for i, r in enumerate(reps)})
        counts.append(len(reps))
        owners.append(tuple(
            (k, idword(d) if d == table.upper[k] else Word(d, table.upper[k], "st"[c]))
            for (k, _, c) in reps))

    def cell_of(k, d, c):
        return index[(d, find((k, d, c)))]

    src, tgt = [()], [()]
    for d in range(1, top + 1):
        s_row, t_row = [None] * counts[d], [None] * counts[d]
        for k, m in enumerate(table.upper):
            for c in range(disk_count(m, d)):
                i = cell_of(k, d, c)
                for row, face in ((s_row, 0), (t_row, 1)):
                    value = cell_of(k, d - 1, face)
                    if row[i] not in (None, value):
                        raise GlobeError("boundary not respected by gluing")
                    row[i] = value
        src.append(tuple(s_row))
        tgt.append(tuple(t_row))
    legs = tuple(tuple(tuple(cell_of(k, d, c) for c in range(disk_count(m, d)))
                       for d in range(m + 1))
                 for k, m in enumerate(table.upper))
    return tuple(counts), tuple(src), tuple(tgt), legs, tuple(owners)


def test_one_pass_realization_matches_union_find_oracle():
    for table in all_tables(4, 4):
        real = realize_sum(table)
        got = (real.carrier.cells, real.carrier.src, real.carrier.tgt, real.legs,
               real.owners)
        assert got == union_find_realize(table), table


def test_dimension_bound():
    assert Table((MAX_DIM,), ()).dimension == MAX_DIM
    for upper, lower in (((MAX_DIM + 1,), ()), ((1, 10 ** 9), (0,))):
        with pytest.raises(GlobeError, match="exceeds the largest supported dimension"):
            Table(upper, lower)


def test_library_has_no_assert():
    """Input checks raise the library's own errors; `python -O` would strip
    an `assert`."""
    def asserts(tree):
        return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]

    src = pathlib.Path(globkit.__file__).parent
    found = {path.name: asserts(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(src.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert asserts(ast.parse("def f(x):\n    assert x\n")) == [2]


# The library's process-global caches.  Each lives as long as the process,
# so adding one is a decision recorded here.  The `lru_cache`s are unbounded;
# the one weak intern table of words, `Table`s, `GMap`s, generators, term
# nodes and raw nodes holds each value while it is referenced; the fifth,
# `gpd._cylinder_walk`, takes no argument and holds the one walk along
# which `quillen_pi1` composes loops.  Memos keyed by one table, map or
# term node live on that object instead, what a globular set alone
# determines (faces along a word, fiber products) lives on the set, and
# what a groupoid alone determines (its loop objects) lives on the
# groupoid.
GLOBAL_CACHES = {
    "globe.disk", "globe.realize_sum", "globe._INTERNED", "theta0.word_gmap",
    "gpd._cylinder_walk",
}


def test_library_caches_are_the_allowlist():
    def cached(tree):
        def name_of(node):
            node = node.func if isinstance(node, ast.Call) else node
            return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

        functions = [node.name for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and any(name_of(d) in ("lru_cache", "cache") for d in node.decorator_list)]
        tables = [target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Call)
                  and name_of(node.value) in ("WeakValueDictionary", "WeakKeyDictionary")
                  for target in node.targets if isinstance(target, ast.Name)]
        return sorted(functions + tables)

    src = pathlib.Path(globkit.__file__).parent
    found = {"%s.%s" % (path.stem, name) for path in sorted(src.glob("*.py"))
             for name in cached(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == GLOBAL_CACHES and len(found) == 5
    assert cached(ast.parse("import functools\n@functools.lru_cache(maxsize=None)\n"
                            "def f(): pass\n@cache\ndef g(): pass\n"
                            "@property\ndef h(): pass\n"
                            "T = weakref.WeakValueDictionary()\nU = dict()\n")) == ["T", "f", "g"]


def test_tables_are_interned():
    """A table's repr is pinned; its rows must be tuples of naturals, refused
    rows never reach the intern table, and building and dropping a tower leaves the live
    tables as they were."""
    assert repr(Table((2, 1, 2), (0, 0))) == "Table(upper=(2, 1, 2), lower=(0, 0))"
    for upper, lower in (([1, 1], (0,)), ((1, 1), [0]), ([1], [])):
        with pytest.raises(GlobeError, match="table rows must be tuples"):
            Table(upper, lower)
    # a float row would otherwise be interned and handed out for the int one
    for upper, lower in (((61.0,), ()), ((9, 2, 9), (1.0, 1)), ((True, 5, 3), (0, 2))):
        with pytest.raises(GlobeError, match="table entries must be naturals"):
            Table(upper, lower)
        assert (Table, upper, lower) not in globe._INTERNED
    counts = []
    for _ in range(4):
        coherator.stdlib(8)
        gc.collect()
        counts.append(sum(1 for key in list(globe._INTERNED.keys()) if key[0] is Table))
    assert len(set(counts)) == 1


def test_a_lookup_hit_passes_the_field_type_checks():
    """1.0 and True equal 1, so the intern lookup alone would hand out the
    value of the right types, or refuse the call only until that value is
    alive.  Fields of the wrong types get the message a new value gets,
    whether that value is alive or not, and it stays the interned one."""
    pair = Table((1, 1), (0,))
    wide = Table((5, 6, 5), (3, 2))
    edge = sword(0, 1)
    naturals, ints = "table entries must be naturals", "map cells must be a tuple of ints"
    ends = "word endpoints must be ints"
    cases = [
        (Word, (0.0, 1, "s"), (0, 1, "s"), ends),
        (Word, (0, True, "s"), (0, 1, "s"), ends),
        (Table, ((1.0,), ()), ((1,), ()), naturals),
        (Table, ((True,), ()), ((1,), ()), naturals),
        (Table, ((6, 2, 6.0), (1, 1)), ((6, 2, 6), (1, 1)), naturals),
        (theta0.GMap, (disk(1), pair, (0.0,)), (disk(1), pair, (0,)), ints),
        (theta0.GMap, (disk(0), wide, (False,)), (disk(0), wide, (0,)), ints),
    ]
    not_alive = 0
    for cls, wrong, right, message in cases:
        gc.collect()
        not_alive += (cls,) + right not in globe._INTERNED
        with pytest.raises(GlobeError, match=message):
            cls(*wrong)
        held = cls(*right)
        with pytest.raises(GlobeError, match=message):
            cls(*wrong)
        assert cls(*right) is held and held._values() == right
        assert all(type(i) is int for field in held._values() if type(field) is tuple
                   for i in field)
    assert not_alive == 2 and edge is Word(0, 1, "s")


def _interned_cases():
    """Per class of `globe.Interned`: a live value, the fields of a fresh
    value with what else holds it, and arguments it refuses with the error
    they raise."""
    tower = coherator.stdlib(4)[0]
    chain = tower.term("assoc1")
    tup = tower["assoc1"].fsrc.tail
    tab = Table((1, 1), (0,))
    lonely = coherator.Tower(2)
    lonely.declare("lonely", coherator.identity(disk(0)), coherator.identity(disk(0)))
    fresh = lonely.term("lonely")
    rgen = coherator.RGen(tower["assoc1"])
    return {
        "Word": (sword(1, 2), (7, 41, "t"), (), (3, 1, "s"), GlobeError),
        "RGen": (rgen, (fresh.gen,), (lonely, fresh), (tower["assoc1"], 2), TypeError),
        "RTuple": (coherator.RTuple(tab, (rgen, rgen)), (tab, (fresh, rgen)), (),
                   (tab, [rgen, rgen]), TypeError),
        "RComp": (coherator.RComp(fresh, rgen), (rgen, fresh), (), (rgen,), TypeError),
        "Table": (Table((2, 1, 2), (0, 0)), ((3, 3, 3, 3, 3), (2, 1, 2, 0)), (),
                  ((2, 1, 2), [0, 0]), GlobeError),
        "GMap": (theta0.leg_gmap(tab, 1), (disk(0), Table((4, 5, 4), (3, 2)), (0,)), (),
                 (disk(0), Table((5, 7, 5), (2, 4)), (0.0,)), GlobeError),
        "Chain": (chain, (fresh.tail, fresh.gen), (lonely, fresh),
                  (chain.tail, chain.gen, disk(2)), TypeError),
        "TupleT": (tup, (tab, (fresh, fresh)), (), (tup.src_table, list(tup.comps)),
                   TypeError),
        "Gen": (tower["assoc1"], ("fresh", 1, disk(0), fresh.tail, fresh.tail, 1), (),
                ("fresh", 1, disk(0)), TypeError),
    }


@pytest.mark.parametrize("name", ["Table", "GMap", "Chain", "TupleT", "Gen", "Word",
                                  "RGen", "RTuple", "RComp"])
def test_interned_values_share_one_contract(name):
    """`Table`, `Word`, `GMap`, `Chain`, `TupleT`, `coherator.Gen` and the
    raw nodes `RGen`, `RTuple` and `RComp` are interned by `globe.Interned`
    in one weak table keyed by (class,) + fields: equal
    values are one object with the stored hash of its fields, copies and
    pickles included; it is immutable and its repr is
    `Class(field=value, ...)`, except a generator's, `Gen(name)`; a refused
    value never enters the table; and a value lives while it is referenced."""
    value, fresh, holders, refused, error = _interned_cases()[name]
    cls = type(value)
    assert cls.__name__ == name and issubclass(cls, globe.Interned)
    fields = tuple(getattr(value, f) for f in cls._fields)
    assert cls(*fields) is value and globe._INTERNED[(cls,) + fields] is value
    assert hash(value) == hash(fields)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin is value
    for attr in cls._fields + ("other",):
        with pytest.raises(AttributeError, match="^%s is immutable$" % name):
            setattr(value, attr, None)
    assert repr(value) == ("Gen(%s)" % value.name if name == "Gen" else "%s(%s)" % (
        name, ", ".join("%s=%r" % (f, getattr(value, f)) for f in cls._fields)))
    live = {id(v) for v in list(globe._INTERNED.values())}
    with pytest.raises(error):
        cls(*refused)
    assert {id(v) for v in list(globe._INTERNED.values())} <= live
    key = (cls,) + fresh
    made = cls(*fresh)
    assert globe._INTERNED[key] is made
    del made, holders
    gc.collect()
    assert key not in globe._INTERNED


def test_a_record_takes_its_fields_in_order_then_by_name():
    """A record is made from its fields in order and then by name, and
    checked once made; any other call names the fields it takes."""
    from globkit import gpd, groups, homotopy
    report = homotopy.WeqReport
    assert report(True, False, cond4=True, cond3=False) == report(True, False, False, True) == \
        report(cond4=True, cond3=False, cond2=False, cond1=True)
    for args, named in (((True,) * 5, {}), ((True,) * 3, {}), ((True,) * 3, {"cond1": True}),
                        ((True,) * 3, {"cond4": True, "cond5": True}), ((), {"cond1": True})):
        with pytest.raises(TypeError, match="^WeqReport takes the 4 fields cond1, cond2, "
                                            "cond3, cond4$"):
            report(*args, **named)
    z2 = gpd.one_object(groups.cyclic(2))
    with pytest.raises(gpd.GroupoidError, match="inverse law fails at arrow 1"):
        gpd.Groupoid(*z2._values()[:5], inv=(0, 0))


def test_fiber_products_above_the_cell_bound_are_refused_before_they_are_built():
    # 1001 loops at one object: 1,002,001 composable pairs, one over the bound
    loops = GlobularSet((1, 1001), ((), (0,) * 1001), ((), (0,) * 1001))
    pair = Table((1, 1), (0,))
    assert loops.fiber_count(pair) == globe.MAX_CELLS + 2001
    with pytest.raises(GlobeError, match="the fiber product over D1 \\+0 D1 has 1002001 "
                                         "elements, more than the 1000000 supported"):
        loops.fiber_product(pair)
    assert len(loops.fiber_product(disk(1))) == 1001
    # 1500 arrows a -> b: the cell counts bound the pairs by 2,250,000, but
    # none compose, so the product is counted and built, empty
    arrows = GlobularSet((2, 1500), ((), (0,) * 1500), ((), (1,) * 1500))
    assert arrows.fiber_product(pair) == ()


def test_plain_classes_match_the_dataclasses_they_replace(strict_models):
    """Every record class was a dataclass, frozen or not, and `dsl.Token` a
    named tuple; raw terms were frozen dataclasses and are interned now.
    Against classes rebuilt from the same fields, over sample values: the
    same `==` and `!=` on every pair, the same repr, the same hash (or the
    same refusal of one) where the old class was frozen, and a pickle round
    trip that gives an equal value of that repr.  Towers, models and strict
    specs' row readers are pickled by reference, as they are compared by
    identity."""
    from globkit import dsl, gpd, groups, homotopy, model, rewrite

    memo_field = ("_memo", dict, dataclasses.field(default_factory=dict, init=False,
                                                   repr=False, compare=False))
    old = {name: dataclasses.make_dataclass(name, fields, frozen=frozen)
           for name, fields, frozen in (
        ("Word", ["src", "tgt", "kind"], True),
        ("GlobularSet", ["cells", "src", "tgt", memo_field], True),
        ("SumRealization", ["table", "carrier", "legs", "owners"], True),
        ("Verdict", ["ok", "reason"], True),
        ("PregroupoidBundle", ["comp", "unit", "inv"], True),
        ("TowerFunctor", ["source", "target", "assignment"], True),
        ("RGen", ["gen"], True), ("RTuple", ["src_table", "comps"], True),
        ("RComp", ["outer", "inner"], True),
        ("Groupoid", ["n_objects", "src", "tgt", "comp", "ident", "inv"], True),
        ("GFunctor", ["source", "target", "obj_map", "arr_map"], True),
        ("GlobeDiagram", ["trunc", "disks", "sigma", "tau", "sphere_objects", "i_obj",
                          "collapse"], False),
        ("PathObject", ["P", "r", "squares"], False),
        ("ComparisonReport", ["pi0_model", "pi0_gpd", "pi1", "higher_trivial"], False),
        ("DivideResult", ["forward", "backward", "fwd_classes", "bwd_classes"], False),
        ("WeqReport", ["cond1", "cond2", "cond3", "cond4"], False),
        ("Group", ["name", "mult"], True),
        ("CrossedModule", ["grp", "agrp", "boundary", "action"], True),
        ("StrictSpec", ["arrows", "fiber", "m", "boundary", "action", "label"], True),
        ("ModelMorphism", ["source", "target", "maps"], False))}
    old["Token"] = collections.namedtuple("Token", "kind value line col")
    by_reference = (coherator.Tower, model.Model, model._Rows, model._Copies)

    def as_old(x):
        return x if isinstance(x, theta0.GMap) else old[type(x).__name__](*x._values())

    def hashed(x):
        try:
            return hash(x)
        except TypeError:
            return TypeError

    def round_trip(x):
        shared = []

        class Out(pickle.Pickler):
            def persistent_id(self, obj):
                if isinstance(obj, by_reference):
                    shared.append(obj)
                    return len(shared) - 1
                return None

        class In(pickle.Unpickler):
            def persistent_load(self, pid):
                return shared[pid]

        buf = io.BytesIO()
        Out(buf).dump(x)
        buf.seek(0)
        return In(buf).load()

    def twice(values):
        """The values and a fresh record of each one's fields."""
        return values + [type(x)(*x._values()) for x in values]

    tower, bundle = coherator.stdlib(4)
    small = coherator.stdlib(3)[0]
    gens = tower.gens()
    rng = random.Random(2500)
    corpus = [X for _, X in gpd.corpus(2, 3)]
    interp = gpd.TowerGpdInterp(tower)
    diagrams = [gpd.globe_diagram(trunc) for trunc in (2, 3)]
    z2, z4, s3 = groups.cyclic(2), groups.cyclic(4), groups.symmetric(3)
    kan = model.build_strict(model.KAn(z2, 2), tower, bundle)
    script = "dim 2\n# a comment\nlift f : D1 -> D1 +0 D1 ; src = eps2 * s1 ; tgt = eps1 * t1\n"
    samples = {
        "words": [word for gen in gens for row in realize_sum(gen.target).owners
                  for _, word in row],
        "carriers": twice([m.carrier for m in strict_models]),
        "sums": twice([realize_sum(gen.target) for gen in gens[:12]]),
        "verdicts": [coherator.admissible(f.fsrc, g.gtgt) for f in gens[:8] for g in gens[:8]],
        "bundles": [coherator.stdlib(d)[1] for d in (2, 3, 3, 4)],
        "tower functors": [coherator.tower_functor(t, {}, t) for t in (tower, small) * 2],
        "raw terms": [rewrite.random_raw(tower, rng, budget=8) for _ in range(300)],
        "groupoids": corpus + [X for _, X in gpd.corpus(2, 4)],
        "functors": twice([f for dg in diagrams for f in dg.sigma + dg.tau + dg.collapse
                           if f is not None] + [gpd.path_object(X).r for X in corpus]),
        "globe diagrams": twice(diagrams),
        "path objects": twice([gpd.path_object(X) for X in corpus]),
        "comparison reports": [gpd.compare(X, tower, bundle, interp) for X in corpus * 2],
        "division results": [homotopy.divide(kan, bundle, 2, 0, gamma, 0, 0, side=side)
                             for gamma in (0, 1) for side in ("left", "right")] * 2,
        "weq reports": twice([homotopy.WeqReport(*conds)
                              for conds in itertools.product((False, True), repeat=4)]),
        "groups": [groups.by_name(name) for name in groups._CATALOGUE]
        + [groups.Group(name, groups.by_name(name).mult) for name in groups._CATALOGUE]
        + [groups.Group("G", groups.by_name(name).mult) for name in groups._CATALOGUE],
        "crossed modules": [groups.trivial_xmod(z2, z2), groups.trivial_xmod(s3, z4),
                            groups.inclusion_xmod(s3), groups.inclusion_xmod(z4)] * 2,
        "strict specs": twice([model.KG1(s3), model.KAn(z4, 2), model.Discrete(3),
                               model.XMod(groups.inclusion_xmod(z4))]),
        "morphisms": twice([model.morphism_from_dims(m, m, [tuple(range(m.carrier.count(d)))
                                                            for d in range(m.trunc + 1)])
                            for m in strict_models]
                           + [model.morphism_from_dims(kan, kan, [(0,), (0,), (0, 0)])]),
        "tokens": dsl.tokenize(script) + dsl.tokenize(script.replace("f :", "g :")),
    }
    for kind, values in samples.items():
        olds = [as_old(x) for x in values]
        for x, o in zip(values, olds):
            assert repr(x) == repr(o), kind
            if o.__hash__ is not None:
                assert hashed(x) == hashed(o), kind
            twin = round_trip(x)
            assert twin == x and repr(twin) == repr(o), kind
        equal = 0
        for (x, ox), (y, oy) in itertools.product(zip(values, olds), repeat=2):
            assert (x == y, x != y) == (ox == oy, ox != oy), kind
            equal += x == y
        assert len(values) < equal < len(values) ** 2, kind
    # equal fields do not make values of two classes equal
    d = samples["division results"][0]
    w = homotopy.WeqReport(*d._values())
    assert (w == d, w != d) == (as_old(w) == as_old(d), as_old(w) != as_old(d)) == (False, True)
