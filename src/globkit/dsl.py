"""Line-oriented tower scripts: parsing with positions, printing, round-trip.

    dim 4
    lift comp1_0 : D1 -> D1 +0 D1 ; src = eps2 * s1 ; tgt = eps1 * t1

Terms use `*` for composition (the right operand applies first), `id`,
generator names, `s<k>` / `t<k>` boundary words, `eps<k>` cocone legs
(1-indexed), and tuples `[t1 ;j t2]` whose gluing dimensions may be given
explicitly after each separator or inferred as the largest compatible one.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import coherator as coh
from . import theta0
from .coherator import InadmissibleError, TermError, Tower
from .globe import DEFAULT_TRUNC, MAX_DIM, Table, disk
from .theta0 import GMap, MatchingError


class ParseError(Exception):
    def __init__(self, line, col, msg):
        self.line = line
        self.col = col
        super().__init__("line %d, column %d: %s" % (line, col, msg))


class CheckError(Exception):
    """A script parses but declares something invalid."""

    def __init__(self, line, msg):
        self.line = line
        super().__init__("line %d: %s" % (line, msg))


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


# Each match is one token and the blanks before it; `bad` is any character
# that starts no token.
_TOKEN_RE = re.compile(r"""
    [ \t]*
    (?: (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<int>\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<arrow>->)
      | (?P<sym>[:;=*\[\]()+])
      | (?P<eof>\Z)
      | (?P<bad>.))
""", re.VERBOSE)


def tokenize(text):
    """The script's tokens, each with its line and column (both from 1);
    a column counts characters from the start of its line."""
    out = []
    line, line_start = 1, 0
    pos = 0
    kind = None
    while kind != "eof":
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        col = m.start(kind) - line_start + 1
        if kind == "bad":
            raise ParseError(line, col, "unexpected character %r" % m.group(kind))
        if kind != "comment":
            out.append(Token(kind, m.group(kind), line, col))
        pos = m.end()
        if kind == "nl":
            line += 1
            line_start = pos
    return out


class _Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
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


_DISK_RE = re.compile(r"^D(\d+)$")
_WORD_RE = re.compile(r"^([st])(\d+)$")
_EPS_RE = re.compile(r"^eps(\d+)$")


def parse_tower(text, trunc=None):
    """Parse and replay a tower script; returns the declared Tower."""
    p = _Parser(text)
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
            _parse_lift(p, tower)
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


def _parse_lift(p, tower):
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
    table = _parse_table(p)
    p.expect("sym", ";")
    p.expect("name", "src")
    p.expect("sym", "=")
    fsrc = _elab_chain(_read_chain(p), tower, table)
    p.expect("sym", ";")
    p.expect("name", "tgt")
    p.expect("sym", "=")
    gtgt = _elab_chain(_read_chain(p), tower, table)
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


def _parse_table(p):
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


def parse_table(text):
    """Parse a whole text as one table of dimensions, e.g. `D1 +0 D1`."""
    p = _Parser(text)
    table = _parse_table(p)
    _expect_end(p)
    return table


def parse_term(text, tower, target):
    """Parse a whole text as one term into the table `target`."""
    p = _Parser(text)
    term = _elab_chain(_read_chain(p), tower, target)
    _expect_end(p)
    return term


def _expect_end(p):
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(t.line, t.col, "trailing input %r" % (t.value or t.kind))


def _read_chain(p):
    """The atoms of a `*`-chain, read but not yet elaborated."""
    atoms = [_parse_atom(p)]
    while p.peek().kind == "sym" and p.peek().value == "*":
        p.next()
        atoms.append(_parse_atom(p))
    return atoms


def _parse_atom(p):
    t = p.peek()
    if t.kind == "sym" and t.value == "(":
        p.next()
        inner = _read_chain(p)
        p.expect("sym", ")")
        return ("group", inner, t)
    if t.kind == "sym" and t.value == "[":
        p.next()
        comps = []
        glues = []
        comps.append(_read_chain(p))
        while p.peek().value == ";":
            p.next()
            if p.peek().kind == "int":
                glues.append(int(p.next().value))
            else:
                glues.append(None)
            comps.append(_read_chain(p))
        p.expect("sym", "]")
        return ("tuple", (comps, glues), t)
    if t.kind == "name":
        p.next()
        return ("name", t.value, t)
    raise ParseError(t.line, t.col, "expected a term, found %r" % (t.value or t.kind))


def _elab_chain(atoms, tower, target):
    """Elaborate a `*`-chain left to right: each atom maps into the source
    of the one before it, the first into `target`."""
    term = None
    for atom in atoms:
        t = _elab_atom(atom, tower, target)
        term = t if term is None else coh.compose(term, t)
        target = t.source
    return term


def _elab_atom(atom, tower, target):
    kind, val, tok = atom
    if kind == "group":
        return _elab_chain(val, tower, target)
    if kind == "tuple":
        comps_atoms, glues = val
        comps = [_elab_chain(a, tower, target) for a in comps_atoms]
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


# ---------------------------------------------------------------------------
# Printing

def term_str(term):
    """Print a normal form back into the script syntax."""
    parts = _term_parts(term)
    return " * ".join(parts) if parts else "id"


def _term_parts(term):
    if isinstance(term, GMap):
        return _gmap_parts(term)
    if isinstance(term, coh.TupleT):
        return [_tuple_str(term.comps, term.src_table)]
    parts = _term_parts(term.tail)
    parts.append(term.gen.name)
    parts.extend(_term_parts(term.arg))
    return parts


def _gmap_parts(gm):
    if gm.is_identity:
        return []
    if gm.source.is_disk:
        k, w = theta0.decompose(gm)
        if gm.target.is_disk:
            return str(w).split(" * ")
        parts = ["eps%d" % (k + 1)]
        if not w.is_identity:
            parts.extend(str(w).split(" * "))
        return parts
    return [_tuple_str([gm.leg(k) for k in range(gm.source.width)], gm.source)]


def _tuple_str(comps, src_table):
    body = []
    for k, c in enumerate(comps):
        if k > 0:
            body.append(";%d" % src_table.lower[k - 1])
        body.append(term_str(c))
    return "[" + " ".join(body) + "]"


def emit_tower(tower):
    """A script that replays to an identical tower."""
    lines = ["dim %d" % tower.trunc]
    for gen in tower.gens():
        lines.append("lift %s : D%d -> %s ; src = %s ; tgt = %s"
                     % (gen.name, gen.dim, gen.target,
                        term_str(gen.fsrc), term_str(gen.gtgt)))
    return "\n".join(lines) + "\n"
