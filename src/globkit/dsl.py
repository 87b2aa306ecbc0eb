"""Line-oriented tower scripts: parsing, printing, round-trip.

A script is scanned once, without positions; a token's line and column are
computed (by `tokenize`) only for an error that reports them.

    dim 4
    lift comp1_0 : D1 -> D1 +0 D1 ; src = eps2 * s1 ; tgt = eps1 * t1

Terms use `*` for composition (the right operand applies first), `id`,
generator names, `s<k>` / `t<k>` boundary words, `eps<k>` cocone legs
(1-indexed), and tuples `[t1 ;j t2]` whose gluing dimensions may be given
explicitly after each separator or inferred as the largest compatible one;
`(...)` groups a composite, and `[t]` over one disk is `t`.
"""

from __future__ import annotations

import itertools
import re

from . import coherator as coh
from . import theta0
from .coherator import InadmissibleError, TermError, Tower
from .globe import DEFAULT_TRUNC, MAX_DIM, GlobkitError, Record, Table, disk
from .theta0 import GMap, MatchingError


class ParseError(GlobkitError):
    exit_code = 2

    def __init__(self, line, col, msg):
        self.line = line
        self.col = col
        super().__init__("line %d, column %d: %s" % (line, col, msg))


class CheckError(GlobkitError):
    """A script parses but declares something invalid."""

    def __init__(self, line, msg):
        self.line = line
        super().__init__("line %d: %s" % (line, msg))


class Token(Record):
    """A token: its kind, its text, and its line and column, both from 1."""

    __slots__ = _fields = ("kind", "value", "line", "col")


# Each match is one token and the blanks before it: a comment, a newline,
# an int, a name, an arrow, a symbol, the end of the text (the empty token)
# or, last, any one character that starts no token.
_TOKEN_RE = re.compile(r"[ \t]*(#[^\n]*|\n|[0-9]+|[A-Za-z_][A-Za-z0-9_.]*|->|[:;=*\[\]()+]|\Z|.)")

# A token's kind, read off its first character; `_kind` reads the rest.
_FIRST = dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "name")
_FIRST.update(dict.fromkeys("0123456789", "int"))
_FIRST.update(dict.fromkeys(":;=*[]()+", "sym"))
_FIRST.update({"#": "comment", "\n": "nl", "": "eof"})


def _kind(value):
    """The kind of a token whose first character `_FIRST` does not list."""
    return "arrow" if value == "->" else "bad"


def tokenize(text):
    """The script's tokens, each with its line and column (both from 1);
    a column counts characters from the start of its line.  The parser
    scans without positions and asks here only for an error's."""
    return list(_tokens(text))


def _tokens(text):
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        value = m.group(1)
        kind = _FIRST.get(value[:1]) or _kind(value)
        col = m.start(1) - line_start + 1
        if kind == "bad":
            raise ParseError(line, col, "unexpected character %r" % value)
        if kind != "comment":
            yield Token(kind, value, line, col)
        if kind == "eof":
            return
        if kind == "nl":
            line += 1
            line_start = m.end()


class _Parser:
    """A script as two parallel lists, token kinds and values, from one
    scan; a token is named by its index, and its position is computed only
    when an error reports it."""

    def __init__(self, text):
        values = _TOKEN_RE.findall(text)
        # a text ending in blanks yields a second, empty match at its end
        del values[values.index("") + 1:]
        kinds = [_FIRST.get(v[:1]) or _kind(v) for v in values]
        if "bad" in kinds:
            tokenize(text)  # raises at the first bad character
        if "comment" in kinds:
            kept = [i for i, k in enumerate(kinds) if k != "comment"]
            kinds = [kinds[i] for i in kept]
            values = [values[i] for i in kept]
        self.text = text
        self.kinds = kinds
        self.values = values
        self.pos = 0
        self.builtins = {}  # (name, target table) -> term of `id`, `s<k>`, `t<k>`, `eps<k>`

    def token(self, i):
        """Token `i` with its position, read off the tokens up to it."""
        return next(itertools.islice(_tokens(self.text), i, None))

    def error(self, i, msg):
        """The `ParseError` of `msg` at token `i`."""
        t = self.token(i)
        return ParseError(t.line, t.col, msg)

    def found(self, i):
        return self.values[i] or self.kinds[i]

    def next(self):
        """The index of the next token, which is consumed."""
        i = self.pos
        self.pos = i + 1
        return i

    def at(self, value):
        """Whether the next token is `value`, which names its kind."""
        return self.values[self.pos] == value

    def expect(self, kind, value=None):
        i = self.next()
        if self.kinds[i] != kind or (value is not None and self.values[i] != value):
            raise self.error(i, "expected %s, found %r" % (value or kind, self.found(i)))
        return i

    def skip_newlines(self):
        while self.values[self.pos] == "\n":
            self.pos += 1


_DISK_RE = re.compile(r"^D([0-9]+)$")
_WORD_RE = re.compile(r"^([st])([0-9]+)$")
_EPS_RE = re.compile(r"^eps([0-9]+)$")


def parse_tower(text, trunc=None):
    """Parse and replay a tower script; returns the declared Tower."""
    p = _Parser(text)
    tower = None
    declared_dim = None
    p.skip_newlines()
    while p.kinds[p.pos] != "eof":
        i = p.pos
        if p.at("dim"):
            p.next()
            n = p.expect("int")
            if tower is not None and len(tower):
                raise p.error(n, "dim must precede all lifts")
            if declared_dim is not None:
                raise p.error(i, "dim may be given only once")
            declared_dim = int(p.values[n])
            if trunc is not None:
                tower = Tower(trunc)
            else:
                try:
                    tower = Tower(declared_dim)
                except TermError as e:
                    raise CheckError(p.token(i).line, str(e))
        elif p.at("lift"):
            if tower is None:
                tower = Tower(trunc if trunc is not None else DEFAULT_TRUNC)
            _parse_lift(p, tower)
        else:
            raise p.error(i, "expected 'dim' or 'lift', found %r" % p.found(i))
        if p.kinds[p.pos] not in ("nl", "eof"):
            raise p.error(p.pos, "trailing input %r" % p.values[p.pos])
        p.skip_newlines()
    if tower is None:
        tower = Tower(trunc if trunc is not None else DEFAULT_TRUNC)
    return tower


def _parse_lift(p, tower):
    kw = p.expect("name", "lift")
    i = p.next()
    if p.kinds[i] != "name":
        raise p.error(i, "expected a generator name")
    name = p.values[i]
    for pat in (_DISK_RE, _WORD_RE, _EPS_RE):
        if pat.match(name) or name == "id":
            raise p.error(i, "name %r shadows built-in syntax" % name)
    p.expect("sym", ":")
    i = p.next()
    md = _DISK_RE.match(p.values[i]) if p.kinds[i] == "name" else None
    if md is None:
        raise p.error(i, "expected a disk D<n>")
    gdim = int(md.group(1))
    if not 1 <= gdim <= MAX_DIM:
        raise p.error(i, "a lift starts at D1 to D%d, not D%d" % (MAX_DIM, gdim))
    source = disk(gdim - 1)
    p.expect("arrow")
    table = _parse_table(p)
    p.expect("sym", ";")
    p.expect("name", "src")
    p.expect("sym", "=")
    fsrc = _elab_chain(p, _read_chain(p), tower, table)
    p.expect("sym", ";")
    p.expect("name", "tgt")
    p.expect("sym", "=")
    gtgt = _elab_chain(p, _read_chain(p), tower, table)
    if fsrc.source != source:
        raise p.error(kw, "src term starts at %s, expected %s" % (fsrc.source, source))
    if gtgt.source != source:
        raise p.error(kw, "tgt term starts at %s, expected %s" % (gtgt.source, source))
    try:
        tower.declare(name, fsrc, gtgt)
    except (InadmissibleError, TermError) as e:
        raise CheckError(p.token(kw).line, "lift %s: %s" % (name, e))


def _parse_table(p):
    first = p.next()
    m = _DISK_RE.match(p.values[first]) if p.kinds[first] == "name" else None
    if m is None:
        raise p.error(first, "expected a disk D<n>")
    upper = [int(m.group(1))]
    lower = []
    while p.at("+"):
        p.next()
        j = p.expect("int")
        d = p.next()
        m = _DISK_RE.match(p.values[d]) if p.kinds[d] == "name" else None
        if m is None:
            raise p.error(d, "expected a disk D<n>")
        lower.append(int(p.values[j]))
        upper.append(int(m.group(1)))
    try:
        return Table(tuple(upper), tuple(lower))
    except Exception as e:
        raise p.error(first, "invalid table: %s" % e)


def parse_table(text):
    """Parse a whole text as one table of dimensions, e.g. `D1 +0 D1`."""
    p = _Parser(text)
    table = _parse_table(p)
    _expect_end(p)
    return table


def parse_term(text, tower, target):
    """Parse a whole text as one term into the table `target`."""
    p = _Parser(text)
    term = _elab_chain(p, _read_chain(p), tower, target)
    _expect_end(p)
    return term


def implied_target(text, tower):
    """The target table a term's first token implies when it is a
    generator name or a boundary word `s<k>`/`t<k>`, else None.  Raises
    `ParseError` at a character that starts no token, and `GlobeError`
    for a word past `MAX_DIM`."""
    p = _Parser(text)
    if p.kinds[0] != "name":
        return None
    name = p.values[0]
    if name in tower:
        return tower[name].target
    m = _WORD_RE.match(name)
    return disk(int(m.group(2))) if m else None


def _expect_end(p):
    if p.kinds[p.pos] != "eof":
        raise p.error(p.pos, "trailing input %r" % p.found(p.pos))


def _read_chain(p):
    """The atoms of a `*`-chain, read but not yet elaborated."""
    atoms = [_parse_atom(p)]
    while p.values[p.pos] == "*":
        p.pos += 1
        atoms.append(_parse_atom(p))
    return atoms


def _parse_atom(p):
    """One atom, tagged with the index of its first token."""
    i = p.pos
    value = p.values[i]
    if p.kinds[i] == "name":
        p.pos = i + 1
        return ("name", value, i)
    if value == "(":
        p.pos = i + 1
        inner = _read_chain(p)
        p.expect("sym", ")")
        return ("group", inner, i)
    if value == "[":
        p.pos = i + 1
        comps = [_read_chain(p)]
        glues = []
        while p.values[p.pos] == ";":
            p.pos += 1
            if p.kinds[p.pos] == "int":
                glues.append(int(p.values[p.next()]))
            else:
                glues.append(None)
            comps.append(_read_chain(p))
        p.expect("sym", "]")
        return ("tuple", (comps, glues), i)
    raise p.error(i, "expected a term, found %r" % p.found(i))


def _elab_chain(p, atoms, tower, target):
    """Elaborate a `*`-chain left to right: each atom maps into the source
    of the one before it, the first into `target`."""
    term = None
    for atom in atoms:
        t = _elab_atom(p, atom, tower, target)
        term = t if term is None else coh.compose(term, t)
        target = t.source
    return term


def _elab_atom(p, atom, tower, target):
    kind, val, i = atom
    if kind == "group":
        return _elab_chain(p, val, tower, target)
    if kind == "tuple":
        comps_atoms, glues = val
        comps = [_elab_chain(p, a, tower, target) for a in comps_atoms]
        for c in comps:
            if not c.source.is_disk:
                raise p.error(i, "tuple components must start at disks")
        upper = tuple(c.source.upper[0] for c in comps)
        lower = []
        for k, g in enumerate(glues):
            if g is not None:
                lower.append(g)
                continue
            found = next((j for j in range(min(upper[k], upper[k + 1]) - 1, -1, -1)
                          if coh.gluing_error(k, j, comps[k], comps[k + 1]) is None), None)
            if found is None:
                raise p.error(i, "no gluing dimension matches tuple components %d, %d"
                              % (k + 1, k + 2))
            lower.append(found)
        try:
            return coh.tuple_term(comps, Table(upper, tuple(lower)))
        except (MatchingError, TermError) as e:
            raise p.error(i, "bad tuple: %s" % e)
    key = (val, target)
    term = p.builtins.get(key)
    if term is None:
        term = _builtin(p, val, target, i)
        if term is None:
            return _generator(p, val, tower, target, i)
        p.builtins[key] = term
    return term


def _builtin(p, name, target, i):
    """The term of `id`, `s<k>`, `t<k>` or `eps<k>` into `target`; None
    for any other name."""
    if name == "id":
        return coh.identity(target)
    m = _WORD_RE.match(name)
    if m is not None:
        k = int(m.group(2))
        if k < 1:
            raise p.error(i, "boundary words start at s1/t1")
        if not (target.is_disk and target.dimension == k):
            raise p.error(i, "%s maps into D%d, but %s is expected here" % (name, k, target))
        return coh.wordt(m.group(1), k - 1, k)
    m = _EPS_RE.match(name)
    if m is not None:
        k = int(m.group(1))
        if not (1 <= k <= target.width):
            raise p.error(i, "leg %d out of range for %s" % (k, target))
        return coh.eps(target, k - 1)
    return None


def _generator(p, name, tower, target, i):
    if name in tower:
        gen = tower[name]
        if gen.target != target:
            raise p.error(i, "%s maps into %s, but %s is expected here"
                          % (name, gen.target, target))
        return tower.term(name)
    raise p.error(i, "unknown name %r" % name)


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
