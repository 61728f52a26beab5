"""Immutable value algebra, pattern matching, and the canonical text rendering.

Values are the currency of everything that crosses the shared medium:
assertions, messages, and interest patterns, which are values too. They
are deeply immutable and hashable, so they can be shared freely.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterator, Optional, Union


class MalformedPatternEncoding(ValueError):
    pass


# ---------------------------------------------------------------------------
# Values

class _Value:
    """Slotted base of the value classes. Its slots cache the value's hash,
    its canonical text, for a checked record or sequence its height (see
    check_value), and, for a value used as a pattern, its compiled test,
    capture paths and constants (see compile_test) and its two interest
    records (see observe and message_interest); dataclass fields, equality
    and pickle state never see them."""
    __slots__ = ("_hash", "_text", "_height", "_test", "_captures", "_consts", "_observe", "_message_interest")


def _value_hash(self) -> int:
    """The dataclass-generated hash, computed once per value and process."""
    h = getattr(self, "_hash", None)  # no exception to build on the first hash
    if h is None:
        h = hash(self._field_tuple(self))
        object.__setattr__(self, "_hash", h)
    return h


def _refuse_assignment(self, name, *value):
    # The generated frozen __setattr__ would raise TypeError rather than
    # FrozenInstanceError for a non-field name such as _hash: slots=True
    # rebuilds the class, and the generated method still names the old one.
    raise FrozenInstanceError("cannot assign to field %r" % name)


@dataclass(frozen=True, slots=True)
class Symbol(_Value):
    name: str


@dataclass(frozen=True, slots=True)
class Integer(_Value):
    n: int


@dataclass(frozen=True, slots=True)
class Decimal(_Value):
    x: float


@dataclass(frozen=True, slots=True)
class Text(_Value):
    s: str


@dataclass(frozen=True, slots=True)
class Boolean(_Value):
    b: bool


@dataclass(frozen=True, slots=True)
class Sequence(_Value):
    items: tuple


@dataclass(frozen=True, slots=True)
class Record(_Value):
    label: Symbol
    fields: tuple


@dataclass(frozen=True, slots=True)
class Unique(_Value):
    serial: int


Value = Union[Symbol, Integer, Decimal, Text, Boolean, Sequence, Record, Unique]

# Record labels the runtime gives meaning: interests and pattern holes.
OBSERVE = Symbol("observe")
WILDCARD_LABEL = Symbol("wildcard")
CAPTURE_LABEL = Symbol("capture")
MESSAGE = Symbol("message")

_VALUE_TYPES = (Symbol, Integer, Decimal, Text, Boolean, Sequence, Record, Unique)

# Records and sequences nest at most this deep in text: deeper input would
# exhaust the recursion of the parser, of == and of hashing.
MAX_DEPTH = 100


def to_value(x, _room: int = MAX_DEPTH) -> Value:
    """Convert a host datum to a Value. Bools before ints: bool is an int.
    An instance of a subclass (an IntEnum member, say) is converted to its
    base type, the exact type check_value requires of an atom's field.
    Lists and tuples nested deeper than MAX_DEPTH raise ValueError."""
    if isinstance(x, _VALUE_TYPES):
        return x
    if isinstance(x, bool):
        return Boolean(x)
    if isinstance(x, int):
        return Integer(int(x))
    if isinstance(x, float):
        if x != x:
            raise ValueError("NaN is not a value: it equals nothing, so it could never be retracted")
        return Decimal(float(x))
    if isinstance(x, str):
        return Text(str(x))
    if isinstance(x, (list, tuple)):
        if not _room:
            raise ValueError("nesting deeper than %d levels" % MAX_DEPTH)
        return Sequence(tuple(to_value(i, _room - 1) for i in x))
    raise TypeError("cannot convert %r to a Value" % (x,))


def sym(name: str) -> Symbol:
    return Symbol(name)


def rec(label: Union[str, Symbol], *fields) -> Record:
    if isinstance(label, str):
        label = Symbol(label)
    return Record(label, tuple(to_value(f) for f in fields))


# ---------------------------------------------------------------------------
# Patterns are values: p's holes are the records (wildcard) and
# (capture "name"), so the interest assertion (observe p) holds p as is.

Pattern = Value  # a value read with its hole-labelled records as holes

_HOLE_LABELS = (WILDCARD_LABEL, CAPTURE_LABEL)
_HOLE_NAMES = tuple(label.name for label in _HOLE_LABELS)

WILDCARD = Record(WILDCARD_LABEL, ())


def cap(name: str) -> Record:
    return Record(CAPTURE_LABEL, (Text(name),))


def lit(x) -> Value:
    """x as a pattern that matches only x. A value holding a record labelled
    wildcard or capture is refused: as a pattern it would read as a hole."""
    v = to_value(x)
    if _holds_hole_label(v):
        raise ValueError("literal %s holds a record labelled wildcard or capture, "
                         "which as a pattern would read as a hole" % render(v))
    return v


def _holds_hole_label(v: Value) -> bool:
    cls = v.__class__
    if cls is Record:
        return v.label in _HOLE_LABELS or any(map(_holds_hole_label, v.fields))
    if cls is Sequence:
        return any(map(_holds_hole_label, v.items))
    return False


def rpat(label: Union[str, Symbol], *fields) -> Record:
    """Record pattern: rec, refusing a hole label."""
    r = rec(label, *fields)
    if r.label in _HOLE_LABELS:
        raise ValueError("record pattern %s is labelled %s, so it would read as a hole, "
                         "not as a record pattern" % (render(r), r.label.name))
    return r


def spat(*items) -> Sequence:
    return Sequence(tuple(to_value(i) for i in items))


def capture_names(p: Pattern) -> list:
    """The names of p's captures, in pre-order."""
    compile_test(p)
    return [name for name, _path in p._captures]


def check_linear(p: Pattern):
    names = capture_names(p)
    if len(names) != len(set(names)):
        raise ValueError("non-linear pattern: repeated capture in %r" % (p,))


def match(p: Pattern, v: Value) -> Optional[dict]:
    """Match p against a ground value; returns bindings or None. Total.
    The compiled test decides; each capture is then read at its path."""
    if not compile_test(p)(v):
        return None
    return {name: _at(v, path) for name, path in p._captures}


# ---------------------------------------------------------------------------
# Compiled patterns: a yes/no test of a value, and where each capture sits.

def compile_test(p: Pattern) -> Callable[[Value], bool]:
    """The test t of whether p matches v, built on the first call and kept
    in p's ``_test`` slot (as its hash is kept in ``_hash``), with
    ``_captures``: each capture's (name, field/item indices) in pre-order,
    and ``_consts``: p's constants as (paths, values), the path and value of
    each field with no hole under a node with one, in path order, or
    (((),), (p,)) for a p with no hole; a value p matches holds each of
    these values at its path. It builds no bindings. In one walk of p, a
    node with no hole gets a literal test: identity, the cached hashes, then
    ==. A node with a hole checks class, label and arity, then only the
    fields that are not holes. A malformed hole raises
    MalformedPatternEncoding."""
    try:
        return p._test
    except AttributeError:
        caps, consts = [], []
        t = _compile(p, (), caps, consts)
        if t is None:
            t, consts = _literal_test(p), [((), p)]
        consts.sort()  # the paths differ, so only they are compared
        object.__setattr__(p, "_captures", tuple(caps))  # values are frozen
        object.__setattr__(p, "_consts", tuple(zip(*consts)) or ((), ()))
        object.__setattr__(p, "_test", t)
        return t


def _always(v) -> bool:
    return True


def _compile(p: Pattern, path: tuple, caps: list, consts: list) -> Optional[Callable[[Value], bool]]:
    """The test of node p, or None if p holds no hole. Each capture's
    (name, path) is appended to caps, and each constant's (path, value) to
    consts."""
    cls = p.__class__
    if cls is Record:
        label, fs = p.label, p.fields
        if label in _HOLE_LABELS:
            if label == CAPTURE_LABEL and len(fs) == 1 and fs[0].__class__ is Text:
                caps.append((fs[0].s, path))
            elif fs or label == CAPTURE_LABEL:  # (wildcard) takes no field
                raise MalformedPatternEncoding(render(p))
            return _always
        checks = _field_tests(fs, path, caps, consts)
        return None if checks is None else _record_test(label, len(fs), checks)
    if cls is Sequence:
        checks = _field_tests(p.items, path, caps, consts)
        return None if checks is None else _sequence_test(len(p.items), checks)
    if cls in _ATOM_FIELDS:
        return None
    raise TypeError("not a pattern: %r" % (p,))


def _literal_test(lv: Value):
    h = hash(lv)

    def test(v):
        if v is lv:
            return True
        try:
            if v._hash != h:  # equal values hash alike
                return False
        except AttributeError:  # not hashed yet, or not a value
            pass
        return lv == v

    return test


def _field_tests(pats, path: tuple, caps: list, consts: list) -> Optional[tuple]:
    """The (index, test) of each field that is not a hole, or None if no
    field holds one; a field with no hole gets a literal test and is a
    constant."""
    tests = [_compile(q, path + (i,), caps, consts) for i, q in enumerate(pats)]
    if not any(tests):
        return None
    checks = []
    for i, (q, t) in enumerate(zip(pats, tests)):
        if t is None:
            consts.append((path + (i,), q))
            checks.append((i, _literal_test(q)))
        elif t is not _always:
            checks.append((i, t))
    return tuple(checks)


def _record_test(label: Symbol, n: int, checks: tuple):
    name = label.name

    def test(v):
        if v.__class__ is not Record:
            return False
        lbl, fs = v.label, v.fields
        if lbl.__class__ is not Symbol or lbl.name != name or len(fs) != n:
            return False
        for i, t in checks:
            if not t(fs[i]):
                return False
        return True

    return test


def _sequence_test(n: int, checks: tuple):
    def test(v):
        if v.__class__ is not Sequence or len(v.items) != n:
            return False
        xs = v.items
        for i, t in checks:
            if not t(xs[i]):
                return False
        return True

    return test


def observe(p: Pattern) -> Record:
    """The interest assertion for pattern p, (observe p): one record per
    pattern object, built on the first call and kept in p's ``_observe``
    slot, so an endpoint that installs p again asserts the identical value,
    its hash, text and height already cached. Values are frozen, so sharing
    the record is sound. p and its record refer to each other: the cyclic
    garbage collector frees the pair."""
    o = getattr(p, "_observe", None)  # no exception to build on the first call
    if o is None:
        o = Record(OBSERVE, (p,))
        object.__setattr__(p, "_observe", o)
    return o


def message_interest(p: Pattern) -> Record:
    """The interest assertion for messages matching p, (observe (message
    p)), kept in p's ``_message_interest`` slot as observe keeps its own."""
    o = getattr(p, "_message_interest", None)
    if o is None:
        o = Record(OBSERVE, (Record(MESSAGE, (p,)),))
        object.__setattr__(p, "_message_interest", o)
    return o


def index_key(v: Value):
    """The key a value or pattern is filed under for routing: a record's
    label name and arity, a sequence's length, an atom itself, and None, the
    catch-all key, for a record labelled wildcard or capture; (message x) is
    keyed as x is. A pattern matches only values that share its key, or any
    value if its key is None. Labels are compared by name, a str: a value's
    labels are Symbols (see check_value), and Symbol == is slower."""
    while v.__class__ is Record and len(v.fields) == 1 and v.label.name == "message":
        v = v.fields[0]
    cls = v.__class__
    if cls is Record:
        name = v.label.name
        return None if name in _HOLE_NAMES else (name, len(v.fields))
    if cls is Sequence:
        return len(v.items)
    return v


class PatternIndex(dict):
    """Patterns filed by what a value must hold to match them: index_key(p),
    then p's constant paths, then the constants at those paths (see
    compile_test), then {entry: p}. An emptied level goes with its last
    entry, so two indexes that file the same entries are equal, as dicts."""

    __slots__ = ()

    def add(self, entry, p: Pattern):
        """File entry under p, which must be compiled."""
        paths, consts = p._consts
        self.setdefault(index_key(p), {}).setdefault(paths, {}).setdefault(consts, {})[entry] = p

    def remove(self, entry, p: Pattern):
        key = index_key(p)
        paths, consts = p._consts
        groups = self[key]
        by_consts = groups[paths]
        bucket = by_consts[consts]
        del bucket[entry]
        if not bucket:
            del by_consts[consts]
            if not by_consts:
                del groups[paths]
                if not groups:
                    del self[key]

    def candidates(self, v: Value) -> list:
        """Each (entry, p) filed under v's key or the catch-all key whose
        constants v holds at their paths: every pattern that can match v,
        and some that do not; confirm with p's test. A path v is too shallow
        for, or that runs into an atom, finds nothing."""
        key = index_key(v)
        out = []
        for groups in (self.get(key), None if key is None else self.get(None)):
            if groups:
                for paths, by_consts in groups.items():
                    bucket = by_consts.get(tuple([_at(v, path) for path in paths]) if paths else ())
                    if bucket:
                        out += bucket.items()
        return out


def _at(v: Value, path: tuple) -> Optional[Value]:
    """The node of v at path, or None if v has none there."""
    try:
        for i in path:
            v = v.fields[i] if v.__class__ is Record else v.items[i]
    except (AttributeError, IndexError):  # an atom, or too few fields or items
        return None
    return v


# ---------------------------------------------------------------------------
# Canonical text rendering and its parser (used for traces and script files).

def render(v: Value) -> str:
    """The canonical text of v, computed once per value and kept in its
    ``_text`` slot, as its hash is kept in ``_hash``."""
    t = getattr(v, "_text", None)  # no exception to build on the first render
    if t is None:
        t = _render(v)
        object.__setattr__(v, "_text", t)
    return t


def _render(v: Value) -> str:
    if isinstance(v, Symbol):
        return _symbol_text(v.name)
    if isinstance(v, Integer):
        return str(v.n)
    if isinstance(v, Decimal):
        return repr(v.x + 0.0)  # -0.0 == 0.0: one value, one text
    if isinstance(v, Text):
        return '"%s"' % v.s.replace("\\", "\\\\").replace('"', '\\"')
    if isinstance(v, Boolean):
        return "#t" if v.b else "#f"
    if isinstance(v, Sequence):
        return "[%s]" % " ".join(render(i) for i in v.items)
    if isinstance(v, Record):
        label = _symbol_text(v.label.name)
        if v.fields:
            return "(%s %s)" % (label, " ".join(render(f) for f in v.fields))
        return "(%s)" % label
    if isinstance(v, Unique):
        return "#u%d" % v.serial
    raise TypeError("not a Value: %r" % (v,))


@lru_cache(maxsize=4096)  # the check parses the name; traces repeat few names
def _symbol_text(name: str) -> str:
    """A symbol bare when it reads back as the same symbol, else quoted
    Preserves-style as |...| with backslash escapes."""
    if name and _QUOTE_IF.isdisjoint(name):
        try:
            if _parse_atom(name) == Symbol(name):
                return name
        except ParseError:
            pass
    return "|%s|" % name.replace("\\", "\\\\").replace("|", "\\|")


# Values print as their canonical text, hash through the cached slot (frozen
# dataclasses would otherwise get a generated, uncached __hash__) and refuse
# every assignment. _field_tuple gives the tuple of fields the generated hash
# hashes; attrgetter gives a bare value, not a tuple, for a single name.
for _t in _VALUE_TYPES:
    _t.__repr__ = render
    _t.__hash__ = _value_hash
    _get = attrgetter(*_t.__match_args__)
    _t._field_tuple = staticmethod(_get if len(_t.__match_args__) > 1 else lambda v, g=_get: (g(v),))
    _t.__setattr__ = _t.__delattr__ = _refuse_assignment


class ParseError(ValueError):
    pass


_DELIMS = set("()[]\"| \t\n\r")
_QUOTE_IF = _DELIMS | {";"}


# Each atom class's one field and the exact type it must hold: an Integer
# of a bool, a Decimal of an int or a Symbol of an int would render as text
# that reads back as another value, or not at all.
_ATOM_FIELDS = {
    Symbol: ("name", str),
    Integer: ("n", int),
    Decimal: ("x", float),
    Text: ("s", str),
    Boolean: ("b", bool),
    Unique: ("serial", int),
}
# An int of at most this many bits has fewer than 640 digits, the least
# limit sys.set_int_max_str_digits accepts, so str() writes it whatever the
# limit; only a longer one is tried.
_PRINTABLE_BITS = 2048


def check_value(v, limit: int = MAX_DEPTH) -> Value:
    """Return v if it is a well-formed value: each atom's field of its exact
    type (see _ATOM_FIELDS), no Decimal NaN and no Integer or Unique with
    more digits than str() writes, each record label a Symbol,
    fields and items tuples of values, records and sequences nested at
    most `limit` deep (the text syntax reads MAX_DEPTH). Raise ValueError
    otherwise. The walk stops at the limit, so it cannot exhaust the stack.
    A record or sequence whose walk succeeded keeps its height, the records
    and sequences on its longest path, in its ``_height`` slot: values are
    frozen, so a value checked again costs one read of that slot."""
    _check_nodes(v, limit, limit)
    return v


def _check_nodes(v, room: int, limit: int) -> int:
    """The height of v, which must be at most room; limit names the bound
    in the error."""
    cls = v.__class__
    atom = _ATOM_FIELDS.get(cls)
    if atom is not None:
        name, typ = atom
        x = getattr(v, name)
        if x.__class__ is not typ:
            raise ValueError("%s.%s is %s, not %s" % (cls.__name__, name, type(x).__name__, typ.__name__))
        if x != x:
            raise ValueError("NaN is not a value: it equals nothing, so it could never be retracted")
        if typ is int and x.bit_length() > _PRINTABLE_BITS:
            try:
                str(x)
            except ValueError as e:
                raise ValueError("%s.%s has no text: %s" % (cls.__name__, name, e)) from None
        return 0
    if cls is not Record and cls is not Sequence:
        raise ValueError("%s is not a value" % cls.__name__)
    h = getattr(v, "_height", None)  # no exception to build on the first check
    if h is None:
        if cls is Record:
            if v.label.__class__ is not Symbol:
                raise ValueError("record label is %s, not a Symbol" % type(v.label).__name__)
            _check_nodes(v.label, room, limit)
            kids = v.fields
        else:
            kids = v.items
        if kids.__class__ is not tuple:
            raise ValueError("%s holds a %s, not a tuple" % (cls.__name__, type(kids).__name__))
        if room:
            h = 0
            for k in kids:
                hk = _check_nodes(k, room - 1, limit)
                if hk > h:
                    h = hk
            h += 1
            object.__setattr__(v, "_height", h)  # only once every node below passed
    if h is None or h > room:
        raise ValueError("nesting deeper than %d levels" % limit)
    return h


def _read_quoted(text: str, i: int, what: str):
    """Content and end index of the quoted token opening at text[i]; a
    backslash escapes the next character."""
    quote, j, n = text[i], i + 1, len(text)
    out = []
    while j < n and text[j] != quote:
        if text[j] == "\\" and j + 1 < n:
            out.append(text[j + 1])
            j += 2
        else:
            out.append(text[j])
            j += 1
    if j >= n:
        raise ParseError("unterminated %s" % what)
    return "".join(out), j + 1


def _tokenize(text: str) -> Iterator[str]:
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\n\r":
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()[]":
            yield c
            i += 1
        elif c == '"':
            s, i = _read_quoted(text, i, "string literal")
            yield '"' + s
        elif c == "|":
            s, i = _read_quoted(text, i, "quoted symbol")
            yield "|" + s
        else:
            j = i
            while j < n and text[j] not in _DELIMS:
                j += 1
            yield text[i:j]
            i = j


# what int() reads as an integer, whatever its length
_INTEGER_LITERAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _parse_atom(tok: str) -> Value:
    if tok.startswith('"'):
        return Text(tok[1:])
    if tok.startswith("|"):
        return Symbol(tok[1:])
    if tok == "#t":
        return Boolean(True)
    if tok == "#f":
        return Boolean(False)
    if tok.startswith("#u"):
        try:
            return Unique(int(tok[2:]))
        except ValueError:
            raise ParseError("bad unique literal: %s" % tok)
    try:
        return Integer(int(tok))
    except ValueError as e:
        if _INTEGER_LITERAL.fullmatch(tok):  # int() refuses it for its length
            raise ParseError("%s: %.20s..." % (e, tok)) from None
    try:
        x = float(tok)
    except ValueError:
        return Symbol(tok)
    if x != x:
        raise ParseError("NaN is not a value: %s" % tok)
    return Decimal(x)


def _parse_one(tokens: list, pos: int, depth: int = 0):
    if pos >= len(tokens):
        raise ParseError("unexpected end of input")
    tok = tokens[pos]
    if depth == MAX_DEPTH and tok in ("(", "["):
        raise ParseError("nesting deeper than %d levels" % MAX_DEPTH)
    if tok == "(":
        pos += 1
        label = None if pos >= len(tokens) or tokens[pos] in "()[]" else _parse_atom(tokens[pos])
        if not isinstance(label, Symbol):
            raise ParseError("record must start with a symbol label")
        pos += 1
        fields = []
        while pos < len(tokens) and tokens[pos] != ")":
            f, pos = _parse_one(tokens, pos, depth + 1)
            fields.append(f)
        if pos >= len(tokens):
            raise ParseError("missing )")
        return Record(label, tuple(fields)), pos + 1
    if tok == "[":
        pos += 1
        items = []
        while pos < len(tokens) and tokens[pos] != "]":
            i, pos = _parse_one(tokens, pos, depth + 1)
            items.append(i)
        if pos >= len(tokens):
            raise ParseError("missing ]")
        return Sequence(tuple(items)), pos + 1
    if tok in ")]":
        raise ParseError("unexpected %s" % tok)
    return _parse_atom(tok), pos + 1


def parse(text: str) -> Value:
    tokens = list(_tokenize(text))
    v, pos = _parse_one(tokens, 0)
    if pos != len(tokens):
        raise ParseError("trailing input after value")
    return v


def parse_all(text: str) -> list:
    tokens = list(_tokenize(text))
    out, pos = [], 0
    while pos < len(tokens):
        v, pos = _parse_one(tokens, pos)
        out.append(v)
    return out
