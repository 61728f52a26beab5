"""Immutable value algebra, pattern matching, and the canonical text rendering.

Values are the currency of everything that crosses the shared medium:
assertions, messages, and (encoded) interest patterns. They are deeply
immutable and hashable, so they can be shared freely.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterator, Optional, Union


class MalformedPatternEncoding(ValueError):
    pass


class UnboundCapture(KeyError):
    pass


# ---------------------------------------------------------------------------
# Values

class _Value:
    """Slotted base of the value classes. Its one slot caches the value's
    hash; dataclass fields, equality and pickle state never see it."""
    __slots__ = ("_hash",)


def _value_hash(self) -> int:
    """The dataclass-generated hash, computed once per value and process."""
    try:
        return self._hash
    except AttributeError:
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

# Record labels reserved for the runtime's pattern encoding.
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
    Lists and tuples nested deeper than MAX_DEPTH raise ValueError."""
    if isinstance(x, _VALUE_TYPES):
        return x
    if isinstance(x, bool):
        return Boolean(x)
    if isinstance(x, int):
        return Integer(x)
    if isinstance(x, float):
        if x != x:
            raise ValueError("NaN is not a value: it equals nothing, so it could never be retracted")
        return Decimal(x)
    if isinstance(x, str):
        return Text(x)
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
# Patterns

@dataclass(frozen=True)
class Wildcard:
    def __repr__(self):
        return "_"


WILDCARD = Wildcard()


@dataclass(frozen=True)
class Capture:
    name: str

    def __repr__(self):
        return "$" + self.name


@dataclass(frozen=True)
class Literal:
    v: Value

    def __repr__(self):
        return repr(self.v)


@dataclass(frozen=True)
class RecordPat:
    label: Symbol
    fields: tuple

    def __repr__(self):
        return "(%s)" % " ".join([self.label.name] + [repr(f) for f in self.fields])


@dataclass(frozen=True)
class SequencePat:
    items: tuple

    def __repr__(self):
        return "[%s]" % " ".join(repr(i) for i in self.items)


Pattern = Union[Wildcard, Capture, Literal, RecordPat, SequencePat]
_PATTERN_TYPES = (Wildcard, Capture, Literal, RecordPat, SequencePat)


def lit(x) -> Literal:
    return Literal(to_value(x))


def cap(name: str) -> Capture:
    return Capture(name)


def _to_pattern(x) -> Pattern:
    if isinstance(x, _PATTERN_TYPES):
        return x
    return Literal(to_value(x))


def rpat(label: Union[str, Symbol], *fields) -> Pattern:
    """Record pattern; collapses to a Literal when every field is ground.

    The collapse keeps patterns canonical, so that decode(encode(p)) = p.
    """
    if isinstance(label, str):
        label = Symbol(label)
    pats = tuple(_to_pattern(f) for f in fields)
    if all(isinstance(p, Literal) for p in pats):
        return Literal(Record(label, tuple(p.v for p in pats)))
    return RecordPat(label, pats)


def spat(*items) -> Pattern:
    pats = tuple(_to_pattern(i) for i in items)
    if all(isinstance(p, Literal) for p in pats):
        return Literal(Sequence(tuple(p.v for p in pats)))
    return SequencePat(pats)


def capture_names(p: Pattern) -> list:
    if isinstance(p, Capture):
        return [p.name]
    if isinstance(p, (RecordPat, SequencePat)):
        out = []
        for f in (p.fields if isinstance(p, RecordPat) else p.items):
            out.extend(capture_names(f))
        return out
    return []


def check_linear(p: Pattern):
    names = capture_names(p)
    if len(names) != len(set(names)):
        raise ValueError("non-linear pattern: repeated capture in %r" % (p,))


def match(p: Pattern, v: Value) -> Optional[dict]:
    """Match p against a ground value; returns bindings or None. Total."""
    if isinstance(p, Wildcard):
        return {}
    if isinstance(p, Capture):
        return {p.name: v}
    if isinstance(p, Literal):
        return {} if p.v == v else None
    if isinstance(p, RecordPat):
        if not isinstance(v, Record) or v.label != p.label:
            return None
        if len(v.fields) != len(p.fields):
            return None
        return _match_all(p.fields, v.fields)
    if isinstance(p, SequencePat):
        if not isinstance(v, Sequence) or len(v.items) != len(p.items):
            return None
        return _match_all(p.items, v.items)
    raise TypeError("not a pattern: %r" % (p,))


def _match_all(pats, vals) -> Optional[dict]:
    out = {}
    for sub_p, sub_v in zip(pats, vals):
        b = match(sub_p, sub_v)
        if b is None:
            return None
        out.update(b)
    return out


# ---------------------------------------------------------------------------
# Routing tests: a pattern compiled once into a yes/no test of a value.

def compile_test(p: Pattern) -> Callable[[Value], bool]:
    """The test t with t(v) == (match(p, v) is not None) for every v, built
    on the first call and kept on p as ``p._test`` (as a value keeps its
    hash). It builds no bindings. A record or sequence node checks class,
    label and arity, then only the fields that are not wildcards or
    captures; a literal compares identity, the cached hashes, then ==."""
    try:
        return p._test
    except AttributeError:
        t = _compile(p)
        object.__setattr__(p, "_test", t)  # patterns are frozen dataclasses
        return t


def _always(v) -> bool:
    return True


def _compile(p: Pattern) -> Callable[[Value], bool]:
    if isinstance(p, (Wildcard, Capture)):
        return _always
    if isinstance(p, Literal):
        return _literal_test(p.v)
    if isinstance(p, RecordPat):
        return _record_test(p.label, p.fields)
    if isinstance(p, SequencePat):
        return _sequence_test(p.items)
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


def _field_tests(pats) -> tuple:
    return tuple((i, _compile(q)) for i, q in enumerate(pats) if not isinstance(q, (Wildcard, Capture)))


def _record_test(label: Symbol, pats: tuple):
    name, n, checks = label.name, len(pats), _field_tests(pats)

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


def _sequence_test(pats: tuple):
    n, checks = len(pats), _field_tests(pats)

    def test(v):
        if v.__class__ is not Sequence or len(v.items) != n:
            return False
        xs = v.items
        for i, t in checks:
            if not t(xs[i]):
                return False
        return True

    return test


def instantiate(p: Pattern, b: dict) -> Pattern:
    """Replace each capture by the literal it is bound to; keep wildcards."""
    if isinstance(p, Capture):
        if p.name not in b:
            raise UnboundCapture(p.name)
        return Literal(b[p.name])
    if isinstance(p, RecordPat):
        return rpat(p.label, *[instantiate(f, b) for f in p.fields])
    if isinstance(p, SequencePat):
        return spat(*[instantiate(i, b) for i in p.items])
    return p


# ---------------------------------------------------------------------------
# Pattern <-> Value encoding: interests are themselves assertions.

def encode(p: Pattern) -> Value:
    if isinstance(p, Wildcard):
        return Record(WILDCARD_LABEL, ())
    if isinstance(p, Capture):
        return Record(CAPTURE_LABEL, (Text(p.name),))
    if isinstance(p, Literal):
        if _holds_reserved_label(p.v):
            raise ValueError(
                "literal %s holds a record labelled wildcard or capture; "
                "its encoding would decode as a pattern, not as itself" % render(p.v)
            )
        return p.v
    if isinstance(p, RecordPat):
        if p.label in (WILDCARD_LABEL, CAPTURE_LABEL):
            raise ValueError(
                "record pattern %r is labelled %s; its encoding would decode as "
                "a wildcard or capture, not as a record pattern" % (p, p.label.name)
            )
        return Record(p.label, tuple(encode(f) for f in p.fields))
    if isinstance(p, SequencePat):
        return Sequence(tuple(encode(i) for i in p.items))
    raise TypeError("not a pattern: %r" % (p,))


def _holds_reserved_label(v: Value) -> bool:
    if isinstance(v, Record):
        return v.label in (WILDCARD_LABEL, CAPTURE_LABEL) or any(map(_holds_reserved_label, v.fields))
    if isinstance(v, Sequence):
        return any(map(_holds_reserved_label, v.items))
    return False


def decode(v: Value) -> Pattern:
    """Invert encode. Ground values decode to Literal of themselves, so a
    plain assertion doubles as an exact-match pattern."""
    if isinstance(v, Record):
        if v.label == WILDCARD_LABEL:
            if v.fields:
                raise MalformedPatternEncoding(render(v))
            return WILDCARD
        if v.label == CAPTURE_LABEL:
            if len(v.fields) != 1 or not isinstance(v.fields[0], Text):
                raise MalformedPatternEncoding(render(v))
            return Capture(v.fields[0].s)
        return rpat(v.label, *[decode(f) for f in v.fields])
    if isinstance(v, Sequence):
        return spat(*[decode(i) for i in v.items])
    return Literal(v)


def observe(p: Pattern) -> Record:
    """The interest assertion for pattern p."""
    return Record(OBSERVE, (encode(p),))


def message_interest(p: Pattern) -> Record:
    """The interest assertion for messages matching p."""
    return Record(OBSERVE, (Record(MESSAGE, (encode(p),)),))


# ---------------------------------------------------------------------------
# Canonical text rendering and its parser (used for traces and script files).

def render(v: Value) -> str:
    if isinstance(v, Symbol):
        return _symbol_text(v.name)
    if isinstance(v, Integer):
        return str(v.n)
    if isinstance(v, Decimal):
        return repr(v.x)
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


_ATOM_TYPES = frozenset((Symbol, Integer, Decimal, Text, Boolean, Unique))


def check_value(v, limit: int = MAX_DEPTH) -> Value:
    """Return v if it is a well-formed value: each record label a Symbol,
    fields and items tuples of values, records and sequences nested at
    most `limit` deep (the text syntax reads MAX_DEPTH). Raise ValueError
    otherwise. The walk stops at the limit, so it cannot exhaust the stack."""
    _check_nodes(v, limit, limit)
    return v


def _check_nodes(v, room: int, limit: int):
    cls = v.__class__
    if cls is Record:
        if v.label.__class__ is not Symbol:
            raise ValueError("record label is %s, not a Symbol" % type(v.label).__name__)
        kids = v.fields
    elif cls is Sequence:
        kids = v.items
    elif cls in _ATOM_TYPES:
        return
    else:
        raise ValueError("%s is not a value" % cls.__name__)
    if kids.__class__ is not tuple:
        raise ValueError("%s holds a %s, not a tuple" % (cls.__name__, type(kids).__name__))
    if not room:
        raise ValueError("nesting deeper than %d levels" % limit)
    for k in kids:
        if k.__class__ not in _ATOM_TYPES:
            _check_nodes(k, room - 1, limit)


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
    except ValueError:
        pass
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
