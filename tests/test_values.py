import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import facetspace

from facetspace.values import (
    Boolean,
    Capture,
    Decimal,
    Integer,
    Literal,
    MalformedPatternEncoding,
    ParseError,
    Record,
    RecordPat,
    Sequence,
    SequencePat,
    Symbol,
    Text,
    UnboundCapture,
    Unique,
    WILDCARD,
    cap,
    capture_names,
    check_linear,
    check_value,
    compile_test,
    decode,
    encode,
    instantiate,
    lit,
    match,
    message_interest,
    observe,
    parse,
    parse_all,
    rec,
    render,
    rpat,
    spat,
    sym,
    to_value,
)

# ---------------------------------------------------------------------------
# construction

def test_to_value_conversions():
    assert to_value(5) == Integer(5)
    assert to_value(True) == Boolean(True)  # bool checked before int
    assert to_value(2.5) == Decimal(2.5)
    assert to_value("hi") == Text("hi")
    assert to_value([1, "a"]) == Sequence((Integer(1), Text("a")))
    assert to_value(Symbol("x")) == Symbol("x")
    with pytest.raises(TypeError):
        to_value(object())


def test_rec_converts_fields():
    r = rec("price", 100)
    assert r == Record(Symbol("price"), (Integer(100),))


# ---------------------------------------------------------------------------
# rendering

def test_render_golden():
    assert render(rec("price", 100)) == "(price 100)"
    assert render(Unique(7)) == "#u7"
    assert render(Boolean(True)) == "#t"
    assert render(Boolean(False)) == "#f"
    assert render(Sequence((Integer(1), Integer(2)))) == "[1 2]"
    assert render(Text("text")) == '"text"'
    assert render(rec("order-result", rec("order", Unique(0)), sym("fulfilled"))) == \
        "(order-result (order #u0) fulfilled)"


def test_render_escapes_strings():
    assert render(Text('a"b')) == '"a\\"b"'
    assert render(Text("a\\b")) == '"a\\\\b"'
    assert parse(render(Text('a"b\\c'))) == Text('a"b\\c')


def test_render_quotes_symbols_that_would_read_back_otherwise():
    for name in ["1", "-2.5", "inf", "nan", "#t", "#u3", "a b", "", "x;y", "a|b", "(", '"q']:
        text = render(Symbol(name))
        assert text.startswith("|") and text.endswith("|"), text
        assert parse(text) == Symbol(name)
    assert render(Symbol("a|b\\c")) == "|a\\|b\\\\c|"
    assert render(Record(Symbol("1"), (Integer(1),))) == "(|1| 1)"
    assert parse("(|1| 1)") == Record(Symbol("1"), (Integer(1),))
    for name in ["fulfilled", "trading-day-open", "-", "#x", "a.b"]:
        assert render(Symbol(name)) == name


def test_nan_is_not_a_value():
    with pytest.raises(ValueError):
        to_value(float("nan"))
    with pytest.raises(ParseError):
        parse("nan")


def test_parse_basics():
    assert parse("(price 100)") == rec("price", 100)
    assert parse("#u7") == Unique(7)
    assert parse("[1 2.5 #t x]") == Sequence(
        (Integer(1), Decimal(2.5), Boolean(True), Symbol("x"))
    )
    assert parse("(flag)") == rec("flag")


def nested(depth, open_="[", close="]"):
    return open_ * depth + "1" + close * depth


def test_parse_errors():
    for bad in ["(", "()", "(1 2)", "[1", '"open', "x y", ")", "#uxyz", "", "|open",
                nested(101), nested(101, "(a ", ")"), nested(250), nested(3000)]:
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_accepts_nesting_up_to_the_bound():
    for text in [nested(100), nested(50, "[(a ", ")]")]:
        v = parse(text)
        assert v == parse(text)
        assert parse(render(v)) == v


def test_check_value_bounds_nesting_like_the_parser():
    for text in [nested(100), nested(50, "[(a ", ")]")]:
        v = parse(text)
        assert check_value(v) is v
        assert check_value(Sequence((v,) * 3), limit=101)
        with pytest.raises(ValueError, match="nesting deeper than 100 levels"):
            check_value(rec("a", 1, v))
    v = parse(nested(99))
    with pytest.raises(ValueError, match="nesting deeper than 98 levels"):
        check_value(v, limit=98)
    assert check_value(v) is v


def test_check_value_refuses_malformed_values():
    for bad in [Record(Integer(1), ()), Record(Symbol("a"), [Integer(1)]), Sequence([Integer(1)]),
                Sequence((Integer(1), 2)), rec("a", Sequence((None,))), 5]:
        with pytest.raises(ValueError):
            check_value(bad)
    assert check_value(rec("a", 1, Sequence((Text("t"),)))) == rec("a", 1, Sequence((Text("t"),)))


def test_parse_all_with_comments():
    got = parse_all("; header\n(a 1) (b 2) ; trailing\n[3]")
    assert got == [rec("a", 1), rec("b", 2), Sequence((Integer(3),))]


# value strategy for round-trip properties: everything renderable except NaN,
# which is not a value; plain symbols unless a test asks for arbitrary text
_symbols = st.from_regex(r"[a-z][a-z0-9\-]{0,8}", fullmatch=True).map(Symbol)


def _values(symbols=_symbols):
    atoms = st.one_of(
        symbols,
        st.integers(-10**9, 10**9).map(Integer),
        st.floats(allow_nan=False, allow_infinity=False).map(Decimal),
        st.text(max_size=12).map(Text),
        st.booleans().map(Boolean),
        st.integers(0, 999).map(Unique),
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3).map(lambda xs: Sequence(tuple(xs))),
            st.tuples(symbols, st.lists(inner, max_size=3)).map(
                lambda t: Record(t[0], tuple(t[1]))
            ),
        ),
        max_leaves=12,
    )


@given(_values(st.text().map(Symbol)))
def test_parse_render_round_trip(v):
    assert parse(render(v)) == v


def _holds_reserved(v):
    if isinstance(v, Record):
        return v.label.name in ("wildcard", "capture") or any(map(_holds_reserved, v.fields))
    if isinstance(v, Sequence):
        return any(map(_holds_reserved, v.items))
    return False


# draw the labels the pattern encoding reserves often enough to hit them
_labels = st.sampled_from(["wildcard", "capture"]).map(Symbol) | _symbols


@given(_values(_labels))
def test_ground_decode_is_literal(v):
    if _holds_reserved(v):
        with pytest.raises(ValueError, match="wildcard or capture"):
            encode(Literal(v))
    else:
        assert decode(encode(Literal(v))) == Literal(v)


def test_encode_rejects_literals_holding_reserved_labels():
    for v in [
        rec("wildcard"),
        rec("capture", "x"),
        rec("price", rec("capture", "x")),
        rec("price", 40, Sequence((rec("wildcard"),))),
    ]:
        with pytest.raises(ValueError) as e:
            encode(lit(v))
        assert render(v) in str(e.value)
        with pytest.raises(ValueError):
            observe(rpat("quote", cap("q"), lit(v)))


def test_encode_rejects_record_patterns_with_reserved_labels():
    for p in [rpat("wildcard", cap("x")), rpat("capture", WILDCARD), rpat("price", rpat("wildcard", cap("x")))]:
        with pytest.raises(ValueError, match="record pattern \\((wildcard|capture) "):
            encode(p)


# ---------------------------------------------------------------------------
# hash cache

@given(_values(st.text().map(Symbol)), st.booleans())
def test_cached_hash_agrees_with_a_fresh_equal_value(v, hash_original_first):
    w = parse(render(v))
    first, second = (v, w) if hash_original_first else (w, v)
    h = hash(first)  # fills first's cache (and its children's) only
    assert w == v
    assert hash(second) == h
    assert h == hash(tuple(getattr(v, f.name) for f in fields(v)))


_PICKLED = rec("price", sym("s1"), "forty", Sequence((Text("x"), Unique(3))), 2.5)

_CHILD = """
import pickle, sys
from facetspace.values import Sequence, Text, Unique, rec, sym
v = pickle.load(sys.stdin.buffer)
equal = rec("price", sym("s1"), "forty", Sequence((Text("x"), Unique(3))), 2.5)
print(v in {equal, rec("price", 40)}, hash(equal))
"""


def test_unpickled_value_rehashes_under_another_hash_seed():
    h = hash(_PICKLED)  # cached before pickling
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    src = str(Path(facetspace.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=pickle.dumps(_PICKLED),
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
        capture_output=True, timeout=60, check=True,
    )
    found, fresh_hash = out.stdout.decode().split()
    assert int(fresh_hash) != h  # the seeds differ, so a stale cached hash would miss
    assert found == "True"


def test_values_refuse_assignment():
    v = rec("price", 40)
    hash(v)
    for name in ("label", "fields", "_hash"):
        with pytest.raises(FrozenInstanceError):
            setattr(v, name, Integer(1))
        with pytest.raises(FrozenInstanceError):
            delattr(v, name)
    with pytest.raises(FrozenInstanceError):
        Symbol("s").name = "t"
    assert [f.name for f in fields(v)] == ["label", "fields"]
    assert v.__getstate__() == [Symbol("price"), (Integer(40),)]


# ---------------------------------------------------------------------------
# matching

def test_match_basics():
    p = rpat("order", cap("id"), cap("acct"), WILDCARD, lit(50))
    v = rec("order", Unique(1), sym("a1"), 5, 50)
    assert match(p, v) == {"id": Unique(1), "acct": sym("a1")}
    assert match(p, rec("order", Unique(1), sym("a1"), 5, 51)) is None
    assert match(p, rec("other", Unique(1), sym("a1"), 5, 50)) is None
    assert match(p, rec("order", Unique(1), sym("a1"), 5)) is None  # arity


def test_match_sequences():
    p = spat(cap("a"), lit(2))
    assert match(p, Sequence((Integer(1), Integer(2)))) == {"a": Integer(1)}
    assert match(p, Sequence((Integer(1),))) is None
    assert match(p, Integer(1)) is None


def test_capture_names_and_linearity():
    p = rpat("f", cap("x"), spat(cap("y")), WILDCARD)
    assert capture_names(p) == ["x", "y"]
    check_linear(p)
    with pytest.raises(ValueError):
        check_linear(rpat("f", cap("x"), cap("x")))


def test_instantiate():
    p = rpat("f", cap("x"), WILDCARD)
    q = instantiate(p, {"x": Integer(3)})
    assert q == rpat("f", lit(3), WILDCARD)
    assert match(q, rec("f", 3, 99)) == {}
    assert match(q, rec("f", 4, 99)) is None
    with pytest.raises(UnboundCapture):
        instantiate(p, {})


# Atoms that share a hash: Integer(1), Decimal(1.0) and Boolean(True) are
# unequal, Decimal(0.0) and Decimal(-0.0) are equal.
_COLLIDING = [Integer(1), Decimal(1.0), Boolean(True), Decimal(0.0), Decimal(-0.0),
              Integer(0), Boolean(False), Text("a"), Symbol("a"), Unique(1)]
_LABELS = [Symbol("a"), Symbol("b")]


def _nodes(inner):
    return st.one_of(
        st.lists(inner, max_size=3).map(lambda xs: Sequence(tuple(xs))),
        st.tuples(st.sampled_from(_LABELS), st.lists(inner, max_size=3)).map(
            lambda t: Record(t[0], tuple(t[1]))
        ),
    )


_small_values = st.recursive(st.sampled_from(_COLLIDING), _nodes, max_leaves=10)


@st.composite
def _pattern_for(draw, v):
    """A pattern shaped after v, so that it often matches: at any node a
    wildcard, a capture, a literal of v or of another value, or (for a
    record or sequence) a pattern built field by field, with one field
    sometimes dropped to change the arity."""
    kind = draw(st.sampled_from(["wild", "cap", "lit", "other", "struct", "struct"]))
    if kind == "wild":
        return WILDCARD
    if kind == "cap":
        return cap(draw(st.sampled_from(["x", "y"])))
    if kind == "lit" or not isinstance(v, (Record, Sequence)):
        return Literal(v if kind != "other" else draw(_small_values))
    subs = [draw(_pattern_for(x)) for x in (v.fields if isinstance(v, Record) else v.items)]
    if subs and draw(st.booleans()) and draw(st.booleans()):
        del subs[draw(st.integers(0, len(subs) - 1))]
    if isinstance(v, Record):
        other = _LABELS[v.label == _LABELS[0]]
        return RecordPat(draw(st.sampled_from([v.label, v.label, other])), tuple(subs))
    return SequencePat(tuple(subs))


@given(st.data())
def test_compiled_test_agrees_with_match(data):
    v = data.draw(_nodes(_small_values) | _small_values)
    p = data.draw(_pattern_for(v) | _pattern_for(data.draw(_small_values)))
    other, twin, hashed_twin = data.draw(_small_values), parse(render(v)), parse(render(v))
    hash(other), hash(hashed_twin)  # a cached hash, as every bag value has, takes the hash path
    for w in [v, other, twin, hashed_twin]:
        assert compile_test(p)(w) == (match(p, w) is not None), (p, w)


def test_compiled_test_compares_hash_colliding_literals_by_value():
    for p in [lit(1), rpat("a", lit(1), WILDCARD), spat(cap("x"), lit(0.0))]:
        t = compile_test(p)
        for a in _COLLIDING:
            for w in [a, rec("a", a, 5), rec("b", a, 5), Sequence((Integer(2), a)), Record(Integer(1), (a,))]:
                assert t(w) == (match(p, w) is not None), (p, w)
    assert compile_test(lit(0.0))(Decimal(-0.0)) and not compile_test(lit(1))(Boolean(True))


def test_compiled_test_is_kept_on_the_pattern():
    p = rpat("a", cap("x"))
    assert compile_test(p) is compile_test(p)
    assert p == rpat("a", cap("x")) and hash(p) == hash(rpat("a", cap("x")))


@given(_values(), _values())
def test_instantiate_then_match_recovers_bindings(a, b):
    p = rpat("pair", cap("x"), cap("y"))
    v = rec("pair", a, b)
    assert match(p, v) == {"x": a, "y": b}
    full = instantiate(p, {"x": a, "y": b})
    assert match(full, v) == {}


# ---------------------------------------------------------------------------
# pattern encoding

def test_rpat_collapses_ground_patterns():
    assert rpat("price", lit(40)) == Literal(rec("price", 40))
    assert spat(lit(1), lit(2)) == Literal(Sequence((Integer(1), Integer(2))))
    assert isinstance(rpat("price", cap("p")), type(rpat("x", cap("y"))))


def test_encode_decode_round_trip():
    pats = [
        WILDCARD,
        cap("x"),
        lit(rec("price", 40)),
        rpat("order", cap("id"), WILDCARD, lit(5)),
        spat(cap("a"), WILDCARD),
        rpat("observe", cap("inner")),  # nesting through reserved labels
    ]
    for p in pats:
        assert decode(encode(p)) == p


def test_decode_malformed():
    with pytest.raises(MalformedPatternEncoding):
        decode(rec("capture", 3))  # capture needs one Text field
    with pytest.raises(MalformedPatternEncoding):
        decode(rec("wildcard", 1))


def test_observe_shapes():
    p = rpat("price", cap("p"))
    o = observe(p)
    assert o.label == Symbol("observe")
    assert decode(o.fields[0]) == p
    m = message_interest(p)
    assert m.fields[0].label == Symbol("message")
