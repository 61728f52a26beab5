import pytest
from hypothesis import given, strategies as st

from facetspace.values import (
    Boolean,
    Capture,
    Decimal,
    Integer,
    Literal,
    MalformedPatternEncoding,
    ParseError,
    Record,
    Sequence,
    Symbol,
    Text,
    UnboundCapture,
    Unique,
    WILDCARD,
    cap,
    capture_names,
    check_linear,
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


def test_parse_errors():
    for bad in ["(", "()", "(1 2)", "[1", '"open', "x y", ")", "#uxyz", "", "|open"]:
        with pytest.raises(ParseError):
            parse(bad)


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


@given(_values())
def test_ground_decode_is_literal(v):
    assert decode(encode(Literal(v))) == Literal(v)


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
