import itertools
import os
import pickle
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import facetspace

from conftest import reference_constants, reference_match
from facetspace.dataspace import MAX_TRACED_DEPTH
from facetspace.values import (
    MESSAGE,
    Boolean,
    Decimal,
    Integer,
    MalformedPatternEncoding,
    ParseError,
    PatternIndex,
    Record,
    Sequence,
    Symbol,
    Text,
    Unique,
    WILDCARD,
    cap,
    capture_names,
    check_linear,
    check_value,
    compile_test,
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
    # a subclass instance is converted to its base type, which check_value requires
    for x, v in [(IntEnum("E", "a").a, Integer(1)), (type("F", (float,), {})(2.5), Decimal(2.5)),
                 (type("S", (str,), {})("hi"), Text("hi"))]:
        got = to_value(x)
        assert got == v and check_value(got) is got


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


def test_negative_zero_renders_as_zero():
    # -0.0 == 0.0: one value, one text
    assert render(Decimal(-0.0)) == "0.0" == render(Decimal(0.0))
    assert render(rec("x", -0.0)) == "(x 0.0)"


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


def test_parse_refuses_an_integer_with_more_digits_than_int_reads():
    # int() refused it, and float() read it as Decimal(inf)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() reads every digit string")
    for bad in ["1" * (limit + 1), "-" + "9" * (limit + 1), "(n %s)" % ("1" * (limit + 1))]:
        with pytest.raises(ParseError, match="Exceeds the limit"):
            parse(bad)
    assert parse("9" * limit) == Integer(10 ** limit - 1)
    assert parse("1" * (limit + 1) + "x") == Symbol("1" * (limit + 1) + "x")  # no integer: a symbol


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


def _deep(height, leaf=Integer(1)):
    """leaf under `height` nested records, and the records from the top down."""
    chain = []
    for _ in range(height):
        leaf = rec("a", leaf)
        chain.append(leaf)
    return leaf, chain[::-1]


def test_a_checked_value_is_held_to_each_later_limit():
    v, _chain = _deep(60)
    assert check_value(v, limit=100) is v
    assert v._height == 60
    with pytest.raises(ValueError, match="nesting deeper than 50 levels"):
        check_value(v, limit=50)
    with pytest.raises(ValueError, match="nesting deeper than 59 levels"):
        check_value(v, limit=59)
    with pytest.raises(ValueError, match="nesting deeper than 60 levels"):
        check_value(rec("b", v), limit=60)  # v's own height, one level down
    assert check_value(v, limit=60) is v


def test_a_malformed_value_raises_on_every_check_and_keeps_no_height():
    ok = rec("ok", 1)
    v, chain = _deep(5, Sequence((ok, rec("b", Integer(True)))))
    for _ in range(2):
        with pytest.raises(ValueError, match="Integer.n is bool, not int"):
            check_value(v)
    for node in chain + [chain[-1].fields[0], chain[-1].fields[0].items[1]]:
        assert getattr(node, "_height", None) is None
    assert ok._height == 1  # a well-formed subtree walked before the bad atom keeps its own


def test_a_value_checked_again_visits_no_child_node(monkeypatch):
    from facetspace import values

    visits, real = [], values._check_nodes
    monkeypatch.setattr(values, "_check_nodes", lambda v, *args: visits.append(v) or real(v, *args))
    v = rec("order", sym("k1"), Unique(7), sym("a1"), 3, Sequence((Text("x"), rec("y", 2.5))))
    check_value(v)
    assert len(visits) == 11  # the label of each record is a node too
    visits.clear()
    assert check_value(v) is v
    assert check_value(rec("wrapper", v)) and visits == [v, rec("wrapper", v), Symbol("wrapper"), v]


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


# draw the labels of pattern holes often enough to hit them
_labels = st.sampled_from(["wildcard", "capture"]).map(Symbol) | _symbols


@given(_values(_labels))
def test_lit_of_a_ground_value_is_itself(v):
    # a value with no hole is a pattern that matches exactly the values equal to it
    if _holds_reserved(v):
        with pytest.raises(ValueError, match="wildcard or capture"):
            lit(v)
    else:
        assert lit(v) is v
        assert match(v, parse(render(v))) == {} and capture_names(v) == []


def test_lit_refuses_values_holding_hole_labels():
    for v in [
        rec("wildcard"),
        rec("capture", "x"),
        rec("capture", 3),
        rec("price", rec("capture", "x")),
        rec("price", 40, Sequence((rec("wildcard"),))),
    ]:
        with pytest.raises(ValueError) as e:
            lit(v)
        assert render(v) in str(e.value)
    assert lit(40) == Integer(40) and lit([1, "a"]) == Sequence((Integer(1), Text("a")))


def test_rpat_refuses_hole_labels():
    for label, fields in [("wildcard", ()), ("wildcard", (cap("x"),)), ("capture", ("x",)), (sym("capture"), (WILDCARD,))]:
        with pytest.raises(ValueError, match="record pattern \\((wildcard|capture)"):
            rpat(label, *fields)
    assert rpat("price", lit(40)) == rec("price", 40)  # a ground record pattern is the record


def test_a_raw_hole_record_in_a_pattern_is_a_hole():
    # no lit wraps it, so (capture "x") given as an rpat field is a capture
    p = rpat("price", rec("capture", "x"), rec("wildcard"))
    assert p == rpat("price", cap("x"), WILDCARD)
    assert match(p, rec("price", 40, 1)) == {"x": Integer(40)}
    assert match(spat(rec("capture", "y")), Sequence((Integer(2),))) == {"y": Integer(2)}


def test_compile_test_refuses_malformed_holes():
    for bad in [rec("capture", 3), rec("wildcard", 1), rec("capture", "x", "y"), rec("capture")]:
        for p in [bad, rpat("price", 40, bad), spat(WILDCARD, bad)]:
            with pytest.raises(MalformedPatternEncoding, match=re.escape(render(bad))):
                compile_test(p)
            with pytest.raises(MalformedPatternEncoding):
                match(p, rec("price", 40, 1))


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
    render(v)
    check_value(v)
    for name in ("label", "fields", "_hash", "_text", "_height", "_observe", "_message_interest"):
        with pytest.raises(FrozenInstanceError):
            setattr(v, name, Integer(1))
        with pytest.raises(FrozenInstanceError):
            delattr(v, name)
    with pytest.raises(FrozenInstanceError):
        Symbol("s").name = "t"
    assert [f.name for f in fields(v)] == ["label", "fields"]
    assert v.__getstate__() == [Symbol("price"), (Integer(40),)]


# ---------------------------------------------------------------------------
# text cache

@given(_values(st.text().map(Symbol)), st.booleans())
def test_cached_text_agrees_with_a_fresh_equal_value(v, render_original_first):
    w = parse(render(pickle.loads(pickle.dumps(v))))  # a copy renders; v's cache stays empty
    first, second = (v, w) if render_original_first else (w, v)
    t = render(first)  # fills first's cache (and its children's) only
    assert w == v
    assert render(second) == t
    assert render(first) is t


def test_a_values_height_is_no_part_of_it():
    v, w = rec("price", 40, Sequence((Text("x"),))), rec("price", 40, Sequence((Text("x"),)))
    check_value(v)
    assert v._height == 2 and getattr(w, "_height", None) is None
    assert v == w and hash(v) == hash(w) and {v: 1}[w] == 1
    assert [f.name for f in fields(v)] == ["label", "fields"]
    u = pickle.loads(pickle.dumps(v))
    assert getattr(u, "_height", None) is None  # not pickle state: the copy is checked again
    assert check_value(u) is u and u._height == 2


def test_unpickled_value_renders_the_same():
    t = render(_PICKLED)  # cached before pickling
    v = pickle.loads(pickle.dumps(_PICKLED))
    assert getattr(v, "_text", None) is None  # the cache is not pickle state
    assert render(v) == t


# ---------------------------------------------------------------------------
# interest records

def test_a_patterns_interest_records_are_no_part_of_it():
    p, q = rpat("price", cap("p")), rpat("price", cap("p"))
    o, m = observe(p), message_interest(p)
    assert p._observe is o and p._message_interest is m
    assert getattr(q, "_observe", None) is None
    assert p == q and hash(p) == hash(q) and {p: 1}[q] == 1
    assert [f.name for f in fields(p)] == ["label", "fields"]
    assert p.__getstate__() == [Symbol("price"), (cap("p"),)]
    u = pickle.loads(pickle.dumps(p))
    assert getattr(u, "_observe", None) is None and getattr(u, "_message_interest", None) is None
    assert observe(u) == o and observe(u) is not o


def test_a_pattern_keeps_one_interest_record_of_each_kind():
    p, q = rpat("price", cap("p")), rpat("price", cap("p"))
    assert observe(p) is observe(p) and message_interest(p) is message_interest(p)
    assert observe(p) == observe(q) and observe(p) is not observe(q)
    assert message_interest(p) == message_interest(q)
    # either kind may be built first; the other is still its own record
    for first, second in [(observe, message_interest), (message_interest, observe)]:
        r = rpat("bid", cap("b"))
        a, b = first(r), second(r)
        assert a != b and first(r) is a and second(r) is b
    assert render(message_interest(p)) == '(observe (message (price (capture "p"))))'


def test_the_interest_of_a_pattern_too_deep_for_the_trace_fails_every_check():
    p, _chain = _deep(MAX_TRACED_DEPTH)  # the trace holds p, not (observe p)
    assert check_value(p, MAX_TRACED_DEPTH) is p
    for interest in (observe, message_interest):
        for _ in range(2):
            with pytest.raises(ValueError, match="nesting deeper than %d levels" % MAX_TRACED_DEPTH):
                check_value(interest(p), MAX_TRACED_DEPTH)
        assert getattr(interest(p), "_height", None) is None


# ---------------------------------------------------------------------------
# matching

def test_match_basics():
    p = rpat("order", cap("id"), cap("acct"), WILDCARD, lit(50))
    v = rec("order", Unique(1), sym("a1"), 5, 50)
    assert match(p, v) == {"id": Unique(1), "acct": sym("a1")}
    assert match(p, rec("order", Unique(1), sym("a1"), 5, 51)) is None
    assert match(p, rec("other", Unique(1), sym("a1"), 5, 50)) is None
    assert match(p, rec("order", Unique(1), sym("a1"), 5)) is None  # arity
    # a capture after a wildcard reads its own field
    assert match(rpat("order", WILDCARD, cap("acct"), WILDCARD, cap("p")), v) == {"acct": sym("a1"), "p": Integer(50)}


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
def _pattern_for(draw, v, fit=False):
    """A pattern shaped after v, so that it often matches: at any node a
    wildcard, a capture, a literal of v or of another value, or (for a
    record or sequence) a pattern built field by field, with one field
    sometimes dropped to change the arity. A fit pattern matches v: no
    other value, label or arity, and a literal only at an atom."""
    kinds = ["wild", "cap", "struct", "struct"] if fit else ["wild", "cap", "lit", "other", "struct", "struct"]
    kind = draw(st.sampled_from(kinds))
    if kind == "wild":
        return WILDCARD
    if kind == "cap":
        return cap(draw(st.sampled_from(["x", "y"])))
    if kind == "lit" or not isinstance(v, (Record, Sequence)):
        return v if kind != "other" else draw(_small_values)
    subs = [draw(_pattern_for(x, fit)) for x in (v.fields if isinstance(v, Record) else v.items)]
    if subs and not fit and draw(st.booleans()) and draw(st.booleans()):
        del subs[draw(st.integers(0, len(subs) - 1))]
    if isinstance(v, Record):
        other = _LABELS[v.label == _LABELS[0]]
        return Record(v.label if fit else draw(st.sampled_from([v.label, v.label, other])), tuple(subs))
    return Sequence(tuple(subs))


@given(st.data())
def test_compiled_test_agrees_with_match(data):
    """The compiled test and `match` agree with the interpretive reference:
    the same hits, the same keys in the same order, the very same objects."""
    v = data.draw(_nodes(_small_values) | _small_values)
    p = data.draw(_pattern_for(v) | _pattern_for(data.draw(_small_values)))
    fit = data.draw(_pattern_for(v, fit=True))  # binds below the top more often
    other, twin, hashed_twin = data.draw(_small_values), parse(render(v)), parse(render(v))
    hash(other), hash(hashed_twin)  # a cached hash, as every bag value has, takes the hash path
    for q, w in itertools.product([p, fit], [v, other, twin, hashed_twin]):
        want = reference_match(q, w)
        assert compile_test(q)(w) == (want is not None), (q, w)
        got = match(q, w)
        if want is None:
            assert got is None, (q, w)
        else:
            assert list(got) == list(want), (q, w)
            assert all(got[k] is want[k] for k in want), (q, w)


@given(st.data())
def test_an_index_offers_every_pattern_that_matches(data):
    """compile_test records the constants reference_constants spells out,
    and an index holding a pattern offers it for every value it matches,
    bare or wrapped as a message, whatever else the value holds."""
    v = data.draw(_nodes(_small_values) | _small_values)
    p = data.draw(_pattern_for(v) | _pattern_for(data.draw(_small_values)))
    fit = data.draw(_pattern_for(v, fit=True))
    others = [v, data.draw(_small_values), data.draw(_nodes(_small_values))]
    for q in (p, fit, Record(MESSAGE, (p,)), Record(MESSAGE, (fit,))):
        compile_test(q)
        assert q._consts == reference_constants(q), q
        index = PatternIndex()
        index.add("q", q)
        for w in others + [Record(MESSAGE, (w,)) for w in others]:
            offered = list(index.candidates(w))
            assert offered in ([], [("q", q)]), (q, w)
            if reference_match(q, w) is not None:
                assert offered, (q, w)
        index.remove("q", q)
        assert index == {}


def test_compiled_test_compares_hash_colliding_literals_by_value():
    for p in [lit(1), rpat("a", lit(1), WILDCARD), spat(cap("x"), lit(0.0))]:
        t = compile_test(p)
        for a in _COLLIDING:
            for w in [a, rec("a", a, 5), rec("b", a, 5), Sequence((Integer(2), a)), Record(Integer(1), (a,))]:
                assert t(w) == (reference_match(p, w) is not None), (p, w)
    assert compile_test(lit(0.0))(Decimal(-0.0)) and not compile_test(lit(1))(Boolean(True))


def test_compiled_test_is_kept_on_the_pattern():
    p = rpat("a", cap("x"))
    assert compile_test(p) is compile_test(p) is p._test
    assert p == rpat("a", cap("x")) and hash(p) == hash(rpat("a", cap("x")))
    # a pattern with no hole compiles to the literal test of the whole value
    g = rpat("a", 1, spat(2))
    assert compile_test(g)(rec("a", 1, [2])) and not compile_test(g)(rec("a", 1, [3]))
    assert g._captures == () and compile_test(g).__qualname__ == "_literal_test.<locals>.test"


def test_compiled_pattern_round_trips_through_pickle():
    # the compiled test is a closure: pickle leaves it out, and the loaded
    # pattern compiles afresh to the same matches
    p = rpat("a", cap("x"), spat(WILDCARD, lit(3), cap("y")))
    values = [rec("a", 1, [2, 3, 4]), rec("a", 1, [2, 5, 4]), rec("b", 1, [2, 3, 4])]
    want = [match(p, v) for v in values]
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p)
    assert [match(q, v) for v in values] == want == [{"x": Integer(1), "y": Integer(4)}, None, None]


@given(_values(_labels), _values(_labels))
def test_match_recovers_bindings(a, b):
    # a capture binds whatever value it meets, one holding a hole record too
    p = rpat("pair", cap("x"), cap("y"))
    assert match(p, rec("pair", a, b)) == {"x": a, "y": b}


# ---------------------------------------------------------------------------
# interests

def test_observe_shapes():
    # an interest holds its pattern as is: the pattern is a value
    for p in [WILDCARD, cap("x"), lit(rec("price", 40)), rpat("order", cap("id"), WILDCARD, lit(5)),
              spat(cap("a"), WILDCARD), rpat("observe", cap("inner"))]:
        o = observe(p)
        assert o.label == Symbol("observe") and o.fields[0] is p
        m = message_interest(p)
        assert m.fields[0].label == Symbol("message") and m.fields[0].fields[0] is p
        assert parse(render(o)) == o and check_value(o) is o
    assert render(observe(rpat("price", cap("p"), WILDCARD))) == '(observe (price (capture "p") (wildcard)))'
    # a pattern over interests reads the interest's pattern as a value
    meta = rpat("observe", rpat("price", cap("p")))
    assert match(meta, observe(rpat("price", cap("q")))) == {"p": cap("q")}
