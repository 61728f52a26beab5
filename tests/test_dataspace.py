import io
import json
import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    assert_index_matches_interests,
    drive_cmd,
    named_puppet_boot,
    reference_match,
    runtime_switched_off,
    spawn_recorder,
)
from facetspace import Dataspace, cap, rec, render, rpat, spat, sym
from facetspace.dataspace import (
    Assert,
    BootEvent,
    MAX_TRACED_DEPTH,
    MaxTurnsExceeded,
    Message,
    MessageEvent,
    PatchEvent,
    Quit,
    Retract,
    Spawn,
    TurnRecord,
    render_action,
    render_event,
)
from facetspace.values import (
    Boolean,
    Decimal,
    Integer,
    Record,
    Sequence,
    Symbol,
    Text,
    Unique,
    lit,
    message_interest,
    observe,
    parse,
)
from reference_model import ModelDataspace

CELL = rpat("cell", cap("k"))


class Scripted:
    """Raw runtime replaying one canned action batch per event received."""

    def __init__(self, *batches):
        self.batches = list(batches)
        self.seen = []

    def handle_event(self, event):
        self.seen.append(event)
        return self.batches.pop(0) if self.batches else []


def assert_forgotten(ds, aid):
    """A terminated actor leaves no slot in any actor table."""
    assert not ds.is_alive(aid)
    assert aid not in ds.actors and aid not in ds.interests


def test_set_view_single_crossing():
    # two actors assert the same value; observers see one appearance, and a
    # disappearance only when the last copy goes
    ds = Dataspace()
    r = spawn_recorder(ds, CELL)
    a = ds.spawn(named_puppet_boot("a"))
    b = ds.spawn(named_puppet_boot("b"))
    ds.run_until_quiescent()
    v = rec("cell", 1)
    for name in ("a", "b"):
        ds.inject_message(drive_cmd(name, "do-assert", v))
    ds.run_until_quiescent()
    assert r.events == [("+", v)]
    ds.inject_message(drive_cmd("a", "do-retract", v))
    ds.run_until_quiescent()
    assert r.events == [("+", v)]  # still held by b
    ds.inject_message(drive_cmd("b", "do-retract", v))
    ds.run_until_quiescent()
    assert r.events == [("+", v), ("-", v)]


def test_late_observer_gets_initial_patch_once():
    ds = Dataspace()
    ds.spawn(named_puppet_boot("a"))
    ds.run_until_quiescent()
    for k in range(3):
        ds.inject_message(drive_cmd("a", "do-assert", rec("cell", k)))
    ds.inject_message(drive_cmd("a", "do-assert", rec("other", 9)))
    ds.run_until_quiescent()
    r = spawn_recorder(ds, CELL)
    ds.run_until_quiescent()
    assert len(r.patches) == 1
    assert set(r.patches[0].added) == {rec("cell", k) for k in range(3)}
    assert r.patches[0].removed == ()


def test_initial_patch_precedes_regular_patch():
    # a late observer hears a held value (initial, from the bag) before a
    # value asserted in a later turn; one turn's own is
    # test_an_actor_hears_one_patch_per_turn_its_initial_values_first
    ds = Dataspace()
    holder = Scripted([Assert(rec("cell", 1))])
    ds.spawn(holder)
    ds.run_until_quiescent()
    r = spawn_recorder(ds, CELL)
    ds.spawn(Scripted([Assert(rec("cell", 2))]))
    ds.run_until_quiescent()
    assert r.events[0] == ("+", rec("cell", 1))  # initial, from the bag
    assert r.events[1] == ("+", rec("cell", 2))


def test_an_actor_hears_one_patch_per_turn_its_initial_values_first():
    # in one turn an actor asserts an interest and a value it matches while
    # another actor holds a second one: one patch, the held value (initial,
    # from the bag) before the turn's own
    def play(ds_class):
        sink = io.StringIO()
        ds = ds_class(trace_sink=sink)
        ds.spawn(Scripted([Assert(rec("cell", 1))]))
        ds.run_until_quiescent()
        hearer = Scripted([Assert(observe(CELL)), Assert(rec("cell", 2))])
        ds.spawn(hearer)
        ds.run_until_quiescent()
        return [render_event(e) for e in hearer.seen], sink.getvalue()

    runtime = play(Dataspace)
    assert runtime[0] == ["(boot)", "(patch (added (cell 1) (cell 2)) (removed))"]
    with runtime_switched_off():
        assert play(ModelDataspace) == runtime


def test_message_broadcast_no_buffering():
    ds = Dataspace()
    ds.spawn(named_puppet_boot("a"))
    ds.run_until_quiescent()
    ds.inject_message(drive_cmd("a", "do-send", rec("ping", 1)))  # nobody listens
    ds.run_until_quiescent()
    r = spawn_recorder(ds, rpat("ping", cap("n")), messages=True)
    ds.run_until_quiescent()
    assert r.events == []  # the early message was not buffered
    ds.inject_message(drive_cmd("a", "do-send", rec("ping", 2)))
    ds.run_until_quiescent()
    assert r.events == [("!", rec("ping", 2))]


def test_inject_message_converts_host_data():
    sink = io.StringIO()
    ds = Dataspace(trace_sink=sink)
    r = spawn_recorder(ds, cap("x"), messages=True)
    ds.run_until_quiescent()
    ds.inject_message(5)
    ds.run_until_quiescent()
    assert [e for e in r.events if e[0] == "!"] == [("!", Integer(5))]
    assert len(sink.getvalue().splitlines()) == len(ds.trace)
    with pytest.raises(TypeError):
        ds.inject_message(object())
    assert not ds.queue


def test_message_recipients_snapshotted_at_emission():
    # an actor that quits in the same turn a message is sent still held its
    # interest when the message was applied, so it is not delivered to it
    ds = Dataspace()
    from facetspace.values import lit, message_interest

    quitter = Scripted([Assert(message_interest(lit(rec("ping", 1)))), Quit()])
    aid = ds.spawn(quitter)
    ds.run_until_quiescent()
    assert not ds.is_alive(aid)
    ds.inject_message(rec("ping", 1))
    ds.run_until_quiescent()
    assert all(not isinstance(e, MessageEvent) for e in quitter.seen)


def test_crash_discards_actions_and_cleans_up(caplog):
    class Crasher:
        def handle_event(self, event):
            if isinstance(event, BootEvent):
                return [Assert(rec("cell", 7))]
            raise RuntimeError("boom")

    ds = Dataspace()
    r = spawn_recorder(ds, CELL)
    crasher = Crasher()
    aid = ds.spawn(crasher)
    ds.spawn(named_puppet_boot("a"))
    ds.run_until_quiescent()
    assert r.events == [("+", rec("cell", 7))]
    # deliver any event to the crasher: another matching assertion is routed
    # to it once it observes; simplest is to route a patch via a new interest.
    # Crasher has no interests, so poke it with a message interest-free path:
    ds.queue.append((aid, MessageEvent(rec("poke", 0))))
    ds.run_until_quiescent()
    assert_forgotten(ds, aid)
    assert r.events == [("+", rec("cell", 7)), ("-", rec("cell", 7))]
    assert ds.query(CELL) == []
    assert any(rec.crashed for rec in ds.trace)


def deep_sequence(depth):
    v = Integer(1)
    for _ in range(depth):
        v = Sequence((v,))
    return v


def test_inject_message_refuses_a_value_the_trace_could_not_hold():
    sink = io.StringIO()
    ds = Dataspace(trace_sink=sink)
    spawn_recorder(ds, cap("x"), messages=True)
    ds.run_until_quiescent()
    turns = len(ds.trace)
    host_list = 1
    for _ in range(2000):
        host_list = [host_list]
    for bad in [deep_sequence(150), deep_sequence(MAX_TRACED_DEPTH + 1), Record(Integer(1), ()),
                Sequence([Integer(1)]), host_list]:
        with pytest.raises(ValueError):
            ds.inject_message(bad)
        assert not ds.queue
    ds.inject_message(deep_sequence(MAX_TRACED_DEPTH))
    ds.run_until_quiescent()
    events = [json.loads(line)["event"] for line in sink.getvalue().splitlines()[turns:]]
    assert [parse(e) for e in events] == [rec("message", deep_sequence(MAX_TRACED_DEPTH))]


@pytest.mark.parametrize("wrap", [Integer, Unique, lambda n: n], ids=["Integer", "Unique", "host-int"])
def test_inject_message_refuses_an_integer_with_more_digits_than_str_writes(wrap):
    # queued, it would reach the trace writer in its delivery turn, whose
    # str() raises out of run_turn after ds.trace took the record and
    # before the sink got its line
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("str() writes every int")
    sink = io.StringIO()
    ds = Dataspace(trace_sink=sink)
    spawn_recorder(ds, cap("x"), messages=True)
    ds.run_until_quiescent()
    with pytest.raises(ValueError, match="has no text"):
        ds.inject_message(rec("n", wrap(10 ** limit)))
    assert not ds.queue
    ds.inject_message(rec("n", wrap(10 ** limit - 1)))  # limit digits: written
    ds.run_until_quiescent()
    assert len(sink.getvalue().splitlines()) == len(ds.trace) == 3


def test_every_trace_line_of_the_deepest_accepted_value_parses():
    sink = io.StringIO()
    ds = Dataspace(trace_sink=sink)
    spawn_recorder(ds, cap("x"))
    v = deep_sequence(MAX_TRACED_DEPTH)
    ds.spawn(Scripted([Assert(v), Message(v)]))
    ds.run_until_quiescent()
    assert not any(r.crashed for r in ds.trace)
    for line in sink.getvalue().splitlines():
        record = json.loads(line)
        for text in [record["event"]] + record["actions"]:
            parse(text)
    assert "(patch (added " + render(v) in sink.getvalue()


@pytest.mark.parametrize(
    "batch",
    [
        [Assert(rec("cell", 1)), "junk"],
        [Assert(5)],
        [Assert(rec("cell", 1)), Assert(Record(Integer(1), ()))],
        [Message(deep_sequence(150))],
        [Assert(Record(sym("cell"), [Integer(1)]))],
    ],
    ids=["non-action", "non-value", "non-symbol-label", "too-deep", "list-fields"],
)
def test_malformed_batch_is_a_crash(batch, caplog):
    # a raw runtime's bad batch is refused whole, before any of it applies
    sink = io.StringIO()
    ds = Dataspace(trace_sink=sink)
    r = spawn_recorder(ds, CELL)
    ds.run_until_quiescent()
    before = {v: dict(per) for v, per in ds.bag.items()}
    aid = ds.spawn(Scripted(batch))
    record = ds.run_turn()
    assert record.actor == aid and record.crashed and record.actions == []
    assert json.loads(sink.getvalue().splitlines()[-1])["crashed"] is True
    assert "crashed" in caplog.text
    assert ds.bag == before
    assert_forgotten(ds, aid)
    ds.spawn(Scripted([Assert(rec("cell", 2))]))
    ds.run_until_quiescent()
    assert r.events == [("+", rec("cell", 2))]


# Atoms whose field holds the wrong type: each renders as text that does not
# parse, parses to another value, or raises in the trace writer. ids are
# spelled out, since repr renders the value.
_BAD_ATOMS = [
    pytest.param(Symbol(5), id="Symbol(5)"),
    pytest.param(Text(3), id="Text(3)"),
    pytest.param(Unique("a"), id="Unique('a')"),
    pytest.param(Integer(True), id="Integer(True)"),
    pytest.param(Integer("5"), id="Integer('5')"),
    pytest.param(Decimal(5), id="Decimal(5)"),
    pytest.param(Decimal(math.nan), id="Decimal(nan)"),
    pytest.param(Boolean(1), id="Boolean(1)"),
    pytest.param(Record(Symbol(5), ()), id="label-Symbol(5)"),
]


@pytest.mark.parametrize("atom", _BAD_ATOMS)
def test_an_atom_holding_the_wrong_type_is_refused_where_it_enters(atom, caplog):
    sink = io.StringIO()
    ds = Dataspace(trace_sink=sink)
    r = spawn_recorder(ds, cap("x"), messages=True)
    ds.run_until_quiescent()
    for bad in [atom, rec("cell", atom), Sequence((atom,))]:
        with pytest.raises(ValueError):
            ds.inject_message(bad)
        assert not ds.queue
    # published from a facet, it crashes that turn only
    aid = ds.spawn(lambda f: (f.publish(rec("ok")), f.publish(rec("cell", atom))))
    ds.spawn(lambda f: f.publish(rec("after")))
    ds.run_until_quiescent()
    assert not ds.is_alive(aid)
    assert [t.crashed for t in ds.trace if t.actor == aid] == [True]
    assert [t.actor for t in ds.trace if t.crashed] == [aid]
    assert rec("ok") not in ds.bag and rec("after") in ds.bag
    assert ("+", rec("after")) in r.events and ("+", rec("ok")) not in r.events
    lines = sink.getvalue().splitlines()
    assert len(lines) == len(ds.trace)
    assert [json.loads(line)["crashed"] for line in lines] == [t.crashed for t in ds.trace]
    assert '"crashed":true' in lines[[t.actor for t in ds.trace].index(aid)]
    for line in lines:
        record = json.loads(line)
        for text in [record["event"]] + record["actions"]:
            parse(text)


def test_retract_unheld_warns_and_is_ignored(caplog):
    ds = Dataspace()
    r = spawn_recorder(ds, CELL)
    ds.run_until_quiescent()
    before = {v: dict(per) for v, per in ds.bag.items()}
    ds.spawn(Scripted([Retract(rec("cell", 1))]))
    ds.run_until_quiescent()
    assert r.events == []
    assert "retracts unheld" in caplog.text
    assert ds.bag == before


def test_quit_emits_removal_patch():
    ds = Dataspace()
    r = spawn_recorder(ds, CELL)
    aid = ds.spawn(Scripted([Assert(observe(CELL)), Assert(rec("cell", 5)), Quit()]))
    ds.run_until_quiescent()
    assert_forgotten(ds, aid)
    assert r.events == [("+", rec("cell", 5)), ("-", rec("cell", 5))]


def test_bag_holds_only_present_values():
    # churn through assert, retract, re-assert, quit and crash; after every
    # turn each bag entry still has a holder with a positive count
    class CrashOnMessage:
        def handle_event(self, event):
            if isinstance(event, MessageEvent):
                raise RuntimeError("boom")
            return [Assert(rec("cell", 9)), Assert(message_interest(lit(rec("boom"))))]

    ds = Dataspace()
    spawn_recorder(ds, CELL)
    ds.spawn(named_puppet_boot("a"))
    ds.spawn(Scripted([Assert(rec("cell", 3)), Quit()]))
    ds.spawn(CrashOnMessage())
    inputs = [
        drive_cmd("a", "do-assert", rec("cell", 1)),
        drive_cmd("a", "do-assert", rec("cell", 2)),
        drive_cmd("a", "do-retract", rec("cell", 1)),
        drive_cmd("a", "do-retract", rec("cell", 2)),
        drive_cmd("a", "do-assert", rec("cell", 2)),
        rec("boom"),
    ]
    for v in [rec("nobody-listens")] + inputs:
        ds.inject_message(v)
        while ds.pending():
            ds.run_turn()
            assert all(per and min(per.values()) > 0 for per in ds.bag.values())
    assert [v for v in ds.bag if v.label == sym("cell")] == [rec("cell", 2)]


def test_initial_patch_lists_values_in_the_order_they_last_became_present():
    ds = Dataspace()
    ds.spawn(named_puppet_boot("a"))
    ds.run_until_quiescent()
    for k in range(3):
        ds.inject_message(drive_cmd("a", "do-assert", rec("cell", k)))
    ds.inject_message(drive_cmd("a", "do-retract", rec("cell", 0)))
    ds.run_until_quiescent()
    ds.inject_message(drive_cmd("a", "do-assert", rec("cell", 0)))
    ds.run_until_quiescent()
    r = spawn_recorder(ds, CELL)
    ds.run_until_quiescent()
    order = [rec("cell", 1), rec("cell", 2), rec("cell", 0)]
    assert [p.added for p in r.patches] == [tuple(order)]
    assert ds.query(CELL) == order


def test_a_late_observer_is_told_one_text_for_zero_whoever_holds_it():
    # Decimal(-0.0) equals Decimal(0.0), so the bag keeps one entry for both,
    # under whichever object arrived first; both render as 0.0
    ds = Dataspace()
    (a, b, c), _ = spawn_poked(ds, "a", "b", "c")
    poke(ds, a, Assert(rec("x", Decimal(-0.0))))
    poke(ds, b, Assert(rec("x", Decimal(0.0))))
    poke(ds, c, Assert(rec("x", Decimal(-0.0))), Retract(rec("x", Decimal(0.0))))  # net nothing
    r = spawn_recorder(ds, rpat("x", cap("v")))
    ds.run_until_quiescent()
    assert [render_event(p) for p in r.patches] == ["(patch (added (x 0.0)) (removed))"]


def test_spawned_child_boots_after_patches():
    # one batch asserts, sends and spawns twice: the observer's patch and the
    # message go out first, then the children boot in action order, and the
    # trace's (spawn N) ids follow that order
    ds = Dataspace()
    (o, p), _ = spawn_poked(ds, "o", "p")
    poke(ds, o, Assert(observe(CELL)), Assert(message_interest(lit(rec("ping")))))
    first, second = Scripted(), Scripted()
    mark = len(ds.trace)
    poke(ds, p, Spawn(first), Assert(rec("cell", 1)), Message(rec("ping")), Spawn(second))
    turn = ds.trace[mark]
    ids = [a.child for a in turn.actions if isinstance(a, Spawn)]
    assert ids == [p.aid + 1, p.aid + 2]
    assert [render_action(a) for a in turn.actions] == [
        "(spawn %d)" % ids[0], "(assert (cell 1))", "(send (ping))", "(spawn %d)" % ids[1]]
    assert [(t.actor, render_event(t.event)) for t in ds.trace[mark + 1:]] == [
        (o.aid, "(patch (added (cell 1)) (removed))"),
        (o.aid, "(message (ping))"),
        (ids[0], "(boot)"),
        (ids[1], "(boot)"),
    ]
    assert [type(e) for e in first.seen + second.seen] == [BootEvent, BootEvent]


def test_run_turn_on_a_quiescent_dataspace_raises():
    with pytest.raises(RuntimeError, match="quiescent"):
        Dataspace().run_turn()


def test_run_until_quiescent_turn_limit():
    class PingPong:
        def __init__(self, hear, say):
            self.hear, self.say = hear, say

        def handle_event(self, event):
            if isinstance(event, BootEvent):
                from facetspace.values import lit, message_interest

                return [
                    Assert(message_interest(lit(rec(self.hear, 0)))),
                    Message(rec(self.say, 0)),
                ]
            return [Message(rec(self.say, 0))]

    ds = Dataspace()
    ds.spawn(PingPong("ping", "pong"))
    ds.spawn(PingPong("pong", "ping"))
    with pytest.raises(MaxTurnsExceeded):
        ds.run_until_quiescent(max_turns=30)


def test_malformed_interest_warns(caplog):
    # once per first copy: a second copy held alongside does not warn again
    bad = rec("observe", rec("capture", 3))
    ds = Dataspace()
    (a,), (aid,) = spawn_poked(ds, "a")
    poke(ds, a, Assert(bad))
    poke(ds, a, Assert(bad))
    assert caplog.text.count("malformed interest") == 1
    assert ds.bag[bad] == {aid: 2} and bad not in ds.interests[aid]
    poke(ds, a, Retract(bad), Retract(bad))
    poke(ds, a, Assert(bad))
    assert caplog.text.count("malformed interest") == 2
    # every malformed hole, wherever it sits, is logged and ignored alike
    for hole in [rec("wildcard", 1), rec("capture", "x", "y"), rec("capture")]:
        for bad in [rec("observe", hole), rec("observe", rec("price", 40, hole))]:
            caplog.clear()
            poke(ds, a, Assert(bad))
            assert caplog.text.count("malformed interest") == 1
            assert ds.bag[bad] == {aid: 1} and bad not in ds.interests[aid] and ds.is_alive(aid)


def test_deliveries_go_in_ascending_actor_id_whatever_order_interests_arrived():
    # the younger actor b files its interests first, so they come first in
    # their index bucket; the older a still hears every patch and message first
    ds = Dataspace()
    (a, b, h), (aid, bid, hid) = spawn_poked(ds, "a", "b", "h")
    poke(ds, b, Assert(message_interest(CELL)), Assert(observe(CELL)))
    poke(ds, a, Assert(observe(CELL)), Assert(message_interest(CELL)))
    assert_index_matches_interests(ds)
    for batch in ([Assert(rec("cell", 1)), Message(rec("cell", 2))], [Retract(rec("cell", 1))]):
        h.batches.append(batch)
        ds.inject_message(rec("poke", sym("h")))
        assert ds.run_turn().actor == hid
        kinds = [(x, type(e)) for x, e in ds.queue]
        assert kinds[:2] == [(aid, PatchEvent), (bid, PatchEvent)]
        assert kinds[2:] == [(aid, MessageEvent), (bid, MessageEvent)][: len(kinds) - 2]
        ds.run_until_quiescent()
    assert a.events == b.events == [("+", rec("cell", 1)), ("-", rec("cell", 1))]


def test_a_top_level_capture_interest_hears_every_message():
    # (capture "x") matches the (message v) wrapper routing tests a message
    # against, so an actor holding only (observe (capture "x")) gets a turn
    # for every message, from an actor or from outside
    ds = Dataspace()
    catch_all = Scripted([Assert(observe(cap("x")))])
    cid = ds.spawn(catch_all)
    ds.spawn(Scripted([Message(rec("ping", 1)), Message(Integer(5)), Message(spat(1))]))
    ds.run_until_quiescent()
    ds.inject_message(rec("other", 2))
    ds.run_until_quiescent()
    heard = [e.v for e in catch_all.seen if isinstance(e, MessageEvent)]
    assert heard == [rec("ping", 1), Integer(5), spat(1), rec("other", 2)]
    assert [r.actor for r in ds.trace if isinstance(r.event, MessageEvent)] == [cid] * 4


def test_a_record_labelled_capture_or_wildcard_is_routed_once():
    # such a value is keyed as a hole, with the catch-all bucket: looking it
    # up under its own key and the catch-all key must not route it twice
    ds = Dataspace()
    r = spawn_recorder(ds, cap("x"), messages=True)
    ds.run_until_quiescent()
    vs = [rec("capture", "y"), rec("wildcard")]
    ds.spawn(Scripted([Assert(v) for v in vs] + [Message(v) for v in vs]))
    ds.run_until_quiescent()
    assert [e for e in r.events if e[1] in vs] == [("+", v) for v in vs] + [("!", v) for v in vs]
    assert r.patches[-1].added == tuple(vs)


def test_query_in_insertion_order():
    ds = Dataspace()
    ds.spawn(Scripted([Assert(rec("cell", 2)), Assert(rec("cell", 1)), Assert(rec("x", 0))]))
    ds.run_until_quiescent()
    assert ds.query(CELL) == [rec("cell", 2), rec("cell", 1)]


# ---------------------------------------------------------------------------
# trace format

def test_trace_record_json_shape():
    ds = Dataspace()
    ds.spawn(Scripted([Assert(rec("price", 100)), Message(rec("ping", 1))]))
    ds.run_until_quiescent()
    line = ds.trace[0].to_json()
    assert line == (
        '{"turn":0,"actor":0,"event":"(boot)",'
        '"actions":["(assert (price 100))","(send (ping 1))"],"crashed":false}'
    )
    obj = json.loads(line)
    assert list(obj) == ["turn", "actor", "event", "actions", "crashed"]


def _json_dumps_line(record):
    """The trace writer TurnRecord.to_json replaced: json.dumps of a dict."""
    return json.dumps(
        {
            "turn": record.turn,
            "actor": record.actor,
            "event": render_event(record.event),
            "actions": [render_action(a) for a in record.actions],
            "crashed": record.crashed,
        },
        separators=(",", ":"),
    )


# st.text() draws non-ASCII, astral and control characters; the rest are
# the characters the JSON and symbol escapes treat specially
_strings = st.text(st.characters() | st.sampled_from('"\\|\x00\x1f\x7f\u2028\U0001f600'))
_atom = _strings.map(Text) | _strings.map(Symbol)
_traced = _atom | st.builds(lambda label, fs: Record(label, tuple(fs)), _strings.map(Symbol), st.lists(_atom, max_size=3))
_event = st.one_of(
    st.just(BootEvent()),
    _traced.map(MessageEvent),
    st.builds(lambda a, r: PatchEvent(tuple(a), tuple(r)), st.lists(_traced, max_size=3), st.lists(_traced, max_size=3)),
)
_action = st.one_of(
    _traced.map(Assert),
    _traced.map(Retract),
    _traced.map(Message),
    st.builds(Spawn, st.just(lambda f: None), st.none() | st.integers(0, 10**6)),
    st.just(Quit()),
)


@given(st.builds(TurnRecord, st.integers(0, 10**9), st.integers(0, 10**6), _event,
                 st.lists(_action, max_size=3), st.booleans()))
def test_trace_line_is_what_json_dumps_writes(record):
    line = record.to_json()
    assert line == _json_dumps_line(record)
    assert line.isascii()


def test_trace_sink_receives_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    with open(path, "w") as sink:
        ds = Dataspace(trace_sink=sink)
        ds.spawn(Scripted([Assert(rec("cell", 1))]))
        ds.run_until_quiescent()
    lines = path.read_text().splitlines()
    assert [json.loads(l)["turn"] for l in lines] == list(range(len(ds.trace)))


def test_render_event_and_action_forms():
    assert render_event(BootEvent()) == "(boot)"
    assert render_event(MessageEvent(rec("m", 1))) == "(message (m 1))"
    ev = PatchEvent((rec("a", 1),), (rec("b", 2),))
    assert render_event(ev) == "(patch (added (a 1)) (removed (b 2)))"
    assert render_action(Quit()) == "(quit)"
    assert render_action(Message(rec("m", 1))) == "(send (m 1))"


# ---------------------------------------------------------------------------
# incremental routing: what each actor is told

LOW = lit(rec("cell", 1))  # overlaps CELL on (cell 1)
OTHER = rpat("other", cap("k"))


class Poked:
    """Raw runtime that takes one queued action batch per (poke <name>)
    message and records every patch it receives, in delivery order.
    `assert_told_matches_patterns` keeps `told` and `folded` up to date."""

    def __init__(self, name):
        self.name = name
        self.batches = []
        self.events = []
        self.aid = None  # set by whoever spawns it
        self.told = set()  # values it has been told are present
        self.folded = 0  # how many of `events` `told` accounts for

    def handle_event(self, event):
        if isinstance(event, BootEvent):
            return [Assert(message_interest(lit(rec("poke", sym(self.name)))))]
        if isinstance(event, MessageEvent):
            # any other message is one it observes: hearing it acts on nothing
            return self.batches.pop(0) if self._poked(event) else []
        for v in event.added:
            self.events.append(("+", v))
        for v in event.removed:
            self.events.append(("-", v))
        return []

    def _poked(self, event):
        return event.v == rec("poke", sym(self.name))


def poke(ds, puppet, *actions):
    """Run one turn of `puppet` emitting `actions`, then reach quiescence."""
    puppet.batches.append(list(actions))
    ds.inject_message(rec("poke", sym(puppet.name)))
    ds.run_until_quiescent()


def spawn_poked(ds, *names):
    puppets = [Poked(n) for n in names]
    for p in puppets:
        p.aid = ds.spawn(p)
    ds.run_until_quiescent()
    return puppets, [p.aid for p in puppets]


def _matched(pats, v):
    return any(reference_match(p, v) is not None for p in pats)


def assert_told_matches_patterns(ds, *puppets):
    """Fold each live puppet's new +/- events into the set of values it has
    been told are present: a + must name a value not told yet, a - a told
    one. A lost interest takes with it, unannounced, what no remaining
    pattern matches. Then the told set must be exactly the present values
    the puppet's current patterns match. Call it at quiescence."""
    for p in puppets:
        if not ds.is_alive(p.aid):
            continue
        for sign, v in p.events[p.folded :]:
            if sign == "+":
                assert v not in p.told, (p.name, "told twice", v)
                p.told.add(v)
            else:
                assert v in p.told, (p.name, "removal of an untold value", v)
                p.told.remove(v)
        p.folded = len(p.events)
        pats = ds.interests[p.aid].values()
        p.told = {v for v in p.told if _matched(pats, v)}
        assert p.told == {v for v in ds.bag if _matched(pats, v)}, p.name


def test_reasserting_a_shared_interest_gets_a_second_initial_patch():
    # a's retraction leaves the bag unchanged (b holds the same interest), so
    # the turn routes nothing; a must still forget the values
    ds = Dataspace()
    (a, b, h), _ = spawn_poked(ds, "a", "b", "h")
    poke(ds, h, Assert(rec("cell", 1)), Assert(rec("cell", 2)))
    poke(ds, b, Assert(observe(CELL)))
    poke(ds, a, Assert(observe(CELL)))
    assert_told_matches_patterns(ds, a, b, h)
    poke(ds, a, Retract(observe(CELL)))
    assert_told_matches_patterns(ds, a, b, h)
    assert a.told == set()
    poke(ds, a, Assert(observe(CELL)))
    both = [("+", rec("cell", 1)), ("+", rec("cell", 2))]
    assert a.events == both + both
    assert_told_matches_patterns(ds, a, b, h)


def test_same_turn_retract_and_reassert_keeps_visible_values():
    # the net change over the turn decides: CELL is kept, so (cell 1) stays
    # told without a second initial patch and its removal is still heard;
    # OTHER is lost (b holds it too, so the bag does not change) and (other 1)
    # is forgotten
    ds = Dataspace()
    (a, b, h), _ = spawn_poked(ds, "a", "b", "h")
    poke(ds, h, Assert(rec("cell", 1)), Assert(rec("other", 1)))
    poke(ds, b, Assert(observe(OTHER)))
    poke(ds, a, Assert(observe(CELL)), Assert(observe(OTHER)))
    assert_told_matches_patterns(ds, a, b, h)
    assert a.told == {rec("cell", 1), rec("other", 1)}
    seen = list(a.events)
    poke(ds, a, Retract(observe(CELL)), Retract(observe(OTHER)), Assert(observe(CELL)))
    assert a.events == seen
    assert_told_matches_patterns(ds, a, b, h)
    assert a.told == {rec("cell", 1)}
    poke(ds, h, Retract(rec("cell", 1)), Retract(rec("other", 1)))
    assert a.events == seen + [("-", rec("cell", 1))]
    assert_told_matches_patterns(ds, a, b, h)


def test_turn_without_actions_routes_nothing():
    ds = Dataspace()
    (a, b, h), (aid, _, _) = spawn_poked(ds, "a", "b", "h")
    poke(ds, h, Assert(rec("cell", 1)), Assert(rec("cell", 2)))
    poke(ds, a, Assert(observe(CELL)), Assert(observe(LOW)))
    poke(ds, b, Assert(observe(CELL)))
    poke(ds, a, Retract(observe(CELL)))
    assert_told_matches_patterns(ds, a, b, h)
    before = [list(p.events) for p in (a, b, h)]
    a.batches.append([])
    ds.inject_message(rec("poke", sym("a")))
    record = ds.run_turn()
    assert record.actor == aid and record.actions == []
    assert not ds.pending()
    assert [p.events for p in (a, b, h)] == before
    assert_told_matches_patterns(ds, a, b, h)
    assert a.told == {rec("cell", 1)} and len(b.told) == 2


def test_dropping_one_of_two_overlapping_interests_keeps_what_the_other_matches():
    ds = Dataspace()
    (a, b, h), _ = spawn_poked(ds, "a", "b", "h")
    poke(ds, h, Assert(rec("cell", 1)), Assert(rec("cell", 2)))
    poke(ds, b, Assert(observe(CELL)))
    poke(ds, a, Assert(observe(CELL)), Assert(observe(LOW)))
    assert_told_matches_patterns(ds, a, b, h)
    poke(ds, a, Retract(observe(CELL)))
    assert_told_matches_patterns(ds, a, b, h)
    assert a.told == {rec("cell", 1)}
    seen = list(a.events)
    poke(ds, h, Retract(rec("cell", 2)))
    assert a.events == seen  # (cell 2) was forgotten with CELL
    poke(ds, h, Retract(rec("cell", 1)))
    assert a.events == seen + [("-", rec("cell", 1))]
    assert_told_matches_patterns(ds, a, b, h)


def test_a_value_gone_in_the_turn_its_interest_arrives_is_never_announced():
    # a was never told about (cell 1), so its removal in the very turn a
    # starts to observe it is not heard either; (cell 2) comes in the
    # initial patch
    ds = Dataspace()
    (a, h), _ = spawn_poked(ds, "a", "h")
    poke(ds, a, Assert(rec("cell", 1)))
    poke(ds, h, Assert(rec("cell", 2)))
    poke(ds, a, Assert(observe(CELL)), Retract(rec("cell", 1)))
    assert a.events == [("+", rec("cell", 2))]
    assert_told_matches_patterns(ds, a, h)


def test_an_interest_held_twice_lasts_until_its_last_copy_goes():
    # the bag alone counts the copies: one initial patch, removals heard while
    # a copy is left, and nothing routed once the last one goes
    ds = Dataspace()
    (a, h), (aid, hid) = spawn_poked(ds, "a", "h")
    poke(ds, h, Assert(rec("cell", 1)), Assert(rec("cell", 2)), Assert(rec("cell", 3)))
    poke(ds, a, Assert(observe(CELL)))
    poke(ds, a, Assert(observe(CELL)))
    initial = [("+", rec("cell", k)) for k in (1, 2, 3)]
    assert a.events == initial
    assert ds.bag[observe(CELL)] == {aid: 2}
    assert_told_matches_patterns(ds, a, h)
    poke(ds, a, Retract(observe(CELL)))
    poke(ds, h, Retract(rec("cell", 1)))
    assert a.events == initial + [("-", rec("cell", 1))]
    assert_told_matches_patterns(ds, a, h)
    poke(ds, a, Retract(observe(CELL)))
    assert_told_matches_patterns(ds, a, h)
    assert a.told == set() and observe(CELL) not in ds.interests[aid]
    turns = len(ds.trace)
    poke(ds, h, Retract(rec("cell", 2)), Assert(rec("cell", 4)))
    assert a.events == initial + [("-", rec("cell", 1))]
    assert [r.actor for r in ds.trace[turns:]] == [hid]
    assert_told_matches_patterns(ds, a, h)
    assert a.told == set()


def test_quitting_actor_leaves_no_queue_entry():
    # it observes its own assertion and message, so the turn routes both to
    # it before it goes; neither may stay queued
    ds = Dataspace()
    r = spawn_recorder(ds, CELL)
    ds.run_until_quiescent()
    quitter = Scripted(
        [
            Assert(observe(CELL)),
            Assert(message_interest(lit(rec("ping")))),
            Assert(rec("cell", 5)),
            Message(rec("ping")),
            Quit(),
        ]
    )
    aid = ds.spawn(quitter)
    ds.run_turn()
    assert_forgotten(ds, aid)
    assert all(a != aid for a, _ in ds.queue)
    ds.run_until_quiescent()
    assert len(quitter.seen) == 1
    assert r.events == [("+", rec("cell", 5)), ("-", rec("cell", 5))]


@pytest.mark.parametrize("ending", ["retract", "quit", "crash"])
def test_ending_an_actor_is_retracting_every_copy_it_holds(ending):
    # v holds (cell 1) twice, (cell 2), which h also holds, (cell 3) and two
    # interests; o hears cells and interests. Quitting and crashing must
    # route o the patch that retracting each held copy, in bag order, routes,
    # and leave the same bag, interests and index.
    ds = Dataspace()
    (o, h, v), _ = spawn_poked(ds, "o", "h", "v")
    poke(ds, o, Assert(observe(CELL)), Assert(observe(observe(cap("p")))))
    poke(ds, v, Assert(rec("cell", 3)))
    poke(ds, h, Assert(rec("cell", 2)))
    poke(ds, v, Assert(rec("cell", 1)), Assert(observe(OTHER)), Assert(rec("cell", 2)), Assert(rec("cell", 1)))
    mark = len(ds.trace)
    if ending == "retract":
        held = [x for x, per in ds.bag.items() for _ in range(per.get(v.aid, 0))]
        poke(ds, v, *[Retract(x) for x in held])
    else:
        poke(ds, v, Quit() if ending == "quit" else "not an action")
        assert_forgotten(ds, v.aid)
    assert [render_event(t.event) for t in ds.trace[mark:] if t.actor == o.aid] == [
        "(patch (added) (removed (observe (message (poke v))) (cell 3) (cell 1)"
        " (observe (other (capture \"k\")))))"]
    assert list(ds.bag.items()) == [
        (message_interest(lit(rec("poke", sym(x.name)))), {x.aid: 1}) for x in (o, h)
    ] + [(observe(CELL), {o.aid: 1}), (observe(observe(cap("p"))), {o.aid: 1}), (rec("cell", 2), {h.aid: 1})]
    assert {a: t for a, t in ds.interests.items() if t} == {
        x.aid: dict(ds.interests[x.aid]) for x in (o, h)}
    assert ds.interests.get(v.aid, {}) == {}
    assert_index_matches_interests(ds)


def test_an_ending_actor_retracts_in_bag_order_not_in_the_order_it_asserted():
    # h asserts (cell 1) first, so it leads the bag; a asserts (cell 2), then
    # (cell 1); h's retraction leaves a as (cell 1)'s only holder, in place.
    # The removal patch follows the bag, not a's first-copy order
    ds = Dataspace()
    (o, h, a), _ = spawn_poked(ds, "o", "h", "a")
    poke(ds, o, Assert(observe(CELL)))
    poke(ds, h, Assert(rec("cell", 1)))
    poke(ds, a, Assert(rec("cell", 2)))
    poke(ds, a, Assert(rec("cell", 1)))
    poke(ds, h, Retract(rec("cell", 1)))
    mark = len(ds.trace)
    poke(ds, a, Quit())
    assert [render_event(t.event) for t in ds.trace[mark:] if t.actor == o.aid] == [
        "(patch (added) (removed (cell 1) (cell 2)))"]


# ---------------------------------------------------------------------------
# routing property: the runtime against the reference model, on schedules of
# random actions by three puppets that crash, quit and come back

CRASH = "crash"


class Chaos(Poked):
    """A `Poked` puppet that crashes on a batch holding CRASH and keeps the
    rendered text of every event it receives."""

    def __init__(self, name):
        super().__init__(name)
        self.seen = []

    def handle_event(self, event):
        self.seen.append(render_event(event))
        if isinstance(event, MessageEvent) and self._poked(event) and CRASH in self.batches[0]:
            raise RuntimeError("crash on request")
        return super().handle_event(event)


# one pattern per index bucket shape: two cell patterns sharing a key, a
# second label of the same arity, cell at another arity, a sequence, a
# literal atom, and a top-level capture, which is filed under the catch-all
# key; and (cell _ _) patterns that hold their constants at different paths
# and depths, or hold no hole at all
_PATTERNS = [CELL, LOW, OTHER, rpat("cell", cap("a"), 1), spat(cap("k")), Integer(1), cap("any"),
             rpat("cell", 2, cap("b")), rpat("cell", rpat("pair", 0, cap("y")), cap("x")),
             lit(rec("cell", 2, 1))]
_SHARED = [observe(p) for p in _PATTERNS] + [message_interest(p) for p in _PATTERNS]
# and values for each, with a record labelled capture, keyed as a hole is;
# (cell 2 1) fits three groups, (cell (pair 0 3) 1) two, (cell 3 3) none,
# (cell 5 1) and (cell [] 1) are too shallow for the (pair 0 _) group, and
# (cell [0 3] 1) holds that group's constant at its path under a sequence
_VALUES = [rec("cell", k) for k in range(3)] + [
    rec("other", 1), rec("cell", 2, 1), spat(1), Integer(1), rec("capture", "x"),
    rec("cell", rec("pair", 0, 3), 1), rec("cell", 3, 3), rec("cell", 5, 1), rec("cell", [], 1),
    rec("cell", [0, 3], 1)]
_action = st.sampled_from(
    [Assert(v) for v in _VALUES]
    + [Retract(v) for v in _VALUES]
    + [Message(v) for v in _VALUES]
    + [Assert(v) for v in _SHARED]
    + [Retract(v) for v in _SHARED]
    + [Quit(), CRASH]
)
# each pattern with each value it matches
_MATCHED = [(p, v) for p in _PATTERNS for v in _VALUES if reference_match(p, v) is not None]


def _focused(case):
    """Schedules in which about half the batches are puppet slot i's: it
    asserts v and the interest of p, which matches v, or it retracts v. So v
    is often held and heard, then removed, where uniform batches almost
    never route a removal."""
    i, (p, v) = case
    focus = st.sampled_from([(i, [Assert(observe(p)), Assert(v)]), (i, [Retract(v)])])
    return st.lists(st.one_of(focus, st.tuples(st.integers(0, 2), st.lists(_action, max_size=4))), max_size=30)


_schedule = st.tuples(st.integers(0, 2), st.sampled_from(_MATCHED)).flatmap(_focused)


def _settle(ds, checked):
    """Run to quiescence; if checked, check the interest index after every turn."""
    while ds.pending():
        ds.run_turn()
        if checked:
            assert_index_matches_interests(ds)


def _play(ds_class, schedule, checked=False):
    """Poke puppet i with each batch in turn; a dead puppet's slot gets a
    fresh puppet first. If checked, check the index after every turn and
    what each puppet was told at quiescence. Returns the JSONL trace and
    what each puppet saw."""
    sink = io.StringIO()
    ds = ds_class(trace_sink=sink)
    slots = [None, None, None]
    puppets = []
    for i, batch in schedule:
        if slots[i] is None or not ds.is_alive(slots[i].aid):
            p = Chaos("p%d" % len(puppets))
            puppets.append(p)
            slots[i] = p
            p.aid = ds.spawn(p)
            _settle(ds, checked)
        slots[i].batches.append(list(batch))
        ds.inject_message(rec("poke", sym(slots[i].name)))
        _settle(ds, checked)
        if checked:
            assert_told_matches_patterns(ds, *puppets)
    return sink.getvalue(), [p.seen for p in puppets]


@settings(deadline=None)
@given(_schedule)
# p0 observes everything, so p1's exit routes p0 the removal of p1's interest
# in its pokes: a removal routed to an actor other than the one that acted
@example([(0, [Assert(observe(cap("any")))]), (1, [Quit()])])
def test_routing_matches_the_reference_model(schedule):
    runtime = _play(Dataspace, schedule, checked=True)
    with runtime_switched_off():
        assert runtime == _play(ModelDataspace, schedule)
