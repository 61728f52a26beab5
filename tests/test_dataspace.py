import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import drive_cmd, named_puppet_boot, spawn_recorder
from facetspace import Dataspace, cap, rec, render, rpat, sym
from facetspace.dataspace import (
    Assert,
    BootEvent,
    MAX_TRACED_DEPTH,
    MaxTurnsExceeded,
    Message,
    MessageEvent,
    Patch,
    PatchEvent,
    Quit,
    Retract,
    render_action,
    render_event,
)
from facetspace.values import (
    MESSAGE,
    Integer,
    Record,
    Sequence,
    lit,
    match,
    message_interest,
    observe,
    parse,
)

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
    assert set(r.patches[0].patch.added) == {rec("cell", k) for k in range(3)}
    assert r.patches[0].patch.removed == ()


def test_initial_patch_precedes_regular_patch():
    # an actor that asserts an interest and a matching-later value in one
    # turn: another actor's simultaneous assertion shows up as the initial
    # patch, delivered before any later regular patch
    ds = Dataspace()
    holder = Scripted([Assert(rec("cell", 1))])
    ds.spawn(holder)
    ds.run_until_quiescent()
    r = spawn_recorder(ds, CELL)
    ds.spawn(Scripted([Assert(rec("cell", 2))]))
    ds.run_until_quiescent()
    assert r.events[0] == ("+", rec("cell", 1))  # initial, from the bag
    assert r.events[1] == ("+", rec("cell", 2))


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
    assert [p.patch.added for p in r.patches] == [tuple(order)]
    assert ds.query(CELL) == order


def test_spawned_child_boots_after_patches():
    child = Scripted()
    from facetspace.dataspace import Spawn

    ds = Dataspace()
    ds.spawn(Scripted([Assert(rec("cell", 1)), Spawn(child)]))
    ds.run_until_quiescent()
    assert len(child.seen) == 1 and isinstance(child.seen[0], BootEvent)


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
    ev = PatchEvent(Patch((rec("a", 1),), (rec("b", 2),)))
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
        for v in event.patch.added:
            self.events.append(("+", v))
        for v in event.patch.removed:
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
    return any(match(p, v) is not None for p in pats)


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


# ---------------------------------------------------------------------------
# routing property: routing from the bag and the patterns against a per-turn
# re-filter of a per-actor visible set


class RefilterEveryTurn(Dataspace):
    """Reference routing: each actor keeps a visible set of the values it
    was told about, and every turn re-filters every visible set against its
    actor's current patterns; no early return. Patterns are tested with
    `match`, not with their compiled tests, for messages as for patches."""

    def __init__(self, trace_sink=None):
        super().__init__(trace_sink)
        self.visible = {}  # actor id -> set of Values notified present

    def spawn(self, boot):
        aid = super().spawn(boot)
        self.visible[aid] = set()
        return aid

    def _terminate(self, aid):
        del self.visible[aid]
        return super()._terminate(aid)

    def _message_deliveries(self, v):
        wrapper = Record(MESSAGE, (v,))
        out = []
        for aid, table in self.interests.items():
            if any(match(p, wrapper) is not None for p in table.values()):
                out.append((aid, MessageEvent(v)))
        return out

    def _patch_deliveries(self, patch, actor=None, before=None):
        fresh = {}
        if actor is not None:
            fresh[actor] = [p for k, p in self.interests[actor].items() if k not in before]
        out = []
        for aid in self.actors:
            pats = list(self.interests[aid].values())
            vis = self.visible[aid]
            vis = {v for v in vis if any(match(p, v) is not None for p in pats)}
            f_removed = tuple(v for v in patch.removed if v in vis)
            f_added = tuple(
                v
                for v in patch.added
                if v not in vis and any(match(p, v) is not None for p in pats)
            )
            init_added = tuple(
                v
                for v in self.bag
                if v not in vis
                and v not in f_added
                and any(match(p, v) is not None for p in fresh.get(aid, []))
            )
            if init_added:
                out.append((aid, PatchEvent(Patch(init_added, ()))))
                vis |= set(init_added)
            if f_added or f_removed:
                out.append((aid, PatchEvent(Patch(f_added, f_removed))))
                vis = (vis - set(f_removed)) | set(f_added)
            self.visible[aid] = vis
        return out


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


_SHARED = [observe(CELL), observe(LOW), message_interest(CELL), message_interest(LOW)]
_action = st.sampled_from(
    [Assert(rec("cell", k)) for k in range(3)]
    + [Retract(rec("cell", k)) for k in range(3)]
    + [Message(rec("cell", k)) for k in range(3)]
    + [Assert(v) for v in _SHARED]
    + [Retract(v) for v in _SHARED]
    + [Quit(), CRASH]
)
_schedule = st.lists(st.tuples(st.integers(0, 2), st.lists(_action, max_size=4)), max_size=30)


def _play(ds_class, schedule):
    """Poke puppet i with each batch in turn; a dead puppet's slot gets a
    fresh puppet first. Returns the JSONL trace and what each puppet saw."""
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
            ds.run_until_quiescent()
        poke(ds, slots[i], *batch)
        assert_told_matches_patterns(ds, *puppets)
    return sink.getvalue(), [p.seen for p in puppets]


@settings(deadline=None)
@given(_schedule)
def test_incremental_routing_matches_per_turn_refilter(schedule):
    assert _play(Dataspace, schedule) == _play(RefilterEveryTurn, schedule)
