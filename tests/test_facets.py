import io
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import drive_cmd, named_puppet_boot, reference_match, spawn_recorder
from facetspace import Dataspace, Integer, Record, Symbol, cap, lit, rec, rpat, sym
from facetspace.dataspace import Assert, MessageEvent, PatchEvent
from facetspace.forms import during, state_machine
from facetspace.values import observe, to_value
from facetspace.facets import Actor, DeadFieldAccess, HandlerEndpoint, render_tree
from facetspace.market import bank_account_boot
from golden_corpus import republish_boot
from test_dataspace import RefilterEveryTurn


def quiesce(ds):
    ds.run_until_quiescent()


def test_publish_constant():
    ds = Dataspace()
    r = spawn_recorder(ds, rpat("price", cap("p")))
    ds.spawn(lambda f: f.publish(rec("price", 40)))
    quiesce(ds)
    assert r.events == [("+", rec("price", 40))]


def test_stop_actor_from_handler_runs_stop_handlers():
    ds = Dataspace()
    order = []

    def boot(f):
        f.publish(rec("flag"))
        f.on_stop(lambda sf: order.append("stopped"))
        f.on_message(rpat("shutdown"), lambda hf, b: hf.actor.stop_actor())

    aid = ds.spawn(boot)
    quiesce(ds)
    ds.inject_message(rec("shutdown"))
    quiesce(ds)
    assert order == ["stopped"]
    assert not ds.is_alive(aid)
    assert ds.query(lit(rec("flag"))) == []


def test_field_dataflow_retract_assert_pair():
    ds = Dataspace()
    r = spawn_recorder(ds, rpat("balance", cap("n")))
    cell = {}

    def boot(f):
        bal = f.field(100)
        cell["bal"] = bal
        cell["ep"] = f.publish(lambda: rec("balance", bal()))
        f.on_message(rpat("deposit", cap("amt")), lambda hf, b: bal(bal() + b["amt"].n))

    ds.spawn(boot)
    quiesce(ds)
    assert r.events == [("+", rec("balance", 100))]
    ds.inject_message(rec("deposit", 30))
    quiesce(ds)
    # one atomic patch carries both sides of the change
    last = r.patches[-1].patch
    assert last.added == (rec("balance", 130),)
    assert last.removed == (rec("balance", 100),)
    assert cell["ep"].recompute_count == 2


def test_stopped_facets_leave_the_fields_they_read():
    ds = Dataspace()
    cell = {}

    def boot(f):
        x = cell["x"] = f.field(0)
        cell["live"] = f.publish(lambda: rec("total", x()))
        cell["base"] = len(x.dependents)
        parts = cell["parts"] = []
        kids = [
            f.react(lambda cf, i=i: parts.append(cf.publish(lambda: rec("part", i, x()))))
            for i in range(100)
        ]
        f.on_message(rpat("stop-parts"), lambda hf, _b: [hf.stop(k) for k in kids])
        f.on_message(rpat("bump"), lambda hf, _b: x(x() + 1))

    ds.spawn(boot)
    quiesce(ds)
    x = cell["x"]
    assert len(x.dependents) == cell["base"] + 100
    ds.inject_message(rec("stop-parts"))
    quiesce(ds)
    assert len(x.dependents) == cell["base"]
    ds.inject_message(rec("bump"))
    quiesce(ds)
    assert cell["live"].recompute_count == 2
    assert [ep.recompute_count for ep in cell["parts"]] == [1] * 100
    assert ds.query(rpat("total", cap("n"))) == [rec("total", 1)]
    assert ds.query(rpat("part", cap("i"), cap("n"))) == []


def test_field_write_without_change_still_recomputes_but_no_patch():
    ds = Dataspace()
    r = spawn_recorder(ds, rpat("balance", cap("n")))

    def boot(f):
        bal = f.field(100)
        f.publish(lambda: rec("balance", bal()))
        f.on_message(rpat("touch"), lambda hf, b: bal(100))

    ds.spawn(boot)
    quiesce(ds)
    ds.inject_message(rec("touch"))
    quiesce(ds)
    assert r.events == [("+", rec("balance", 100))]


def test_republish_follows_publish_order():
    ds = Dataspace()
    ds.spawn(republish_boot)
    quiesce(ds)
    ds.inject_message(rec("bump"))
    (turn,) = ds.run_until_quiescent()
    asserted = [a.v.fields[0].n for a in turn.actions if isinstance(a, Assert)]
    assert asserted == list(range(12))


def test_dead_field_access_raises():
    ds = Dataspace()
    cell = {}

    def boot(f):
        child = f.react(lambda cf: cell.__setitem__("fld", cf.field(1)))
        f.stop(child)

    ds.spawn(boot)
    quiesce(ds)
    with pytest.raises(DeadFieldAccess):
        cell["fld"]()


def test_on_start_ordering_and_immediate_run_when_started():
    ds = Dataspace()
    order = []

    def boot(f):
        f.on_start(lambda sf: order.append("start"))
        order.append("body")

    def late(f):
        pass

    ds.spawn(boot)
    quiesce(ds)
    assert order == ["body", "start"]

    ran = []

    def boot2(f):
        f.on_message(rpat("go"), lambda hf, b: hf.on_start(lambda sf: ran.append("now")))

    ds.spawn(boot2)
    quiesce(ds)
    ds.inject_message(rec("go"))
    quiesce(ds)
    assert ran == ["now"]  # facet already started: handler runs immediately


def test_stop_handlers_post_order_and_continuation_in_parent():
    ds = Dataspace()
    order = []

    def boot(f):
        def outer_body(outer):
            outer.on_stop(lambda sf: order.append("outer"))
            inner = outer.react(lambda i: i.on_stop(lambda sf: order.append("inner")))

        outer = f.react(outer_body)
        f.on_message(
            rpat("kill"),
            lambda hf, b: hf.actor.stop_facet(outer, lambda pf: order.append(("cont", pf.id))),
        )

    ds.spawn(boot)
    quiesce(ds)
    ds.inject_message(rec("kill"))
    quiesce(ds)
    assert order == ["inner", "outer", ("cont", ())]  # children first, then parent


def test_stop_dead_facet_is_noop_with_warning(caplog):
    ds = Dataspace()

    def boot(f):
        child = f.react(lambda cf: None)
        f.stop(child)
        f.stop(child)

    ds.spawn(boot)
    quiesce(ds)
    assert "no-op" in caplog.text


def test_crash_skips_stop_handlers():
    ds = Dataspace()
    stopped = []

    def boot(f):
        f.on_stop(lambda sf: stopped.append("root"))
        f.react(lambda cf: cf.on_stop(lambda sf: stopped.append("child")))
        f.publish(rec("flag"))
        f.on_message(rpat("boom"), lambda hf, b: 1 / 0)

    aid = ds.spawn(boot)
    quiesce(ds)
    ds.inject_message(rec("boom"))
    quiesce(ds)
    assert not ds.is_alive(aid)
    assert stopped == []
    assert ds.query(lit(rec("flag"))) == []


def test_literal_holding_a_reserved_label_crashes_the_installing_turn():
    # the encoding would route (wildcard) as a wildcard interest, so the
    # actor would be sent every assertion; the endpoint is refused instead
    ds = Dataspace()
    seen = []
    ds.spawn(lambda f: f.publish(rec("price", 40)))
    aid = ds.spawn(lambda f: f.on_asserted(lit(rec("wildcard")), lambda hf, b: seen.append(b)))
    quiesce(ds)
    assert not ds.is_alive(aid)
    assert [r.crashed for r in ds.trace if r.actor == aid] == [True]
    assert seen == []


def test_record_pattern_with_a_reserved_label_crashes_the_installing_turn():
    # (observe (wildcard (capture "x"))) would be a malformed interest that
    # leaves the actor alive with an endpoint that never fires
    ds = Dataspace()
    seen = []
    ds.spawn(lambda f: f.publish(rec("wildcard", 1)))
    aid = ds.spawn(lambda f: f.on_asserted(rpat("wildcard", cap("x")), lambda hf, b: seen.append(b)))
    quiesce(ds)
    assert not ds.is_alive(aid)
    assert [r.crashed for r in ds.trace if r.actor == aid] == [True]
    assert seen == []


def test_publishing_a_record_with_a_non_symbol_label_crashes_the_turn(tmp_path):
    # the trace could not render it; it never reaches the bag
    with open(tmp_path / "t.jsonl", "w") as sink:
        ds = Dataspace(trace_sink=sink)
        r = spawn_recorder(ds, cap("x"))
        aid = ds.spawn(lambda f: (f.publish(rec("ok")), f.publish(Record(Integer(1), ()))))
        quiesce(ds)
    assert not ds.is_alive(aid)
    assert [t.crashed for t in ds.trace if t.actor == aid] == [True]
    assert rec("ok") not in ds.bag and all(isinstance(v.label, Symbol) for v in ds.bag)
    assert [v for _, v in r.events] == [observe(cap("x"))]  # its own interest only
    assert len((tmp_path / "t.jsonl").read_text().splitlines()) == len(ds.trace)


def test_dispatch_first_registered_wins_when_facet_dies():
    # two handlers match the same event; the first stops the facet, so the
    # second never runs
    ds = Dataspace()
    hits = []

    def boot(f):
        def body(cf):
            cf.on_message(rpat("x"), lambda hf, b: (hits.append("first"), hf.stop(cf)))
            cf.on_message(rpat("x"), lambda hf, b: hits.append("second"))

        f.react(body)

    ds.spawn(boot)
    quiesce(ds)
    ds.inject_message(rec("x"))
    quiesce(ds)
    assert hits == ["first"]


def test_handler_runs_once_per_matching_value():
    ds = Dataspace()
    hits = []

    def boot(f):
        f.on_asserted(rpat("cell", cap("k")), lambda hf, b: hits.append(b["k"].n))

    ds.spawn(boot)
    ds.spawn(named_puppet_boot("a"))
    quiesce(ds)
    ds.inject_message(
        drive_cmd(
            "a", "do-batch", [rec("do-assert", rec("cell", 1)), rec("do-assert", rec("cell", 2))]
        )
    )
    quiesce(ds)
    assert sorted(hits) == [1, 2]


@pytest.mark.xfail(
    raises=AssertionError,
    reason="routing leaves out of the initial patch what the actor's held patterns already "
    "matched, and the facet runtime does not replay it to the new endpoint",
)
@pytest.mark.parametrize("pattern", [rpat("price", cap("q")), lit(rec("price", 40))], ids=["capture", "literal"])
def test_a_late_endpoint_hears_values_its_actor_was_already_told(pattern):
    ds = Dataspace()
    seen = []

    def boot(f):
        f.on_asserted(rpat("price", cap("p")), lambda hf, b: None)
        f.on_message(
            rpat("grow"), lambda hf, _b: hf.react(lambda cf: cf.on_asserted(pattern, lambda h, b: seen.append(b)))
        )

    ds.spawn(lambda f: f.publish(rec("price", 40)))
    ds.spawn(boot)
    quiesce(ds)
    ds.inject_message(rec("grow"))
    quiesce(ds)
    assert len(seen) == 1


def test_stop_retracts_descendant_assertions_and_interests():
    ds = Dataspace()
    r = spawn_recorder(ds, rpat("cell", cap("k")))

    def boot(f):
        def sub(cf):
            cf.publish(rec("cell", 1))
            cf.react(lambda g: g.publish(rec("cell", 2)))
            cf.on_asserted(rpat("unrelated"), lambda hf, b: None)

        child = f.react(sub)
        f.on_message(rpat("kill"), lambda hf, b: hf.stop(child))

    aid = ds.spawn(boot)
    quiesce(ds)
    assert {v for _, v in r.events} == {rec("cell", 1), rec("cell", 2)}
    ds.inject_message(rec("kill"))
    quiesce(ds)
    assert ds.query(rpat("cell", cap("k"))) == []
    assert ds.interests[aid] != {}  # the root's kill handler remains
    assert not any("unrelated" in str(k) for k in ds.interests[aid])


def test_root_stop_quits_actor():
    ds = Dataspace()

    def boot(f):
        f.publish(rec("flag"))
        f.on_message(rpat("die"), lambda hf, b: hf.stop(f))

    aid = ds.spawn(boot)
    quiesce(ds)
    ds.inject_message(rec("die"))
    quiesce(ds)
    assert not ds.is_alive(aid)
    assert ds.query(lit(rec("flag"))) == []


def _die_turn(continuation):
    """Trace line of the (die) turn of an actor whose root stop handler
    sends (bye) and whose (die) handler stops the root with `continuation`."""
    sink = io.StringIO()
    ds = Dataspace(trace_sink=sink)

    def boot(f):
        f.on_stop(lambda sf: sf.send(rec("bye")))
        f.on_message(rpat("die"), lambda hf, b: hf.stop(f, continuation))

    aid = ds.spawn(boot)
    quiesce(ds)
    ds.inject_message(rec("die"))
    quiesce(ds)
    return ds, aid, json.loads(sink.getvalue().splitlines()[1])


def test_root_stop_continuation_runs_in_a_fresh_root():
    ds, aid, line = _die_turn(lambda pf: pf.publish(rec("after")))
    assert line["actions"] == ["(send (bye))", "(retract (observe (message (die))))", "(assert (after))"]
    assert not line["crashed"]
    assert ds.is_alive(aid) and ds.query(lit(rec("after"))) == [rec("after")]
    assert render_tree(ds.actors[aid]) == "root\n  assert (after)"


def test_root_stop_continuation_that_only_sends_quits():
    ds, aid, line = _die_turn(lambda pf: pf.send(rec("gone")))
    assert line["actions"] == ["(send (bye))", "(retract (observe (message (die))))", "(send (gone))", "(quit)"]
    assert not ds.is_alive(aid)


def test_send_and_spawn_from_facet():
    ds = Dataspace()
    got = []

    def listener(f):
        f.on_message(rpat("note", cap("n")), lambda hf, b: got.append(b["n"].n))

    def boot(f):
        f.on_message(
            rpat("go"),
            lambda hf, b: (hf.spawn(listener), hf.send(rec("note", 1))),
        )

    ds.spawn(boot)
    quiesce(ds)
    ds.inject_message(rec("go"))
    quiesce(ds)
    assert got == []  # listener boots after the send: no buffering
    ds.inject_message(rec("go"))
    quiesce(ds)
    assert got == [1]


def test_render_tree_shows_structure():
    ds = Dataspace()

    def boot(f):
        f.publish(rec("price", 40))
        f.react(lambda cf: cf.on_message(rpat("x"), lambda hf, b: None))

    aid = ds.spawn(boot)
    quiesce(ds)
    text = render_tree(ds.actors[aid])
    assert "root" in text and "assert (price 40)" in text and "on message" in text


# ---------------------------------------------------------------------------
# the standalone account-keeping example: fields driving assertions

def test_bank_account_example():
    ds = Dataspace()
    r = spawn_recorder(ds, rpat("balance", cap("acct"), cap("amt")))
    ds.spawn(bank_account_boot())
    ds.spawn(named_puppet_boot("client"))
    quiesce(ds)
    ds.inject_message(drive_cmd("client", "do-assert", rec("create-account", sym("alice"), 100)))
    quiesce(ds)
    assert ("+", rec("balance", 0, 100)) in r.events
    assert ds.query(rpat("account-for", lit(sym("alice")), cap("n"))) != []
    ds.inject_message(rec("deposit", rec("acct", 0), 30))
    quiesce(ds)
    last = r.patches[-1].patch
    assert last.added == (rec("balance", 0, 130),)
    assert last.removed == (rec("balance", 0, 100),)


# ---------------------------------------------------------------------------
# facet dispatch against a reference that tests every endpoint with the
# interpretive reference_match

class MatchEveryEndpoint(Actor):
    """Reference dispatch: walk every endpoint of the tree and call
    `reference_match` on every value of the event; no compiled test decides
    a hit."""

    def _dispatch(self, event):
        invocations = []

        def walk(f):
            for ep in f.endpoints:
                if not isinstance(ep, HandlerEndpoint):
                    continue
                if isinstance(event, PatchEvent):
                    if ep.kind == "asserted":
                        hay = event.patch.added
                    elif ep.kind == "retracted":
                        hay = event.patch.removed
                    else:
                        continue
                    for v in hay:
                        b = reference_match(ep.pattern, v)
                        if b is not None:
                            invocations.append((ep, b))
                elif isinstance(event, MessageEvent) and ep.kind == "message":
                    b = reference_match(ep.pattern, event.v)
                    if b is not None:
                        invocations.append((ep, b))
            for c in f.children:
                walk(c)

        walk(self.root)
        for ep, bindings in invocations:
            if not ep.facet.alive:
                continue
            self._run_body(ep.facet, ep.fn, (bindings,))


class ReferenceDispatch(Dataspace):
    def _make_runtime(self, aid, boot):
        if hasattr(boot, "handle_event"):
            return boot
        return MatchEveryEndpoint(self, aid, boot)


# A facet program is a list of ops; ops that take a body nest another list.
# Every message handler listens for (hit k s), so one message can bump a
# field, stop a facet and move a state machine, in tree order.
_key = st.integers(0, 1)
_leaf = st.one_of(st.tuples(st.just("publish"), _key), st.tuples(st.just("watch"), _key))


def _op(body):
    return st.one_of(
        _leaf,
        st.tuples(st.just("react"), body),
        st.tuples(st.just("stop"), _key, body),
        st.tuples(st.just("during"), _key, body),
        st.tuples(st.just("machine"), _key, st.lists(body, min_size=1, max_size=3)),
    )


_program = st.recursive(st.lists(_leaf, max_size=3), lambda body: st.lists(_op(body), max_size=4), max_leaves=12)
_item = st.builds(rec, st.just("item"), _key, st.integers(0, 2))
_input = st.one_of(
    st.builds(rec, st.just("hit"), _key, st.integers(0, 2)),
    st.lists(st.tuples(st.sampled_from(["do-assert", "do-retract"]), _item), min_size=1, max_size=3),
)


def _hit(k):
    return rpat("hit", lit(k), cap("s"))


def _state(body):
    return lambda sf: _run(sf, body)


def _run(f, body):
    """Install a program's ops in facet f."""
    for op in body:
        kind = op[0]
        if kind == "publish":
            x, k = f.field(0), op[1]
            f.publish(lambda k=k, x=x: rec("out", k, x()))
            f.on_message(_hit(k), lambda hf, _b, x=x: x(x() + 1))
        elif kind == "watch":
            k, item = op[1], rpat("item", lit(op[1]), cap("x"))
            f.on_asserted(item, lambda hf, b, k=k: hf.send(rec("saw", k, b["x"])))
            f.on_retracted(item, lambda hf, b, k=k: hf.send(rec("lost", k, b["x"])))
        elif kind == "react":
            f.react(_run, op[1])
        elif kind == "stop":
            # the continuation installs its body in the parent
            f.on_message(_hit(op[1]), lambda hf, _b, sub=op[2]: hf.stop(hf, lambda pf: _run(pf, sub)))
        elif kind == "during":
            k, sub = op[1], op[2]
            during(f, rpat("item", lit(k), cap("x")), lambda cf, b, k=k, sub=sub: (
                cf.publish(rec("in", k, b["x"])), _run(cf, sub)))
        else:
            n = len(op[2])
            goto = state_machine(f, "m", [("s%d" % i, _state(sub)) for i, sub in enumerate(op[2])])
            f.on_message(_hit(op[1]), lambda hf, b, goto=goto, n=n: goto("s%d" % (b["s"].n % n)))


def _play_program(ds_class, program, inputs, after_turn=lambda ds: None):
    """Run a program beside a puppet, calling after_turn(ds) after every
    turn; a list input is one batch of puppet assertions and retractions of
    items. Returns the JSONL trace."""
    sink = io.StringIO()
    ds = ds_class(trace_sink=sink)
    ds.spawn(named_puppet_boot("p"))
    aid = ds.spawn(lambda f: _run(f, program))
    # the reference run must not fall back to the runtime it checks
    assert (type(ds.actors[aid]) is MatchEveryEndpoint) == (ds_class is ReferenceDispatch)
    for step in [None, *inputs]:
        if isinstance(step, list):
            step = drive_cmd("p", "do-batch", [rec(cmd, v) for cmd, v in step])
        if step is not None:
            ds.inject_message(step)
        while ds.pending():
            ds.run_turn()
            after_turn(ds)
    return sink.getvalue()


@settings(deadline=None)
@given(_program, st.lists(_input, max_size=8))
def test_dispatch_matches_a_match_on_every_endpoint(program, inputs):
    assert _play_program(Dataspace, program, inputs) == _play_program(ReferenceDispatch, program, inputs)


def _live_endpoints(actor):
    todo = [actor.root] if actor.root is not None and actor.root.alive else []
    while todo:
        f = todo.pop()
        yield from f.endpoints
        todo.extend(f.children)


def _check_dataflow(ds):
    """Every live assertion endpoint holds what its computation gives now,
    and each actor holds in the bag exactly what its live endpoints hold."""
    for aid, actor in ds.actors.items():
        held = Counter()
        for ep in _live_endpoints(actor):
            if ep.kind is None:
                assert ep.current == to_value(ep.compute())
            held[ep.current] += 1
        assert held == Counter({v: per[aid] for v, per in ds.bag.items() if aid in per})


@settings(deadline=None)
@given(_program, st.lists(_input, max_size=8))
def test_assertion_endpoints_follow_their_fields_after_every_turn(program, inputs):
    _play_program(Dataspace, program, inputs, after_turn=_check_dataflow)


def test_reference_runtimes_override_only_what_their_base_defines():
    # an override of a name the base no longer has is never called, and the
    # reference would silently check the runtime against itself
    for cls in (ReferenceDispatch, MatchEveryEndpoint, RefilterEveryTurn):
        (base,) = cls.__bases__
        own = [name for name, x in vars(cls).items() if callable(x)]
        assert own and [n for n in own if not callable(getattr(base, n, None))] == [], cls
