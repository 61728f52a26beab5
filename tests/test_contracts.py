"""Complexity contracts (ROADMAP item 14): what one core event costs, in
counts, must not grow with the number of bystanders beside it. Each contract
runs the same scenario beside FEW and beside MANY bystanders and compares
the two counts, never a count against a tuned constant (a contract that
nothing is visited compares both with 0).

Setting up MANY bystander actors costs seconds: every boot turn runs the
initial-patch scan over the whole bag once for each bystander that has
booted (ROADMAP item 1). One that has not booted holds no interest and is
skipped, as the boot-turn contract checks. So the bag and broadcast
contracts share one set-up per size, `_visits`."""

import functools

import pytest

from conftest import (
    CountingIndex,
    count_bag_visits,
    drive_cmd,
    named_puppet_boot,
    spawn_bystanders,
    spawn_counted,
)
from facetspace import Dataspace, Record, cap, lit, rec, rpat, sym, values
from facetspace.dataspace import Assert, BootEvent, MessageEvent, Quit
from facetspace.drivers import advance_virtual_time
from facetspace.market import build_scenario, default_config
from facetspace.values import message_interest, observe

FEW, MANY = 10, 200


def _dispatch_counts(n):
    """(candidates visited, handlers run) by each event of a bank-like facet
    actor whose bystanders are its own idle accounts: n + 1 account facets,
    each with a deposit endpoint, a limit endpoint and a field-computed
    balance. Account 0 hears one deposit message, then one patch adding its
    limit."""
    ds = Dataspace()
    ran = []

    def boot(f):
        for i in range(n + 1):

            def account(af, i=i):
                balance = af.field(0)
                af.publish(lambda: rec("balance", i, balance()))

                def deposit(hf, b):
                    ran.append(i)
                    balance(balance() + b["amount"].n)

                af.on_message(rpat("deposit", lit(i), cap("amount")), deposit)
                af.on_asserted(rpat("limit", lit(i), cap("n")), lambda hf, b: ran.append(i))

            f.react(account)

    bank = spawn_counted(ds, boot)
    ds.spawn(named_puppet_boot("p"))
    ds.run_until_quiescent()
    index = ds.actors[bank].handlers
    counts = []
    for poke in (rec("deposit", 0, 5), drive_cmd("p", "do-assert", rec("limit", 0, 9))):
        index.visits, ran[:] = 0, []
        ds.inject_message(poke)
        ds.run_until_quiescent()
        counts.append((index.visits, len(ran)))
    assert ds.query(rpat("balance", lit(0), cap("n"))) == [rec("balance", 0, 5)]
    return counts


def test_dispatch_visits_about_as_many_endpoints_as_it_runs_handlers():
    few, many = _dispatch_counts(FEW), _dispatch_counts(MANY)
    assert many == few
    assert all(visited == ran for visited, ran in many)


class Quitter:
    """Bare runtime holding two values and two interests. It asserts
    (cell 3) on (grow), and quits on (leave) without retracting anything."""

    def handle_event(self, event):
        if isinstance(event, BootEvent):
            return [
                Assert(rec("cell", 1)),
                Assert(rec("cell", 2)),
                Assert(observe(rpat("cell", cap("k")))),
                Assert(message_interest(cap("m"))),
            ]
        if isinstance(event, MessageEvent):
            return [Assert(rec("cell", 3))] if event.v == rec("grow") else [Quit()]
        return []


class Listener:
    """Bare runtime holding one message interest, in (said x); it counts
    the messages it hears."""

    def __init__(self):
        self.heard = 0

    def handle_event(self, event):
        if isinstance(event, BootEvent):
            return [Assert(message_interest(rpat("said", cap("x"))))]
        if isinstance(event, MessageEvent):
            self.heard += 1
        return []


HEARERS = 5


def _boot_visits(n):
    """Bag entries visited by the boot turn of a Quitter spawned before n
    bystanders that have not booted yet."""
    ds = Dataspace()
    ds.spawn(Quitter())
    spawn_bystanders(ds, n)
    bag = count_bag_visits(ds)
    ds.run_turn()
    return bag.visits


def test_a_boot_turn_skips_the_actors_that_have_not_booted():
    assert _boot_visits(MANY) == _boot_visits(FEW)


@functools.cache
def _visits(n):
    """Bag entries visited beside n bystanders, in this order: by the
    Quitter's spawn up to quiescence, by the steady-state turn in which it
    asserts (cell 3), by a `query` for cells, and by `_held` when it quits.
    Only `_held`, the walk for the copies it holds, is counted at the quit:
    the initial-patch scan of the quit turn's routing is item 1's and item
    16's to bound. Then the
    routing candidates tested for one (said 1) message that HEARERS
    listeners hear. One set-up per n serves every contract below."""
    ds = Dataspace()
    ds.index = CountingIndex()
    spawn_bystanders(ds, n)
    ds.run_until_quiescent()
    bag, visits = count_bag_visits(ds), {}

    def counted(name, fn, *args):
        start = bag.visits
        try:
            return fn(*args)
        finally:
            visits[name] = bag.visits - start

    counted("spawn", lambda: (ds.spawn(Quitter()), ds.run_until_quiescent()))
    ds.inject_message(rec("grow"))
    counted("steady", ds.run_turn)
    ds.run_until_quiescent()
    cells = counted("query", ds.query, rpat("cell", cap("k")))
    assert len(cells) == 3
    ds._held = functools.partial(counted, "termination", ds._held)
    ds.inject_message(rec("leave"))
    ds.run_until_quiescent()
    assert ds.query(rpat("cell", cap("k"))) == []
    listeners = [Listener() for _ in range(HEARERS)]
    for listener in listeners:
        ds.spawn(listener)
    ds.run_until_quiescent()
    ds.index.visits = 0
    ds.inject_message(rec("said", 1))
    ds.run_until_quiescent()
    assert [listener.heard for listener in listeners] == [1] * HEARERS
    visits["broadcast"] = ds.index.visits
    return visits


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: a new actor's initial patch scans the whole bag for what its patterns match",
)
def test_a_spawn_visits_in_proportion_to_what_its_patterns_match():
    assert _visits(MANY)["spawn"] == _visits(FEW)["spawn"]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: every patch turn scans the whole bag once per actor for initial patches",
)
def test_a_steady_state_turn_visits_no_bag_entry():
    assert (_visits(FEW)["steady"], _visits(MANY)["steady"]) == (0, 0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: query tests every present value")
def test_a_query_visits_in_proportion_to_its_matches():
    assert _visits(MANY)["query"] == _visits(FEW)["query"]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: _held scans the whole bag until each actor keeps an owned-assertion set",
)
def test_termination_visits_the_copies_the_actor_held_not_the_bag():
    assert _visits(MANY)["termination"] == _visits(FEW)["termination"]


def test_a_broadcast_tests_about_as_many_candidates_as_it_has_hearers():
    few, many = _visits(FEW)["broadcast"], _visits(MANY)["broadcast"]
    assert many == few
    assert HEARERS <= few <= 2 * HEARERS


DAYS = 10


def _idle_market():
    """An extended market of 3 sellers and 3 brokers, with 200 ms trading
    days and no orders, run to quiescence."""
    ds = build_scenario(default_config(
        "extended", open_ms=150, closed_ms=50,
        sellers={"s1": 40, "s2": 55, "s3": 45}, brokers={"k1": 0, "k2": 5, "k3": 2},
    )).ds
    ds.run_until_quiescent()
    return ds


def test_an_idle_market_compiles_no_more_patterns_than_it_sets_timers(monkeypatch):
    # each trading day stops and restarts the bank's, sellers' and brokers'
    # day facets: the patterns they install there depend on no event, so
    # only each timer's (timer-expired id) pattern should be compiled anew
    ds = _idle_market()
    compiled, real = [], values._compile

    def counted(p, path, caps, consts):
        if not path:  # the whole pattern, not one of its nodes
            compiled.append(p)
        return real(p, path, caps, consts)

    monkeypatch.setattr(values, "_compile", counted)
    start = len(ds.trace)
    advance_virtual_time(ds, 200 * DAYS)
    timers = [a.v for t in ds.trace[start:] for a in t.actions
              if isinstance(a, Assert) and a.v.__class__ is Record and a.v.label == sym("set-timer")]
    assert len(timers) == 2 * DAYS
    assert len(compiled) <= len(timers)


def test_an_idle_market_asserts_one_interest_object_per_interest_value():
    # the day facets install the same pattern objects every day, and each
    # pattern keeps its interest record: so an interest asserted again is
    # the same object, with its hash, text and height cached. The trace
    # keeps every asserted object alive, so ids cannot be reused
    ds = _idle_market()
    advance_virtual_time(ds, 200 * DAYS)
    interests = [a.v for t in ds.trace for a in t.actions
                 if isinstance(a, Assert) and a.v.__class__ is Record and a.v.label == sym("observe")]
    assert len({id(v) for v in interests}) == len(set(interests))
