"""Complexity contracts (ROADMAP item 14): what one core event costs, in
counts, must not grow with the number of bystanders beside it. Each contract
runs the same scenario beside FEW and beside MANY bystanders and compares
the two counts, never a count against a tuned constant (a contract that
nothing is visited compares both with 0).

Setting up MANY bystander actors costs seconds: every boot turn runs the
initial-patch scan over every actor and the whole bag (ROADMAP item 1). So
the bag contracts share one set-up per size, `_bag_visits`."""

import functools

import pytest

from conftest import (
    count_bag_visits,
    drive_cmd,
    named_puppet_boot,
    spawn_bystanders,
    spawn_counted,
)
from facetspace import Dataspace, cap, lit, rec, rpat
from facetspace.dataspace import Assert, BootEvent, MessageEvent, Quit
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


@functools.cache
def _bag_visits(n):
    """Bag entries visited beside n bystanders, in this order: by the
    Quitter's spawn up to quiescence, by the steady-state turn in which it
    asserts (cell 3), by a `query` for cells, and by `_terminate` when it
    quits. One set-up per n serves every contract below. Only `_terminate`
    is counted at the quit: the initial-patch scan of the quit turn's
    routing is item 1's and item 16's to bound."""
    ds = Dataspace()
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
    ds._terminate = functools.partial(counted, "termination", ds._terminate)
    ds.inject_message(rec("leave"))
    ds.run_until_quiescent()
    assert ds.query(rpat("cell", cap("k"))) == []
    return visits


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: a new actor's initial patch scans the whole bag for what its patterns match",
)
def test_a_spawn_visits_in_proportion_to_what_its_patterns_match():
    assert _bag_visits(MANY)["spawn"] == _bag_visits(FEW)["spawn"]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: every patch turn scans the whole bag once per actor for initial patches",
)
def test_a_steady_state_turn_visits_no_bag_entry():
    assert (_bag_visits(FEW)["steady"], _bag_visits(MANY)["steady"]) == (0, 0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: query tests every present value")
def test_a_query_visits_in_proportion_to_its_matches():
    assert _bag_visits(MANY)["query"] == _bag_visits(FEW)["query"]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: _terminate scans the whole bag until each actor keeps an owned-assertion set",
)
def test_termination_visits_the_copies_the_actor_held_not_the_bag():
    assert _bag_visits(MANY)["termination"] == _bag_visits(FEW)["termination"]
