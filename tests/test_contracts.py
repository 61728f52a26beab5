"""Complexity contracts (ROADMAP item 14): what one core event costs, in
counts, must not grow with the number of bystanders beside it. Each contract
runs the same scenario beside FEW and beside MANY bystanders and compares
the two counts, never a count against a tuned constant.

Setting up MANY bystander actors costs seconds: every boot turn runs the
initial-patch scan over every actor and the whole bag (ROADMAP item 1)."""

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
    """Bare runtime holding two values and two interests, which quits,
    without retracting them, on the message it hears."""

    def handle_event(self, event):
        if isinstance(event, BootEvent):
            return [
                Assert(rec("cell", 1)),
                Assert(rec("cell", 2)),
                Assert(observe(rpat("cell", cap("k")))),
                Assert(message_interest(lit(rec("leave")))),
            ]
        return [Quit()] if isinstance(event, MessageEvent) else []


def _termination_visits(n):
    """Bag entries visited by `_terminate` when the Quitter quits beside n
    bystanders. Only `_terminate` is counted: the initial-patch scan of the
    quit turn's routing is item 1's and item 16's to bound."""
    ds = Dataspace()
    spawn_bystanders(ds, n)
    ds.spawn(Quitter())
    ds.run_until_quiescent()
    bag, terminate, visits = count_bag_visits(ds), ds._terminate, []

    def counted(aid):
        start = bag.visits
        try:
            return terminate(aid)
        finally:
            visits.append(bag.visits - start)

    ds._terminate = counted
    ds.inject_message(rec("leave"))
    ds.run_until_quiescent()
    assert ds.query(rpat("cell", cap("k"))) == []
    return visits


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: _terminate scans the whole bag until each actor keeps an owned-assertion set",
)
def test_termination_visits_the_copies_the_actor_held_not_the_bag():
    assert _termination_visits(MANY) == _termination_visits(FEW)
