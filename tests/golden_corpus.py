"""The golden trace-digest corpus: seeded scripts whose JSONL traces must not
change. ``golden_digests.json`` next to this file holds the SHA-256 of each
trace; ``test_golden_corpus.py`` compares against it, in this process and in
a child process with another hash seed and a shifted heap.

Regenerate the file only for a change that is meant to alter traces:

    PYTHONPATH=src python tests/golden_corpus.py --write

It prints each entry it added, changed or removed, one per line.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from io import StringIO
from pathlib import Path

from facetspace import Dataspace, cap, lit, rec, rpat, sym
from facetspace.drivers import advance_virtual_time
from facetspace.expansions import check_form
from facetspace.forms import stop_when
from facetspace.market import (
    bank_account_boot,
    build_scenario,
    default_config,
    parse_script,
    run_scenario,
)
from facetspace.values import parse_all

DIGESTS = Path(__file__).with_name("golden_digests.json")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _market_script(rng: random.Random, buyers, prices) -> str:
    """Criterion 7's action mix, each step run to quiescence, then a drain
    that lets open orders resolve."""
    steps, refs = [], []
    for _ in range(rng.randrange(3, 7)):
        kind = rng.choice(["place", "place", "cancel", "advance"])
        if kind == "place":
            ref = "o%d" % len(refs)
            refs.append(ref)
            buyer, n, maxp = rng.choice(buyers), rng.randrange(1, 8), rng.choice(prices)
            steps.append("(place %s %s %d %d)" % (buyer, ref, n, maxp))
            steps.append("(expect-quiescent)")
        elif kind == "cancel" and refs:
            steps.append("(cancel %s %s)" % (rng.choice(buyers), rng.choice(refs)))
            steps.append("(expect-quiescent)")
        else:
            steps.append("(advance %d)" % rng.randrange(50, 400))
    steps += ["(advance 400)", "(expect-quiescent)"]
    return "\n".join(steps)


def _scenario_trace(config, text: str) -> str:
    sink = StringIO()
    run_scenario(config, parse_script(parse_all(text)), trace_sink=sink)
    return sink.getvalue()


def simple_run(seed: int) -> str:
    config = default_config(
        "simple",
        accounts={"a1": 1000, "a2": 600},
        buyers=[("b1", "a1"), ("b2", "a2")],
        open_ms=300,
        closed_ms=100,
    )
    return _scenario_trace(config, _market_script(random.Random(seed), ["b1", "b2"], [30, 45, 60]))


def extended_run(seed: int) -> str:
    config = default_config(
        "extended",
        accounts={"a1": 1000, "a2": 200},
        buyers=[("b1", "a1"), ("b2", "a2")],
        sellers={"s1": 40, "s2": 55, "s3": 35},
        brokers={"k1": 0, "k2": 5, "k3": 2},
        open_ms=250,
        closed_ms=100,
    )
    return _scenario_trace(config, _market_script(random.Random(seed), ["b1", "b2"], [30, 38, 45, 60]))


def simple_canonical_run() -> str:
    """The five order paths of criterion 6, one trace after another."""
    cases = [
        (default_config("simple"), "(place b1 o1 5 50)(expect-quiescent)"),
        (default_config("simple", accounts={"a1": 100}), "(place b1 o1 5 50)(expect-quiescent)"),
        (default_config("simple", sellers=[60]), "(place b1 o1 5 50)(expect-quiescent)"),
        (default_config("simple"), "(place b1 o1 5 50)(cancel b1 o1)(expect-quiescent)"),
        (
            default_config("simple", sellers=[]),
            "(place b1 o1 5 50)(expect-quiescent)(cancel b1 o1)(expect-quiescent)",
        ),
    ]
    return "".join(_scenario_trace(config, text) for config, text in cases)


def extended_canonical_run() -> str:
    """Extended paths the random mix rarely takes: a cancel inside the
    seller-selection window, insufficient funds, no price under the maximum,
    a broker fee, and an order that spans a day boundary."""
    cases = [
        (default_config("extended"), "(place b1 o1 5 50)(advance 150)(cancel b1 o1)(advance 400)"),
        (default_config("extended", accounts={"a1": 100}), "(place b1 o1 5 50)(advance 400)"),
        (default_config("extended"), "(place b1 o1 5 30)(advance 400)"),
        (default_config("extended", brokers={"k2": 5}), "(place b1 o1 5 50)(advance 400)"),
        (
            default_config("extended", open_ms=150, closed_ms=50),
            "(advance 120)(place b1 o1 5 50)(advance 600)(expect-quiescent)",
        ),
    ]
    return "".join(_scenario_trace(config, text) for config, text in cases)


def selection_cancel_run() -> str:
    """A cancel inside the buyer's broker-selection window, before any
    broker has seen an order: it ends canceled and nothing is charged."""
    return _scenario_trace(default_config("extended"), "(place b1 o1 5 50)(cancel b1 o1)(advance 400)")


def withdrawing_seller_boot(name: str, desired):
    """A named seller that takes its price back for good when it sees a
    purchase request naming it, and never answers that request."""
    who = sym(name)

    def boot(f):
        f.publish(rec("price", who, desired))
        stop_when(f, "asserted", rpat("purchase-request", cap("id"), lit(who), cap("n"), cap("offered")))

    return boot


def backtrack_scenario(sink=None, **overrides):
    """The extended cast plus s0, the cheapest seller, which withdraws its
    price once asked to sell: the broker goes back to choosing and buys from
    the next-cheapest seller. One order, placed in the first trading day."""
    scenario = build_scenario(default_config("extended", **overrides), trace_sink=sink)
    ds = scenario.ds
    ds.spawn(withdrawing_seller_boot("s0", 30))
    ds.run_until_quiescent()
    ds.inject_message(rec("place-order", sym("b1"), sym("o1"), 5, 50))
    ds.run_until_quiescent()
    advance_virtual_time(ds, 400)
    ds.run_until_quiescent()
    return scenario


def backtrack_run() -> str:
    sink = StringIO()
    backtrack_scenario(sink)
    return sink.getvalue()


def ledger_run(seed: int) -> str:
    """``bank_account_boot`` with four accounts, an observer per balance and
    a stream of seeded deposit messages."""
    rng = random.Random(seed)
    sink = StringIO()
    ds = Dataspace(trace_sink=sink)
    ds.spawn(bank_account_boot())

    def client(f):
        for i in range(4):
            f.publish(rec("create-account", "client-%d" % i, rng.randrange(0, 100)))

    ds.spawn(client)
    for number in range(4):
        balance = rpat("balance", lit(number), cap("amt"))
        ds.spawn(lambda f, p=balance: f.on_asserted(p, lambda hf, b: None))
    ds.run_until_quiescent()
    for _ in range(12):
        ds.inject_message(rec("deposit", rec("acct", rng.randrange(4)), rng.randrange(1, 50)))
        ds.run_until_quiescent()
    return sink.getvalue()


def republish_boot(f):
    """One field read by twelve computed assertions; each (bump) message
    writes it once."""
    x = f.field(0)
    for i in range(12):
        f.publish(lambda i=i: rec("cell", i, x()))
    f.on_message(rpat("bump"), lambda hf, _b: x(x() + 1))


def republish_run() -> str:
    """Twelve computed assertions on one field, republished three times."""
    sink = StringIO()
    ds = Dataspace(trace_sink=sink)
    ds.spawn(republish_boot)
    ds.spawn(lambda f: f.on_asserted(rpat("cell", cap("i"), cap("x")), lambda hf, b: None))
    ds.run_until_quiescent()
    for _ in range(3):
        ds.inject_message(rec("bump"))
        ds.run_until_quiescent()
    return sink.getvalue()


def tree_order_boot(f):
    """The root publishes (x x), child 0 (mid 0 y) and its child (deep y),
    child 1 (mid 1 y), then the root (y y); a (bump) handler writes y, then
    x. Tree order re-publishes x, y, mid 0, deep, mid 1."""
    x, y = f.field(0), f.field(0)

    def first_child(cf):
        cf.publish(lambda: rec("mid", 0, y()))
        cf.react(lambda gf: gf.publish(lambda: rec("deep", y())))

    f.publish(lambda: rec("x", x()))
    f.react(first_child)
    f.react(lambda cf: cf.publish(lambda: rec("mid", 1, y())))
    f.publish(lambda: rec("y", y()))
    f.on_message(rpat("bump"), lambda hf, _b: (y(y() + 1), x(x() + 1)))


def tree_order_run() -> str:
    """Five computed assertions in three facets, re-published twice by a
    body that writes their fields against tree order."""
    sink = StringIO()
    ds = Dataspace(trace_sink=sink)
    ds.spawn(tree_order_boot)
    ds.run_until_quiescent()
    for _ in range(2):
        ds.inject_message(rec("bump"))
        ds.run_until_quiescent()
    return sink.getvalue()


def chat_user_boot(name: str, rooms):
    """A chat user in the style of Garnock-Jones's chat examples (2017). In
    each room it asserts its presence and hears every member's join, leave
    and speech, counting them in (heard name n). It speaks on (say name room
    text), leaves a room on (leave name room), and drops its connection on
    (drop name): the handler raises, and the actor ends holding its
    assertions, so the dataspace retracts them."""
    me = sym(name)

    def boot(f):
        heard = f.field(0)
        f.publish(lambda: rec("heard", me, heard()))

        def hear(hf, _b):
            heard(heard() + 1)

        def in_room(rf, room):
            member = rpat("present", lit(room), cap("who"))
            rf.publish(rec("present", room, me))
            rf.on_asserted(member, hear)
            rf.on_retracted(member, hear)
            rf.on_message(rpat("says", lit(room), cap("who"), cap("text")), hear)
            rf.on_message(
                rpat("say", lit(me), lit(room), cap("text")), lambda hf, b: hf.send(rec("says", room, me, b["text"]))
            )
            rf.on_message(rpat("leave", lit(me), lit(room)), lambda hf, _b: rf.stop())

        def drop(hf, _b):
            raise ConnectionResetError("%s dropped its connection" % name)

        for room in rooms:
            f.react(in_room, sym(room))
        f.on_message(rpat("drop", lit(me)), drop)

    return boot


def chat_room_run() -> str:
    """Two rooms: u1 and u2 join both, u0 only the lobby, u3 only dev. Each
    message said has every member of its room as a hearer. u1 drops while
    present in both rooms, so u2 hears two leaves in one patch; u3 leaves
    dev; u4 joins both rooms late and hears who is there; u2 drops too."""
    sink = StringIO()
    ds = Dataspace(trace_sink=sink)
    for name, rooms in [("u0", ["lobby"]), ("u1", ["lobby", "dev"]), ("u2", ["lobby", "dev"]), ("u3", ["dev"])]:
        ds.spawn(chat_user_boot(name, rooms))
    ds.run_until_quiescent()
    u0, u1, u2, u3, u4, lobby, dev = (sym(s) for s in ("u0", "u1", "u2", "u3", "u4", "lobby", "dev"))

    def run(*commands):
        for command in commands:
            ds.inject_message(command)
            ds.run_until_quiescent()

    run(
        rec("say", u0, lobby, "hello"),
        rec("say", u3, dev, "build is green"),
        rec("drop", u1),
        rec("say", u2, lobby, "u1 dropped"),
        rec("leave", u3, dev),
        rec("say", u2, dev, "anyone here?"),
    )
    ds.spawn(chat_user_boot("u4", ["lobby", "dev"]))
    ds.run_until_quiescent()
    run(rec("say", u0, lobby, "welcome u4"), rec("drop", u2), rec("say", u4, dev, "just me"))
    return sink.getvalue()


def form_run(form: str) -> str:
    return "".join(got + want for _i, got, want in check_form(form))


def corpus() -> dict:
    """Corpus entry name -> zero-argument function returning its trace."""
    entries = {"simple-canonical": simple_canonical_run, "extended-canonical": extended_canonical_run}
    entries["extended-backtrack"] = backtrack_run
    entries["extended-selection-cancel"] = selection_cancel_run
    for seed in range(1, 7):
        entries["simple-2buyers-seed%d" % seed] = lambda s=seed: simple_run(s)
    for seed in range(1, 5):
        entries["extended-3x3-seed%d" % seed] = lambda s=seed: extended_run(s)
    entries["ledger-4accounts"] = lambda: ledger_run(1)
    entries["republish-12"] = republish_run
    entries["republish-tree-order"] = tree_order_run
    entries["chat-room"] = chat_room_run
    for form in ("during", "state-machine"):
        entries["expand-check-%s" % form] = lambda f=form: form_run(f)
    return entries


def digests() -> dict:
    return {name: _digest(run()) for name, run in corpus().items()}


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        old, new = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}, digests()
        for name in sorted(old.keys() | new.keys()):
            if old.get(name) != new.get(name):
                print("added" if name not in old else "removed" if name not in new else "changed", name)
        DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    else:
        # Shift every later allocation, so identity hashes and heap layout
        # differ from the parent test process.
        ballast = [object() for _ in range(100_003)]
        print(json.dumps(digests(), sort_keys=True))
        del ballast
