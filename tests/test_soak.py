"""Soak: a long run over a fixed working set keeps the runtime's tables at a
fixed size. The trace grows by design and is not measured here."""

from facetspace import Dataspace, cap, rec, rpat
from facetspace.drivers import Clock, advance_virtual_time, spawn_timer_driver
from facetspace.forms import on_timeout

ROUNDS = 1000
# message round trips between the pair per round; they are the cheap turns
# that bring the run past 2*10^4 turns within the time a tier-1 test may take
PINGS = 8


def live_facets(ds) -> int:
    def count(f):
        return 1 + sum(count(c) for c in f.children)

    return sum(count(a.root) for a in ds.actors.values() if a.root is not None)


def test_tables_stay_flat_under_facet_and_timer_churn():
    ds = Dataspace()
    spawn_timer_driver(ds, Clock("virtual"))
    cell = {"fired": 0}

    def fired(_f):
        cell["fired"] += 1

    def counter(f):
        n = cell["n"] = f.field(0)
        f.publish(lambda: rec("count", n()))
        kids = []

        def on_bump(hf, _b):
            n(n() + 1)
            for k in kids:
                hf.stop(k)
            # even rounds set a timer that fires; odd rounds one that the
            # next round cancels by stopping its facet
            delay = 5 if n() % 2 == 0 else 1000
            kids[:] = [
                hf.react(lambda cf: cf.publish(lambda: rec("view", n()))),
                hf.react(lambda cf: on_timeout(cf, delay, fired)),
            ]
            hf.send(rec("ping", PINGS))

        f.on_message(rpat("bump"), on_bump)
        f.on_message(rpat("pong", cap("k")), lambda hf, b: b["k"].n and hf.send(rec("ping", b["k"].n - 1)))

    def watcher(f):
        f.on_asserted(rpat("view", cap("n")), lambda hf, _b: None)
        f.on_message(rpat("ping", cap("k")), lambda hf, b: hf.send(rec("pong", b["k"])))

    ds.spawn(counter)
    ds.spawn(watcher)
    ds.run_until_quiescent()

    def sizes():
        return (
            len(ds.bag),
            sum(len(t) for t in ds.interests.values()),
            sum(len(s) for s in ds.visible.values()),
            live_facets(ds),
            len(cell["n"].dependents),
            len(ds.timer_registry),
        )

    at_200 = None
    for r in range(1, ROUNDS + 1):
        ds.inject_message(rec("bump"))
        ds.run_until_quiescent()
        advance_virtual_time(ds, 10)
        if r == 200:
            at_200 = sizes()
    assert len(ds.trace) >= 20_000
    assert cell["fired"] == ROUNDS // 2
    assert sizes() == at_200
