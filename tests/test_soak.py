"""Soak: a long run over a fixed working set keeps the runtime's tables at a
fixed size, and scenarios run one after another leave no memory behind. The
trace grows by design and is not measured here."""

import gc
import tracemalloc

from facetspace import Dataspace, cap, parse_all, rec, rpat
from facetspace.drivers import Clock, advance_virtual_time, spawn_timer_driver
from facetspace.forms import on_timeout
from facetspace.market import default_config, parse_script, run_scenario

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
                k.stop()
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


def test_scenarios_run_in_turn_leave_no_memory_behind():
    # each run varies only its prices, so it builds order records and
    # patterns no other run builds: a module-level cache keyed by them (of
    # compiled patterns, say) grows with every run, where a cache of the few
    # names the runs share does not
    def run(i):
        config = default_config(
            "extended",
            accounts={"a1": 1000, "a2": 1000},
            buyers=[("b1", "a1"), ("b2", "a2")],
            sellers={"s1": 40 + i, "s2": 55 + i},
        )
        script = parse_script(parse_all(
            "(place b1 o1 5 %d)(place b2 o2 3 %d)(advance 150)(cancel b2 o2)(advance 600)(expect-quiescent)"
            % (60 + i, 70 + i)
        ))
        r = run_scenario(config, script)
        assert r.order_outcomes == {"o1": "fulfilled", "o2": "canceled"}
        assert r.final_balances == {"a1": 1000 - 5 * (40 + i), "a2": 1000}

    for i in range(1, 6):  # fill the caches every run shares
        run(i)
    gc.collect()
    # tracemalloc sees only what is allocated once it starts: what it still
    # holds after run 20 is what runs 6 to 20 left behind
    tracemalloc.start()
    try:
        for i in range(6, 21):
            run(i)
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert left <= 4096, "%d bytes left behind by 15 runs" % left
