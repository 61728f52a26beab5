import pytest

from conftest import drive_cmd, named_puppet_boot, spawn_recorder
from facetspace import Dataspace, cap, expansions, forms, lit, rec, rpat, sym
from facetspace.drivers import Clock, advance_virtual_time, spawn_timer_driver
from facetspace.forms import (
    ArityMismatch,
    UnknownLabel,
    during,
    on_timeout,
    query_map,
    state_machine,
    stop_when,
)

ITEM = rpat("item", cap("x"))


def quiesce(ds):
    ds.run_until_quiescent()


def drive(cmd, *fields):
    return drive_cmd("a", cmd, *fields)


def setup_ds():
    ds = Dataspace()
    ds.spawn(named_puppet_boot("a"))
    return ds


def test_during_child_per_matching_value():
    ds = setup_ds()
    r = spawn_recorder(ds, rpat("seen", cap("x")))
    ds.spawn(lambda f: during(f, ITEM, lambda cf, b: cf.publish(rec("seen", b["x"]))))
    quiesce(ds)
    ds.inject_message(drive("do-assert", rec("item", 1)))
    ds.inject_message(drive("do-assert", rec("item", 2)))
    quiesce(ds)
    assert {v for op, v in r.events if op == "+"} == {rec("seen", 1), rec("seen", 2)}
    ds.inject_message(drive("do-retract", rec("item", 1)))
    quiesce(ds)
    assert ("-", rec("seen", 1)) in r.events
    assert ("-", rec("seen", 2)) not in r.events


def test_during_reappearing_value_restarts_body():
    ds = setup_ds()
    runs = []
    ds.spawn(lambda f: during(f, ITEM, lambda cf, b: runs.append(b["x"].n)))
    quiesce(ds)
    for cmd in ["do-assert", "do-retract", "do-assert"]:
        ds.inject_message(drive(cmd, rec("item", 7)))
        quiesce(ds)
    assert runs == [7, 7]


def test_during_and_its_expansion_agree_on_a_value_holding_a_hole():
    # neither starts a child for (item (capture "y")), and both go on to
    # start one for (item 1); the expand-check schedules hold no such value
    schedule = [expansions.drive("do-assert", rec("item", rec("capture", "y"))),
                expansions.drive("do-assert", rec("item", 1))]
    form = expansions.run_schedule(expansions.during_form_boot, schedule, True)
    assert form == expansions.run_schedule(expansions.during_expanded_boot, schedule, True)
    assert '"(assert (seen 1))"' in form and '"crashed":true' not in form


def test_stop_when_kinds():
    ds = setup_ds()
    r = spawn_recorder(ds, rpat("alive", cap("n")))

    def boot(f):
        def watcher(n, kind, pattern):
            def body(cf):
                cf.publish(rec("alive", n))
                stop_when(cf, kind, pattern)

            f.react(body)

        watcher(1, "asserted", rpat("go", lit(1)))
        watcher(2, "retracted", rpat("go", lit(1)))
        watcher(3, "message", rpat("ping"))

    ds.spawn(boot)
    quiesce(ds)
    ds.inject_message(drive("do-assert", rec("go", 1)))
    quiesce(ds)
    assert ("-", rec("alive", 1)) in r.events
    ds.inject_message(drive("do-retract", rec("go", 1)))
    quiesce(ds)
    assert ("-", rec("alive", 2)) in r.events
    ds.inject_message(rec("ping"))
    quiesce(ds)
    assert ("-", rec("alive", 3)) in r.events


def test_stop_when_continuation_runs_in_parent():
    ds = setup_ds()
    r = spawn_recorder(ds, rpat("done", cap("n")))

    def boot(f):
        def body(cf):
            stop_when(cf, "message", rpat("fin"), lambda pf: pf.publish(rec("done", 1)))

        f.react(body)

    ds.spawn(boot)
    quiesce(ds)
    ds.inject_message(rec("fin"))
    quiesce(ds)
    assert r.events == [("+", rec("done", 1))]


# ---------------------------------------------------------------------------
# state machines

def test_state_machine_transitions_with_args():
    ds = setup_ds()
    r = spawn_recorder(ds, rpat("state", cap("l"), cap("n")))

    def boot(f):
        def one(sf):
            sf.publish(rec("state", sym("one"), 0))
            sf.on_message(rpat("next", cap("n")), lambda hf, b: goto("two", b["n"]))

        def two(sf, n):
            sf.publish(rec("state", sym("two"), n))
            sf.on_message(rpat("back"), lambda hf, _b: goto("one"))

        goto = state_machine(f, "m", [("one", one), ("two", two)])

    ds.spawn(boot)
    quiesce(ds)
    assert r.events == [("+", rec("state", sym("one"), 0))]
    ds.inject_message(rec("next", 5))
    quiesce(ds)
    assert ("+", rec("state", sym("two"), 5)) in r.events
    assert ("-", rec("state", sym("one"), 0)) in r.events
    ds.inject_message(rec("back"))
    quiesce(ds)
    last = r.patches[-1]
    assert last.added == (rec("state", sym("one"), 0),)
    assert last.removed == (rec("state", sym("two"), 5),)


def test_state_machine_bad_goto():
    ds = Dataspace()
    errors = {}

    def boot(f):
        def one(sf):
            pass

        def two(sf, n):
            pass

        goto = state_machine(f, "m", [("one", one), ("two", two)])
        try:
            goto("three")
        except UnknownLabel as e:
            errors["label"] = e
        try:
            goto("two", 1, 2)
        except ArityMismatch as e:
            errors["arity"] = e

    ds.spawn(boot)
    quiesce(ds)
    assert "label" in errors and "arity" in errors


def test_state_machine_reads_state_arities_when_built(monkeypatch):
    ds = Dataspace()
    errors = []

    def boot(f):
        def one(sf):
            sf.on_message(rpat("go", cap("n")), lambda hf, b: go(b["n"].n))

        def two(sf, n):
            sf.publish(rec("state", sym("two"), n))

        goto = state_machine(f, "m", [("one", one), ("two", two)])

        def go(n):
            try:
                goto("two", *[0] * n)
            except ArityMismatch as e:
                errors.append(e)

    ds.spawn(boot)
    quiesce(ds)

    def no_signature(fn):
        raise AssertionError("goto inspected %r" % fn)

    monkeypatch.setattr(forms.inspect, "signature", no_signature)
    ds.inject_message(rec("go", 2))
    quiesce(ds)
    assert len(errors) == 1
    ds.inject_message(rec("go", 1))
    quiesce(ds)
    assert ds.query(rpat("state", cap("l"), cap("n"))) == [rec("state", sym("two"), 0)]


def test_state_machine_duplicate_labels_rejected():
    ds = Dataspace()
    caught = {}

    def boot(f):
        try:
            state_machine(f, "m", [("a", lambda sf: None), ("a", lambda sf: None)])
        except ValueError as e:
            caught["e"] = e

    ds.spawn(boot)
    quiesce(ds)
    assert "duplicate" in str(caught["e"])


def test_state_machine_var_positional_state_skips_arity_check():
    ds = Dataspace()
    got = []

    def boot(f):
        def one(sf):
            sf.on_message(rpat("go"), lambda hf, _b: goto("many", 1, 2, 3))

        def many(sf, *args):
            got.extend(args)

        goto = state_machine(f, "m", [("one", one), ("many", many)])

    ds.spawn(boot)
    quiesce(ds)
    ds.inject_message(rec("go"))
    quiesce(ds)
    assert got == [1, 2, 3]


# ---------------------------------------------------------------------------
# query_map

def test_query_map_tracks_assertions():
    ds = setup_ds()
    cell = {}

    def boot(f):
        cell["m"] = query_map(f, rpat("price", cap("s"), cap("p")), "s", "p")

    ds.spawn(boot)
    quiesce(ds)
    assert cell["m"]() == {}
    ds.inject_message(drive("do-assert", rec("price", sym("s1"), 40)))
    ds.inject_message(drive("do-assert", rec("price", sym("s2"), 55)))
    quiesce(ds)
    from facetspace.values import Integer

    assert cell["m"]() == {sym("s1"): Integer(40), sym("s2"): Integer(55)}
    ds.inject_message(drive("do-retract", rec("price", sym("s1"), 40)))
    quiesce(ds)
    assert list(cell["m"]()) == [sym("s2")]


def test_query_map_duplicate_key_last_writer_wins(caplog):
    ds = setup_ds()
    cell = {}
    ds.spawn(lambda f: cell.update(m=query_map(f, rpat("price", cap("s"), cap("p")), "s", "p")))
    quiesce(ds)
    ds.inject_message(drive("do-assert", rec("price", sym("s1"), 40)))
    quiesce(ds)
    ds.inject_message(drive("do-assert", rec("price", sym("s1"), 45)))
    quiesce(ds)
    assert cell["m"]()[sym("s1")].n == 45
    assert "duplicate key" in caplog.text
    ds.inject_message(drive("do-retract", rec("price", sym("s1"), 45)))
    quiesce(ds)
    assert cell["m"]()[sym("s1")].n == 40  # survivor restored
    ds.inject_message(drive("do-retract", rec("price", sym("s1"), 40)))
    quiesce(ds)
    assert cell["m"]() == {}


def test_query_map_requires_capture_names():
    ds = Dataspace()
    caught = {}

    def boot(f):
        try:
            query_map(f, rpat("price", cap("s"), cap("p")), "s", "nope")
        except ValueError as e:
            caught["e"] = e

    ds.spawn(boot)
    quiesce(ds)
    assert "captures" in str(caught["e"])


# ---------------------------------------------------------------------------
# timeouts

def test_on_timeout_fires_once_after_delay():
    ds = Dataspace()
    spawn_timer_driver(ds, Clock("virtual"))
    fired = []
    ds.spawn(lambda f: on_timeout(f, 100, lambda hf: fired.append(ds.clock.now)))
    quiesce(ds)
    advance_virtual_time(ds, 99)
    assert fired == []
    advance_virtual_time(ds, 1)
    assert fired == [100]
    advance_virtual_time(ds, 500)
    assert fired == [100]


def test_on_timeout_canceled_by_facet_stop():
    ds = Dataspace()
    spawn_timer_driver(ds, Clock("virtual"))
    fired = []

    def boot(f):
        waiting = f.react(lambda cf: on_timeout(cf, 100, lambda hf: fired.append(1)))
        f.on_message(rpat("abort"), lambda hf, b: hf.stop(waiting))

    ds.spawn(boot)
    quiesce(ds)
    ds.inject_message(rec("abort"))
    quiesce(ds)
    advance_virtual_time(ds, 200)
    assert fired == []
