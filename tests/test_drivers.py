import pytest

from conftest import drive_cmd, named_puppet_boot, spawn_recorder
from facetspace import Dataspace, cap, lit, rec, rpat
from facetspace.drivers import (
    Clock,
    NotQuiescent,
    WallClockMode,
    advance_virtual_time,
    fire_due_wall_timers,
    spawn_timer_driver,
    timer_driver_boot,
)
from facetspace.forms import on_timeout


def setup_ds():
    ds = Dataspace()
    spawn_timer_driver(ds, Clock("virtual"))
    ds.spawn(named_puppet_boot("a"))
    ds.run_until_quiescent()
    return ds


def set_timer(ds, serial, delay):
    from facetspace.values import Unique

    tid = Unique(1000 + serial)
    ds.inject_message(drive_cmd("a", "do-assert", rec("set-timer", tid, delay)))
    ds.run_until_quiescent()
    return tid


def test_timer_fires_at_deadline():
    ds = setup_ds()
    r = spawn_recorder(ds, rpat("timer-expired", cap("id")))
    ds.run_until_quiescent()
    tid = set_timer(ds, 0, 50)
    advance_virtual_time(ds, 49)
    assert r.events == []
    advance_virtual_time(ds, 1)
    assert r.events == [("+", rec("timer-expired", tid))]
    assert ds.clock.now == 50


def test_timers_fire_in_deadline_order():
    ds = setup_ds()
    fired = []

    def watcher(f):
        f.on_asserted(rpat("timer-expired", cap("id")), lambda hf, b: fired.append(b["id"]))

    ds.spawn(watcher)
    ds.run_until_quiescent()
    t_late = set_timer(ds, 1, 300)
    t_early = set_timer(ds, 2, 100)
    advance_virtual_time(ds, 400)
    assert fired == [t_early, t_late]


def test_timers_due_together_fire_in_the_order_they_were_set():
    # set at different times for one deadline, after an earlier timer for
    # that deadline was set and cancelled; ids run against the set order
    ds = setup_ds()
    fired = []

    def watcher(f):
        f.on_asserted(rpat("timer-expired", cap("id")), lambda hf, b: fired.append(b["id"]))

    ds.spawn(watcher)
    ds.run_until_quiescent()
    t_cancelled = set_timer(ds, 9, 300)
    t_first = set_timer(ds, 8, 300)
    advance_virtual_time(ds, 100)
    t_second = set_timer(ds, 7, 200)
    ds.inject_message(drive_cmd("a", "do-retract", rec("set-timer", t_cancelled, 300)))
    ds.run_until_quiescent()
    advance_virtual_time(ds, 50)
    t_third = set_timer(ds, 6, 150)
    advance_virtual_time(ds, 149)
    assert fired == []
    advance_virtual_time(ds, 1)
    assert fired == [t_first, t_second, t_third]


def test_retracting_request_cancels_timer():
    ds = setup_ds()
    r = spawn_recorder(ds, rpat("timer-expired", cap("id")))
    ds.run_until_quiescent()
    tid = set_timer(ds, 3, 100)
    ds.inject_message(drive_cmd("a", "do-retract", rec("set-timer", tid, 100)))
    ds.run_until_quiescent()
    advance_virtual_time(ds, 200)
    assert r.events == []
    assert ds.timer_registry == []


def test_fired_timer_leaves_the_registry():
    ds = setup_ds()
    fired = set_timer(ds, 10, 50)
    set_timer(ds, 11, 100)
    advance_virtual_time(ds, 60)
    # the request for the fired timer is still asserted
    assert ds.query(rpat("set-timer", lit(fired), cap("delay"))) == [rec("set-timer", fired, 50)]
    assert len(ds.timer_registry) == 1
    advance_virtual_time(ds, 40)
    assert ds.timer_registry == []
    assert len(ds.query(rpat("timer-expired", cap("id")))) == 2


def test_expiry_retracted_with_request():
    ds = setup_ds()
    r = spawn_recorder(ds, rpat("timer-expired", cap("id")))
    ds.run_until_quiescent()
    tid = set_timer(ds, 4, 10)
    advance_virtual_time(ds, 20)
    assert r.events == [("+", rec("timer-expired", tid))]
    ds.inject_message(drive_cmd("a", "do-retract", rec("set-timer", tid, 10)))
    ds.run_until_quiescent()
    assert r.events[-1] == ("-", rec("timer-expired", tid))


def test_bad_delay_ignored(caplog):
    ds = setup_ds()
    set_timer(ds, 5, 0)
    set_timer(ds, 6, -5)
    assert ds.timer_registry == []
    assert "bad delay" in caplog.text


def test_advance_requires_quiescence_and_virtual_mode():
    ds = setup_ds()
    ds.inject_message(rec("noise"))  # nobody listens: stays pending? it is dropped
    # inject to an actual listener to leave the queue non-empty
    ds.queue.append((1, __import__("facetspace.dataspace", fromlist=["x"]).MessageEvent(rec("x"))))
    with pytest.raises(NotQuiescent):
        advance_virtual_time(ds, 10)
    ds.run_until_quiescent()

    ds2 = Dataspace()
    spawn_timer_driver(ds2, Clock("wall"))
    ds2.run_until_quiescent()
    with pytest.raises(WallClockMode):
        advance_virtual_time(ds2, 10)
    with pytest.raises(WallClockMode):
        fire_due_wall_timers(ds)  # ds is virtual


def test_advance_refuses_to_move_time_backwards():
    ds = setup_ds()
    advance_virtual_time(ds, 100)
    with pytest.raises(ValueError, match="backwards"):
        advance_virtual_time(ds, -50)
    assert ds.clock.now == 100


class TickLoop(Exception):
    """Raised by `limit_ticks`: advance_virtual_time kept injecting ticks."""


def limit_ticks(monkeypatch, limit=10):
    """Make the message injected after `limit` of them raise TickLoop, so a
    tick loop that never ends fails its test instead of hanging it."""
    inject = Dataspace.inject_message
    count = [0]

    def limited(ds, v):
        count[0] += 1
        if count[0] > limit:
            raise TickLoop("more than %d messages injected" % limit)
        return inject(ds, v)

    monkeypatch.setattr(Dataspace, "inject_message", limited)


def test_advance_raises_when_a_due_timer_outlives_its_tick(monkeypatch):
    # a driver whose first tick handler raises crashes at the tick: its stop
    # handlers never run, and the timer it had registered stays in the
    # registry with nobody to fire it
    ds = Dataspace()
    ds.clock, ds.timer_registry = Clock("virtual"), []
    driver = timer_driver_boot(ds.clock, ds.timer_registry)

    def failing_driver(f):
        f.on_message(rpat("clock-tick", cap("now")), lambda hf, b: 1 / 0)
        driver(f)

    ds.spawn(failing_driver)
    fired = []
    ds.spawn(lambda f: on_timeout(f, 100, lambda hf: fired.append(1)))
    ds.run_until_quiescent()
    assert len(ds.timer_registry) == 1
    limit_ticks(monkeypatch)
    with pytest.raises(RuntimeError, match="timers due at 100 ms outlived their tick"):
        advance_virtual_time(ds, 200)
    assert not ds.is_alive(0) and ds.trace[-1].crashed and fired == []


@pytest.mark.parametrize(
    "hostile, warning",
    [
        (drive_cmd("a", "do-assert", rec("set-timer", cap("x"), 5)), "during: no child for a match"),
        (rec("clock-tick", "x"), "clock tick ignored: bad time"),
    ],
    ids=["hole-in-timer-id", "tick-time-not-an-integer"],
)
def test_the_timer_driver_survives_hostile_input_and_still_fires(monkeypatch, caplog, hostile, warning):
    ds = setup_ds()
    fired = []
    ds.spawn(lambda f: on_timeout(f, 100, lambda hf: fired.append(1)))
    ds.run_until_quiescent()
    ds.inject_message(hostile)
    ds.run_until_quiescent()
    assert ds.is_alive(0) and not any(t.crashed for t in ds.trace)
    assert warning in caplog.text
    limit_ticks(monkeypatch)
    advance_virtual_time(ds, 200)
    assert fired == [1] and ds.timer_registry == []


@pytest.mark.parametrize("delta", [0.5, True])
def test_advance_refuses_a_delta_that_is_not_an_int(monkeypatch, delta):
    # 0.5 would put float deadlines in the registry, and the tick's Decimal
    # would crash the driver; a bool is an int only to isinstance
    ds = setup_ds()
    fired = []
    ds.spawn(lambda f: on_timeout(f, 100, lambda hf: fired.append(1)))
    ds.run_until_quiescent()
    limit_ticks(monkeypatch)
    with pytest.raises(TypeError, match="delta_ms must be an int"):
        advance_virtual_time(ds, delta)
    assert ds.clock.now == 0
    advance_virtual_time(ds, 200)
    assert fired == [1]


def test_single_driver_per_dataspace():
    ds = setup_ds()
    with pytest.raises(RuntimeError):
        spawn_timer_driver(ds, Clock("virtual"))


def test_clock_modes():
    with pytest.raises(ValueError):
        Clock("sidereal")
    wall = Clock("wall")
    assert wall.now >= 0
    virt = Clock("virtual")
    assert virt.now == 0


def test_wall_mode_pump():
    ds = Dataspace()
    spawn_timer_driver(ds, Clock("wall"))
    ds.spawn(named_puppet_boot("a"))
    fired = []
    ds.spawn(lambda f: f.on_asserted(rpat("timer-expired", cap("id")), lambda hf, b: fired.append(1)))
    ds.run_until_quiescent()
    from facetspace.values import Unique

    ds.inject_message(drive_cmd("a", "do-assert", rec("set-timer", Unique(0), 1)))
    ds.run_until_quiescent()
    import time

    time.sleep(0.01)
    fire_due_wall_timers(ds)
    assert fired == [1]
