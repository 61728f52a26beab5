"""The timer driver and its clock.

The driver is an ordinary actor: clients assert ``(set-timer id delay)``,
the driver asserts ``(timer-expired id)`` once the deadline passes, and the
expiry is withdrawn automatically when the request disappears. In virtual
mode, time only moves via :func:`advance_virtual_time`, which makes timer
behavior fully deterministic.
"""

from __future__ import annotations

import logging
import time

from .forms import during
from .values import Integer, cap, rec, rpat

log = logging.getLogger(__name__)


class NotQuiescent(RuntimeError):
    pass


class WallClockMode(RuntimeError):
    pass


class Clock:
    def __init__(self, mode: str = "virtual"):
        if mode not in ("virtual", "wall"):
            raise ValueError(mode)
        self.mode = mode
        self._now = 0
        self._wall_base = time.monotonic()

    @property
    def now(self) -> int:
        if self.mode == "wall":
            return int((time.monotonic() - self._wall_base) * 1000)
        return self._now


_TICK = rpat("clock-tick", cap("now"))
_REQUEST = rpat("set-timer", cap("id"), cap("delay"))


def timer_driver_boot(clock: Clock, registry: list):
    """Boot body for the timer driver; uses only the public facet API.
    ``registry`` holds pending timers as (deadline, id, request facet) in the
    order they were set; one leaves when it fires or when its request goes."""

    def boot(f):
        def request_body(cf, b):
            delay = b["delay"]
            if not isinstance(delay, Integer) or delay.n <= 0:
                log.warning("timer request ignored: bad delay %r", delay)
                return
            entry = (clock.now + delay.n, b["id"], cf)
            registry.append(entry)

            def cancel(_f):
                if entry in registry:
                    registry.remove(entry)

            cf.on_stop(cancel)

        during(f, _REQUEST, request_body)

        def on_tick(hf, b):
            now = b["now"].n
            # the registry is in the order timers were set, and sorted() is stable
            due = sorted((e for e in registry if e[0] <= now), key=lambda e: e[0])
            registry[:] = [e for e in registry if e[0] > now]
            for _deadline, tid, facet in due:
                facet.react(lambda cf, tid=tid: cf.publish(rec("timer-expired", tid)))

        f.on_message(_TICK, on_tick)

    return boot


def spawn_timer_driver(ds, clock: Clock = None) -> int:
    if ds.timer_registry is not None:
        raise RuntimeError("dataspace already has a timer driver")
    clock = clock if clock is not None else Clock()
    registry: list = []
    ds.clock = clock
    ds.timer_registry = registry
    return ds.spawn(timer_driver_boot(clock, registry))


def advance_virtual_time(ds, delta_ms: int, max_turns: int = 100000):
    """Advance virtual time, firing due timers as ordinary turns in deadline
    order; returns once quiescent at the new time. Raises TypeError for a
    delta_ms that is not an int, and RuntimeError if a timer is still
    registered after the tick that was due to fire it (the driver is gone)."""
    clock = ds.clock
    if clock is None or clock.mode != "virtual":
        raise WallClockMode("virtual-time advancement needs a virtual clock")
    if isinstance(delta_ms, bool) or not isinstance(delta_ms, int):
        raise TypeError("delta_ms must be an int, got %r" % (delta_ms,))
    if delta_ms < 0:
        raise ValueError("virtual time cannot move backwards (delta %d ms)" % delta_ms)
    if ds.pending():
        raise NotQuiescent("dataspace has undelivered events")
    target = clock._now + delta_ms
    while True:
        due = [deadline for deadline, _tid, _facet in ds.timer_registry if deadline <= target]
        if not due:
            break
        clock._now = max(clock._now, min(due))
        ds.inject_message(rec("clock-tick", clock._now))
        ds.run_until_quiescent(max_turns)
        if any(deadline <= clock._now for deadline, _tid, _facet in ds.timer_registry):
            raise RuntimeError("timers due at %d ms outlived their tick: no timer driver" % clock._now)
    clock._now = target


def fire_due_wall_timers(ds, max_turns: int = 100000):
    """Wall-mode pump: fire timers due at the current wall time."""
    if ds.clock is None or ds.clock.mode != "wall":
        raise WallClockMode("not in wall mode")
    ds.inject_message(rec("clock-tick", ds.clock.now))
    ds.run_until_quiescent(max_turns)
