"""Derived forms over the facet primitives: during, stop_when,
state_machine, query_map, and on_timeout.

These are runtime combinators whose observable behavior matches the obvious
hand-written composition of the primitives they abbreviate.
"""

from __future__ import annotations

import inspect
import logging
from typing import Callable, Optional

from .facets import Facet, Field
from .values import Pattern, capture_names, lit, rec, render, rpat

log = logging.getLogger(__name__)


class UnknownLabel(KeyError):
    pass


class ArityMismatch(TypeError):
    pass


def during(f: Facet, pattern: Pattern, body: Callable):
    """Run ``body(child, bindings)`` in a child facet for as long as an
    assertion matching pattern with those bindings is present: one child per
    distinct bindings, stopped when the last of its matches goes."""
    children = {}  # tuple(bindings.values()) -> [child facet, matches present]

    def on_appear(hf, b):
        key = tuple(b.values())
        entry = children.get(key)
        if entry is None:
            children[key] = [hf.react(body, b), 1]
        else:
            entry[1] += 1

    def on_disappear(_hf, b):
        key = tuple(b.values())
        entry = children.get(key)
        if entry is None:  # a retraction this during never heard asserted
            return
        entry[1] -= 1
        if entry[1] == 0:
            del children[key]
            if entry[0].alive:  # unless the child already stopped itself
                entry[0].stop()

    f.on_asserted(pattern, on_appear)
    f.on_retracted(pattern, on_disappear)


def stop_when(f: Facet, kind: str, pattern: Pattern, continuation: Optional[Callable] = None):
    """Stop the enclosing facet on the first matching event of kind
    'asserted', 'retracted' or 'message'; any other kind raises ValueError."""
    installs = {"asserted": f.on_asserted, "retracted": f.on_retracted, "message": f.on_message}
    if kind not in installs:
        raise ValueError("stop_when: kind %r is not one of %s" % (kind, ", ".join(map(repr, installs))))
    installs[kind](pattern, lambda _hf, _b: f.stop(continuation))


def state_machine(f: Facet, name: str, states) -> Callable:
    """A group of behaviors of which exactly one is alive at a time.

    ``states`` is an ordered list of (label, fn) pairs; the first is the
    initial state. Each fn is called as ``fn(state_facet, *args)``. Returns
    ``goto(label, *args)``, which replaces the live state facet wholesale.
    No states, or two with one label, raise ValueError.
    """
    if not states:
        raise ValueError("state machine %r has no states: its first is its initial state" % name)
    table = dict(states)
    if len(table) != len(states):
        raise ValueError("duplicate state label in machine %r" % name)
    signatures = {label: inspect.signature(fn) for label, fn in states}
    current = {}

    def run_state(label, args):
        fn = table[label]

        def body(sf):
            current["facet"] = sf
            fn(sf, *args)

        f.react(body)

    def goto(label, *args):
        if label not in table:
            raise UnknownLabel("%s has no state %r" % (name, label))
        try:
            signatures[label].bind(None, *args)  # None stands for the state facet
        except TypeError as e:
            raise ArityMismatch("%s: goto %r with %d args: %s" % (name, label, len(args), e)) from None
        current["facet"].stop(lambda _pf: run_state(label, args))

    run_state(states[0][0], ())
    return goto


def query_map(f: Facet, pattern: Pattern, key_name: str, val_name: str) -> Field:
    """A field holding a dict maintained from matching assertions.

    Entries appear and disappear with the assertions they are drawn from.
    Duplicate keys keep the latest value (with a warning); on retraction the
    surviving entry is restored.
    """
    names = capture_names(pattern)
    if key_name not in names or val_name not in names:
        raise ValueError("key/value names must be captures of the pattern")
    fld = f.field({})
    entries: dict = {}  # key -> values in arrival order

    def on_add(hf, b):
        k, v = b[key_name], b[val_name]
        seen = entries.setdefault(k, [])
        if seen:
            log.warning("query_map: duplicate key %s; keeping latest", render(k))
        seen.append(v)
        fld({k: vs[-1] for k, vs in entries.items()})

    def on_remove(hf, b):
        k, v = b[key_name], b[val_name]
        seen = entries.get(k, [])
        if v in seen:  # a removal this endpoint never heard added changes nothing
            seen.remove(v)
        if not seen:
            entries.pop(k, None)
        fld({k: vs[-1] for k, vs in entries.items()})

    f.on_asserted(pattern, on_add)
    f.on_retracted(pattern, on_remove)
    return fld


def on_timeout(f: Facet, delay_ms: int, body: Callable):
    """Run body(f) once, ``delay_ms`` of (virtual or wall) time after this
    facet starts. Relies on the timer driver's assertion protocol. Raises
    TypeError for a delay_ms that is not an int (a bool included), and
    ValueError for one that is not positive: the driver would ignore it."""
    if isinstance(delay_ms, bool) or not isinstance(delay_ms, int):
        raise TypeError("delay_ms must be an int, got %r" % (delay_ms,))
    if delay_ms <= 0:
        raise ValueError("delay_ms must be positive, got %d" % delay_ms)
    tid = f.unique()
    f.publish(rec("set-timer", tid, delay_ms))
    fired = [False]

    def on_expired(hf, _b):
        if not fired[0]:
            fired[0] = True
            body(hf)

    f.on_asserted(rpat("timer-expired", lit(tid)), on_expired)
