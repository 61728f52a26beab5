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
from .values import Pattern, capture_names, instantiate, lit, rec, render, rpat

log = logging.getLogger(__name__)


class UnknownLabel(KeyError):
    pass


class ArityMismatch(TypeError):
    pass


def during(f: Facet, pattern: Pattern, body: Callable):
    """Run ``body(child, bindings)`` in a child facet for as long as a
    matching assertion is present; one child per distinct matched value.
    A value holding a hole record cannot be watched for its retraction, so
    it starts no child."""

    def on_appear(hf, bindings):
        try:
            matched = instantiate(pattern, bindings)
        except ValueError as e:
            log.warning("during: no child for a match of %s: %s", render(pattern), e)
            return

        def child_body(cf):
            cf.on_retracted(matched, lambda cf2, _b: cf2.stop(cf))
            body(cf, bindings)

        hf.react(child_body)

    f.on_asserted(pattern, on_appear)


def stop_when(f: Facet, kind: str, pattern: Pattern, continuation: Optional[Callable] = None):
    """Stop the enclosing facet on the first matching event."""
    install = {"asserted": f.on_asserted, "retracted": f.on_retracted, "message": f.on_message}[kind]
    install(pattern, lambda hf, _b: hf.actor.stop_facet(f, continuation))


def _state_arity(fn) -> Optional[int]:
    params = list(inspect.signature(fn).parameters.values())
    if any(p.kind == inspect.Parameter.VAR_POSITIONAL for p in params):
        return None
    return len([p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]) - 1


def state_machine(f: Facet, name: str, states) -> Callable:
    """A group of behaviors of which exactly one is alive at a time.

    ``states`` is an ordered list of (label, fn) pairs; the first is the
    initial state. Each fn is called as ``fn(state_facet, *args)``. Returns
    ``goto(label, *args)``, which replaces the live state facet wholesale.
    """
    table = dict(states)
    if len(table) != len(states):
        raise ValueError("duplicate state label in machine %r" % name)
    arity = {label: _state_arity(fn) for label, fn in states}
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
        want = arity[label]
        if want is not None and want != len(args):
            raise ArityMismatch(
                "%s: goto %r with %d args, state takes %d" % (name, label, len(args), want)
            )
        f.actor.stop_facet(current["facet"], lambda _pf: run_state(label, args))

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
    facet starts. Relies on the timer driver's assertion protocol."""
    tid = f.unique()
    f.publish(rec("set-timer", tid, delay_ms))
    fired = [False]

    def on_expired(hf, _b):
        if not fired[0]:
            fired[0] = True
            body(hf)

    f.on_asserted(rpat("timer-expired", lit(tid)), on_expired)
