"""Per-actor behavior: the facet tree, endpoints, field dataflow, and
deterministic handler dispatch.

A facet owns fields, published assertions, and event handlers. Facets form a
tree that grows via ``react`` and shrinks via ``stop``. Assertions computed
from fields are withdrawn and re-deposited automatically when those fields
change. Boot bodies, handler bodies, and continuations all receive the
relevant :class:`Facet` as their first argument.
"""

from __future__ import annotations

import logging
from operator import itemgetter
from typing import Callable, Optional

from .dataspace import (
    Assert,
    BootEvent,
    Message,
    MessageEvent,
    PatchEvent,
    Quit,
    Retract,
    Spawn,
)
from .values import (
    Pattern,
    PatternIndex,
    check_linear,
    match,
    message_interest,
    observe,
    render,
    to_value,
)

log = logging.getLogger(__name__)


class DeadFieldAccess(RuntimeError):
    pass


class Field:
    """A mutable cell owned by one facet. Call with no arguments to read,
    with one argument to write. Reads inside an assertion computation
    register a dataflow dependency."""

    __slots__ = ("owner", "_value", "dependents")

    def __init__(self, owner, initial):
        self.owner = owner
        self._value = initial
        self.dependents = {}  # AssertEndpoints in first-read order, never in address order

    def __call__(self, *args):
        if not self.owner.alive:
            raise DeadFieldAccess("field of dead facet %r" % (self.owner.id,))
        if not args:
            ep = self.owner.actor._evaluating
            if ep is not None:
                ep.read_fields.add(self)
                self.dependents[ep] = True
            return self._value
        (new,) = args
        self._value = new
        self.owner.actor._dirty.update(self.dependents)


class AssertEndpoint:
    __slots__ = ("facet", "compute", "current", "read_fields", "recompute_count")
    kind = None  # handles no event

    def __init__(self, facet, compute):
        self.facet = facet
        self.compute = compute  # zero-arg callable; publish wraps a constant in one
        self.current = None
        self.read_fields = set()
        self.recompute_count = 0

    def drop_reads(self):
        """Leave the dependents of every field the last evaluation read."""
        for f in self.read_fields:
            f.dependents.pop(self, None)
        self.read_fields = set()

    def evaluate(self):
        actor = self.facet.actor
        self.drop_reads()
        prev = actor._evaluating
        actor._evaluating = self
        try:
            value = to_value(self.compute())
        finally:
            actor._evaluating = prev
        self.recompute_count += 1
        return value


class HandlerEndpoint:
    __slots__ = ("facet", "kind", "pattern", "fn", "current", "order")

    def __init__(self, facet, kind, pattern, fn):
        self.facet = facet
        self.kind = kind  # 'asserted' | 'retracted' | 'message'
        self.pattern = pattern
        self.fn = fn
        self.current = message_interest(pattern) if kind == "message" else observe(pattern)
        # where a walk of the facet tree in pre-order, then through each
        # facet's endpoints, meets it: endpoints are only ever appended
        self.order = (facet.id, len(facet.endpoints))


class Facet:
    """One node of an actor's behavior tree; also the context object handed
    to bodies and handlers."""

    def __init__(self, actor, fid, parent):
        self.actor = actor
        self.id = fid  # tuple of child indices from the root
        self.parent = parent
        self.children = []
        self.endpoints = []
        self.start_handlers = []  # None once the facet has started
        self.stop_handlers = []
        self.alive = True
        self._next_child = 0

    # -- endpoint installation ----------------------------------------------

    def _require_alive(self):
        if not self.alive:
            raise RuntimeError("endpoint added to dead facet %r" % (self.id,))

    def field(self, initial) -> Field:
        self._require_alive()
        return Field(self, initial)

    def publish(self, spec) -> AssertEndpoint:
        """Add an assertion endpoint. A callable spec participates in
        field dataflow; anything else is a constant."""
        self._require_alive()
        ep = AssertEndpoint(self, spec if callable(spec) else lambda: spec)
        ep.current = ep.evaluate()
        self.endpoints.append(ep)
        self.actor.actions.append(Assert(ep.current))
        return ep

    def _handler(self, kind, pattern, fn):
        self._require_alive()
        check_linear(pattern)
        ep = HandlerEndpoint(self, kind, pattern, fn)
        self.endpoints.append(ep)
        self.actor.handlers.add(ep, pattern)
        self.actor.actions.append(Assert(ep.current))
        return ep

    def on_asserted(self, pattern: Pattern, fn: Callable):
        return self._handler("asserted", pattern, fn)

    def on_retracted(self, pattern: Pattern, fn: Callable):
        return self._handler("retracted", pattern, fn)

    def on_message(self, pattern: Pattern, fn: Callable):
        return self._handler("message", pattern, fn)

    def on_start(self, fn: Callable):
        self._require_alive()
        if self.start_handlers is None:
            self.actor._run_body(self, fn)
        else:
            self.start_handlers.append(fn)

    def on_stop(self, fn: Callable):
        self._require_alive()
        self.stop_handlers.append(fn)

    # -- structure and actions ----------------------------------------------

    def react(self, body: Callable, *args) -> "Facet":
        self._require_alive()
        child = Facet(self.actor, self.id + (self._next_child,), self)
        self._next_child += 1
        self.children.append(child)
        self.actor._install(child, body, args)
        return child

    def stop(self, facet: Optional["Facet"] = None, continuation: Optional[Callable] = None):
        self.actor.stop_facet(facet if facet is not None else self, continuation)

    def send(self, v):
        self.actor.actions.append(Message(to_value(v)))

    def spawn(self, boot: Callable):
        self.actor.actions.append(Spawn(boot))

    def unique(self):
        return self.actor.ds.fresh_unique()


class Actor:
    """Facet runtime for one actor; plugs into the dataspace scheduler."""

    def __init__(self, ds, aid, boot):
        self.ds = ds
        self.aid = aid
        self.boot = boot
        self.root = None
        self.actions = []
        self._evaluating = None
        self._dirty = {}  # ordered set of AssertEndpoints
        self.handlers = PatternIndex()  # every live HandlerEndpoint, filed under its pattern

    # -- scheduler interface ------------------------------------------------

    def handle_event(self, event):
        self.actions = []
        if isinstance(event, BootEvent):
            self._start_root(self.boot)
        elif isinstance(event, (PatchEvent, MessageEvent)):
            self._dispatch(event)
        else:
            raise TypeError("unknown event: %r" % (event,))
        return self.actions

    # -- install / dispatch / teardown --------------------------------------

    def _start_root(self, body):
        """Run body in a fresh root facet, at boot or as a root's
        continuation. The actor lives on in it only if it is left holding
        an endpoint or a child; otherwise the root stops and the actor quits."""
        root = self.root = Facet(self, (), None)
        self._install(root, body, ())
        if root.alive and not (root.endpoints or root.children):
            self.stop_facet(root)

    def _run_body(self, facet, body, args=()):
        body(facet, *args)
        self._refresh()

    def _install(self, facet, body, args):
        self._run_body(facet, body, args)
        handlers, facet.start_handlers = facet.start_handlers, None
        for h in handlers:
            if not facet.alive:
                break
            self._run_body(facet, h)

    def _dispatch(self, event):
        """Run the handler of each live endpoint whose pattern matches a
        value of the event that its kind reads, in the order of a walk of
        the facet tree: facet pre-order, then endpoint order, then value
        order. Only the index's candidates of that kind are matched."""
        if isinstance(event, PatchEvent):
            sides = (("asserted", event.added), ("retracted", event.removed))
        else:
            sides = (("message", (event.v,)),)
        invocations = []
        if self.handlers:
            for kind, vs in sides:
                for j, v in enumerate(vs):
                    for ep, p in self.handlers.candidates(v):
                        if ep.kind == kind:
                            b = match(p, v)
                            if b is not None:
                                invocations.append((ep.order, j, ep, b))
        invocations.sort(key=itemgetter(0, 1))
        for _order, _j, ep, bindings in invocations:
            if not ep.facet.alive:
                continue
            self._run_body(ep.facet, ep.fn, (bindings,))

    def _refresh(self):
        """Recompute dirty assertions; emit retract/assert pairs on change."""
        while self._dirty:
            ep = next(iter(self._dirty))
            del self._dirty[ep]
            # marked dirty earlier in a turn in which its facet then stopped
            if not ep.facet.alive:
                continue
            new = ep.evaluate()
            if new != ep.current:
                self.actions.extend((Retract(ep.current), Assert(new)))
                ep.current = new

    def stop_facet(self, facet: Facet, continuation: Optional[Callable] = None):
        if not facet.alive:
            log.warning("actor %d: stop of dead facet %r is a no-op", self.aid, facet.id)
            return
        parent = facet.parent

        def run_stop_handlers(f):
            for c in list(f.children):
                run_stop_handlers(c)
            for h in f.stop_handlers:
                self._run_body(f, h)

        def teardown(f):
            for c in f.children:
                teardown(c)
            f.alive = False
            for ep in f.endpoints:
                if ep.kind is None:
                    ep.drop_reads()
                else:
                    self.handlers.remove(ep, ep.pattern)
                self.actions.append(Retract(ep.current))
            f.children = []
            f.endpoints = []

        run_stop_handlers(facet)
        teardown(facet)
        if parent is not None:
            parent.children.remove(facet)
            if continuation is not None:
                self._run_body(parent, continuation)
        elif continuation is None:
            self.actions.append(Quit())
        else:
            self._start_root(continuation)


def render_tree(actor: Actor) -> str:
    """Indent-per-depth text rendering of the live facet tree."""
    lines = []

    def describe(ep):
        if isinstance(ep, AssertEndpoint):
            return "assert %s" % render(ep.current)
        return "on %s %s" % (ep.kind, render(ep.current.fields[0]))

    def walk(f, depth):
        fid = "/".join(map(str, f.id)) or "root"
        lines.append("  " * depth + fid)
        for ep in f.endpoints:
            lines.append("  " * (depth + 1) + describe(ep))
        for c in f.children:
            walk(c, depth + 1)

    if actor.root is not None and actor.root.alive:
        walk(actor.root, 0)
    return "\n".join(lines)
