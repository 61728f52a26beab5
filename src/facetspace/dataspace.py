"""The shared medium: owner-tracked assertion bag, set-view routing,
message broadcast, actor lifecycle, and the deterministic turn scheduler.

One logical thread of control runs everything. Each turn delivers one event
to one actor, collects the actions it emits, applies them atomically, and
routes the resulting appearance/disappearance patch to interested actors.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .values import (
    MAX_DEPTH,
    MESSAGE,
    OBSERVE,
    MalformedPatternEncoding,
    Pattern,
    Record,
    Unique,
    Value,
    check_value,
    compile_test,
    decode,
    match,
    render,
    to_value,
)

log = logging.getLogger(__name__)

# A trace line holds a value two levels deeper than the value itself, in
# (patch (added v)); deeper values are refused where they enter, so that
# every line parses.
MAX_TRACED_DEPTH = MAX_DEPTH - 2


class MaxTurnsExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Actions and events

@dataclass(frozen=True)
class Assert:
    v: Value


@dataclass(frozen=True)
class Retract:
    v: Value


@dataclass(frozen=True)
class Message:
    v: Value


@dataclass
class Spawn:
    boot: Callable
    child: Optional[int] = None  # filled in when the action is applied


@dataclass(frozen=True)
class Quit:
    pass


@dataclass(frozen=True)
class Patch:
    added: tuple
    removed: tuple


@dataclass(frozen=True)
class PatchEvent:
    patch: Patch


@dataclass(frozen=True)
class MessageEvent:
    v: Value


@dataclass(frozen=True)
class BootEvent:
    pass


def render_event(ev) -> str:
    if isinstance(ev, BootEvent):
        return "(boot)"
    if isinstance(ev, MessageEvent):
        return "(message %s)" % render(ev.v)
    if isinstance(ev, PatchEvent):
        added = " ".join(render(v) for v in ev.patch.added)
        removed = " ".join(render(v) for v in ev.patch.removed)
        return "(patch (added%s) (removed%s))" % (
            " " + added if added else "",
            " " + removed if removed else "",
        )
    raise TypeError(ev)


def render_action(a) -> str:
    if isinstance(a, Assert):
        return "(assert %s)" % render(a.v)
    if isinstance(a, Retract):
        return "(retract %s)" % render(a.v)
    if isinstance(a, Message):
        return "(send %s)" % render(a.v)
    if isinstance(a, Spawn):
        return "(spawn %d)" % (a.child if a.child is not None else -1)
    if isinstance(a, Quit):
        return "(quit)"
    raise TypeError(a)


@dataclass
class TurnRecord:
    turn: int
    actor: int
    event: object
    actions: list
    crashed: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "turn": self.turn,
                "actor": self.actor,
                "event": render_event(self.event),
                "actions": [render_action(a) for a in self.actions],
                "crashed": self.crashed,
            },
            separators=(",", ":"),
        )


# ---------------------------------------------------------------------------
# Dataspace

class Dataspace:
    """A dataspace and its deterministic FIFO turn scheduler.

    Behaviors are either facet boot callables (see facets.Actor) or any
    object with a ``handle_event(event) -> list of actions`` method.
    """

    def __init__(self, trace_sink=None):
        self.trace_sink = trace_sink  # file-like; gets one JSON line per turn
        # Only live state: every bag entry has a holder, and a terminated
        # actor leaves no key behind. Actor ids only grow, so the actor
        # tables iterate in ascending id order.
        self.bag: dict = {}  # present Value -> {actor id -> count > 0}: the only counts
        self.actors: dict = {}  # live actor id -> runtime
        # actor id -> {observe Value it holds -> decoded Pattern}; routing
        # calls each pattern's compiled test, p._test, never match
        self.interests: dict = {}
        self.queue: deque = deque()
        self.trace: list = []
        self.clock = None  # installed by the timer driver, if any
        self.timer_registry = None
        self._next_actor = 0
        self._next_unique = 0

    # -- allocation ---------------------------------------------------------

    def fresh_unique(self):
        u = Unique(self._next_unique)
        self._next_unique += 1
        return u

    def spawn(self, boot) -> int:
        aid = self._next_actor
        self._next_actor += 1
        self.actors[aid] = self._make_runtime(aid, boot)
        self.interests[aid] = {}
        self.queue.append((aid, BootEvent()))
        return aid

    def _make_runtime(self, aid, boot):
        if hasattr(boot, "handle_event"):
            return boot
        from .facets import Actor

        return Actor(self, aid, boot)

    # -- introspection ------------------------------------------------------

    def query(self, p: Pattern) -> list:
        """All present values matching p, in the order they last became present."""
        return [v for v in self.bag if match(p, v) is not None]

    def is_alive(self, aid: int) -> bool:
        return aid in self.actors

    def pending(self) -> bool:
        return bool(self.queue)

    # -- external inputs (serialized inbox) ---------------------------------

    def inject_message(self, v):
        """External message broadcast; enters between turns. A host datum is
        converted as ``Facet.send`` converts it; a value the trace could not
        hold raises ValueError (see check_value) and queues nothing."""
        for aid, ev in self._message_deliveries(check_value(to_value(v), MAX_TRACED_DEPTH)):
            self.queue.append((aid, ev))

    # -- the turn engine ----------------------------------------------------

    def run_turn(self) -> TurnRecord:
        if not self.queue:
            raise RuntimeError("run_turn on a quiescent dataspace")
        aid, event = self.queue.popleft()
        runtime = self.actors[aid]
        crashed = False
        try:
            actions = list(runtime.handle_event(event))
            for a in actions:
                _check_action(a)
        except Exception:
            log.warning("actor %d crashed handling %s", aid, render_event(event), exc_info=True)
            crashed = True
            actions = []  # a crash is a turn with no actions that ends the actor

        patch, messages, boots, quit_requested, before = self._apply(aid, actions)
        self.queue.extend(self._patch_deliveries(patch, aid, before) + messages + boots)
        if crashed or quit_requested:
            # _terminate drops the actor's queued events and rebinds the queue
            final = self._patch_deliveries(self._terminate(aid))
            self.queue.extend(final)

        record = TurnRecord(len(self.trace), aid, event, actions, crashed)
        self.trace.append(record)
        if self.trace_sink is not None:
            self.trace_sink.write(record.to_json() + "\n")
        return record

    def run_until_quiescent(self, max_turns: int = 10000) -> list:
        start = len(self.trace)
        while self.pending():
            if len(self.trace) - start >= max_turns:
                raise MaxTurnsExceeded("no quiescence after %d turns" % max_turns)
            self.run_turn()
        return self.trace[start:]

    # -- action application -------------------------------------------------

    def _bump(self, aid, v, delta, was_present):
        was_present.setdefault(v, v in self.bag)
        per = self.bag.get(v) or {}
        have = per.get(aid, 0) + delta
        if have < 0:
            log.warning("actor %d retracts unheld assertion %s", aid, render(v))
            return
        if have:
            per[aid] = have
            self.bag[v] = per  # a new entry goes last: it has just become present
        else:
            del per[aid]
            if not per:
                del self.bag[v]
        if have in (0, delta):  # the actor's first copy arrived or its last went
            self._note_interest(aid, v, have)

    def _note_interest(self, aid, v, held):
        if not (isinstance(v, Record) and v.label == OBSERVE and len(v.fields) == 1):
            return
        table = self.interests[aid]
        if not held:
            table.pop(v, None)  # a malformed interest has no entry
            return
        try:
            p = decode(v.fields[0])
        except MalformedPatternEncoding:
            log.warning("actor %d asserted malformed interest %s", aid, render(v))
            return
        compile_test(p)
        table[v] = p

    def _apply(self, aid, actions):
        was_present: dict = {}
        before = dict(self.interests[aid])
        messages = []
        boots = []
        quit_requested = False
        for a in actions:
            if isinstance(a, Assert):
                self._bump(aid, a.v, 1, was_present)
            elif isinstance(a, Retract):
                self._bump(aid, a.v, -1, was_present)
            elif isinstance(a, Message):
                messages.extend(self._message_deliveries(a.v))
            elif isinstance(a, Spawn):
                a.child = self.spawn(a.boot)
                boots.append(self.queue.pop())  # re-order after patches/messages
            else:
                quit_requested = True
        added = tuple(v for v, was in was_present.items() if not was and v in self.bag)
        removed = tuple(v for v, was in was_present.items() if was and v not in self.bag)
        return Patch(added, removed), messages, boots, quit_requested, before

    def _message_deliveries(self, v):
        wrapper = Record(MESSAGE, (v,))
        out = []
        for aid, table in self.interests.items():
            if any(p._test(wrapper) for p in table.values()):
                out.append((aid, MessageEvent(v)))
        return out

    def _terminate(self, aid) -> Patch:
        """Remove all of an actor's bag contributions and its table slots."""
        removed = []
        for v, per in list(self.bag.items()):
            if per.pop(aid, 0) and not per:
                del self.bag[v]
                removed.append(v)
        del self.actors[aid], self.interests[aid]
        self.queue = deque((a, e) for a, e in self.queue if a != aid)
        return Patch((), tuple(removed))

    # -- routing ------------------------------------------------------------

    def _patch_deliveries(self, patch: Patch, actor=None, before=()) -> list:
        """Per-actor filtered patch events for one turn's global patch.

        What each actor was told is what its patterns match in the bag, so
        routing keeps no record of it. Only `actor`, the one that acted, can
        change its patterns in a turn, judged over the whole turn: `before`
        holds them as the turn began (P0), `interests` as it ended (P1); any
        other actor's P0 is its P1. A removed value goes out when a P0 and a
        P1 pattern both match it, an added value when a P1 pattern does. A
        gained pattern brings an initial patch, before the regular one, of
        the present values, in bag order, that it matches, that the turn did
        not add and that no P0 pattern matches. So a turn with an empty
        patch and no gained pattern routes nothing.
        """
        gained = [p for k, p in self.interests.get(actor, {}).items() if k not in before]
        if not (patch.added or patch.removed or gained):
            return []
        out = []
        for aid, table in self.interests.items():
            tests = [p._test for p in table.values()]
            new = old = ()
            f_removed = tuple(v for v in patch.removed if any(t(v) for t in tests))
            if aid == actor:
                new, old = [p._test for p in gained], [p._test for p in before.values()]
                f_removed = tuple(v for v in f_removed if any(t(v) for t in old))
            f_added = tuple(v for v in patch.added if any(t(v) for t in tests))
            init_added = tuple(
                v
                for v in self.bag
                if any(t(v) for t in new)
                and v not in patch.added
                and not any(t(v) for t in old)
            )
            if init_added:
                out.append((aid, PatchEvent(Patch(init_added, ()))))
            if f_added or f_removed:
                out.append((aid, PatchEvent(Patch(f_added, f_removed))))
        return out


def _check_action(a):
    """Raise unless a is an action whose value, if any, the trace can hold."""
    if isinstance(a, (Assert, Retract, Message)):
        check_value(a.v, MAX_TRACED_DEPTH)
    elif not isinstance(a, (Spawn, Quit)):
        raise TypeError("malformed action: %r" % (a,))
