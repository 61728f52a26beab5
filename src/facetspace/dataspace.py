"""The shared medium: owner-tracked assertion bag, set-view routing,
message broadcast, actor lifecycle, and the deterministic turn scheduler.

One logical thread of control runs everything. Each turn delivers one event
to one actor, collects the actions it emits, applies them atomically, and
routes the resulting appearance/disappearance patch to interested actors.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional

from .values import (
    MAX_DEPTH,
    MESSAGE,
    OBSERVE,
    MalformedPatternEncoding,
    Pattern,
    PatternIndex,
    Record,
    Unique,
    Value,
    check_value,
    compile_test,
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

@dataclass(frozen=True, slots=True)
class Assert:
    v: Value


@dataclass(frozen=True, slots=True)
class Retract:
    v: Value


@dataclass(frozen=True, slots=True)
class Message:
    v: Value


@dataclass(slots=True)
class Spawn:
    boot: Callable
    child: Optional[int] = None  # filled in after the turn's deliveries


@dataclass(frozen=True, slots=True)
class Quit:
    pass


@dataclass(frozen=True, slots=True)
class PatchEvent:
    added: tuple
    removed: tuple


@dataclass(frozen=True, slots=True)
class MessageEvent:
    v: Value


@dataclass(frozen=True, slots=True)
class BootEvent:
    pass


def render_event(ev) -> str:
    if isinstance(ev, BootEvent):
        return "(boot)"
    if isinstance(ev, MessageEvent):
        return "(message %s)" % render(ev.v)
    if isinstance(ev, PatchEvent):
        added = " ".join(render(v) for v in ev.added)
        removed = " ".join(render(v) for v in ev.removed)
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


@dataclass(slots=True)
class TurnRecord:
    turn: int
    actor: int
    event: object
    actions: list
    crashed: bool

    def to_json(self) -> str:
        """The record as one line of compact JSON, byte for byte what
        ``json.dumps(..., separators=(",", ":"))`` writes for the dict of
        these five keys: strings go through the escaper json.dumps uses."""
        return '{"turn":%d,"actor":%d,"event":%s,"actions":[%s],"crashed":%s}' % (
            self.turn,
            self.actor,
            encode_basestring_ascii(render_event(self.event)),
            ",".join([encode_basestring_ascii(render_action(a)) for a in self.actions]),
            "true" if self.crashed else "false",
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
        # actor id -> {observe Value it holds -> its field, the Pattern};
        # routing calls each pattern's compiled test, p._test, never match
        self.interests: dict = {}
        # the same patterns, each filed under (actor id, observe Value) by
        # what a value must hold to match it
        self.index = PatternIndex()
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
        from .facets import Actor  # facets imports this module

        aid = self._next_actor
        self._next_actor += 1
        self.actors[aid] = boot if hasattr(boot, "handle_event") else Actor(self, aid, boot)
        self.interests[aid] = {}
        self.queue.append((aid, BootEvent()))
        return aid

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

        before = dict(self.interests[aid])
        patch, messages, spawns, quit_requested = self._apply(aid, actions)
        self.queue.extend(self._patch_deliveries(patch, aid, before) + messages)
        for a in spawns:  # children boot after the turn's deliveries, in action order
            a.child = self.spawn(a.boot)
        if crashed or quit_requested:
            # _terminate drops the actor's queued events and rebinds the queue
            final = self._patch_deliveries(self._terminate(aid))
            self.queue.extend(final)

        record = TurnRecord(len(self.trace), aid, event, actions, crashed)
        self.trace.append(record)
        if self.trace_sink is not None:
            self.trace_sink.write(record.to_json() + "\n")
        return record

    def run_until_quiescent(self, max_turns: int = 100000) -> list:
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
        table, p = self.interests[aid], v.fields[0]
        if not held:
            p = table.pop(v, None)  # the copy filed; v's own field may be another
            if p is not None:  # a malformed interest has no entry
                self.index.remove((aid, v), p)
            return
        try:
            compile_test(p)
        except MalformedPatternEncoding:
            log.warning("actor %d asserted malformed interest %s", aid, render(v))
            return
        table[v] = p
        self.index.add((aid, v), p)

    def _apply(self, aid, actions):
        was_present: dict = {}
        messages = []
        spawns = []
        quit_requested = False
        for a in actions:
            if isinstance(a, Assert):
                self._bump(aid, a.v, 1, was_present)
            elif isinstance(a, Retract):
                self._bump(aid, a.v, -1, was_present)
            elif isinstance(a, Message):
                messages.extend(self._message_deliveries(a.v))
            elif isinstance(a, Spawn):
                spawns.append(a)
            else:
                quit_requested = True
        added = tuple(v for v, was in was_present.items() if not was and v in self.bag)
        removed = tuple(v for v, was in was_present.items() if was and v not in self.bag)
        return PatchEvent(added, removed), messages, spawns, quit_requested

    def _message_deliveries(self, v):
        return [(aid, MessageEvent(v)) for aid in sorted(self._interested(Record(MESSAGE, (v,))))]

    def _interested(self, v) -> set:
        """The ids of the actors holding a pattern that matches v. Only the
        index's candidates for v are tested."""
        out = set()
        for (aid, _), p in self.index.candidates(v):
            if aid not in out and p._test(v):
                out.add(aid)
        return out

    def _terminate(self, aid) -> PatchEvent:
        """Retract each copy the actor holds, in bag order, then forget it."""
        held = [Retract(v) for v, per in self.bag.items() for _ in range(per.get(aid, 0))]
        patch = self._apply(aid, held)[0]
        del self.actors[aid], self.interests[aid]
        self.queue = deque((a, e) for a, e in self.queue if a != aid)
        return patch

    # -- routing ------------------------------------------------------------

    def _patch_deliveries(self, patch: PatchEvent, actor=None, before=()) -> list:
        """At most one patch event per actor, in ascending id, for one turn's
        global patch.

        What each actor was told is what its patterns match in the bag, so
        routing keeps no record of it. Only `actor`, the one that acted, can
        change its patterns in a turn, judged over the whole turn: `before`
        holds them as the turn began (P0), `interests` as it ended (P1); any
        other actor's P0 is its P1. A removed value goes out when a P0 and a
        P1 pattern both match it, an added value when a P1 pattern (found in
        the index) does. A gained pattern's initial values, the present
        values in bag order that it matches, that the turn did not add and
        that no P0 pattern matches, come first among the added values. So a
        turn with an empty patch and no gained pattern routes nothing.
        """
        gained = [p for k, p in self.interests.get(actor, {}).items() if k not in before]
        if not (patch.added or patch.removed or gained):
            return []
        told = {}  # actor id -> (added, removed), each in patch order
        for i, vs in enumerate((patch.added, patch.removed)):
            for v in vs:
                for aid in self._interested(v):
                    if not (i and aid == actor) or any(p._test(v) for p in before.values()):
                        told.setdefault(aid, ([], []))[i].append(v)
        out = []
        for aid in self.interests:
            new = old = ()
            if aid == actor:
                new, old = [p._test for p in gained], [p._test for p in before.values()]
            initial = tuple(
                v
                for v in self.bag
                if any(t(v) for t in new)
                and v not in patch.added
                and not any(t(v) for t in old)
            )
            added, removed = told.get(aid, ((), ()))
            if initial or added or removed:
                out.append((aid, PatchEvent(initial + tuple(added), tuple(removed))))
        return out


def _check_action(a):
    """Raise unless a is an action whose value, if any, the trace can hold."""
    if isinstance(a, (Assert, Retract, Message)):
        check_value(a.v, MAX_TRACED_DEPTH)
    elif not isinstance(a, (Spawn, Quit)):
        raise TypeError("malformed action: %r" % (a,))
