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
    MESSAGE,
    OBSERVE,
    MalformedPatternEncoding,
    Pattern,
    Record,
    Value,
    decode,
    match,
    render,
)

log = logging.getLogger(__name__)


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
        self.interests: dict = {}  # actor id -> {observe Value it holds -> decoded Pattern}
        self.visible: dict = {}  # actor id -> set of Values notified present
        self.queue: deque = deque()
        self.trace: list = []
        self.clock = None  # installed by the timer driver, if any
        self.timer_registry = None
        self._next_actor = 0
        self._next_unique = 0

    # -- allocation ---------------------------------------------------------

    def fresh_unique(self):
        from .values import Unique

        u = Unique(self._next_unique)
        self._next_unique += 1
        return u

    def spawn(self, boot) -> int:
        aid = self._next_actor
        self._next_actor += 1
        self.actors[aid] = self._make_runtime(aid, boot)
        self.interests[aid] = {}
        self.visible[aid] = set()
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

    def inject_message(self, v: Value):
        """External message broadcast; enters between turns."""
        for aid, ev in self._message_deliveries(v):
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
        except Exception:
            log.warning("actor %d crashed handling %s", aid, render_event(event), exc_info=True)
            crashed = True
            actions = []  # a crash is a turn with no actions that ends the actor

        patch, messages, boots, quit_requested, fresh = self._apply(aid, actions)
        self.queue.extend(self._patch_deliveries(patch, fresh) + messages + boots)
        if crashed or quit_requested:
            # _terminate drops the actor's queued events and rebinds the queue
            final = self._patch_deliveries(self._terminate(aid), {})
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
            table[v] = decode(v.fields[0])
        except MalformedPatternEncoding:
            log.warning("actor %d asserted malformed interest %s", aid, render(v))

    def _apply(self, aid, actions):
        was_present: dict = {}
        table = self.interests[aid]
        interests_before = set(table)
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
            elif isinstance(a, Quit):
                quit_requested = True
            else:
                raise TypeError("not an action: %r" % (a,))
        added = tuple(v for v, was in was_present.items() if not was and v in self.bag)
        removed = tuple(v for v, was in was_present.items() if was and v not in self.bag)
        if interests_before - table.keys():
            # net loss over the turn: forget what only the lost patterns matched
            pats = table.values()
            self.visible[aid] = {
                v for v in self.visible[aid] if any(match(p, v) is not None for p in pats)
            }
        fresh = [p for k, p in table.items() if k not in interests_before]
        return Patch(added, removed), messages, boots, quit_requested, {aid: fresh} if fresh else {}

    def _message_deliveries(self, v):
        wrapper = Record(MESSAGE, (v,))
        out = []
        for aid, table in self.interests.items():
            if any(match(p, wrapper) is not None for p in table.values()):
                out.append((aid, MessageEvent(v)))
        return out

    def _terminate(self, aid) -> Patch:
        """Remove all of an actor's bag contributions and its table slots."""
        removed = []
        for v, per in list(self.bag.items()):
            if per.pop(aid, 0) and not per:
                del self.bag[v]
                removed.append(v)
        del self.actors[aid], self.interests[aid], self.visible[aid]
        self.queue = deque((a, e) for a, e in self.queue if a != aid)
        return Patch((), tuple(removed))

    # -- routing ------------------------------------------------------------

    def _patch_deliveries(self, patch: Patch, fresh: dict) -> list:
        """Per-actor filtered patch events for one turn's global patch.

        Each actor's visible set enforces the per-observer alternation of
        appearance/disappearance notifications; `fresh` maps an actor to the
        patterns it gained this turn, which trigger a synthetic initial patch
        of already-present matching values, delivered before the turn's
        regular patch. It lists them in bag order: the order in which they
        last became present. An actor's patterns are its `interests` values,
        one per observe value it holds; how many copies it holds is in the bag.

        After every turn each visible set is exactly the present values its
        actor's patterns match. Only the acting actor's patterns change in a
        turn, and `_apply` trims that actor's set when the turn, taken as a
        whole, took away one of its interests. So a turn with an empty patch
        and no new interest routes nothing.
        """
        if not (patch.added or patch.removed or fresh):
            return []
        out = []
        for aid, table in self.interests.items():
            pats = table.values()
            vis = self.visible[aid]
            f_removed = tuple(v for v in patch.removed if v in vis)
            f_added = tuple(
                v
                for v in patch.added
                if v not in vis and any(match(p, v) is not None for p in pats)
            )
            init_added = tuple(
                v
                for v in self.bag
                if v not in vis
                and v not in f_added
                and any(match(p, v) is not None for p in fresh.get(aid, []))
            )
            if init_added:
                out.append((aid, PatchEvent(Patch(init_added, ()))))
                vis.update(init_added)
            if f_added or f_removed:
                out.append((aid, PatchEvent(Patch(f_added, f_removed))))
                vis.difference_update(f_removed)
                vis.update(f_added)
        return out
