"""A deliberately naive model of the dataspace and facet runtime, for the
differential tests: the model and the runtime must write byte-identical
JSONL traces on the same inputs.

It states each rule of README's "Reference semantics" directly, with no
index, cache or dependency tracking. `ModelDataspace` recomputes every
actor's deliveries from the bag and the actor's patterns after each turn;
`ModelActor` walks its whole live facet tree to find handlers, and again
at the end of each turn to re-evaluate every published assertion. It shares no
logic with `facetspace.dataspace` or `facetspace.facets`: it takes only
their record classes and exceptions, and matches with `reference_match`."""

from collections import deque
from functools import partialmethod

from conftest import reference_match
from facetspace.dataspace import (Assert, BootEvent, MaxTurnsExceeded, Message, MessageEvent, PatchEvent,
                                  Quit, Retract, Spawn, TurnRecord)
from facetspace.facets import DeadFieldAccess
from facetspace.values import (MAX_DEPTH, Record, Sequence, Text, Unique, check_value, message_interest,
                               observe, sym, to_value)

OBSERVE, MESSAGE = sym("observe"), sym("message")
WILDCARD, CAPTURE = sym("wildcard"), sym("capture")
# a trace line holds a value two levels down, in (patch (added v))
TRACED_DEPTH = MAX_DEPTH - 2


def capture_names(p):
    """The names of p's captures, in pre-order. Raises ValueError if p holds
    a record labelled wildcard or capture that is not (wildcard) or
    (capture "name")."""
    if isinstance(p, Record) and p.label in (WILDCARD, CAPTURE):
        if p.label == WILDCARD and not p.fields:
            return []
        if p.label == CAPTURE and len(p.fields) == 1 and isinstance(p.fields[0], Text):
            return [p.fields[0].s]
        raise ValueError("malformed hole %r" % (p,))
    kids = p.fields if isinstance(p, Record) else p.items if isinstance(p, Sequence) else ()
    return [name for k in kids for name in capture_names(k)]


def is_interest(v):
    """Whether v is (observe p) for a well-formed pattern p."""
    if not (isinstance(v, Record) and v.label == OBSERVE and len(v.fields) == 1):
        return False
    try:
        capture_names(v.fields[0])
    except ValueError:
        return False
    return True


def matched(patterns, v):
    return any(reference_match(p, v) is not None for p in patterns)


class ModelDataspace:
    """The dataspace, routing recomputed from scratch after every turn."""

    def __init__(self, trace_sink=None):
        self.trace_sink = trace_sink
        self.bag = {}  # value -> {actor id -> count > 0}, in the order values became present
        self.actors = {}  # live actor id -> behavior, in ascending id
        self.queue = deque()
        self.trace = []
        self.clock = self.timer_registry = None
        self._spawned = 0
        self._uniques = 0

    def fresh_unique(self):
        self._uniques += 1
        return Unique(self._uniques - 1)

    def spawn(self, boot):
        aid = self._spawned
        self._spawned += 1
        self.actors[aid] = boot if hasattr(boot, "handle_event") else ModelActor(self, boot)
        self.queue.append((aid, BootEvent()))
        return aid

    def is_alive(self, aid):
        return aid in self.actors

    def pending(self):
        return bool(self.queue)

    def query(self, p):
        return [v for v in self.bag if reference_match(p, v) is not None]

    def interests(self, aid):
        """{(observe p): p} for each well-formed interest aid holds."""
        return {v: v.fields[0] for v, per in self.bag.items() if aid in per and is_interest(v)}

    def hearers(self, v):
        """The deliveries of message v: to each actor, in ascending id, that
        holds a pattern matching (message v) now."""
        wrapped = Record(MESSAGE, (v,))
        return [(aid, MessageEvent(v)) for aid in self.actors if matched(self.interests(aid).values(), wrapped)]

    def inject_message(self, v):
        self.queue.extend(self.hearers(check_value(to_value(v), TRACED_DEPTH)))

    def count(self, aid, v, delta):
        """Add delta to aid's copies of v; retracting an unheld copy does nothing."""
        per = self.bag.get(v, {})
        n = per.get(aid, 0) + delta
        if n < 0:
            return
        if n:
            per[aid] = n
        else:
            del per[aid]
        if per:
            self.bag[v] = per  # a new key goes last
        else:
            del self.bag[v]

    def deliveries(self, added, removed, actor=None, old=None):
        """What each live actor, in ascending id, is told of a turn that
        added and removed these values, in one patch whose added values
        begin with what its gained patterns newly match in the bag. `actor`
        acted, holding the interests `old` as the turn began; every other
        actor's interests did not move."""
        out = []
        for aid in self.actors:
            new = self.interests(aid)
            before = old if aid == actor else new
            gained = [p for v, p in new.items() if v not in before]
            initial = tuple(v for v in self.bag if v not in added and matched(gained, v)
                            and not matched(before.values(), v))
            plus = tuple(v for v in added if matched(new.values(), v))
            minus = tuple(v for v in removed if matched(new.values(), v) and matched(before.values(), v))
            if initial or plus or minus:
                out.append((aid, PatchEvent(initial + plus, minus)))
        return out

    def run_turn(self):
        if not self.queue:
            raise RuntimeError("run_turn on a quiescent dataspace")
        aid, event = self.queue.popleft()
        crashed = False
        try:
            actions = list(self.actors[aid].handle_event(event))
            for a in actions:
                if isinstance(a, (Assert, Retract, Message)):
                    check_value(a.v, TRACED_DEPTH)
                elif not isinstance(a, (Spawn, Quit)):
                    raise TypeError(a)
        except Exception:
            crashed, actions = True, []
        present, old, messages = set(self.bag), self.interests(aid), []
        for a in actions:
            if isinstance(a, (Assert, Retract)):
                self.count(aid, a.v, 1 if isinstance(a, Assert) else -1)
            elif isinstance(a, Message):
                messages += self.hearers(a.v)  # routed when emitted
        touched = list(dict.fromkeys(a.v for a in actions if isinstance(a, (Assert, Retract))))
        added = [v for v in touched if v in self.bag and v not in present]
        removed = [v for v in touched if v not in self.bag and v in present]
        self.queue.extend(self.deliveries(added, removed, aid, old) + messages)
        for a in actions:
            if isinstance(a, Spawn):
                a.child = self.spawn(a.boot)
        if crashed or any(isinstance(a, Quit) for a in actions):
            self.terminate(aid)
        record = TurnRecord(len(self.trace), aid, event, actions, crashed)
        self.trace.append(record)
        if self.trace_sink is not None:
            self.trace_sink.write(record.to_json() + "\n")
        return record

    def terminate(self, aid):
        """Retract every copy aid holds, in bag order, and forget it."""
        held = [v for v, per in self.bag.items() if aid in per]
        for v in held:
            self.count(aid, v, -self.bag[v][aid])
        del self.actors[aid]
        self.queue = deque(e for e in self.queue if e[0] != aid)
        self.queue.extend(self.deliveries([], [v for v in held if v not in self.bag]))

    def run_until_quiescent(self, max_turns=100000):
        start = len(self.trace)
        while self.queue:
            if len(self.trace) - start >= max_turns:
                raise MaxTurnsExceeded("no quiescence after %d turns" % max_turns)
            self.run_turn()
        return self.trace[start:]


class ModelField:
    def __init__(self, owner, value):
        self.owner, self.value = owner, value

    def __call__(self, *args):
        if not self.owner.alive:
            raise DeadFieldAccess("field of a dead facet")
        if not args:
            return self.value
        (self.value,) = args


class Endpoint:
    """One assertion, current, that a facet holds: published (kind None), or
    the interest of a handler of one event kind, which a facet holds once
    however many of its handlers share it. Hashed by identity."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


class ModelFacet:
    def __init__(self, actor, parent):
        self.actor, self.parent = actor, parent
        self.children, self.endpoints = [], []
        self.start_handlers, self.stop_handlers = [], []  # start_handlers is None once started
        self.alive = True
        self.stopping = False  # once its stop handlers have begun

    def _live(self):
        if not self.alive:
            raise RuntimeError("endpoint added to a dead facet")

    def field(self, initial):
        self._live()
        return ModelField(self, initial)

    def publish(self, spec):
        self._live()
        compute = spec if callable(spec) else lambda: spec
        ep = Endpoint(facet=self, kind=None, current=to_value(compute()), compute=compute)
        self.endpoints.append(ep)
        self.actor.actions.append(Assert(ep.current))
        return ep

    def _handler(self, kind, pattern, fn):
        self._live()
        _callable(fn)
        names = capture_names(pattern)
        if len(names) != len(set(names)):
            raise ValueError("repeated capture in %r" % (pattern,))
        interest = message_interest(pattern) if kind == "message" else observe(pattern)
        check_value(interest, TRACED_DEPTH)
        ep = Endpoint(facet=self, kind=kind, current=interest, pattern=pattern, fn=fn)
        if not _held_by_a_handler(self.endpoints, interest):
            self.actor.actions.append(Assert(interest))
        self.endpoints.append(ep)
        return ep

    on_asserted = partialmethod(_handler, "asserted")
    on_retracted = partialmethod(_handler, "retracted")
    on_message = partialmethod(_handler, "message")

    def on_start(self, fn):
        self._live()
        _callable(fn)
        if self.start_handlers is None:
            fn(self)
        else:
            self.start_handlers.append(fn)

    def on_stop(self, fn):
        self._live()
        self.stop_handlers.append(_callable(fn))

    def react(self, body, *args):
        self._live()
        child = ModelFacet(self.actor, self)
        self.children.append(child)
        self.actor.install(child, body, args)
        return child

    def stop(self, continuation=None):
        self.actor.stop_facet(self, continuation)

    def send(self, v):
        self.actor.actions.append(Message(to_value(v)))

    def spawn(self, boot):
        self.actor.actions.append(Spawn(boot))

    def unique(self):
        return self.actor.ds.fresh_unique()


def _callable(fn):
    if not callable(fn):
        raise TypeError("handler %r is not callable" % (fn,))
    return fn


def _held_by_a_handler(endpoints, interest):
    """Whether one of these endpoints is a handler holding interest: a
    facet asserts each interest once, however many of its handlers read it."""
    return any(ep.kind is not None and ep.current == interest for ep in endpoints)


def _tree(f):
    """f and its descendants, in pre-order."""
    yield f
    for c in f.children:
        yield from _tree(c)


class ModelActor:
    def __init__(self, ds, boot):
        self.ds, self.boot = ds, boot
        self.root = None
        self.actions = []

    def handle_event(self, event):
        """Run the turn's bodies, then re-evaluate every published assertion
        of the live tree, in facet pre-order, then endpoint order: a changed
        one is retracted and asserted anew."""
        self.actions = []
        if isinstance(event, BootEvent):
            self.start_root(self.boot)
        elif isinstance(event, (PatchEvent, MessageEvent)):
            self.dispatch(event)
        else:
            raise TypeError(event)
        for ep in [ep for f in _tree(self.root) for ep in f.endpoints if ep.kind is None]:
            new = to_value(ep.compute())
            if new != ep.current:
                self.actions += [Retract(ep.current), Assert(new)]
                ep.current = new
        return self.actions

    def start_root(self, body):
        """A root left holding no endpoint and no child stops, and the actor quits."""
        root = self.root = ModelFacet(self, None)
        self.install(root, body, ())
        if root.alive and not (root.endpoints or root.children):
            self.stop_facet(root)

    def install(self, facet, body, args):
        body(facet, *args)
        handlers, facet.start_handlers = facet.start_handlers, None
        for h in handlers:
            if not facet.alive:
                break
            h(facet)

    def dispatch(self, event):
        """Every handler of the live tree whose pattern matches a value of
        the event its kind reads, in facet pre-order, then endpoint order,
        then value order; a handler whose facet has stopped meanwhile is
        skipped."""
        if isinstance(event, PatchEvent):
            sides = {"asserted": event.added, "retracted": event.removed}
        else:
            sides = {"message": (event.v,)}
        hits = []
        for f in _tree(self.root):
            for ep in f.endpoints:
                for v in sides.get(ep.kind, ()):
                    b = reference_match(ep.pattern, v)
                    if b is not None:
                        hits.append((ep, b))
        for ep, b in hits:
            if ep.facet.alive:
                ep.fn(ep.facet, b)

    def stop_facet(self, facet, continuation=None):
        """Run the subtree's stop handlers children first, then retract its
        endpoints children first, then run the continuation in the parent;
        a stopped root quits the actor or starts the continuation as root.
        A stop of a dead facet, or of one whose stop handlers have begun,
        does nothing; a stop whose facet its own stop handlers tore down
        (by stopping an ancestor) ends when they do. Neither runs the
        continuation."""
        if not facet.alive or facet.stopping:
            return
        self._run_stop_handlers(facet)
        if not facet.alive:
            return
        self._teardown(facet)
        if facet.parent is not None:
            facet.parent.children.remove(facet)
            if continuation is not None:
                continuation(facet.parent)
        elif continuation is None:
            self.actions.append(Quit())
        else:
            self.start_root(continuation)

    def _run_stop_handlers(self, f):
        """Each facet's once; a stop handler runs only while its facet lives."""
        f.stopping = True
        for c in list(f.children):
            if not c.stopping:
                self._run_stop_handlers(c)
        for h in f.stop_handlers:
            if not f.alive:
                break
            h(f)

    def _teardown(self, f):
        for c in f.children:
            self._teardown(c)
        f.alive = False
        self.actions += [Retract(ep.current) for i, ep in enumerate(f.endpoints)
                         if ep.kind is None or not _held_by_a_handler(f.endpoints[:i], ep.current)]
        f.children, f.endpoints = [], []
