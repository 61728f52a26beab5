"""Shared test helpers: externally driven puppet actors, event recorders,
an interpretive pattern matcher to check the runtime's against, a switch
that keeps the reference model off the runtime, and the counting harness of
the complexity contracts."""

import os
from contextlib import contextmanager

from hypothesis import settings

from facetspace import (
    Dataspace,
    Record,
    Sequence,
    Text,
    cap,
    lit,
    rec,
    rpat,
    sym,
)
from facetspace.dataspace import Assert, BootEvent, MessageEvent, PatchEvent
from facetspace.facets import Actor
from facetspace.values import PatternIndex, observe

# HYPOTHESIS_PROFILE=ci runs every property deeper, with a fixed seed;
# HYPOTHESIS_PROFILE=deep deeper still, for the few CI runs one by one.
settings.register_profile("ci", derandomize=True, max_examples=300)
settings.register_profile("deep", derandomize=True, max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def reference_match(p, v):
    """Match p against a ground value; returns bindings or None. Total.
    An interpretive walk of the pattern, kept apart from `values.match`
    (which reads its bindings off the compiled test) so that tests can
    compare the two. A (wildcard) record with no field and a (capture …)
    record holding one Text are holes; any other atom compares by ==."""
    if isinstance(p, Record):
        if p.label == sym("wildcard") and not p.fields:
            return {}
        if p.label == sym("capture") and len(p.fields) == 1 and isinstance(p.fields[0], Text):
            return {p.fields[0].s: v}
        if not isinstance(v, Record) or v.label != p.label:
            return None
        if len(v.fields) != len(p.fields):
            return None
        return _reference_match_all(p.fields, v.fields)
    if isinstance(p, Sequence):
        if not isinstance(v, Sequence) or len(v.items) != len(p.items):
            return None
        return _reference_match_all(p.items, v.items)
    return {} if p == v else None


def _reference_match_all(pats, vals):
    out = {}
    for sub_p, sub_v in zip(pats, vals):
        b = reference_match(sub_p, sub_v)
        if b is None:
            return None
        out.update(b)
    return out


def reference_key(p):
    """The index key routing must file pattern p under, spelled out apart
    from the dataspace's own: a record's label name and arity, a sequence's
    length, an atom itself, None for a top-level hole; (message q) is keyed
    as q is."""
    if isinstance(p, Record):
        if p.label == sym("message") and len(p.fields) == 1:
            return reference_key(p.fields[0])
        if p.label in (sym("wildcard"), sym("capture")):
            return None
        return (p.label.name, len(p.fields))
    if isinstance(p, Sequence):
        return len(p.items)
    return p


def _is_hole(p):
    return isinstance(p, Record) and (
        (p.label == sym("wildcard") and not p.fields)
        or (p.label == sym("capture") and len(p.fields) == 1 and isinstance(p.fields[0], Text)))


def _holds_hole(p):
    if _is_hole(p):
        return True
    kids = p.fields if isinstance(p, Record) else p.items if isinstance(p, Sequence) else ()
    return any(_holds_hole(k) for k in kids)


def reference_constants(p):
    """The (paths, constants) an index must file well-formed pattern p
    under, spelled out apart from `values.compile_test`: in pre-order, the
    path and value of each field with no hole whose parent holds one, or
    the root path and p itself if p holds no hole."""
    if not _holds_hole(p):
        return ((),), (p,)
    found = []

    def walk(q, path):
        if _is_hole(q):
            return
        kids = q.fields if isinstance(q, Record) else q.items
        for i, k in enumerate(kids):
            if _holds_hole(k):
                walk(k, path + (i,))
            else:
                found.append((path + (i,), k))

    walk(p, ())
    return tuple(path for path, _ in found), tuple(k for _, k in found)


def reference_index(entries):
    """The nested dict an index of these (entry, pattern) pairs must equal:
    key, then constant paths, then constants, then {entry: pattern}."""
    want = {}
    for entry, p in entries:
        paths, consts = reference_constants(p)
        want.setdefault(reference_key(p), {}).setdefault(paths, {}).setdefault(consts, {})[entry] = p
    return want


def assert_index_matches_interests(ds):
    """ds.index holds each (actor, observe value) of ds.interests once, under
    its pattern's key and constants, and nothing else: no empty level, and
    no entry for a terminated actor or a malformed interest, which
    ds.interests lacks."""
    assert ds.index == reference_index(
        ((aid, v), p) for aid, table in ds.interests.items() for v, p in table.items())


def assert_endpoint_indexes_match_trees(ds):
    """Each facet actor's handler index holds exactly the handler endpoints
    found by a walk of its live facet tree, of every event kind, each filed
    under its pattern and carrying its place in the walk."""
    for actor in ds.actors.values():
        if not isinstance(actor, Actor):
            continue
        found = []
        todo = [actor.root] if actor.root is not None and actor.root.alive else []
        while todo:
            f = todo.pop()
            for i, ep in enumerate(f.endpoints):
                if ep.kind is not None:
                    assert ep.order == (f.id, i)
                    found.append(ep)
            todo.extend(f.children)
        assert actor.handlers == reference_index((ep, ep.pattern) for ep in found)


@contextmanager
def runtime_switched_off():
    """Within the block, the runtime's turn engine, its patch routing and
    facet dispatch raise, so a reference-model run that fell back on the
    runtime it is compared with fails rather than agrees with it."""
    seams = [(Dataspace, "run_turn"), (Dataspace, "_patch_deliveries"), (Actor, "_dispatch")]
    saved = [vars(cls)[name] for cls, name in seams]

    def refuse(*_args, **_kwargs):
        raise AssertionError("the reference model ran the runtime")

    for cls, name in seams:
        setattr(cls, name, refuse)
    try:
        yield
    finally:
        for (cls, name), method in zip(seams, saved):
            setattr(cls, name, method)


def named_puppet_boot(name: str):
    """Puppet keyed by name so several can coexist: messages of the form
    (drive <name> (do-assert v)) / (do-retract v) / (do-send v) / (do-batch [..])."""

    def boot(f):
        held = {}

        def run_cmd(hf, cmd):
            label = cmd.label.name
            if label == "do-batch":
                for c in cmd.fields[0].items:
                    run_cmd(hf, c)
            elif label == "do-assert":
                v = cmd.fields[0]
                held[v] = hf.react(lambda cf, v=v: cf.publish(v))
            elif label == "do-retract":
                fct = held.pop(cmd.fields[0], None)
                if fct is not None and fct.alive:
                    hf.actor.stop_facet(fct)
            elif label == "do-send":
                hf.send(cmd.fields[0])

        f.on_message(rpat("drive", lit(sym(name)), cap("cmd")), lambda hf, b: run_cmd(hf, b["cmd"]))

    return boot


def drive_cmd(name, label, *fields):
    return rec("drive", sym(name), rec(label, *fields))


class RawRecorder:
    """Bare runtime (no facets) observing one pattern and logging events."""

    def __init__(self, pattern, messages=False):
        self.pattern = pattern
        self.messages = messages
        self.events = []  # ('+', v) | ('-', v) | ('!', v), in delivery order
        self.patches = []  # PatchEvent objects as received

    def handle_event(self, event):
        if isinstance(event, PatchEvent):
            self.patches.append(event)
            for v in event.added:
                self.events.append(("+", v))
            for v in event.removed:
                self.events.append(("-", v))
            return []
        if isinstance(event, MessageEvent):
            self.events.append(("!", event.v))
            return []
        # boot: declare interest
        from facetspace.values import message_interest, observe

        acts = [Assert(observe(self.pattern))]
        if self.messages:
            acts.append(Assert(message_interest(self.pattern)))
        return acts


def spawn_recorder(ds: Dataspace, pattern, messages=False) -> RawRecorder:
    r = RawRecorder(pattern, messages)
    ds.spawn(r)
    return r


# ---------------------------------------------------------------------------
# Counting harness for the complexity contracts (tests/test_contracts.py).
# Counts are deterministic where timings are not: a contract compares the
# counts of one scenario beside few and beside many bystanders.


class CountingBag(dict):
    """A bag that counts the entries its iteration yields, by `__iter__` and
    by `items`; `count_bag_visits` puts one on a dataspace."""

    def __init__(self, entries):
        super().__init__(entries)
        self.visits = 0

    def __iter__(self):
        for v in super().__iter__():
            self.visits += 1
            yield v

    def items(self):
        for item in super().items():
            self.visits += 1
            yield item


class CountingIndex(PatternIndex):
    """A handler index that counts the candidates its lookups return. Put it
    on a facet actor's `handlers` before the actor boots."""

    __slots__ = ("visits",)

    def __init__(self):
        super().__init__()
        self.visits = 0

    def candidates(self, v):
        out = super().candidates(v)
        self.visits += len(out)
        return out


def count_bag_visits(ds: Dataspace) -> CountingBag:
    """Count, from now on, the entries iteration over ds's bag yields. Set-up
    runs uncounted: on a plain bag it costs far less."""
    ds.bag = CountingBag(ds.bag)  # same entries, in the same order
    return ds.bag


def spawn_counted(ds: Dataspace, boot) -> int:
    """Spawn a facet actor whose dispatch counts the candidates it visits."""
    aid = ds.spawn(boot)
    ds.actors[aid].handlers = CountingIndex()
    return aid


class Bystander:
    """Bare runtime holding one assertion and one interest that nothing else
    in a contract's scenario matches or asserts."""

    def __init__(self, i):
        self.i = i

    def handle_event(self, event):
        if isinstance(event, BootEvent):
            return [Assert(rec("bystander", self.i)), Assert(observe(rpat("unheard", lit(self.i))))]
        return []


def spawn_bystanders(ds: Dataspace, n: int):
    for i in range(n):
        ds.spawn(Bystander(i))
