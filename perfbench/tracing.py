"""The traced run: spans around calls into each facetspace layer, recorded
from the benchmark's own code, and their reduction to per-layer metrics.

Nothing in ``src/`` is edited. The tracer replaces names that facetspace
modules look up at call time (``dataspace.match``, ``Dataspace.run_turn``,
``Facet.on_asserted`` ...) with timing wrappers, and restores them when the
run ends. ``match`` and ``render`` recurse through their own module's
globals, so wrapping the names that ``dataspace`` and ``facets`` import
counts outermost calls only.

A span is (name, start, end, parent span, input id). ``match`` and
``render`` are called hundreds of times per turn, so they are not spans of
their own: each span keeps the count and total time of the calls made
directly inside it. A span's self time is its duration minus the time its
child spans and these folded calls cover. Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter

from facetspace import dataspace, facets, forms, market
from facetspace.dataspace import Dataspace, MessageEvent, PatchEvent, TurnRecord
from facetspace.facets import Actor, Facet
from workloads import percentile, time_reference_loop

_HANDLER_KINDS = ("on_asserted", "on_retracted", "on_message")

# Handlers are named by the module their function was written in.
_HANDLER_SPAN = {
    "facetspace.market": "market.handlers",
    "facetspace.forms": "market.handlers",
    "facetspace.drivers": "drivers.handlers",
}

# Spans whose time is the tracer's own bookkeeping; subtracted from their
# parent's self time and reported nowhere else.
_OVERHEAD = "trace.overhead"


class Span:
    __slots__ = ("name", "start", "end", "parent", "input", "leaf", "info")

    def __init__(self, name, parent, input_id):
        self.name = name
        self.parent = parent  # index into Tracer.spans, or -1
        self.input = input_id  # -1 during set-up
        self.leaf = None  # folded call name -> [calls, hits, seconds]
        self.info = None  # per-span counters, e.g. deliveries of a turn
        self.start = self.end = 0.0

    def to_json(self, index):
        return json.dumps(
            {
                "id": index,
                "name": self.name,
                "start": self.start,
                "end": self.end,
                "parent": self.parent,
                "input": self.input,
                "folded": self.leaf or {},
                "info": self.info or {},
            },
            separators=(",", ":"),
        )


class Tracer:
    """The traced probe: same interface as workloads.NullProbe."""

    def __init__(self):
        self.spans = []
        self.stack = []  # indices of open spans
        self.input_id = -1  # global input number; -1 outside inputs
        self.inputs = 0
        self.session = 0
        self.counts = {}  # counter name -> value, counted during inputs
        self.samples = {}  # sampled quantity name -> list of values
        self.endpoints = []  # AssertEndpoints published this session
        self.recompute_base = 0
        self.setup_endpoints = 0
        self._saved = []

    # -- spans ----------------------------------------------------------------

    def open(self, name):
        s = Span(name, self.stack[-1] if self.stack else -1, self.input_id)
        self.spans.append(s)
        self.stack.append(len(self.spans) - 1)
        s.start = perf_counter()
        return s

    def close(self, s):
        s.end = perf_counter()
        self.stack.pop()

    def call(self, name, fn, *args):
        s = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(s)

    def count(self, name, n=1):
        if self.input_id >= 0:
            self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    # -- probe interface ------------------------------------------------------

    def pace(self):
        # Scales trace.inputs_per_s like the untraced inputs_per_s, so that
        # the overhead line compares like with like; spans stay as measured.
        return time_reference_loop()

    def begin_input(self, _index):
        self.input_id = self.inputs
        self.inputs += 1
        self.open("input")

    def end_input(self):
        self.close(self.spans[self.stack[-1]])
        self.input_id = -1

    def end_setup(self, _ds):
        self.recompute_base = sum(ep.recompute_count for ep in self.endpoints)
        self.setup_endpoints = len(self.endpoints)

    def end_session(self, ds, result):
        self.counts["orders_placed"] = self.counts.get("orders_placed", 0) + result.orders_placed
        keys = len(ds.bag)
        live = sum(1 for per in ds.bag.values() if sum(per.values()) > 0)
        self.sample("bag_keys", keys)
        self.sample("bag_live_ratio", live / keys if keys else 1.0)
        made_in_inputs = len(self.endpoints) - self.setup_endpoints
        total = sum(ep.recompute_count for ep in self.endpoints)
        # Every endpoint evaluates once when published; count re-evaluations.
        self.counts["recomputes"] = (
            self.counts.get("recomputes", 0) + total - self.recompute_base - made_in_inputs
        )
        self.endpoints = []
        self.session += 1

    # -- instrumentation --------------------------------------------------------

    def _patch(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        tr = self

        def folded(name, fn):
            def wrapper(*args):
                st = tr.stack
                if not st:  # the benchmark's own checks, outside any span
                    return fn(*args)
                t0 = perf_counter()
                r = fn(*args)
                dt = perf_counter() - t0
                s = tr.spans[st[-1]]
                if s.leaf is None:
                    s.leaf = {}
                acc = s.leaf.get(name)
                if acc is None:
                    acc = s.leaf[name] = [0, 0, 0.0]
                acc[0] += 1
                acc[2] += dt
                if r is not None:
                    acc[1] += 1
                return r

            return wrapper

        self._patch(dataspace, "match", folded("dataspace.match", dataspace.match))
        self._patch(facets, "match", folded("facets.match", facets.match))
        for mod in (dataspace, facets, forms, market):
            self._patch(mod, "render", folded("values.render", mod.render))

        run_turn = Dataspace.run_turn

        def traced_run_turn(ds):
            o = tr.open(_OVERHEAD)
            q = ds.queue
            skipped = 0
            for aid, _ev in q:
                if ds.is_alive(aid):
                    break
                skipped += 1
            aid = q[skipped][0] if skipped < len(q) else None
            own_queued = sum(1 for a, _ in q if a == aid) - 1
            q0 = len(q)
            tr.close(o)
            s = tr.open("dataspace.run_turn")
            try:
                return run_turn(ds)
            finally:
                tr.close(s)
                o = tr.open(_OVERHEAD)
                q1 = len(ds.queue)
                if aid is not None and not ds.is_alive(aid):
                    q0 -= own_queued  # the dead actor's queued events were dropped
                live = sum(1 for a in ds.actors.values() if a is not None)
                s.info = {
                    "deliveries": q1 - (q0 - skipped - 1),
                    "live_actor_ratio": live / len(ds.actors),
                    "interests": sum(len(t) for t in ds.interests.values()),
                }
                if ds.timer_registry is not None:
                    s.info["timers"] = len(ds.timer_registry)
                tr.close(o)

        self._patch(Dataspace, "run_turn", traced_run_turn)

        inject = Dataspace.inject_message

        def traced_inject(ds, v):
            return tr.call("dataspace.inject_message", inject, ds, v)

        self._patch(Dataspace, "inject_message", traced_inject)

        to_json = TurnRecord.to_json

        def traced_to_json(record):
            s = tr.open("dataspace.trace_json")
            try:
                line = to_json(record)
            finally:
                tr.close(s)
            s.info = {"bytes": len(line) + 1}
            return line

        self._patch(TurnRecord, "to_json", traced_to_json)

        handle_event = Actor.handle_event

        def traced_handle_event(actor, event):
            info = None
            if isinstance(event, (PatchEvent, MessageEvent)) and actor.root is not None:
                o = tr.open(_OVERHEAD)
                info = {"endpoints": _count_endpoints(actor.root), "handlers": 0}
                tr.close(o)
            s = tr.open("facets.handle_event")
            s.info = info
            try:
                return handle_event(actor, event)
            finally:
                tr.close(s)

        self._patch(Actor, "handle_event", traced_handle_event)

        def wrap_handler(fn):
            name = _HANDLER_SPAN.get(getattr(fn, "__module__", None), "bench.handlers")

            def handler(*args):
                st = tr.stack
                if st:
                    owner = tr.spans[st[-1]]
                    if owner.info is not None and "handlers" in owner.info:
                        owner.info["handlers"] += 1
                return tr.call(name, fn, *args)

            return handler

        for kind in _HANDLER_KINDS:
            install_handler = Facet.__dict__[kind]

            def traced_install(facet, pattern, fn, _install=install_handler):
                return _install(facet, pattern, wrap_handler(fn))

            self._patch(Facet, kind, traced_install)

        publish = Facet.publish

        def traced_publish(facet, spec):
            ep = publish(facet, spec)
            tr.endpoints.append(ep)
            return ep

        self._patch(Facet, "publish", traced_publish)

        stop_facet = Actor.stop_facet

        def traced_stop_facet(actor, facet, continuation=None):
            tr.count("facets.stop_facet")
            return stop_facet(actor, facet, continuation)

        self._patch(Actor, "stop_facet", traced_stop_facet)

        on_timeout = market.on_timeout

        def traced_on_timeout(f, delay_ms, body):
            tr.count("forms.on_timeout")
            return on_timeout(f, delay_ms, body)

        self._patch(market, "on_timeout", traced_on_timeout)

    def uninstall(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(s.to_json(i) + "\n")


def _count_endpoints(root) -> int:
    """Endpoints the facet dispatch walks for one event: all of them."""
    n = 0
    todo = [root]
    while todo:
        f = todo.pop()
        n += len(f.endpoints)
        todo.extend(f.children)
    return n


# ---------------------------------------------------------------------------
# Reduction

# Which end-to-end metric each per-layer metric should move, and where.
MOVES = {
    "values.match.calls_per_turn": "-> turn_p50_us, turns_per_s on simple-crowd",
    "values.match.hit_ratio": "-> turn_p50_us, turns_per_s on simple-crowd",
    "values.match.self_us_per_turn": "-> turn_p50_us, turns_per_s on simple-crowd",
    "values.render.self_us_per_turn": "-> turns_per_s on ledger-fanout",
    "dataspace.trace_json.us_per_turn": "-> turns_per_s on ledger-fanout",
    "dataspace.trace_bytes_per_turn": "-> turns_per_s on ledger-fanout",
    "values.parse.self_ms": "-> setup_s on simple-crowd",
    "market.parse_script.self_ms": "-> setup_s on simple-crowd",
    "market.build.self_ms": "-> setup_s on simple-crowd",
    "dataspace.run_turn.self_us_per_turn": "-> turn_p50_us, turn_p99_us on simple-crowd",
    "dataspace.run_turn.self_us_p99": "-> turn_p50_us, turn_p99_us on simple-crowd",
    "dataspace.live_actor_ratio": "-> turn_p50_us, turn_p99_us on simple-crowd",
    "dataspace.deliveries_per_turn": "-> turn_p50_us, turn_p99_us on simple-crowd",
    "dataspace.interests": "-> turn_p50_us, turn_p99_us on simple-crowd",
    "dataspace.bag_keys": "-> turns_per_s, peak_rss_mb on extended-days",
    "dataspace.bag_live_ratio": "-> turns_per_s, peak_rss_mb on extended-days",
    "dataspace.inject_message.us_per_call": "-> input_p50_ms on ledger-fanout",
    "dataspace.turns_per_input": "invariant count",
    "facets.handle_event.self_us_per_turn": "-> turns_per_s on ledger-fanout (~0 on simple-crowd)",
    "facets.endpoints_per_event": "-> turns_per_s on ledger-fanout (~0 on simple-crowd)",
    "facets.handlers_per_event": "invariant count",
    "facets.dispatch_hit_ratio": "-> turns_per_s on ledger-fanout (~0 on simple-crowd)",
    "facets.recomputes_per_turn": "-> turns_per_s on ledger-fanout (~0 on simple-crowd)",
    "facets.stop_facet.calls_per_input": "-> turns_per_s on ledger-fanout (~0 on simple-crowd)",
    "market.handlers.self_us_per_turn": "-> inputs_per_s on extended-days",
    "market.orders_placed": "invariant count",
    "drivers.advance.calls": "-> input_p90_ms on extended-days",
    "drivers.advance.self_ms_per_call": "-> input_p90_ms on extended-days",
    "drivers.ticks_per_advance": "invariant count",
    "drivers.timers_live_max": "-> input_p90_ms on extended-days",
    "forms.on_timeout.calls_per_input": "-> input_p90_ms on extended-days",
    "trace.inputs_per_s": "traced throughput; compare with untraced inputs_per_s",
}


def reduce_spans(tr: Tracer) -> dict:
    """Per-layer metrics from the recorded spans and counters.

    Only inputs count ("per turn" means per turn run during an input); the
    set-up phase shows in the ``*.self_ms`` metrics, per session.
    """
    spans = tr.spans
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start

    def self_time(i):
        s = spans[i]
        t = s.end - s.start - child_time[i]
        if s.leaf:
            t -= sum(acc[2] for acc in s.leaf.values())
        return t

    total_self = {}
    calls = {}
    folded = {}  # name -> [calls, hits, seconds] during inputs
    run_turn_self = []
    turn_info = []
    dispatch_info = []
    advance = []  # self seconds per advance call
    json_bytes = 0
    setup_self = {}
    for i, s in enumerate(spans):
        if s.input < 0:
            if s.name in ("values.parse", "market.parse_script", "market.build"):
                setup_self[s.name] = setup_self.get(s.name, 0.0) + self_time(i)
            continue
        st = self_time(i)
        total_self[s.name] = total_self.get(s.name, 0.0) + st
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.leaf:
            for name, acc in s.leaf.items():
                f = folded.setdefault(name, [0, 0, 0.0])
                for k in range(3):
                    f[k] += acc[k]
        if s.name == "dataspace.run_turn":
            run_turn_self.append(st)
            turn_info.append(s.info)
        elif s.name == "facets.handle_event" and s.info is not None:
            dispatch_info.append(s.info)
        elif s.name == "dataspace.trace_json":
            json_bytes += s.info["bytes"]
        elif s.name == "drivers.advance":
            advance.append(st)
    # Clock ticks: inject_message spans opened directly inside an advance.
    ticks = sum(
        1
        for s in spans
        if s.name == "dataspace.inject_message"
        and s.parent >= 0
        and spans[s.parent].name == "drivers.advance"
    )

    turns = max(1, len(run_turn_self))
    inputs = max(1, tr.inputs)
    sessions = max(1, tr.session)
    fmatch = folded.get("facets.match", [0, 0, 0.0])
    match = [a + b for a, b in zip(folded.get("dataspace.match", [0, 0, 0.0]), fmatch)]
    render = folded.get("values.render", [0, 0, 0.0])
    events = max(1, len(dispatch_info))
    endpoints = sum(d["endpoints"] for d in dispatch_info)
    handlers = sum(d["handlers"] for d in dispatch_info)
    timers = [t["timers"] for t in turn_info if "timers" in t]
    us, ms = 1e6, 1e3

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    m = {
        "values.match.calls_per_turn": (match[0] / turns, "count"),
        "values.match.hit_ratio": (match[1] / match[0] if match[0] else 0.0, "ratio"),
        "values.match.self_us_per_turn": (match[2] * us / turns, "us"),
        "values.render.self_us_per_turn": (render[2] * us / turns, "us"),
        "dataspace.trace_json.us_per_turn": (_total("dataspace.trace_json", spans) * us / turns, "us"),
        "dataspace.trace_bytes_per_turn": (json_bytes / turns, "bytes"),
        "values.parse.self_ms": (setup_self.get("values.parse", 0.0) * ms / sessions, "ms"),
        "market.parse_script.self_ms": (
            setup_self.get("market.parse_script", 0.0) * ms / sessions,
            "ms",
        ),
        "market.build.self_ms": (setup_self.get("market.build", 0.0) * ms / sessions, "ms"),
        "dataspace.run_turn.self_us_per_turn": (sum(run_turn_self) * us / turns, "us"),
        "dataspace.run_turn.self_us_p99": (
            percentile(run_turn_self, 0.99) * us if run_turn_self else 0.0,
            "us",
        ),
        "dataspace.live_actor_ratio": (mean([t["live_actor_ratio"] for t in turn_info]), "ratio"),
        "dataspace.deliveries_per_turn": (mean([t["deliveries"] for t in turn_info]), "count"),
        "dataspace.interests": (mean([t["interests"] for t in turn_info]), "count"),
        "dataspace.bag_keys": (mean(tr.samples.get("bag_keys", [])), "count"),
        "dataspace.bag_live_ratio": (mean(tr.samples.get("bag_live_ratio", [])), "ratio"),
        "dataspace.inject_message.us_per_call": (
            _total("dataspace.inject_message", spans) * us
            / max(1, calls.get("dataspace.inject_message", 0)),
            "us",
        ),
        "dataspace.turns_per_input": (len(run_turn_self) / inputs, "count"),
        "facets.handle_event.self_us_per_turn": (
            total_self.get("facets.handle_event", 0.0) * us / turns,
            "us",
        ),
        "facets.endpoints_per_event": (endpoints / events, "count"),
        "facets.handlers_per_event": (handlers / events, "count"),
        "facets.dispatch_hit_ratio": (fmatch[1] / fmatch[0] if fmatch[0] else 0.0, "ratio"),
        "facets.recomputes_per_turn": (tr.counts.get("recomputes", 0) / turns, "count"),
        "facets.stop_facet.calls_per_input": (tr.counts.get("facets.stop_facet", 0) / inputs, "count"),
        "market.handlers.self_us_per_turn": (
            total_self.get("market.handlers", 0.0) * us / turns,
            "us",
        ),
        "market.orders_placed": (tr.counts.get("orders_placed", 0), "count"),
        "drivers.advance.calls": (len(advance), "count"),
        "drivers.advance.self_ms_per_call": (mean(advance) * ms, "ms"),
        "drivers.ticks_per_advance": (ticks / len(advance) if advance else 0.0, "count"),
        "drivers.timers_live_max": (max(timers) if timers else 0, "count"),
        "forms.on_timeout.calls_per_input": (tr.counts.get("forms.on_timeout", 0) / inputs, "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _total(name, spans):
    """Total (not self) seconds of all input-phase spans with this name."""
    return sum(s.end - s.start for s in spans if s.name == name and s.input >= 0)
