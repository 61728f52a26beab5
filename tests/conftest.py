"""Shared test helpers: externally driven puppet actors and event recorders."""

import os

from hypothesis import settings

from facetspace import Dataspace, cap, lit, rec, rpat, sym
from facetspace.dataspace import Assert, MessageEvent, PatchEvent

# HYPOTHESIS_PROFILE=ci runs every property deeper, with a fixed seed.
settings.register_profile("ci", derandomize=True, max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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


def republish_boot(f):
    """One field read by twelve computed assertions; each (bump) message
    writes it once."""
    x = f.field(0)
    for i in range(12):
        f.publish(lambda i=i: rec("cell", i, x()))
    f.on_message(rpat("bump"), lambda hf, _b: x(x() + 1))


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
            for v in event.patch.added:
                self.events.append(("+", v))
            for v in event.patch.removed:
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
