"""Golden equivalence checks: each derived form, run side by side with its
hand-written expansion into the primitives, must produce a byte-identical
trace on every scripted schedule."""

from __future__ import annotations

from io import StringIO

from .dataspace import Dataspace
from .forms import during, state_machine
from .values import cap, instantiate, rec, rpat, sym

ITEM = rpat("item", cap("x"))


def puppet_boot(f):
    """Externally driven actor: (drive (do-assert v)), (do-retract v),
    (do-send v) messages turn into the corresponding actions."""
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

    f.on_message(rpat("drive", cap("cmd")), lambda hf, b: run_cmd(hf, b["cmd"]))


def drive(label, *fields):
    return rec("drive", rec(label, *fields))


# -- during -----------------------------------------------------------------

def during_form_boot(f):
    during(f, ITEM, lambda cf, b: cf.publish(rec("seen", b["x"])))


def during_expanded_boot(f):
    def on_appear(hf, b):
        try:
            matched = instantiate(ITEM, b)
        except ValueError:  # a value holding a hole record starts no child
            return

        def child_body(cf):
            cf.on_retracted(matched, lambda cf2, _b: cf2.stop(cf))
            cf.publish(rec("seen", b["x"]))

        hf.react(child_body)

    f.on_asserted(ITEM, on_appear)


DURING_SCHEDULES = [
    [drive("do-assert", rec("item", 1))],
    [
        drive("do-assert", rec("item", 1)),
        drive("do-assert", rec("item", 2)),
        drive("do-retract", rec("item", 1)),
        drive("do-retract", rec("item", 2)),
    ],
    [
        drive("do-assert", rec("item", 1)),
        drive("do-retract", rec("item", 1)),
        drive("do-assert", rec("item", 1)),
    ],
]


# -- state machine ----------------------------------------------------------

def machine_form_boot(f):
    def one(sf):
        sf.publish(rec("state", sym("one")))
        sf.on_message(rpat("go-two", cap("n")), lambda hf, b: goto("two", b["n"]))

    def two(sf, n):
        sf.publish(rec("state", sym("two"), n))
        sf.on_message(rpat("go-one"), lambda hf, _b: goto("one"))

    goto = state_machine(f, "m", [("one", one), ("two", two)])


def machine_expanded_boot(f):
    def run_one(sf):
        sf.publish(rec("state", sym("one")))
        sf.on_message(
            rpat("go-two", cap("n")),
            lambda hf, b: hf.actor.stop_facet(sf, lambda _pf: f.react(run_two, b["n"])),
        )

    def run_two(sf, n):
        sf.publish(rec("state", sym("two"), n))
        sf.on_message(
            rpat("go-one"),
            lambda hf, _b: hf.actor.stop_facet(sf, lambda _pf: f.react(run_one)),
        )

    f.react(run_one)


MACHINE_SCHEDULES = [
    [rec("go-two", 5)],
    [rec("go-two", 1), rec("go-one"), rec("go-two", 2)],
    [rec("go-two", 3), rec("go-one"), rec("go-one"), rec("go-two", 4)],
]


# -- harness ----------------------------------------------------------------

def run_schedule(boot, schedule, with_puppet: bool) -> str:
    sink = StringIO()
    ds = Dataspace(trace_sink=sink)
    if with_puppet:
        ds.spawn(puppet_boot)
    ds.spawn(boot)
    ds.run_until_quiescent()
    for v in schedule:
        ds.inject_message(v)
        ds.run_until_quiescent()
    return sink.getvalue()


FORMS = {
    "during": (during_form_boot, during_expanded_boot, DURING_SCHEDULES, True),
    "state-machine": (machine_form_boot, machine_expanded_boot, MACHINE_SCHEDULES, False),
}


def check_form(form: str) -> list:
    """Returns [(schedule index, form trace, expanded trace)]; equality of
    each pair is the acceptance condition."""
    form_boot, expanded_boot, schedules, puppet = FORMS[form]
    return [
        (i, run_schedule(form_boot, s, puppet), run_schedule(expanded_boot, s, puppet))
        for i, s in enumerate(schedules)
    ]
