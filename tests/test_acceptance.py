"""End-to-end acceptance gate. Each test prints one PASS/FAIL line for its
criterion; the suite doubles as the release checklist.

Criteria:
 1. randomized set-view routing vs. brute-force recomputation
 2. late observers receive exactly the present matching set, once
 3. crash cleanup: no leaked assertions, no stop handlers on crash
 4. derived forms trace-identical to their hand expansions
 5. deterministic dispatch of contradictory events in one batch
 6. market arithmetic, in integers, on the five canonical order paths and in cents
 7. money conservation at every quiescent point of random scripts
 8. day-boundary persistence: split-day run equals single-day run
 9. extended scenario: min-price selection and empty-market fallback
10. byte-identical traces across repeated seeded runs
"""

import random
from io import StringIO

from conftest import drive_cmd, named_puppet_boot, spawn_recorder
from facetspace import Dataspace, cap, lit, rec, rpat, sym
from facetspace.dataspace import Assert
from facetspace.drivers import Clock, advance_virtual_time, spawn_timer_driver
from facetspace.expansions import check_form
from facetspace.market import (
    BankHandle,
    BuyerHandle,
    bank_boot,
    broker_boot,
    build_scenario,
    default_config,
    market_clock_boot,
    parse_script,
    run_scenario,
    scripted_buyer_boot,
    seller_boot,
    wallet_boot,
)
from facetspace.values import Integer, Record, Unique, parse_all


def report(num, desc, ok):
    print("\n[criterion %02d] %s: %s" % (num, desc, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s" % (num, desc)


CELL = rpat("cell", cap("k"))


# ---------------------------------------------------------------------------
# 1. set-view routing

def _alternation_ok(events, present):
    seen = set()
    for op, v in events:
        if op == "+":
            if v in seen:
                return False
            seen.add(v)
        elif op == "-":
            if v not in seen:
                return False
            seen.remove(v)
    return seen == present


def test_criterion_1_set_view_routing():
    rng = random.Random(1)
    mismatches = 0
    for _ in range(500):
        ds = Dataspace()
        r = spawn_recorder(ds, CELL)
        puppets = ["p0", "p1", "p2"]
        for name in puppets:
            ds.spawn(named_puppet_boot(name))
        ds.run_until_quiescent()
        holdings = {name: set() for name in puppets}
        for step in range(10):
            name = rng.choice(puppets)
            v = rec("cell", rng.randrange(5))
            if holdings[name] and rng.random() < 0.45:
                v = rng.choice(sorted(holdings[name], key=repr))
                holdings[name].discard(v)
                ds.inject_message(drive_cmd(name, "do-retract", v))
            else:
                holdings[name].add(v)
                ds.inject_message(drive_cmd(name, "do-assert", v))
            if step == 5:
                ds.run_until_quiescent()
                present = {v for v in ds.query(CELL)}
                if not _alternation_ok(r.events, present):
                    mismatches += 1
        ds.run_until_quiescent()
        present = {v for v in ds.query(CELL)}
        if not _alternation_ok(r.events, present):
            mismatches += 1
    report(1, "set-view routing matches brute force over 500 schedules", mismatches == 0)


# ---------------------------------------------------------------------------
# 2. initial interest

def test_criterion_2_late_observer():
    rng = random.Random(2)
    failures = 0
    for _ in range(200):
        ds = Dataspace()
        ds.spawn(named_puppet_boot("a"))
        ds.run_until_quiescent()
        matching = {rec("cell", k) for k in range(8) if rng.random() < 0.5}
        for v in sorted(matching, key=repr):
            ds.inject_message(drive_cmd("a", "do-assert", v))
        if rng.random() < 0.5:
            ds.inject_message(drive_cmd("a", "do-assert", rec("noise", rng.randrange(3))))
        ds.run_until_quiescent()
        r = spawn_recorder(ds, CELL)
        ds.run_until_quiescent()
        if matching:
            ok = (
                len(r.patches) == 1
                and set(r.patches[0].added) == matching
                and len(r.patches[0].added) == len(matching)
                and r.patches[0].removed == ()
            )
        else:
            ok = r.patches == []
        failures += 0 if ok else 1
    report(2, "late observers get exactly the present matching set, once", failures == 0)


# ---------------------------------------------------------------------------
# 3. crash cleanup

def _poisoned(boot, token, stopped):
    """boot, plus a handler that crashes on (poison token) and a stop
    handler that records token in stopped."""

    def wrapped(f):
        f.on_stop(lambda sf: stopped.append(token))
        f.on_message(
            rpat("poison", lit(sym(token))), lambda hf, _b: hf.no_such_method()
        )
        boot(f)

    return wrapped


def _poisonable_market(ds, stopped):
    spawn_timer_driver(ds, Clock("virtual"))
    ds.spawn(market_clock_boot(0, 0))
    bank = BankHandle()
    bank.balances[sym("a1")] = 1000
    aids = {
        "bank": ds.spawn(_poisoned(bank_boot(bank), "bank", stopped)),
        "wallet": ds.spawn(_poisoned(wallet_boot(), "wallet", stopped)),
        "seller": ds.spawn(_poisoned(seller_boot(40), "seller", stopped)),
        "broker": ds.spawn(_poisoned(broker_boot(), "broker", stopped)),
    }
    ds.spawn(scripted_buyer_boot(BuyerHandle("b1", sym("a1"))))
    return aids


def test_criterion_3_crash_cleanup():
    failures = []
    for target in ["bank", "wallet", "seller", "broker"]:
        for point in ["idle", "mid-order"]:
            ds = Dataspace()
            stopped = []
            aids = _poisonable_market(ds, stopped)
            ds.run_until_quiescent()
            if point == "mid-order":
                # park the broker mid-flight: funds held, waiting on a price
                # the seller will never publish at or below max
                ds.inject_message(rec("place-order", sym("b1"), sym("o1"), 5, 30))
                ds.run_until_quiescent()
            aid = aids[target]
            ds.inject_message(rec("poison", sym(target)))
            ds.run_until_quiescent()
            leaked = [v for v, per in ds.bag.items() if per.get(aid)]
            if ds.is_alive(aid) or leaked or stopped:
                failures.append((target, point, leaked))
    report(3, "crashed actors leak nothing and run no stop handlers", failures == [])


# ---------------------------------------------------------------------------
# 4. expansion equivalence

def test_criterion_4_expansion_equivalence():
    ok = True
    for form in ("during", "state-machine"):
        for _i, got, want in check_form(form):
            ok = ok and got == want
    report(4, "during/state-machine trace-identical to hand expansions", ok)


# ---------------------------------------------------------------------------
# 5. contradictory events in one batch

def _contradictory_run():
    sink = StringIO()
    ds = Dataspace(trace_sink=sink)
    ds.spawn(market_clock_boot(0, 0))
    bank = BankHandle()
    bank.balances[sym("a1")] = 1000
    ds.spawn(bank_boot(bank))
    ds.spawn(wallet_boot())
    ds.spawn(broker_boot())
    ds.spawn(named_puppet_boot("a"))
    the_order = rec("order", Unique(9999), sym("a1"), 5, 50)
    result_pat = rpat("order-result", lit(the_order), cap("ans"))
    spawn_recorder(ds, result_pat)  # a standing observer keeps the cache alive
    ds.run_until_quiescent()
    ds.inject_message(drive_cmd("a", "do-assert", the_order))
    ds.run_until_quiescent()  # funded, waiting for a price
    # one turn delivers both: price appears AND the order disappears
    ds.inject_message(
        drive_cmd(
            "a",
            "do-batch",
            [rec("do-assert", rec("price", 40)), rec("do-retract", the_order)],
        )
    )
    ds.run_until_quiescent()
    ds.inject_message(drive_cmd("a", "do-assert", rec("purchase-result", the_order, True)))
    ds.run_until_quiescent()
    results = ds.query(result_pat)
    answer = results[0].fields[1].name if results else None
    return answer, bank.balances[sym("a1")], sink.getvalue()


def test_criterion_5_dispatch_order_determinism():
    runs = [_contradictory_run() for _ in range(50)]
    answers = {a for a, _, _ in runs}
    balances = {b for _, b, _ in runs}
    traces = {t for _, _, t in runs}
    ok = answers == {"fulfilled"} and balances == {800} and len(traces) == 1
    report(5, "confirmation-first dispatch wins over cancellation, 50/50 runs", ok)


# ---------------------------------------------------------------------------
# 6. market arithmetic

def _run(cfg, text):
    r = run_scenario(cfg, parse_script(parse_all(text)))
    return r.order_outcomes, r.final_balances


def test_criterion_6_market_arithmetic():
    cases = [
        ("happy", default_config("simple"),
         "(place b1 o1 5 50)(expect-quiescent)",
         {"o1": "fulfilled"}, {"a1": 800}),
        ("insufficient", default_config("simple", accounts={"a1": 100}),
         "(place b1 o1 5 50)(expect-quiescent)",
         {"o1": "insufficient-funds"}, {"a1": 100}),
        ("no-price-match", default_config("simple", sellers=[60]),
         "(place b1 o1 5 50)(expect-quiescent)",
         {"o1": "no-price-match"}, {"a1": 1000}),
        ("cancel-before-funding", default_config("simple"),
         "(place b1 o1 5 50)(cancel b1 o1)(expect-quiescent)",
         {"o1": "canceled"}, {"a1": 1000}),
        ("cancel-after-funding", default_config("simple", sellers=[]),
         "(place b1 o1 5 50)(expect-quiescent)(cancel b1 o1)(expect-quiescent)",
         {"o1": "canceled"}, {"a1": 1000}),
        # amounts are in minor units: 65.61 at 2 x 0.49 from a 2.08 hold
        ("cents", default_config("simple", accounts={"a1": 6561}, sellers=[49]),
         "(place b1 o1 2 208)(advance 400)",
         {"o1": "fulfilled"}, {"a1": 6463}),
    ]
    bad = []
    for name, cfg, text, want_out, want_bal in cases:
        out, bal = _run(cfg, text)
        # 6463.0 == 6463: only the type tells a float balance apart
        if out != want_out or bal != want_bal or any(type(v) is not int for v in bal.values()):
            bad.append((name, out, bal))
    report(6, "order arithmetic exact, in integers, on all five canonical paths and in cents", bad == [])


# ---------------------------------------------------------------------------
# 7. money conservation

def _spent_from_trace(trace):
    spend = {}
    confirmed = set()
    for record in trace:
        for a in record.actions:
            if isinstance(a, Assert) and isinstance(a.v, Record):
                if a.v.label == sym("purchase-request"):
                    oid, n, actual = a.v.fields
                    spend[oid] = n.n * actual.n
                elif a.v.label == sym("purchase-result") and a.v.fields[1].b:
                    confirmed.add(a.v.fields[0])
    return sum(spend[o] for o in confirmed if o in spend)


def _conserved(ds, bank, initial_total):
    pending = sum(
        v.fields[2].n
        for v in ds.query(rpat("deposit-funds", cap("i"), cap("a"), cap("m")))
        if v.fields[0] not in bank.processed
    )
    held = sum(
        v.fields[2].n
        for v in ds.query(rpat("withdraw-funds", cap("i"), cap("a"), cap("m")))
        if bank.processed.get(v.fields[0]) is True
    )
    spent = _spent_from_trace(ds.trace)
    return bank.total() + pending + held + spent == initial_total


def test_criterion_7_money_conservation():
    rng = random.Random(7)
    violations = 0
    for _ in range(100):
        cfg = default_config(
            "simple",
            accounts={"a1": 1000, "a2": 600},
            buyers=[("b1", "a1"), ("b2", "a2")],
            open_ms=300,
            closed_ms=100,
        )
        res = build_scenario(cfg)
        ds, bank = res.ds, res.bank
        initial = bank.total()
        ds.run_until_quiescent()
        refs = []
        for step in range(rng.randrange(4, 9)):
            kind = rng.choice(["place", "place", "cancel", "advance"])
            if kind == "place":
                ref = "o%d" % len(refs)
                refs.append(ref)
                buyer = rng.choice(["b1", "b2"])
                ds.inject_message(
                    rec("place-order", sym(buyer), sym(ref),
                        rng.randrange(1, 8), rng.choice([30, 45, 60]))
                )
            elif kind == "cancel" and refs:
                buyer = rng.choice(["b1", "b2"])
                ds.inject_message(rec("cancel-order", sym(buyer), rng.choice(refs)))
            else:
                ds.run_until_quiescent()
                advance_virtual_time(ds, rng.randrange(50, 400))
            ds.run_until_quiescent()
            if not _conserved(ds, bank, initial):
                violations += 1
    report(7, "money conserved at every quiescent checkpoint, 100 scripts", violations == 0)


# ---------------------------------------------------------------------------
# 8. day-boundary persistence

def test_criterion_8_day_boundary_persistence():
    script = "(advance 120)(place b1 o1 5 50)(advance 600)(expect-quiescent)"
    split = default_config("extended", open_ms=150, closed_ms=50, wait_period=100)
    single = default_config("extended", open_ms=100000, closed_ms=0, wait_period=100)
    out_split, bal_split = _run(split, script)
    out_single, bal_single = _run(single, script)
    ok = out_split == out_single == {"o1": "fulfilled"} and bal_split == bal_single
    report(8, "split-day run matches single-day balances and outcomes", ok)


# ---------------------------------------------------------------------------
# 9. extended scenario

def test_criterion_9_extended_selection():
    # min-price selection between s1:40 and s2:55 under max 50
    cfg = default_config("extended")  # sellers {s1:40, s2:55}, fee-0 broker
    res = run_scenario(cfg, parse_script(parse_all("(place b1 o1 5 50)(advance 400)(expect-quiescent)")))
    purchases = [
        a.v
        for t in res.ds.trace
        for a in t.actions
        if isinstance(a, Assert) and isinstance(a.v, Record) and a.v.label == sym("purchase-request")
    ]
    min_price_ok = (
        res.order_outcomes == {"o1": "fulfilled"}
        and res.final_balances == {"a1": 800}
        and purchases != []
        and all(p.fields[1] == sym("s1") and p.fields[3] == Integer(40) for p in purchases)
    )

    # all prices retracted during the selection window -> no-price-match
    ds = Dataspace()
    spawn_timer_driver(ds, Clock("virtual"))
    ds.spawn(market_clock_boot(0, 0))
    bank = BankHandle()
    bank.balances[sym("a1")] = 1000
    ds.spawn(bank_boot(bank))
    ds.spawn(wallet_boot())
    ds.spawn(broker_boot(name="k1", fee=0, wait_period=100))
    ds.spawn(named_puppet_boot("a"))
    buyer = BuyerHandle("b1", sym("a1"))
    ds.spawn(scripted_buyer_boot(buyer, extended=True, wait_period=100))
    ds.run_until_quiescent()
    ds.inject_message(drive_cmd("a", "do-assert", rec("price", sym("s1"), 40)))
    ds.inject_message(rec("place-order", sym("b1"), sym("o1"), 5, 50))
    ds.run_until_quiescent()
    advance_virtual_time(ds, 100)  # buyer picks the broker; broker starts collecting
    ds.inject_message(drive_cmd("a", "do-retract", rec("price", sym("s1"), 40)))
    ds.run_until_quiescent()
    advance_virtual_time(ds, 200)  # selection window elapses with no sellers
    ds.run_until_quiescent()
    empty_ok = buyer.outcomes == {"o1": "no-price-match"} and bank.balances[sym("a1")] == 1000

    report(9, "extended: min-price selection and empty-market refund", min_price_ok and empty_ok)


# ---------------------------------------------------------------------------
# 10. determinism

def _traced_run(cfg_factory, text):
    sink = StringIO()
    run_scenario(cfg_factory(), parse_script(parse_all(text)), trace_sink=sink)
    return sink.getvalue()


def test_criterion_10_byte_identical_traces():
    runs = [
        (lambda: default_config("simple"), "(place b1 o1 5 50)(expect-quiescent)"),
        (lambda: default_config("simple", accounts={"a1": 100}), "(place b1 o1 5 50)(expect-quiescent)"),
        (lambda: default_config("simple", sellers=[60]), "(place b1 o1 5 50)(expect-quiescent)"),
        (lambda: default_config("simple"), "(place b1 o1 5 50)(cancel b1 o1)(expect-quiescent)"),
        (lambda: default_config("extended"), "(place b1 o1 5 50)(advance 400)(expect-quiescent)"),
        (
            lambda: default_config("extended", open_ms=150, closed_ms=50),
            "(advance 120)(place b1 o1 5 50)(advance 600)(expect-quiescent)",
        ),
    ]
    ok = True
    for cfg_factory, text in runs:
        a = _traced_run(cfg_factory, text)
        b = _traced_run(cfg_factory, text)
        ok = ok and a == b and a != ""
    for form in ("during", "state-machine"):
        first = check_form(form)
        second = check_form(form)
        ok = ok and all(x[1] == y[1] for x, y in zip(first, second))
    ok = ok and len({_contradictory_run()[2] for _ in range(2)}) == 1
    report(10, "repeated seeded runs produce byte-identical traces", ok)
