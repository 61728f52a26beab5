"""The market simulation: protocol shapes, actors, and scripted scenarios.

The cast: a clock alternating trading days, a bank holding accounts, a
wallet fronting the bank for the broker, sellers advertising prices, brokers
working each order through funding, choosing and purchase, scripted buyers,
and small one-shot actors for deposits and order-result caching.

The extended variant names its sellers and brokers: brokers pick the
cheapest seller after a collection window, buyers pick the cheapest broker.
Both variants run the same actors; they differ in the optional name field of
the price, order, purchase-request and purchase-result records.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .dataspace import Dataspace
from .drivers import Clock, advance_virtual_time, spawn_timer_driver
from .forms import during, on_timeout, query_map, state_machine, stop_when
from .values import (
    Decimal,
    Integer,
    Record,
    Symbol,
    Value,
    cap,
    lit,
    rec,
    render,
    rpat,
    sym,
)

log = logging.getLogger(__name__)

FULFILLED = sym("fulfilled")
CANCELED = sym("canceled")
INSUFFICIENT_FUNDS = sym("insufficient-funds")
NO_PRICE_MATCH = sym("no-price-match")
ANSWERS = (CANCELED, INSUFFICIENT_FUNDS, NO_PRICE_MATCH, FULFILLED)

TRADING_DAY_OPEN = rec("trading-day-open")


def _num(v: Value):
    if isinstance(v, Integer):
        return v.n
    if isinstance(v, Decimal):
        return v.x
    raise TypeError("not a number: %r" % (v,))


def _names(name) -> tuple:
    """The optional name field of the price, order, purchase-request and
    purchase-result records: empty in the simple scenario."""
    if name is None:
        return ()
    return (sym(name) if isinstance(name, str) else name,)


# ---------------------------------------------------------------------------
# Clock actor: alternates the trading-day-open assertion.

def market_clock_boot(open_ms: int, closed_ms: int):
    def boot(f):
        if closed_ms <= 0:
            f.publish(TRADING_DAY_OPEN)  # degenerate config: always open
            return

        def open_state(sf):
            sf.publish(TRADING_DAY_OPEN)
            on_timeout(sf, open_ms, lambda hf: goto("closed"))

        def closed_state(sf):
            on_timeout(sf, closed_ms, lambda hf: goto("open"))

        goto = state_machine(f, "day-cycle", [("open", open_state), ("closed", closed_state)])

    return boot


def spawn_clock(ds, open_ms: int, closed_ms: int) -> int:
    return ds.spawn(market_clock_boot(open_ms, closed_ms))


# ---------------------------------------------------------------------------
# Bank

@dataclass
class BankHandle:
    actor_id: int = -1
    balances: dict = field(default_factory=dict)
    processed: dict = field(default_factory=dict)  # txn id Value -> ok

    def total(self):
        return sum(self.balances.values())


def bank_boot(handle: BankHandle):
    """Responds to withdraw/deposit requests while trading is open.

    Requests are idempotent per transaction id: a request that stays
    asserted across a day boundary is answered again, not re-executed.
    """

    def withdraw(tid, acct, amt):
        if tid in handle.processed:
            return handle.processed[tid]
        ok = handle.balances.get(acct, 0) >= amt and acct in handle.balances
        if ok:
            handle.balances[acct] -= amt
        handle.processed[tid] = ok
        return ok

    def deposit(tid, acct, amt):
        if tid in handle.processed:
            return handle.processed[tid]
        # no amount check: deposit_back sends a negative amount when a
        # named broker's fee exceeds what the order saved
        ok = acct in handle.balances
        if ok:
            handle.balances[acct] += amt
        handle.processed[tid] = ok
        return ok

    def boot(f):
        def open_body(tf, _b):
            def withdraw_body(cf, b):
                ok = withdraw(b["id"], b["acct"], _num(b["amt"]))
                cf.publish(rec("bank-response", b["id"], ok))

            def deposit_body(cf, b):
                ok = deposit(b["id"], b["acct"], _num(b["amt"]))
                cf.publish(rec("bank-response", b["id"], ok))

            during(tf, rpat("withdraw-funds", cap("id"), cap("acct"), cap("amt")), withdraw_body)
            during(tf, rpat("deposit-funds", cap("id"), cap("acct"), cap("amt")), deposit_body)

        during(f, rpat("trading-day-open"), open_body)

    return boot


def spawn_bank(ds, accounts: dict) -> BankHandle:
    handle = BankHandle()
    for acct, balance in accounts.items():
        handle.balances[sym(acct) if isinstance(acct, str) else acct] = balance
    handle.actor_id = ds.spawn(bank_boot(handle))
    return handle


# ---------------------------------------------------------------------------
# Deposit helper: a one-shot actor returning funds to an account.

def deposit_boot(acct: Value, amt):
    def boot(f):
        txn = f.unique()
        f.publish(rec("deposit-funds", txn, acct, amt))
        stop_when(f, "asserted", rpat("bank-response", lit(txn), cap("ok")))

    return boot


def deposit_back(f, acct: Value, amt):
    if amt:
        f.spawn(deposit_boot(acct, amt))


# ---------------------------------------------------------------------------
# Seller

def seller_boot(desired, name=None):
    """Anonymous seller when name is None; named (extended) seller otherwise."""
    who = _names(name)

    def boot(f):
        def open_body(tf, _b):
            tf.publish(rec("price", *who, desired))

            def respond(cf, b):
                cf.publish(rec("purchase-result", b["id"], *who, _num(b["offered"]) >= desired))

            during(tf, rpat("purchase-request", cap("id"), *who, cap("count"), cap("offered")), respond)

        during(f, rpat("trading-day-open"), open_body)

    return boot


def spawn_seller(ds, desired, name=None) -> int:
    return ds.spawn(seller_boot(desired, name))


# ---------------------------------------------------------------------------
# Order-result caching: keeps the answer visible until nobody cares.

def result_cache_boot(the_order: Value, answer: Symbol):
    def boot(f):
        f.publish(rec("order-result", the_order, answer))
        live = f.field(0)
        meta = rpat("observe", rpat("order-result", lit(the_order), cap("p")))

        def on_interest(hf, _b):
            live(live() + 1)

        # The set view announces a disappearance only after its appearance,
        # so a count back at 0 means every interested party has gone.
        def on_disinterest(hf, _b):
            live(live() - 1)
            if live() == 0:
                hf.actor.stop_facet(f)

        f.on_asserted(meta, on_interest)
        f.on_retracted(meta, on_disinterest)

    return boot


# ---------------------------------------------------------------------------
# Wallet: fronts the bank for the broker, remembering funding across days.

def wallet_boot():
    def boot(f):
        processed = f.field(frozenset())

        def on_need(hf, b):
            the_order, acct, amt_v = b["order"], b["acct"], b["amt"]
            if the_order in processed():
                return
            processed(processed() | {the_order})

            def withdraw_body(wf):
                wf.publish(rec("withdraw-funds", the_order, acct, amt_v))

                def response_body(cf, rb):
                    ok = rb["ok"]
                    cf.publish(rec("funds-held", the_order, acct, amt_v, ok))

                    def on_result(hf2, ob):
                        ans = ob["ans"]

                        def cont(pf):
                            if ok.b and ans != FULFILLED:
                                deposit_back(pf, acct, _num(amt_v))

                        hf2.actor.stop_facet(wf, cont)

                    cf.on_asserted(rpat("order-result", lit(the_order), cap("ans")), on_result)

                during(wf, rpat("bank-response", lit(the_order), cap("ok")), response_body)

            hf.react(withdraw_body)

        f.on_asserted(rpat("funds-needed", cap("order"), cap("acct"), cap("amt")), on_need)

    return boot


def spawn_wallet(ds) -> int:
    return ds.spawn(wallet_boot())


# ---------------------------------------------------------------------------
# Broker

def broker_boot(name=None, fee=0, wait_period: int = 100):
    """Simple broker when name is None: takes the first price it sees.
    Named (extended) broker otherwise: advertises its fee and buys from the
    cheapest seller after a ``wait_period`` collection window."""
    who = _names(name)

    def boot(f):
        def open_body(tf, _b):
            if who:
                tf.publish(rec("broker-fee", *who, fee))

            def on_order(hf, b):
                the_order = rec("order", *who, b["id"], b["acct"], b["n"], b["maxp"])
                hf.react(lambda of: _work_on_one_order(of, the_order, who, b, fee, wait_period))

            tf.on_asserted(rpat("order", *who, cap("id"), cap("acct"), cap("n"), cap("maxp")), on_order)

        during(f, rpat("trading-day-open"), open_body)

    return boot


def _work_on_one_order(of, the_order, who, b, fee, wait_period):
    """One order as one conversation: funding, choosing a price, purchase."""
    acct = b["acct"]
    n = b["n"].n
    maxp = _num(b["maxp"])
    held = n * maxp

    # Stopping is synchronous: once the first answer stops the order facet,
    # `alive` turns every later answer away.
    def stop_with(answer: Symbol):
        if of.alive:
            of.stop(of, continuation=lambda pf: pf.spawn(result_cache_boot(the_order, answer)))

    def funding(sf):
        sf.publish(rec("funds-needed", the_order, acct, held))
        sf.on_asserted(
            lit(rec("funds-held", the_order, acct, held, True)),
            lambda hf, _b: goto("choosing"),
        )
        sf.on_asserted(
            lit(rec("funds-held", the_order, acct, held, False)),
            lambda hf, _b: stop_with(INSUFFICIENT_FUNDS),
        )
        sf.on_retracted(lit(the_order), lambda hf, _b: stop_with(CANCELED))

    # In both choosing states the price endpoints come before the cancel
    # endpoint: a price and a cancel delivered in one patch resolve to the
    # purchase (criterion 5). A cancel once funded is answered here; the
    # wallet returns the held funds when it sees the canceled order-result.
    def take_first_price(sf):
        def on_price(hf, b):
            if _num(b["actual"]) <= maxp:
                goto("purchase", None, b["actual"])
            else:
                stop_with(NO_PRICE_MATCH)

        sf.on_asserted(rpat("price", cap("actual")), on_price)
        sf.on_retracted(lit(the_order), lambda hf, _b: stop_with(CANCELED))

    def select_cheapest(sf):
        sellers = query_map(sf, rpat("price", cap("seller"), cap("actual")), "seller", "actual")
        sf.on_retracted(lit(the_order), lambda hf, _b: stop_with(CANCELED))

        def decide(hf):
            offers = sellers()
            if not offers:
                stop_with(NO_PRICE_MATCH)
                return
            seller, actual_v = min(offers.items(), key=lambda kv: (_num(kv[1]), render(kv[0])))
            if _num(actual_v) <= maxp:
                goto("purchase", seller, actual_v)
            else:
                stop_with(NO_PRICE_MATCH)

        on_timeout(sf, wait_period, decide)

    def complete_purchase(sf, seller, actual_v):
        seller_who = _names(seller)
        actual = _num(actual_v)
        sf.publish(rec("purchase-request", the_order, *seller_who, n, actual_v))

        def on_ok(hf, _b):
            deposit_back(hf, acct, held - n * actual - fee)
            stop_with(FULFILLED)

        sf.on_asserted(lit(rec("purchase-result", the_order, *seller_who, True)), on_ok)
        # Once committed, a cancel is ignored; a named seller that withdraws
        # its price sends the order back to choosing.
        if seller_who:
            sf.on_retracted(rpat("price", *seller_who, cap("p")), lambda hf, _b: goto("choosing"))

    choosing = select_cheapest if who else take_first_price
    goto = state_machine(
        of, "order", [("funding", funding), ("choosing", choosing), ("purchase", complete_purchase)]
    )


def spawn_broker(ds, name=None, fee=0, wait_period: int = 100) -> int:
    return ds.spawn(broker_boot(name, fee, wait_period))


# ---------------------------------------------------------------------------
# Scripted buyer

@dataclass
class BuyerHandle:
    name: str
    account: Value
    actor_id: int = -1
    outcomes: dict = field(default_factory=dict)  # order ref -> answer name


def scripted_buyer_boot(handle: BuyerHandle, extended: bool = False, wait_period: int = 100):
    """Places and cancels orders on message commands; confirms receipt of a
    result by dropping its interest in the order-result."""
    me = sym(handle.name)
    acct = handle.account

    def boot(f):
        order_facets = {}

        def make_order(ctx, ref, n_v, maxp_v, broker=None):
            the_order = rec("order", *_names(broker), ctx.unique(), acct, n_v, maxp_v)

            def await_body(af):
                order_facets[ref] = af.react(lambda obf: obf.publish(the_order))

                def on_result(hf, rb):
                    handle.outcomes[ref] = rb["ans"].name
                    hf.actor.stop_facet(af)

                af.on_asserted(rpat("order-result", lit(the_order), cap("ans")), on_result)

            ctx.react(await_body)

        def place(hf, b):
            ref = b["ref"].name
            if extended:

                def selection_body(self_):
                    fees = query_map(self_, rpat("broker-fee", cap("b"), cap("fee")), "b", "fee")

                    def decide(hf2):
                        offers = fees()
                        if offers:
                            broker, _fee = min(
                                offers.items(), key=lambda kv: (_num(kv[1]), render(kv[0]))
                            )
                            hf2.actor.stop_facet(
                                self_,
                                lambda pf: make_order(pf, ref, b["n"], b["maxp"], broker),
                            )
                        else:
                            handle.outcomes[ref] = "no-broker"
                            hf2.actor.stop_facet(self_)

                    on_timeout(self_, wait_period, decide)

                hf.react(selection_body)
            else:
                make_order(hf, ref, b["n"], b["maxp"])

        def cancel(hf, b):
            ref = b["ref"].name
            fct = order_facets.get(ref)
            if fct is None or not fct.alive:
                log.warning("buyer %s: cancel of unknown/complete order %s", handle.name, ref)
                return
            hf.actor.stop_facet(fct)

        f.on_message(rpat("place-order", lit(me), cap("ref"), cap("n"), cap("maxp")), place)
        f.on_message(rpat("cancel-order", lit(me), cap("ref")), cancel)

    return boot


def spawn_scripted_buyer(ds, name, account, extended=False, wait_period=100) -> BuyerHandle:
    handle = BuyerHandle(name, sym(account) if isinstance(account, str) else account)
    handle.actor_id = ds.spawn(scripted_buyer_boot(handle, extended, wait_period))
    return handle


# ---------------------------------------------------------------------------
# Bank-account actor (standalone example of fields and dataflow)

def bank_account_boot():
    """Opens an account per create-account assertion; publishes the live
    balance and credits deposits sent as messages."""

    def boot(f):
        next_account = f.field(0)

        def on_create(hf, b):
            account_number = next_account()
            next_account(next_account() + 1)

            def account_body(af):
                bal = af.field(_num(b["initial"]))
                af.publish(rec("account-for", b["client"], account_number))
                af.publish(lambda: rec("balance", account_number, bal()))
                af.on_message(
                    rpat("deposit", lit(rec("acct", account_number)), cap("amt")),
                    lambda hf2, db: bal(bal() + _num(db["amt"])),
                )

            hf.react(account_body)

        f.on_asserted(rpat("create-account", cap("client"), cap("initial")), on_create)

    return boot


# ---------------------------------------------------------------------------
# Scenario harness

class ScenarioError(AssertionError):
    pass


@dataclass
class ScenarioConfig:
    """The cast's shape names the scenario: sellers as a list of prices and
    brokers as a count run the simple one, both as dicts the extended one."""

    accounts: dict = field(default_factory=lambda: {"a1": 1000})
    buyers: list = field(default_factory=lambda: [("b1", "a1")])
    sellers: object = field(default_factory=lambda: [40])  # extended: {name: price}
    brokers: object = 1  # extended: {name: fee}
    open_ms: int = 1000
    closed_ms: int = 500  # 0: always open
    wait_period: int = 100


# Script steps and the kind of value each field takes.
_STEP_FIELDS = {
    "advance": ("ms",),
    "place": ("name", "name", "count", "price"),  # buyer ref n maxp
    "cancel": ("name", "name"),  # buyer ref
    "expect-quiescent": (),
    "assert-balance": ("account", "amount"),
    "assert-order-result": ("name", "name"),  # ref answer
}

# kind -> (description, check, what the step tuple keeps of the field)
_FIELD_KINDS = {
    "name": ("a symbol", lambda v: isinstance(v, Symbol), lambda v: v.name),
    "account": ("a symbol", lambda v: isinstance(v, Symbol), lambda v: v),
    "ms": ("a non-negative integer", lambda v: isinstance(v, Integer) and v.n >= 0, lambda v: v.n),
    "count": ("a positive integer", lambda v: isinstance(v, Integer) and v.n > 0, lambda v: v),
    "price": (
        "a non-negative number",
        lambda v: isinstance(v, (Integer, Decimal)) and _num(v) >= 0,
        lambda v: v,
    ),
    "amount": ("a number", lambda v: isinstance(v, (Integer, Decimal)), _num),
}


def parse_script(values: list) -> list:
    """Turn script values into step tuples; raises ScenarioError naming the
    first step that is unknown or has a field of the wrong kind."""
    steps = []
    for i, v in enumerate(values, 1):
        where = "bad script step %d: %s" % (i, render(v))
        kinds = _STEP_FIELDS.get(v.label.name) if isinstance(v, Record) else None
        if kinds is None or len(v.fields) != len(kinds):
            raise ScenarioError(where + ": unknown step or wrong field count")
        step = [v.label.name]
        for pos, (kind, x) in enumerate(zip(kinds, v.fields), 1):
            what, ok, keep = _FIELD_KINDS[kind]
            if not ok(x):
                raise ScenarioError("%s: field %d must be %s" % (where, pos, what))
            step.append(keep(x))
        steps.append(tuple(step))
    return steps


def default_config(scenario: str = "simple", **overrides) -> ScenarioConfig:
    """Stock cast for CLI runs: one buyer b1 on account a1 (1000); simple
    gets one anonymous seller at 40 and one broker, extended gets sellers
    s1:40/s2:55 and brokers k1 (fee 0) and k2 (fee 5)."""
    if scenario == "extended":
        cfg = ScenarioConfig(sellers={"s1": 40, "s2": 55}, brokers={"k1": 0, "k2": 5})
    elif scenario == "simple":
        cfg = ScenarioConfig()
    else:
        raise ValueError("unknown scenario %r" % scenario)
    for k, v in overrides.items():
        if not hasattr(cfg, k):
            raise TypeError("unknown config field %r" % k)
        setattr(cfg, k, v)
    return cfg


@dataclass
class ScenarioResult:
    final_balances: dict
    order_outcomes: dict
    trace: list
    ds: Dataspace
    bank: BankHandle
    buyers: dict


def check_config(config: ScenarioConfig):
    """The cast as (extended, (name, price) sellers, (name, fee) brokers).
    Raises ValueError for a cast of mixed shape or a timing out of range."""
    sellers, brokers = config.sellers, config.brokers
    extended = isinstance(sellers, dict) and isinstance(brokers, dict)
    if extended:
        sellers, brokers = sellers.items(), brokers.items()
    elif isinstance(sellers, list) and isinstance(brokers, int):
        sellers, brokers = [(None, p) for p in sellers], [(None, 0)] * brokers
    else:
        raise ValueError(
            "sellers and brokers must be a list of prices and a count (simple) or two dicts"
            " (extended), not %s and %s" % (type(sellers).__name__, type(brokers).__name__)
        )
    for name, least in [("open_ms", 1), ("closed_ms", 0), ("wait_period", 1)]:
        value = getattr(config, name)
        if not isinstance(value, int) or value < least:
            raise ValueError("%s must be an integer >= %d, got %r" % (name, least, value))
    return extended, sellers, brokers


def build_scenario(config: ScenarioConfig, trace_sink=None) -> ScenarioResult:
    """Spawn the full cast; returns handles without running any script.
    Raises ValueError as check_config does."""
    extended, sellers, brokers = check_config(config)
    ds = Dataspace(trace_sink=trace_sink)
    spawn_timer_driver(ds, Clock("virtual"))
    spawn_clock(ds, config.open_ms, config.closed_ms)
    bank = spawn_bank(ds, config.accounts)
    spawn_wallet(ds)
    for name, desired in sellers:
        spawn_seller(ds, desired, name)
    for name, fee in brokers:
        spawn_broker(ds, name, fee, config.wait_period)
    buyers = {}
    for name, acct in config.buyers:
        buyers[name] = spawn_scripted_buyer(ds, name, acct, extended, config.wait_period)
    return ScenarioResult({}, {}, ds.trace, ds, bank, buyers)


def run_scenario(config: ScenarioConfig, script: list, trace_sink=None, max_turns=100000) -> ScenarioResult:
    """Run a scenario script to completion; raises ScenarioError on a failed
    script assertion, reporting the turn number."""
    result = build_scenario(config, trace_sink)
    ds, bank, buyers = result.ds, result.bank, result.buyers
    ds.run_until_quiescent(max_turns)

    def fail(msg):
        raise ScenarioError("turn %d: %s" % (len(ds.trace), msg))

    for step in script:
        kind = step[0]
        if kind == "advance":
            ds.run_until_quiescent(max_turns)
            advance_virtual_time(ds, step[1], max_turns)
        elif kind in ("place", "cancel"):
            _, buyer, ref, *order = step  # place also carries n and maxp
            if buyer not in buyers:
                fail("unknown buyer %s" % buyer)
            ds.inject_message(rec(kind + "-order", sym(buyer), sym(ref), *order))
        elif kind == "expect-quiescent":
            ds.run_until_quiescent(max_turns)
        elif kind == "assert-balance":
            _, acct, want = step
            got = bank.balances.get(acct)
            if got != want:
                fail("balance of %s is %r, expected %r" % (render(acct), got, want))
        elif kind == "assert-order-result":
            _, ref, want = step
            got = None
            for h in buyers.values():
                if ref in h.outcomes:
                    got = h.outcomes[ref]
            if got != want:
                fail("order %s resolved %r, expected %r" % (ref, got, want))
        else:
            fail("unknown step %r" % (step,))

    result.final_balances = {render(k): v for k, v in bank.balances.items()}
    result.order_outcomes = {
        ref: ans for h in buyers.values() for ref, ans in h.outcomes.items()
    }
    return result
