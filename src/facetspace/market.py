"""The market simulation: protocol shapes, actors, and scripted scenarios.

The cast: a clock alternating trading days, a bank holding accounts, a
wallet fronting the bank for the broker, sellers advertising prices, brokers
working each order through funding, choosing and purchase, scripted buyers,
and small one-shot actors for deposits and order-result caching.

The extended variant names its sellers and brokers: brokers pick the
cheapest seller after a collection window, buyers pick the cheapest broker.
Both variants run the same actors; they differ in the optional name field of
the price, order, purchase-request and purchase-result records.

Every amount (price, fee, balance, deposit) is an Integer in minor units,
such as cents, so market arithmetic is exact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

from .dataspace import Dataspace
from .drivers import Clock, advance_virtual_time, spawn_timer_driver
from .forms import during, on_timeout, query_map, state_machine, stop_when
from .values import (
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
    to_value,
)

log = logging.getLogger(__name__)

FULFILLED = sym("fulfilled")
CANCELED = sym("canceled")
INSUFFICIENT_FUNDS = sym("insufficient-funds")
NO_PRICE_MATCH = sym("no-price-match")

# Patterns and records that depend on no event are built once, here or in
# an actor's boot factory, so each keeps its compiled test, hash, text and
# check for as long as it is used, and a body that runs every trading day or
# every order builds none of them again.
TRADING_DAY_OPEN = rec("trading-day-open")  # the clock's assertion, and the pattern of a day
WITHDRAW_FUNDS = rpat("withdraw-funds", cap("id"), cap("acct"), cap("amt"))
DEPOSIT_FUNDS = rpat("deposit-funds", cap("id"), cap("acct"), cap("amt"))
ANY_PRICE = rpat("price", cap("actual"))
SELLER_PRICES = rpat("price", cap("seller"), cap("actual"))
BROKER_FEES = rpat("broker-fee", cap("b"), cap("fee"))


def _sym(x):
    return sym(x) if isinstance(x, str) else x


def _names(name) -> tuple:
    """The optional name field of the price, order, purchase-request and
    purchase-result records: empty in the simple scenario."""
    return () if name is None else (_sym(name),)


def _cheapest(offers: dict):
    """The (name, price) of the lowest price, ties broken by rendered name;
    None when there is no offer."""
    return min(offers.items(), key=lambda kv: (kv[1].n, render(kv[0])), default=None)


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


# ---------------------------------------------------------------------------
# Bank

@dataclass
class BankHandle:
    balances: dict = field(default_factory=dict)
    processed: dict = field(default_factory=dict)  # txn id Value -> ok

    def total(self):
        return sum(self.balances.values())


def bank_boot(handle: BankHandle):
    """Responds to withdraw/deposit requests while trading is open.

    Requests are idempotent per transaction id: a request that stays
    asserted across a day boundary is answered again, not re-executed.
    A deposit has no balance check: deposit_back sends a negative amount
    when a named broker's fee exceeds what the order saved.
    """

    def transaction(tf, pattern, sign, checked):
        def body(cf, b):
            tid, acct, amt = b["id"], b["acct"], b["amt"].n
            ok = handle.processed.get(tid)
            if ok is None:
                ok = acct in handle.balances and (not checked or handle.balances[acct] >= amt)
                if ok:
                    handle.balances[acct] += sign * amt
                handle.processed[tid] = ok
            cf.publish(rec("bank-response", tid, ok))

        during(tf, pattern, body)

    def boot(f):
        def open_body(tf, _b):
            transaction(tf, WITHDRAW_FUNDS, -1, True)
            transaction(tf, DEPOSIT_FUNDS, 1, False)

        during(f, TRADING_DAY_OPEN, open_body)

    return boot


def spawn_bank(ds, accounts: dict) -> BankHandle:
    handle = BankHandle({_sym(acct): balance for acct, balance in accounts.items()})
    ds.spawn(bank_boot(handle))
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
    advert = rec("price", *who, desired)
    requests = rpat("purchase-request", cap("id"), *who, cap("count"), cap("offered"))

    def boot(f):
        def open_body(tf, _b):
            tf.publish(advert)

            def respond(cf, b):
                cf.publish(rec("purchase-result", b["id"], *who, b["offered"].n >= desired))

            during(tf, requests, respond)

        during(f, TRADING_DAY_OPEN, open_body)

    return boot


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
                f.stop()

        f.on_asserted(meta, on_interest)
        f.on_retracted(meta, on_disinterest)

    return boot


# ---------------------------------------------------------------------------
# Wallet: fronts the bank for the broker, remembering funding across days.

def wallet_boot():
    def boot(f):
        processed = set()

        def on_need(hf, b):
            the_order, acct, amt_v = b["order"], b["acct"], b["amt"]
            if the_order in processed:
                return
            processed.add(the_order)

            def withdraw_body(wf):
                wf.publish(rec("withdraw-funds", the_order, acct, amt_v))

                def response_body(cf, rb):
                    ok = rb["ok"]
                    cf.publish(rec("funds-held", the_order, acct, amt_v, ok))

                    def on_result(hf2, ob):
                        ans = ob["ans"]

                        def cont(pf):
                            if ok.b and ans != FULFILLED:
                                deposit_back(pf, acct, amt_v.n)

                        wf.stop(cont)

                    cf.on_asserted(rpat("order-result", lit(the_order), cap("ans")), on_result)

                during(wf, rpat("bank-response", lit(the_order), cap("ok")), response_body)

            hf.react(withdraw_body)

        f.on_asserted(rpat("funds-needed", cap("order"), cap("acct"), cap("amt")), on_need)

    return boot


# ---------------------------------------------------------------------------
# Broker

def broker_boot(name=None, fee=0, wait_period: int = 100):
    """Simple broker when name is None: takes the first price it sees.
    Named (extended) broker otherwise: advertises its fee and buys from the
    cheapest seller after a ``wait_period`` collection window."""
    who = _names(name)
    advert = rec("broker-fee", *who, fee)
    orders = rpat("order", *who, cap("id"), cap("acct"), cap("n"), cap("maxp"))

    def boot(f):
        def open_body(tf, _b):
            if who:
                tf.publish(advert)

            def on_order(hf, b):
                the_order = rec("order", *who, b["id"], b["acct"], b["n"], b["maxp"])
                hf.react(lambda of: _work_on_one_order(of, the_order, who, b, fee, wait_period))

            tf.on_asserted(orders, on_order)

        during(f, TRADING_DAY_OPEN, open_body)

    return boot


def _work_on_one_order(of, the_order, who, b, fee, wait_period):
    """One order as one conversation: funding, choosing a price, purchase."""
    acct = b["acct"]
    n = b["n"].n
    maxp = b["maxp"].n
    held = n * maxp

    # Stopping is synchronous: once the first answer stops the order facet,
    # `alive` turns every later answer away.
    def stop_with(answer: Symbol):
        if of.alive:
            of.stop(lambda pf: pf.spawn(result_cache_boot(the_order, answer)))

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

    def buy_within_max(offer):
        """offer: the chosen (seller, price), or None."""
        if offer is not None and offer[1].n <= maxp:
            goto("purchase", *offer)
        else:
            stop_with(NO_PRICE_MATCH)

    # In both choosing states the price endpoints come before the cancel
    # endpoint: a price and a cancel delivered in one patch resolve to the
    # purchase (criterion 5). A cancel once funded is answered here; the
    # wallet returns the held funds when it sees the canceled order-result.
    def take_first_price(sf):
        sf.on_asserted(ANY_PRICE, lambda hf, b: buy_within_max((None, b["actual"])))
        sf.on_retracted(lit(the_order), lambda hf, _b: stop_with(CANCELED))

    def select_cheapest(sf):
        sellers = query_map(sf, SELLER_PRICES, "seller", "actual")
        sf.on_retracted(lit(the_order), lambda hf, _b: stop_with(CANCELED))
        on_timeout(sf, wait_period, lambda hf: buy_within_max(_cheapest(sellers())))

    def complete_purchase(sf, seller, actual_v):
        seller_who = _names(seller)
        actual = actual_v.n
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


# ---------------------------------------------------------------------------
# Scripted buyer

@dataclass
class BuyerHandle:
    name: str
    account: Value
    outcomes: dict = field(default_factory=dict)  # order ref -> answer name


def scripted_buyer_boot(handle: BuyerHandle, extended: bool = False, wait_period: int = 100):
    """Places and cancels orders on message commands; confirms receipt of a
    result by dropping its interest in the order-result."""
    me = sym(handle.name)
    acct = handle.account

    def boot(f):
        order_facets = {}  # ref -> its live order facet, or its broker-selection facet

        def forget(ref, fct):
            if order_facets.get(ref) is fct:  # a ref placed again names its newest order
                del order_facets[ref]

        def make_order(ctx, ref, n_v, maxp_v, broker=None):
            the_order = rec("order", *_names(broker), ctx.unique(), acct, n_v, maxp_v)

            def await_body(af):
                order = order_facets[ref] = af.react(lambda obf: obf.publish(the_order))

                def on_result(hf, rb):
                    handle.outcomes[ref] = rb["ans"].name
                    forget(ref, order)
                    af.stop()

                af.on_asserted(rpat("order-result", lit(the_order), cap("ans")), on_result)

            ctx.react(await_body)

        def place(hf, b):
            ref = b["ref"].name
            if extended:

                def selection_body(self_):
                    # a cancel before a broker is chosen ends the choosing here
                    order_facets[ref] = self_
                    fees = query_map(self_, BROKER_FEES, "b", "fee")

                    def decide(hf2):
                        best = _cheapest(fees())
                        if best is not None:
                            self_.stop(lambda pf: make_order(pf, ref, b["n"], b["maxp"], best[0]))
                        else:
                            handle.outcomes[ref] = "no-broker"
                            forget(ref, self_)
                            self_.stop()

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
            if fct.parent is f:  # the selection facet: no broker has seen an order yet
                handle.outcomes[ref] = "canceled"
                del order_facets[ref]
            fct.stop()

        f.on_message(rpat("place-order", lit(me), cap("ref"), cap("n"), cap("maxp")), place)
        f.on_message(rpat("cancel-order", lit(me), cap("ref")), cancel)

    return boot


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
                bal = af.field(b["initial"].n)
                af.publish(rec("account-for", b["client"], account_number))
                af.publish(lambda: rec("balance", account_number, bal()))
                af.on_message(
                    rpat("deposit", lit(rec("acct", account_number)), cap("amt")),
                    lambda hf2, db: bal(bal() + db["amt"].n),
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
    "price": ("a non-negative integer", lambda v: isinstance(v, Integer) and v.n >= 0, lambda v: v),
    "amount": ("an integer", lambda v: isinstance(v, Integer), lambda v: v.n),
}


def parse_script(values: list) -> list:
    """Turn script values into step tuples; raises ScenarioError naming the
    first step that is unknown, has a field of the wrong kind, or places a
    ref another buyer placed (outcomes are keyed by ref alone)."""
    steps, placed = [], {}  # ref -> the buyer that placed it
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
        if step[0] == "place" and placed.setdefault(step[2], step[1]) != step[1]:
            raise ScenarioError("%s: ref %s was placed by buyer %s" % (where, step[2], placed[step[2]]))
        steps.append(tuple(step))
    return steps


def default_config(scenario: str = "simple", **overrides) -> ScenarioConfig:
    """Stock cast for CLI runs: one buyer b1 on account a1 (1000); simple
    gets one anonymous seller at 40 and one broker, extended gets sellers
    s1:40/s2:55 and brokers k1 (fee 0) and k2 (fee 5)."""
    stock = {"simple": {}, "extended": {"sellers": {"s1": 40, "s2": 55}, "brokers": {"k1": 0, "k2": 5}}}
    if scenario not in stock:
        raise ValueError("unknown scenario %r" % scenario)
    return replace(ScenarioConfig(**stock[scenario]), **overrides)


@dataclass
class ScenarioResult:
    ds: Dataspace
    bank: BankHandle
    buyers: dict  # name -> BuyerHandle

    @property
    def final_balances(self) -> dict:
        return {render(k): v for k, v in self.bank.balances.items()}

    @property
    def order_outcomes(self) -> dict:
        return {ref: ans for h in self.buyers.values() for ref, ans in h.outcomes.items()}


def _check_integer(what: str, x, kind: str):
    """Refuse a host value that is not an int (a bool is an int) of a script
    field kind."""
    desc, ok, _keep = _FIELD_KINDS[kind]
    if isinstance(x, bool) or not isinstance(x, int) or not ok(to_value(x)):
        raise ValueError("%s must be %s, got %r" % (what, desc, x))


def check_config(config: ScenarioConfig):
    """The cast as (extended, (name, price) sellers, (name, fee) brokers).
    Raises ValueError for a cast of mixed shape, a price, fee, broker count
    or balance that is not an integer in range, an account, seller or broker
    name that is not a string or Symbol or is another's as a Symbol, a buyer
    that is not a (name, account) pair named once on an account of the
    cast, or a timing out of range."""
    sellers, brokers = config.sellers, config.brokers
    extended = isinstance(sellers, dict) and isinstance(brokers, dict)
    if extended:
        sellers, brokers = sellers.items(), brokers.items()
    elif isinstance(sellers, list) and isinstance(brokers, int):
        _check_integer("brokers", brokers, "ms")  # a count
        sellers, brokers = [(None, p) for p in sellers], [(None, 0)] * brokers
    else:
        raise ValueError(
            "sellers and brokers must be a list of prices and a count (simple) or two dicts"
            " (extended), not %s and %s" % (type(sellers).__name__, type(brokers).__name__)
        )
    for role, what, cast in [("seller", "price", sellers), ("broker", "fee", brokers)]:
        for name, x in cast:
            if extended and not isinstance(name, (str, Symbol)):
                raise ValueError("a %s name must be a string or Symbol, got %r" % (role, name))
            _check_integer("a %s's %s" % (role, what), x, "price")
    for acct, balance in config.accounts.items():
        if not isinstance(acct, (str, Symbol)):
            raise ValueError("an account name must be a string or Symbol, got %r" % (acct,))
        _check_integer("the balance of %s" % acct, balance, "amount")
    for role, cast in [("account", config.accounts), ("seller", config.sellers), ("broker", config.brokers)]:
        rendered = [render(_sym(name)) for name in cast] if isinstance(cast, dict) else []
        if len(set(rendered)) < len(rendered):
            raise ValueError("%s %s appears twice" % (role, max(rendered, key=rendered.count)))
    held, names = {_sym(acct) for acct in config.accounts}, set()
    for buyer in config.buyers:
        name, acct = buyer if isinstance(buyer, (tuple, list)) and len(buyer) == 2 else (None, None)
        if not isinstance(name, str) or not isinstance(acct, (str, Symbol)) or _sym(acct) not in held:
            raise ValueError("a buyer must be a (name, account in accounts) pair, got %r" % (buyer,))
        if name in names:
            raise ValueError("buyer %s appears twice" % name)
        names.add(name)
    for name, least in [("open_ms", 1), ("closed_ms", 0), ("wait_period", 1)]:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ValueError("%s must be an integer >= %d, got %r" % (name, least, value))
    return extended, sellers, brokers


def build_scenario(config: ScenarioConfig, trace_sink=None) -> ScenarioResult:
    """Spawn the full cast; returns handles without running any script.
    Raises ValueError as check_config does."""
    extended, sellers, brokers = check_config(config)
    ds = Dataspace(trace_sink=trace_sink)
    spawn_timer_driver(ds, Clock("virtual"))
    ds.spawn(market_clock_boot(config.open_ms, config.closed_ms))
    bank = spawn_bank(ds, config.accounts)
    ds.spawn(wallet_boot())
    for name, desired in sellers:
        ds.spawn(seller_boot(desired, name))
    for name, fee in brokers:
        ds.spawn(broker_boot(name, fee, config.wait_period))
    buyers = {name: BuyerHandle(name, _sym(acct)) for name, acct in config.buyers}
    for handle in buyers.values():
        ds.spawn(scripted_buyer_boot(handle, extended, config.wait_period))
    return ScenarioResult(ds, bank, buyers)


def run_scenario(config: ScenarioConfig, script: list, trace_sink=None) -> ScenarioResult:
    """Run a scenario script to completion; raises ScenarioError on a failed
    script assertion, reporting the turn number. The queue runs to quiescence
    before each assert-balance and assert-order-result step and after the
    last step, so each check, and the result, sees every order placed before it."""
    result = build_scenario(config, trace_sink)
    ds, bank, buyers = result.ds, result.bank, result.buyers
    ds.run_until_quiescent()

    def fail(msg):
        raise ScenarioError("turn %d: %s" % (len(ds.trace), msg))

    for step in script:
        kind = step[0]
        if kind == "advance":
            ds.run_until_quiescent()
            advance_virtual_time(ds, step[1])
        elif kind in ("place", "cancel"):
            _, buyer, ref, *order = step  # place also carries n and maxp
            if buyer not in buyers:
                fail("unknown buyer %s" % buyer)
            ds.inject_message(rec(kind + "-order", sym(buyer), sym(ref), *order))
        elif kind == "expect-quiescent":
            ds.run_until_quiescent()
        elif kind == "assert-balance":
            ds.run_until_quiescent()
            _, acct, want = step
            got = bank.balances.get(acct)
            if got != want:
                fail("balance of %s is %r, expected %r" % (render(acct), got, want))
        elif kind == "assert-order-result":
            ds.run_until_quiescent()
            _, ref, want = step
            got = result.order_outcomes.get(ref)
            if got != want:
                fail("order %s resolved %r, expected %r" % (ref, got, want))
        else:
            fail("unknown step %r" % (step,))
    ds.run_until_quiescent()
    return result
