"""Unit-level checks of the market actors and the scenario harness; the
end-to-end flows live in test_acceptance.py."""

import gc
import weakref
from dataclasses import fields

import pytest

from conftest import drive_cmd, named_puppet_boot, spawn_recorder
from golden_corpus import backtrack_scenario
from facetspace import Dataspace, cap, lit, rec, rpat, sym
from facetspace.drivers import Clock, advance_virtual_time, spawn_timer_driver
from facetspace.market import (
    BuyerHandle,
    ScenarioConfig,
    ScenarioError,
    build_scenario,
    default_config,
    market_clock_boot,
    parse_script,
    result_cache_boot,
    run_scenario,
    scripted_buyer_boot,
    seller_boot,
    spawn_bank,
)
from facetspace.values import Integer, Unique, parse_all


def quiesce(ds):
    ds.run_until_quiescent()


def open_market(ds):
    ds.spawn(market_clock_boot(0, 0))  # degenerate: permanently open, no timers needed


# ---------------------------------------------------------------------------
# bank

def make_bank(ds, balances):
    open_market(ds)
    handle = spawn_bank(ds, balances)
    ds.spawn(named_puppet_boot("a"))
    quiesce(ds)
    return handle


def test_bank_withdraw_and_deposit():
    ds = Dataspace()
    bank = make_bank(ds, {"a1": 1000})
    r = spawn_recorder(ds, rpat("bank-response", cap("id"), cap("ok")))
    quiesce(ds)
    # a negative deposit is credited: deposit_back sends one when a named
    # broker's fee exceeds what the order saved
    for tid, label, amt, balance in [
        (500, "withdraw-funds", 250, 750),
        (501, "deposit-funds", 50, 800),
        (502, "deposit-funds", -30, 770),
        (503, "withdraw-funds", 770, 0),  # exactly the balance
    ]:
        ds.inject_message(drive_cmd("a", "do-assert", rec(label, Unique(tid), sym("a1"), amt)))
        quiesce(ds)
        assert ("+", rec("bank-response", Unique(tid), True)) in r.events
        assert bank.balances[sym("a1")] == balance


def test_bank_insufficient_and_unknown_account():
    ds = Dataspace()
    bank = make_bank(ds, {"a1": 100})
    r = spawn_recorder(ds, rpat("bank-response", cap("id"), cap("ok")))
    quiesce(ds)
    t1, t2, t3 = Unique(500), Unique(501), Unique(502)
    ds.inject_message(drive_cmd("a", "do-assert", rec("withdraw-funds", t1, sym("a1"), 250)))
    ds.inject_message(drive_cmd("a", "do-assert", rec("withdraw-funds", t2, sym("nope"), 1)))
    ds.inject_message(drive_cmd("a", "do-assert", rec("deposit-funds", t3, sym("nope"), 1)))
    quiesce(ds)
    for t in (t1, t2, t3):
        assert ("+", rec("bank-response", t, False)) in r.events
    assert bank.balances == {sym("a1"): 100}


def test_bank_request_idempotent_across_reassertion():
    # a request that is retracted and re-asserted (as happens across a
    # trading-day boundary) is answered again but executed once
    ds = Dataspace()
    bank = make_bank(ds, {"a1": 1000})
    t1 = Unique(500)
    req = rec("withdraw-funds", t1, sym("a1"), 250)
    for _ in range(2):
        ds.inject_message(drive_cmd("a", "do-assert", req))
        quiesce(ds)
        ds.inject_message(drive_cmd("a", "do-retract", req))
        quiesce(ds)
    assert bank.balances[sym("a1")] == 750
    assert bank.processed == {t1: True}


def test_bank_answers_a_standing_deposit_again_and_credits_it_once():
    # a deposit-funds request that stays asserted across a day boundary
    ds = Dataspace()
    spawn_timer_driver(ds, Clock("virtual"))
    ds.spawn(market_clock_boot(100, 100))
    bank = spawn_bank(ds, {"a1": 1000})
    ds.spawn(named_puppet_boot("a"))
    r = spawn_recorder(ds, rpat("bank-response", cap("id"), cap("ok")))
    quiesce(ds)
    t1 = Unique(500)
    ds.inject_message(drive_cmd("a", "do-assert", rec("deposit-funds", t1, sym("a1"), 50)))
    quiesce(ds)
    advance_virtual_time(ds, 150)  # closed
    advance_virtual_time(ds, 100)  # reopened
    answer = rec("bank-response", t1, True)
    assert r.events == [("+", answer), ("-", answer), ("+", answer)]
    assert bank.balances[sym("a1")] == 1050
    assert bank.processed == {t1: True}


def test_bank_inactive_while_closed():
    ds = Dataspace()
    spawn_timer_driver(ds, Clock("virtual"))
    ds.spawn(market_clock_boot(100, 100))
    bank = spawn_bank(ds, {"a1": 1000})
    ds.spawn(named_puppet_boot("a"))
    r = spawn_recorder(ds, rpat("bank-response", cap("id"), cap("ok")))
    quiesce(ds)
    advance_virtual_time(ds, 150)  # now closed
    ds.inject_message(drive_cmd("a", "do-assert", rec("withdraw-funds", Unique(500), sym("a1"), 10)))
    quiesce(ds)
    assert r.events == []
    advance_virtual_time(ds, 100)  # reopened
    assert ("+", rec("bank-response", Unique(500), True)) in r.events


# ---------------------------------------------------------------------------
# seller

def test_seller_price_comparison_inclusive():
    ds = Dataspace()
    open_market(ds)
    ds.spawn(seller_boot(40))
    ds.spawn(named_puppet_boot("a"))
    r = spawn_recorder(ds, rpat("purchase-result", cap("id"), cap("ok")))
    quiesce(ds)
    assert ds.query(lit(rec("price", 40))) == [rec("price", 40)]
    ds.inject_message(drive_cmd("a", "do-assert", rec("purchase-request", Unique(1), 5, 40)))
    ds.inject_message(drive_cmd("a", "do-assert", rec("purchase-request", Unique(2), 5, 39)))
    quiesce(ds)
    assert ("+", rec("purchase-result", Unique(1), True)) in r.events
    assert ("+", rec("purchase-result", Unique(2), False)) in r.events


def test_seller_withdraws_everything_at_close():
    ds = Dataspace()
    spawn_timer_driver(ds, Clock("virtual"))
    ds.spawn(market_clock_boot(100, 100))
    ds.spawn(seller_boot(40))
    ds.spawn(named_puppet_boot("a"))
    quiesce(ds)
    ds.inject_message(drive_cmd("a", "do-assert", rec("purchase-request", Unique(1), 5, 40)))
    quiesce(ds)
    assert ds.query(rpat("purchase-result", cap("i"), cap("ok"))) != []
    advance_virtual_time(ds, 120)
    assert ds.query(lit(rec("price", 40))) == []
    assert ds.query(rpat("purchase-result", cap("i"), cap("ok"))) == []


# ---------------------------------------------------------------------------
# result cache

def test_result_cache_persists_until_interest_drops():
    ds = Dataspace()
    the_order = rec("order", Unique(9), sym("a1"), 5, 50)
    aid = ds.spawn(result_cache_boot(the_order, sym("fulfilled")))
    quiesce(ds)
    result_pat = rpat("order-result", lit(the_order), cap("ans"))
    assert ds.query(result_pat) != []

    got = []

    def buyer(f):
        def on_result(hf, b):
            got.append(b["ans"])
            f.stop()  # confirmation: drop the interest

        f.on_asserted(result_pat, on_result)

    ds.spawn(buyer)
    quiesce(ds)
    assert got == [sym("fulfilled")]
    assert not ds.is_alive(aid)
    assert ds.query(result_pat) == []


def test_result_cache_survives_observer_churn():
    ds = Dataspace()
    the_order = rec("order", Unique(9), sym("a1"), 5, 50)
    aid = ds.spawn(result_cache_boot(the_order, sym("canceled")))
    result_pat = rpat("order-result", lit(the_order), cap("ans"))

    def holder(f):
        watch = f.react(lambda cf: cf.on_asserted(result_pat, lambda hf, b: None))
        f.react(lambda cf: cf.on_asserted(result_pat, lambda hf, b: None))
        f.on_message(rpat("drop-one"), lambda hf, b: watch.stop())

    ds.spawn(holder)
    quiesce(ds)
    ds.inject_message(rec("drop-one"))
    quiesce(ds)
    assert ds.is_alive(aid)  # one interested party remains


# ---------------------------------------------------------------------------
# harness

def test_parse_script_accepts_all_steps():
    steps = parse_script(
        parse_all(
            "(advance 100) (place b1 o1 5 50) (cancel b1 o1)"
            " (expect-quiescent) (assert-balance a1 800) (assert-order-result o1 fulfilled)"
            " (place b1 o1 5 30)"  # a buyer may place its own ref again
        )
    )
    assert [s[0] for s in steps] == [
        "advance",
        "place",
        "cancel",
        "expect-quiescent",
        "assert-balance",
        "assert-order-result",
        "place",
    ]
    assert steps[1] == ("place", "b1", "o1", Integer(5), Integer(50))


def test_parse_script_rejects_junk():
    with pytest.raises(ScenarioError):
        parse_script(parse_all("(warp 9)"))
    with pytest.raises(ScenarioError):
        parse_script(parse_all("(advance 1 2)"))
    with pytest.raises(ScenarioError):
        parse_script([Integer(3)])


@pytest.mark.parametrize(
    "text, message",
    [
        ("(advance foo)", "step 1: (advance foo): field 1 must be a non-negative integer"),
        ("(advance -100)", "step 1: (advance -100): field 1 must be a non-negative integer"),
        ("(advance 5)(place b1 o1 0 50)", "step 2: (place b1 o1 0 50): field 3 must be a positive integer"),
        ("(place b1 o1 5 -1)", "step 1: (place b1 o1 5 -1): field 4 must be a non-negative integer"),
        # money is an integer in minor units: a decimal amount is refused
        ("(place b1 o1 5 50.5)", "step 1: (place b1 o1 5 50.5): field 4 must be a non-negative integer"),
        ("(cancel 3 o1)", "step 1: (cancel 3 o1): field 1 must be a symbol"),
        ("(assert-balance a1 lots)", "step 1: (assert-balance a1 lots): field 2 must be an integer"),
        ("(assert-balance a1 64.63)", "step 1: (assert-balance a1 64.63): field 2 must be an integer"),
        ('(assert-order-result o1 "ok")', 'step 1: (assert-order-result o1 "ok"): field 2 must be a symbol'),
        # outcomes are keyed by ref, so b2's answer would hide b1's
        (
            "(place b1 o1 5 50)(place b2 o1 5 30)(advance 400)",
            "step 2: (place b2 o1 5 30): ref o1 was placed by buyer b1",
        ),
    ],
)
def test_parse_script_names_the_bad_field(text, message):
    with pytest.raises(ScenarioError) as err:
        parse_script(parse_all(text))
    assert message in str(err.value)


def test_failed_balance_assertion_reports_turn():
    script = parse_script(parse_all("(place b1 o1 5 50)(expect-quiescent)(assert-balance a1 999)"))
    with pytest.raises(ScenarioError, match=r"turn \d+"):
        run_scenario(default_config("simple"), script)


def test_failed_order_result_assertion():
    script = parse_script(parse_all("(place b1 o1 5 50)(expect-quiescent)(assert-order-result o1 canceled)"))
    with pytest.raises(ScenarioError, match="fulfilled"):
        run_scenario(default_config("simple"), script)


@pytest.mark.parametrize("text", ["(place b1 o1 3 40)", "(place b1 o1 3 40)(assert-balance a1 880)"],
                         ids=["last-step", "before-an-assertion"])
def test_an_order_placed_just_before_a_check_is_run_to_its_outcome(text):
    # run_scenario runs the queue to quiescence before each assertion and
    # after the last step, so neither check nor result misses the order
    r = run_scenario(default_config("simple"), parse_script(parse_all(text)))
    assert r.order_outcomes == {"o1": "fulfilled"} and r.final_balances["a1"] == 880


def test_unknown_buyer_rejected():
    for step in ["(place zz o1 5 50)", "(cancel zz o1)"]:
        with pytest.raises(ScenarioError, match="unknown buyer zz"):
            run_scenario(default_config("simple"), parse_script(parse_all(step)))


def test_cancel_unknown_order_is_warning_noop(caplog):
    script = parse_script(parse_all("(cancel b1 zz)(expect-quiescent)(assert-balance a1 1000)"))
    run_scenario(default_config("simple"), script)
    assert "cancel of unknown" in caplog.text


@pytest.mark.parametrize(
    "scenario, overrides, error, message",
    [
        pytest.param("weird", {}, ValueError, "unknown scenario", id="unknown-scenario"),
        pytest.param("simple", dict(bogus=1), TypeError, "bogus", id="unknown-field"),
        # the whole cast is checked before anything spawns
        pytest.param(
            "simple", dict(buyers=[("b1", "a1"), ("b1", "a1")]), ValueError, "buyer b1 appears twice",
            id="duplicate-buyer",
        ),
        pytest.param(
            "simple", dict(buyers=[("b1", "a2")]), ValueError, "account in accounts", id="unknown-account"
        ),
        pytest.param("simple", dict(buyers=[("b1",)]), ValueError, "a buyer must be", id="buyer-not-a-pair"),
        pytest.param("simple", dict(buyers=[(1, "a1")]), ValueError, "a buyer must be", id="buyer-name"),
        pytest.param("simple", dict(brokers=-1), ValueError, "brokers must be a non-negative", id="brokers"),
        pytest.param("simple", dict(brokers=True), ValueError, "brokers must be", id="brokers-bool"),
        pytest.param("simple", dict(sellers=["x"]), ValueError, "price must be a non-neg", id="price-str"),
        pytest.param("simple", dict(sellers=[-3]), ValueError, "price must be a non-neg", id="price"),
        pytest.param("extended", dict(brokers={"k1": -1}), ValueError, "fee must be a non-neg", id="fee"),
        # money is an integer in minor units, so arithmetic on it is exact
        pytest.param(
            "simple", dict(sellers=[0.49]), ValueError, "price must be a non-negative integer, got 0.49",
            id="price-decimal",
        ),
        pytest.param(
            "extended", dict(brokers={"k1": 0.5}), ValueError, "fee must be a non-negative integer, got 0.5",
            id="fee-decimal",
        ),
        pytest.param(
            "simple", dict(accounts={"a1": 65.61}), ValueError, "the balance of a1 must be an integer, got 65.61",
            id="balance-decimal",
        ),
        # a name that is no string or Symbol would give a simple-shape (price 40)
        pytest.param("extended", dict(sellers={None: 40}), ValueError, "seller name must be", id="seller-name"),
        pytest.param("extended", dict(brokers={3: 0}), ValueError, "broker name must be", id="broker-name"),
        pytest.param(
            "simple", dict(accounts={"a1": "lots"}), ValueError, "balance of a1 must be", id="balance-str"
        ),
        pytest.param(
            "simple", dict(accounts={"a1": float("nan")}), ValueError, "balance of a1", id="balance-nan"
        ),
        pytest.param("simple", dict(accounts={"a1": True}), ValueError, "balance of a1", id="balance-bool"),
        pytest.param("simple", dict(accounts={3: 10}), ValueError, "account name must be", id="account-name"),
        pytest.param("simple", dict(open_ms=True), ValueError, "open_ms must be", id="open-ms-bool"),
        # two names that are one Symbol would run two sellers or brokers under
        # one name, or start the bank with only the last of two balances
        pytest.param(
            "simple", dict(accounts={"a1": 500, sym("a1"): 300}), ValueError, "account a1 appears twice",
            id="account-twice",
        ),
        pytest.param(
            "extended", dict(sellers={"s1": 60, sym("s1"): 40}), ValueError, "seller s1 appears twice",
            id="seller-twice",
        ),
        pytest.param(
            "extended", dict(brokers={sym("k1"): 0, "k1": 5}), ValueError, "broker k1 appears twice",
            id="broker-twice",
        ),
    ],
)
def test_default_config_validation(scenario, overrides, error, message):
    with pytest.raises(error, match=message):
        build_scenario(default_config(scenario, **overrides))


def test_cast_checks_keep_legal_edges():
    # a negative balance, no sellers and no brokers are legal casts
    script = parse_script(parse_all("(place b1 o1 5 50)(advance 400)"))
    r = run_scenario(default_config("simple", accounts={"a1": -5}), script)
    assert (r.order_outcomes, r.final_balances) == ({"o1": "insufficient-funds"}, {"a1": -5})
    for overrides in [dict(sellers=[]), dict(brokers=0), dict(sellers={}, brokers={})]:
        build_scenario(default_config("simple", **overrides))


def test_the_cast_shape_names_the_scenario():
    assert len(fields(ScenarioConfig)) == 7
    # named sellers and brokers run the extended scenario, whatever the stock cast
    script = parse_script(parse_all("(place b1 o1 5 50)(advance 300)(expect-quiescent)"))
    r = run_scenario(default_config("simple", sellers={"s1": 40}, brokers={"k1": 3}), script)
    assert (r.order_outcomes, r.final_balances) == ({"o1": "fulfilled"}, {"a1": 797})
    for config in [
        default_config("simple", sellers={"s1": 40}),
        default_config("extended", sellers=[40]),
        default_config("simple", brokers={"k1": 0}),
    ]:
        with pytest.raises(ValueError, match="sellers.*brokers"):
            build_scenario(config)


# ---------------------------------------------------------------------------
# extended pieces

def test_buyer_picks_cheapest_broker():
    cfg = default_config("extended")
    cfg.brokers = {"pricey": 5, "cheap": 0}
    script = parse_script(parse_all("(place b1 o1 5 50)(advance 300)(expect-quiescent)"))
    r = run_scenario(cfg, script)
    assert r.order_outcomes == {"o1": "fulfilled"}
    assert r.final_balances == {"a1": 800}  # fee 0: the cheap broker won


def test_broker_fee_charged():
    cfg = default_config("extended")
    cfg.brokers = {"only": 7}
    script = parse_script(parse_all("(place b1 o1 5 50)(advance 300)(expect-quiescent)"))
    r = run_scenario(cfg, script)
    assert r.final_balances == {"a1": 793}  # 1000 - 5*40 - 7


def test_broker_backtracks_when_the_named_seller_withdraws():
    # s0 (30) withdraws its price on seeing the purchase request; the broker
    # chooses again and buys from s1 (40)
    r = backtrack_scenario(brokers={"k2": 5})
    assert r.buyers["b1"].outcomes == {"o1": "fulfilled"}
    assert r.bank.balances == {sym("a1"): 1000 - 5 * 40 - 5}
    assert r.ds.query(rpat("purchase-request", cap("o"), lit(sym("s0")), cap("n"), cap("p"))) == []


@pytest.mark.xfail(
    raises=AssertionError,
    reason="the second selection facet's query_map is never told the broker fees its actor "
    "already heard, so o2 finds no broker",
)
def test_a_second_order_sees_the_brokers_the_first_saw():
    script = parse_script(parse_all("(place b1 o1 1 50)(expect-quiescent)(place b1 o2 1 50)(advance 400)"))
    r = run_scenario(default_config("extended"), script)
    assert r.order_outcomes == {"o1": "fulfilled", "o2": "fulfilled"}
    assert r.final_balances == {"a1": 920}


def test_no_brokers_resolves_to_no_broker():
    cfg = default_config("extended")
    cfg.brokers = {}
    script = parse_script(parse_all("(place b1 o1 5 50)(advance 300)(expect-quiescent)"))
    r = run_scenario(cfg, script)
    assert r.order_outcomes == {"o1": "no-broker"}
    assert r.final_balances == {"a1": 1000}


def test_buyer_holds_only_live_orders():
    # once its result arrives, nothing the buyer holds keeps the order facet
    r = build_scenario(default_config("simple", sellers=[], buyers=[]))
    ds = r.ds
    buyer = BuyerHandle("b1", sym("a1"))
    aid = ds.spawn(scripted_buyer_boot(buyer))
    quiesce(ds)
    ds.inject_message(rec("place-order", sym("b1"), sym("o1"), 5, 50))
    quiesce(ds)  # funded, waiting for a price
    order = weakref.ref(ds.actors[aid].root.children[0].children[0])
    ds.spawn(seller_boot(40))
    quiesce(ds)
    assert buyer.outcomes == {"o1": "fulfilled"}
    gc.collect()
    assert order() is None


def test_cancel_while_choosing_a_broker_ends_the_order(caplog):
    # the cancel comes inside the buyer's broker-selection window, before any
    # broker has seen an order: no order, timer or held funds outlive it
    script = parse_script(parse_all("(place b1 o1 5 50)(cancel b1 o1)(advance 400)"))
    r = run_scenario(default_config("extended"), script)
    assert r.order_outcomes == {"o1": "canceled"}
    assert r.final_balances == {"a1": 1000}
    assert r.ds.query(rpat("order", cap("k"), cap("id"), cap("acct"), cap("n"), cap("maxp"))) == []
    assert len(r.ds.timer_registry) == 1  # the clock's next day flip only
    assert "cancel of unknown" not in caplog.text
