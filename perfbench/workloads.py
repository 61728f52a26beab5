"""Seeded workloads for the facetspace benchmark.

Each workload drives facetspace from outside, as an embedding host would: a
closed loop with one client that injects one input, waits for quiescence and
only then sends the next. A *session* is one fresh Dataspace running one
generated script of a fixed number of inputs; a run repeats sessions (each
with the next script from the seed) until its time is up. Fixing the session
length in inputs keeps per-input cost comparable between program versions,
since on a program whose turns get slower with history a faster version would
otherwise be measured on longer histories.

Every session is checked: no turn may crash, quiescence must be reached,
money must be conserved at every quiescent checkpoint (market) or balances
must equal their deposits (ledger), and every order must be resolved by the
end of the script. A failed check marks the input that exposed it.

The program sees only the generated script text; seeds go to the generators
here, never to ``ScenarioConfig.seed``.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from facetspace import Dataspace, MaxTurnsExceeded, cap, lit, rec, rpat, sym
from facetspace.dataspace import Assert
from facetspace.drivers import advance_virtual_time
from facetspace.market import bank_account_boot, build_scenario, default_config, parse_script
from facetspace.values import Decimal, Integer, Record, parse_all


# Host speed. Shared hosts change speed by up to 2x within seconds, and a
# fixed pure-Python loop slows down with the program. The untraced run times
# this loop between inputs and around set-ups and scales the times it reports
# to a host on which the loop takes REFERENCE_S (the host of the seed numbers
# in README.md), which cancels most of that drift.
REFERENCE_S = 0.0009

# Loop times on each side of an input that set its scale: one loop time is
# noisy, and the host's speed holds for longer than a few inputs.
PACE_WINDOW = 3


@dataclass(frozen=True)
class _Sym:
    name: str


@dataclass(frozen=True)
class _Rec:
    label: _Sym
    fields: tuple


_HOLE = object()


def _match(p, v, out):
    if p is _HOLE:
        out.append(v)
        return True
    if isinstance(p, _Rec):
        if not isinstance(v, _Rec) or p.label != v.label or len(p.fields) != len(v.fields):
            return False
        return all(_match(a, b, out) for a, b in zip(p.fields, v.fields))
    return p == v


_VALUES = [
    _Rec(_Sym("order%d" % (i % 3)), (_Sym("b%d" % (i % 5)), i % 7, _Rec(_Sym("acct"), (i % 4,))))
    for i in range(120)
]
_PATTERNS = [_Rec(_Sym("order%d" % k), (_HOLE, _HOLE, _Rec(_Sym("acct"), (_HOLE,)))) for k in range(3)]


def reference_loop():
    """Fixed work that calls no facetspace code but looks like its inner
    loops: recursive matching of patterns against frozen dataclass records,
    and hashing the matches into a set. A loop of tuple and dict operations
    tracked the program's slow-downs less closely."""
    seen = set()
    for p in _PATTERNS:
        for v in _VALUES:
            if _match(p, v, []):
                seen.add(v)
    return len(seen)


def time_reference_loop() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def speed_scale(paces) -> float:
    """Factor that turns times measured next to these reference-loop times
    into reference-host times; 1 when the probe does not measure pace."""
    if not paces or None in paces:
        return 1.0
    return REFERENCE_S / statistics.median(paces)


def input_scales(paces) -> list:
    """One speed_scale per input, where ``paces[i]`` was timed just before
    input i and ``paces[-1]`` after the last input."""
    return [
        speed_scale(paces[max(0, i + 1 - PACE_WINDOW): i + 1 + PACE_WINDOW])
        for i in range(len(paces) - 1)
    ]


class NullProbe:
    """A probe that records nothing and calls straight through. TurnClock
    below and the tracer in tracing.py have the same methods."""

    def call(self, name, fn, *args):
        return fn(*args)

    def pace(self):
        """Seconds the reference loop takes now, or None when not measured."""
        return None

    def begin_input(self, input_id):
        pass

    def end_input(self):
        pass

    def end_setup(self, ds):
        pass

    def end_session(self, ds, result):
        pass


class TurnClock(NullProbe):
    """The untraced probe: times each ``Dataspace.run_turn`` call made
    during an input, hands a session's turn times to its result, and times
    the reference loop when asked."""

    def __init__(self):
        self.turn_s = []  # one list of turn times per input of the session
        self.active = False
        self._saved = None

    def pace(self):
        return time_reference_loop()

    def install(self):
        run_turn = self._saved = Dataspace.run_turn
        clock = self

        def timed_run_turn(ds):
            if not clock.active:
                return run_turn(ds)
            t0 = perf_counter()
            record = run_turn(ds)
            clock.turn_s[-1].append(perf_counter() - t0)
            return record

        Dataspace.run_turn = timed_run_turn

    def uninstall(self):
        Dataspace.run_turn = self._saved

    def begin_input(self, _index):
        self.turn_s.append([])
        self.active = True

    def end_input(self):
        self.active = False

    def end_session(self, _ds, result):
        result.turn_s, self.turn_s = self.turn_s, []


class TraceDigest:
    """Trace sink: the SHA-256 of the JSONL trace the CLI would write to a
    file."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, s):
        self.sha.update(s.encode())

    def hexdigest(self):
        return self.sha.hexdigest()


@dataclass
class SessionResult:
    setup_s: float  # scaled to the reference host
    setup_raw_s: float  # as measured
    input_s: list = field(default_factory=list)  # host wait per input, as measured
    scales: list = field(default_factory=list)  # input_scales, one per input attempted
    turn_s: list = field(default_factory=list)  # run_turn times of each input, as measured
    input_turns: int = 0
    inputs_attempted: int = 0
    failed_inputs: set = field(default_factory=set)  # input indices within the session
    failures: list = field(default_factory=list)  # one line per failed check
    orders_placed: int = 0
    digest: str = ""


def percentile(values, q, steps=16):
    """Harrell-Davis estimate of the q-quantile of a non-empty list: the
    mean of the sorted values, the i-th of n weighted by the mass that the
    Beta(q(n+1), (1-q)(n+1)) density puts on ((i-1)/n, i/n), integrated by
    the midpoint rule. Unlike a single order statistic it does not jump
    when the quantile falls in a gap between two clusters of values, as
    the 90th percentile of extended-days inputs does."""
    s = sorted(values)
    n = len(s)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1.0 / (n * steps)
    total = weighted = 0.0
    for i, x in enumerate(s):
        w = 0.0
        for j in range(steps):
            u = (i * steps + j + 0.5) * h
            w += math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
        total += w
        weighted += w * x
    return weighted / total


def _num(v):
    if isinstance(v, Integer):
        return v.n
    if isinstance(v, Decimal):
        return v.x
    raise TypeError("not a number: %r" % (v,))


# ---------------------------------------------------------------------------
# Market workloads


@dataclass(frozen=True)
class MarketShape:
    scenario: str  # simple | extended
    buyers: int
    steps: int  # random steps drawn from the criterion-7 mix
    drain: int  # trailing (advance DRAIN_MS) steps that let open orders resolve
    open_ms: int
    closed_ms: int
    sellers: object = None  # extended: {name: price}; None keeps the default
    brokers: object = None  # extended: {name: fee}; None keeps the default

    @property
    def inputs(self):
        return self.steps + self.drain


DRAIN_MS = 400

# Money the buyers start with, drawn per account.
ACCOUNT_FUNDS = (600, 1000)


def _deck(rng, values, n):
    """n values dealt from a shuffled deck that repeats ``values`` evenly."""
    deck = [values[i % len(values)] for i in range(n)]
    rng.shuffle(deck)
    return deck


def market_script(shape: MarketShape, rng: random.Random) -> tuple:
    """(accounts, script text) for one session.

    Steps follow criterion 7's action mix scaled to the cast: place, place,
    cancel, advance; quantity 1-7, max price 30/45/60, advance 50-400 ms.
    Kinds, quantities, prices and account funds are dealt from shuffled
    decks that hold each choice equally often, and advance amounts are drawn
    one per equal slice of 50-400 ms, so that sessions differ in order, not
    in how much of each kind of work they hold: on a program whose turns get
    slower with history, that share decides a session's cost. A cancel
    names a random buyer and a random earlier order, which need not belong
    to that buyer, as in criterion 7; a cancel dealt before any order exists
    becomes an advance, as there.

    A cancel dealt while the trading day is closed also becomes an advance.
    The seed program never answers such a cancel (the brokers watch orders
    only inside ``during(trading-day-open)``), so the order stays unresolved
    and its funds stay held; test_perfbench.py keeps a reproducer of that
    defect. Once it is fixed, drop the clause on ``now`` below.
    """
    period = shape.open_ms + shape.closed_ms
    names = ["b%d" % i for i in range(shape.buyers)]
    funds = _deck(rng, ACCOUNT_FUNDS, shape.buyers)
    accounts = {"a%d" % i: funds[i] for i in range(shape.buyers)}
    kinds = _deck(rng, ["place", "place", "cancel", "advance"], shape.steps)
    places = kinds.count("place")
    quantities = _deck(rng, range(1, 8), places)
    prices = _deck(rng, [30, 45, 60], places)
    slices = shape.steps - places  # cancels may turn into advances
    advances = [50 + int(350 * (i + rng.random()) / slices) for i in range(slices)]
    rng.shuffle(advances)
    refs = []
    lines = []
    now = 0  # virtual ms; the day is open while now % period < open_ms
    for kind in kinds:
        if kind == "place":
            ref = "o%d" % len(refs)
            lines.append(
                "(place %s %s %d %d)"
                % (rng.choice(names), ref, quantities[len(refs)], prices[len(refs)])
            )
            refs.append(ref)
        elif kind == "cancel" and refs and now % period < shape.open_ms:
            lines.append("(cancel %s %s)" % (rng.choice(names), rng.choice(refs)))
        else:
            step = advances.pop()
            now += step
            lines.append("(advance %d)" % step)
    lines.extend(["(advance %d)" % DRAIN_MS] * shape.drain)
    return accounts, "\n".join(lines) + "\n"


class MoneyCheck:
    """Money conservation at a quiescent checkpoint.

    The accounting of ``_conserved`` in tests/test_acceptance.py: bank
    balances, plus deposits asserted but not yet processed, plus withdrawals
    processed and still held, plus money spent on confirmed purchases, equals
    the initial total. Spending is read from the trace incrementally. The
    extended scenario's purchase records carry the seller, and a fulfilled
    extended order also pays its broker's fee, which leaves the system.
    """

    def __init__(self, ds, bank, fees):
        self.ds = ds
        self.bank = bank
        self.fees = fees  # broker Symbol -> fee; empty for the simple scenario
        self.initial = bank.total()
        self.spend = {}
        self.confirmed = set()
        self.seen = 0

    def _scan_trace(self):
        trace = self.ds.trace
        for record in trace[self.seen:]:
            for a in record.actions:
                if not (isinstance(a, Assert) and isinstance(a.v, Record)):
                    continue
                label = a.v.label.name
                fs = a.v.fields
                if label == "purchase-request":
                    if len(fs) == 3:  # (purchase-request order n actual)
                        self.spend[fs[0]] = _num(fs[1]) * _num(fs[2])
                    else:  # (purchase-request order seller n actual)
                        broker = fs[0].fields[0]
                        cost = _num(fs[2]) * _num(fs[3]) + self.fees[broker]
                        self.spend[(fs[0], fs[1])] = cost
                elif label == "purchase-result" and fs[-1].b:
                    self.confirmed.add(fs[0] if len(fs) == 2 else (fs[0], fs[1]))
        self.seen = len(trace)

    def conserved(self) -> bool:
        self._scan_trace()
        ds, processed = self.ds, self.bank.processed
        pending = sum(
            _num(v.fields[2])
            for v in ds.query(rpat("deposit-funds", cap("i"), cap("a"), cap("m")))
            if v.fields[0] not in processed
        )
        held = sum(
            _num(v.fields[2])
            for v in ds.query(rpat("withdraw-funds", cap("i"), cap("a"), cap("m")))
            if processed.get(v.fields[0]) is True
        )
        spent = sum(self.spend[k] for k in self.confirmed if k in self.spend)
        return self.bank.total() + pending + held + spent == self.initial


def _market_config(shape: MarketShape, accounts: dict):
    overrides = dict(
        accounts=accounts,
        buyers=[("b%d" % i, "a%d" % i) for i in range(shape.buyers)],
        open_ms=shape.open_ms,
        closed_ms=shape.closed_ms,
    )
    if shape.sellers is not None:
        overrides["sellers"] = dict(shape.sellers)
    if shape.brokers is not None:
        overrides["brokers"] = dict(shape.brokers)
    return default_config(shape.scenario, **overrides)


def _setup_result(raw_s, pace_before, pace_after) -> SessionResult:
    """A session's result, opened with its set-up time, which is scaled by
    the reference loop timed just before and just after the set-up."""
    paces = [pace_before, pace_after]
    return SessionResult(setup_s=raw_s * speed_scale(paces), setup_raw_s=raw_s)


def _crashed_since(ds, start) -> bool:
    return any(r.crashed for r in ds.trace[start:])


def run_market_session(shape: MarketShape, rng: random.Random, probe=NullProbe(), setup_only=False):
    accounts, text = market_script(shape, rng)
    sink = TraceDigest()

    before = probe.pace()
    t0 = perf_counter()
    steps = probe.call("market.parse_script", parse_script, probe.call("values.parse", parse_all, text))
    config = _market_config(shape, accounts)
    scenario = probe.call("market.build", build_scenario, config, sink)
    ds = scenario.ds
    ds.run_until_quiescent()
    res = _setup_result(perf_counter() - t0, before, probe.pace())
    probe.end_setup(ds)
    if setup_only:
        return res

    if _crashed_since(ds, 0):
        res.failures.append("a turn crashed while the cast booted")
        res.failed_inputs.add(-1)
    fees = {}
    if shape.scenario == "extended":
        fees = {sym(name): fee for name, fee in config.brokers.items()}
    money = MoneyCheck(ds, scenario.bank, fees)
    place_input = {}  # order ref -> index of the input that placed it
    paces = []

    for i, step in enumerate(steps):
        kind = step[0]
        if kind == "place":
            _, buyer, ref, n_v, maxp_v = step
            place_input[ref] = i
            message = rec("place-order", sym(buyer), sym(ref), n_v, maxp_v)
        elif kind == "cancel":
            _, buyer, ref = step
            message = rec("cancel-order", sym(buyer), sym(ref))
        turns_before = len(ds.trace)
        res.inputs_attempted += 1
        paces.append(probe.pace())
        probe.begin_input(i)
        t = perf_counter()
        try:
            if kind == "advance":
                probe.call("drivers.advance", advance_virtual_time, ds, step[1])
            else:
                ds.inject_message(message)
            ds.run_until_quiescent()
        except MaxTurnsExceeded as e:
            probe.end_input()
            res.failed_inputs.add(i)
            res.failures.append("input %d (%s): %s" % (i, kind, e))
            break
        res.input_s.append(perf_counter() - t)
        probe.end_input()
        res.input_turns += len(ds.trace) - turns_before
        if _crashed_since(ds, turns_before):
            res.failed_inputs.add(i)
            res.failures.append("input %d (%s): a turn crashed" % (i, kind))
        if not money.conserved():
            res.failed_inputs.add(i)
            res.failures.append("input %d (%s): money not conserved" % (i, kind))

    paces.append(probe.pace())
    res.scales = input_scales(paces)
    resolved = {ref for h in scenario.buyers.values() for ref in h.outcomes}
    for ref, i in place_input.items():
        if ref not in resolved:
            res.failed_inputs.add(i)
            res.failures.append("order %s placed by input %d is unresolved" % (ref, i))
    res.orders_placed = len(place_input)
    res.digest = sink.hexdigest()
    probe.end_session(ds, res)
    return res


# ---------------------------------------------------------------------------
# Ledger workload


@dataclass(frozen=True)
class LedgerShape:
    accounts: int
    deposits: int

    @property
    def inputs(self):
        return self.deposits


def ledger_script(shape: LedgerShape, rng: random.Random) -> str:
    """One create-account per account, then a stream of deposits."""
    lines = ["(create-account c%d %d)" % (k, rng.randrange(0, 1000)) for k in range(shape.accounts)]
    for _ in range(shape.deposits):
        lines.append("(deposit (acct %d) %d)" % (rng.randrange(shape.accounts), rng.randrange(1, 101)))
    return "\n".join(lines) + "\n"


def _client_boot(creates):
    def boot(f):
        for v in creates:
            f.publish(v)

    return boot


def _observer_boot(number, seen):
    def boot(f):
        def on_balance(_hf, b):
            seen[number] = _num(b["amt"])

        f.on_asserted(rpat("balance", lit(number), cap("amt")), on_balance)

    return boot


def _build_ledger(creates, sink, seen):
    ds = Dataspace(trace_sink=sink)
    ds.spawn(bank_account_boot())
    ds.spawn(_client_boot(creates))
    for number in range(len(creates)):
        ds.spawn(_observer_boot(number, seen))
    return ds


def _balance(ds, number):
    found = ds.query(rpat("balance", lit(number), cap("amt")))
    return _num(found[0].fields[1]) if len(found) == 1 else None


def run_ledger_session(shape: LedgerShape, rng: random.Random, probe=NullProbe(), setup_only=False):
    """``market.bank_account_boot`` with every account in one actor, one
    observer actor per balance, and a stream of deposit messages."""
    text = ledger_script(shape, rng)
    sink = TraceDigest()
    seen = {}

    before = probe.pace()
    t0 = perf_counter()
    values = probe.call("values.parse", parse_all, text)
    creates = [v for v in values if v.label.name == "create-account"]
    deposits = [v for v in values if v.label.name == "deposit"]
    ds = probe.call("market.build", _build_ledger, creates, sink, seen)
    ds.run_until_quiescent()
    res = _setup_result(perf_counter() - t0, before, probe.pace())
    probe.end_setup(ds)
    if setup_only:
        return res

    # Account numbers follow the order in which the client's assertions
    # reached the bank actor; read them back rather than assume it.
    number_of = {
        v.fields[0]: v.fields[1].n
        for v in ds.query(rpat("account-for", cap("client"), cap("n")))
    }
    expected = {number_of.get(v.fields[0]): _num(v.fields[1]) for v in creates}
    if _crashed_since(ds, 0) or sorted(k for k in expected if k is not None) != list(range(len(creates))):
        res.failures.append("ledger setup did not open one account per client")
        res.failed_inputs.add(-1)

    paces = []
    for i, v in enumerate(deposits):
        number = v.fields[0].fields[0].n
        turns_before = len(ds.trace)
        res.inputs_attempted += 1
        paces.append(probe.pace())
        probe.begin_input(i)
        t = perf_counter()
        try:
            ds.inject_message(v)
            ds.run_until_quiescent()
        except MaxTurnsExceeded as e:
            probe.end_input()
            res.failed_inputs.add(i)
            res.failures.append("deposit %d: %s" % (i, e))
            break
        res.input_s.append(perf_counter() - t)
        probe.end_input()
        res.input_turns += len(ds.trace) - turns_before
        if number in expected:
            expected[number] += _num(v.fields[1])
        got = _balance(ds, number)
        if _crashed_since(ds, turns_before) or got != expected.get(number) or seen.get(number) != got:
            res.failed_inputs.add(i)
            res.failures.append(
                "deposit %d to account %d: balance %r, observer saw %r, expected %r"
                % (i, number, got, seen.get(number), expected.get(number))
            )

    paces.append(probe.pace())
    res.scales = input_scales(paces)
    for number, want in expected.items():
        got = _balance(ds, number)
        if got != want or seen.get(number) != got:
            res.failed_inputs.add(len(deposits) - 1)
            res.failures.append(
                "account %r ends at %r, observer saw %r, expected %r"
                % (number, got, seen.get(number), want)
            )
    res.digest = sink.hexdigest()
    probe.end_session(ds, res)
    return res


# ---------------------------------------------------------------------------
# The workload table


@dataclass(frozen=True)
class Workload:
    name: str
    shape: object

    def run_session(self, rng, probe=NullProbe(), setup_only=False):
        if isinstance(self.shape, LedgerShape):
            return run_ledger_session(self.shape, rng, probe, setup_only)
        return run_market_session(self.shape, rng, probe, setup_only)

    @property
    def min_sessions(self):
        """Sessions every run completes: at least 100 inputs."""
        return -(-100 // self.shape.inputs)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "simple-crowd",
            MarketShape("simple", buyers=16, steps=18, drain=3, open_ms=300, closed_ms=100),
        ),
        Workload(
            "extended-days",
            MarketShape(
                "extended",
                buyers=3,
                steps=8,
                drain=3,
                open_ms=150,
                closed_ms=50,
                sellers={"s1": 40, "s2": 55, "s3": 45},
                brokers={"k1": 0, "k2": 5, "k3": 2},
            ),
        ),
        Workload(
            "ledger-fanout",
            LedgerShape(accounts=32, deposits=64),
        ),
    ]
}


def session_rng(workload: str, seed: int, session: int) -> random.Random:
    """The generator for one session. String seeding is stable across
    processes and Python hash seeds."""
    return random.Random("%s:%d:%d" % (workload, seed, session))
