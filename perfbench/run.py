"""Benchmark for facetspace: a closed-loop host driving seeded workloads.

    python3 perfbench/run.py --workload simple-crowd --seed 1 --seconds 30 --trace 0

Runs one workload in this process: sessions of a fixed number of inputs,
each on a fresh Dataspace with the next script generated from ``--seed``,
until ``--seconds`` have passed and at least 100 inputs were run. Every
session's outputs are checked (see workloads.py). With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it runs the first sessions
of the seed under the tracer and prints the per-layer metrics, the tracing
overhead (when an untraced result for the same workload and seed exists)
and writes the span file. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The trace of a session must be byte-identical across processes: the first
session is replayed in a child process with another hash seed and a
perturbed heap, and a different SHA-256 counts as a failure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
HERE = Path(__file__).resolve().parent

# Set-ups measured per run, at least; setup_s is their median.
SETUPS_MIN = 5

# Seconds the child replaying the first session may take.
REPLAY_TIMEOUT_S = 120

# Printed in the table but left out of the result line, which carries the
# metrics BENCHMARK.json bounds. input_p50_ms falls between a cluster of
# cheap and one of expensive inputs, turn_p99_us is set by short bursts of
# the host, and both move by more than any allowed bound from run to run;
# the error rate is carried as "failed" / "attempted".
TABLE_ONLY = ("turn_p99_us", "input_p50_ms", "error_rate")


def _import_program():
    """Put this checkout's ``src`` first on the path and make sure that is
    the facetspace that gets imported."""
    if not (SRC / "facetspace" / "__init__.py").is_file():
        sys.exit("perfbench: no facetspace sources at %s" % SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import facetspace

    if not Path(facetspace.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit("perfbench: imported facetspace from %s, not %s" % (facetspace.__file__, SRC))


class WarningCounter(logging.Handler):
    """Keeps facetspace's log warnings (such as a cancel of an unknown
    order) off stderr during timed runs, counting them instead."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = {}

    def emit(self, record):
        self.counts[record.msg] = self.counts.get(record.msg, 0) + 1


def _quiet_program_logs() -> WarningCounter:
    counter = WarningCounter()
    log = logging.getLogger("facetspace")
    log.addHandler(counter)
    log.propagate = False
    return counter


def _run_sessions(workload, seed, probe, seconds=None):
    """The workload's first ``min_sessions`` sessions, then further ones
    until ``seconds`` have passed; with no ``seconds``, only the first."""
    from workloads import session_rng

    sessions = []
    start = perf_counter()
    while len(sessions) < workload.min_sessions or (
        seconds is not None and perf_counter() - start < seconds
    ):
        sessions.append(workload.run_session(session_rng(workload.name, seed, len(sessions)), probe))
        gc.collect()  # drop the finished session's cycles outside the timed inputs
    return sessions


def _replay_digest(workload, seed) -> str:
    """SHA-256 of the first session's trace, computed in a child process
    with another hash seed and a perturbed heap."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str((seed * 7919 + 1) % 4294967296)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(seed), "--replay"],
            cwd=str(ROOT),
            env=env,
            capture_output=True,
            text=True,
            timeout=REPLAY_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "replay timed out after %d s" % REPLAY_TIMEOUT_S
    lines = proc.stdout.split()
    return lines[-1] if proc.returncode == 0 and lines else "replay failed: %s" % proc.stderr[-300:]


def _window_digest(sessions, count):
    h = hashlib.sha256()
    for s in sessions[:count]:
        h.update(s.digest.encode())
    return h.hexdigest()


def _inputs_per_s(sessions):
    """Inputs per second of host waiting, scaled to the reference host."""
    return sum(len(s.input_s) for s in sessions) / sum(
        t * c for s in sessions for t, c in zip(s.input_s, s.scales)
    )


def _end_to_end(sessions, setups, failed, attempted, scaled=True):
    """The end-to-end metrics; times are scaled to the reference host
    (workloads.REFERENCE_S) unless ``scaled`` is false."""
    from workloads import percentile

    def pairs(s, per_input):
        return zip(per_input, s.scales if scaled else [1.0] * len(per_input))

    input_s = [t * c for s in sessions for t, c in pairs(s, s.input_s)]
    turn_s = [t * c for s in sessions for turns, c in pairs(s, s.turn_s) for t in turns]
    busy = sum(input_s)
    return {
        "setup_s": (statistics.median(s.setup_s if scaled else s.setup_raw_s for s in setups), "s"),
        "inputs_per_s": (len(input_s) / busy, "1/s"),
        "turns_per_s": (sum(s.input_turns for s in sessions) / busy, "1/s"),
        "turn_p50_us": (percentile(turn_s, 0.50) * 1e6, "us"),
        "turn_p99_us": (percentile(turn_s, 0.99) * 1e6, "us"),
        "input_p50_ms": (percentile(input_s, 0.50) * 1e3, "ms"),
        "input_p90_ms": (percentile(input_s, 0.90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": (failed / attempted if attempted else 1.0, "ratio"),
    }


def _print_table(title, rows):
    print(title)
    width = max(len(row[0]) for row in rows)
    for name, *values, unit, note in rows:
        print("  %-*s %s %-6s %s" % (width, name, " ".join("%14.6g" % v for v in values), unit, note))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS, session_rng

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    warnings = _quiet_program_logs()

    if args.replay:
        ballast = [object() for _ in range(100_000 + args.seed % 997)]  # shifts every address
        print(workload.run_session(session_rng(workload.name, args.seed, 0)).digest)
        del ballast
        return 0

    if args.trace:
        from tracing import MOVES, Tracer, reduce_spans

        probe = Tracer()
        probe.install()
        t0 = perf_counter()
        try:
            sessions = _run_sessions(workload, args.seed, probe)
        finally:
            probe.uninstall()
        wall = perf_counter() - t0
    else:
        from workloads import TurnClock

        probe = TurnClock()
        probe.install()
        try:
            sessions = _run_sessions(workload, args.seed, probe, args.seconds)
        finally:
            probe.uninstall()
        setups = list(sessions)
        while len(setups) < SETUPS_MIN:
            rng = session_rng(workload.name, args.seed, len(setups))
            setups.append(workload.run_session(rng, probe, setup_only=True))
            gc.collect()

    replayed = _replay_digest(workload, args.seed)
    failures = ["session %d: %s" % (k, line) for k, s in enumerate(sessions) for line in s.failures]
    failed = sum(len(s.failed_inputs) for s in sessions)
    if replayed != sessions[0].digest:
        failed += 1
        failures.append(
            "session 0: trace differs across processes: %s vs %s" % (sessions[0].digest, replayed)
        )
    attempted = sum(s.inputs_attempted for s in sessions)
    inputs = sum(len(s.input_s) for s in sessions)

    print("workload %s, seed %d: %d sessions, %d inputs, %d turns"
          % (workload.name, args.seed, len(sessions), inputs, sum(s.input_turns for s in sessions)))
    print("trace sha256, session 0: %s (child process: %s)"
          % (sessions[0].digest, "same" if replayed == sessions[0].digest else replayed))
    print("trace sha256, first %d sessions: %s"
          % (workload.min_sessions, _window_digest(sessions, workload.min_sessions)))
    for line in failures[:20]:
        print("FAILED: %s" % line)
    if warnings.counts:
        print("facetspace log warnings: %s"
              % "; ".join("%d x %r" % (n, msg) for msg, n in sorted(warnings.counts.items())))

    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d" % (workload.name, args.seed)
    if args.trace:
        metrics = reduce_spans(probe)
        traced_rate = _inputs_per_s(sessions)
        metrics["trace.inputs_per_s"] = {"value": traced_rate, "unit": "1/s"}
        spans_path = OUT / ("spans-%s.jsonl" % stem)
        probe.write(spans_path)
        _print_table(
            "per-layer metrics over the first %d sessions (%.1f s traced)" % (len(sessions), wall),
            [(k, m["value"], m["unit"], MOVES.get(k, "")) for k, m in metrics.items()],
        )
        print("spans: %d written to %s" % (len(probe.spans), spans_path.relative_to(ROOT)))
        untraced = OUT / ("%s-trace0.json" % stem)
        base = json.loads(untraced.read_text()).get("window_inputs_per_s") if untraced.is_file() else None
        if base:
            print("tracing overhead over the same sessions: untraced %.2f inputs/s, traced %.2f inputs/s,"
                  " difference %.2f (%.1f%%)"
                  % (base, traced_rate, base - traced_rate, 100 * (base - traced_rate) / base))
        else:
            print("tracing overhead: no untraced result for this seed yet; run with --trace 0 first")
    else:
        e2e = _end_to_end(sessions, setups, failed, attempted)
        raw = _end_to_end(sessions, setups, failed, attempted, scaled=False)
        turns = sum(len(t) for s in sessions for t in s.turn_s)
        _print_table(
            "end-to-end metrics (%d set-ups, %d turns, %d inputs); reference host, then as measured"
            % (len(setups), turns, inputs),
            [(k, v, raw[k][0], u, "(table only)" if k in TABLE_ONLY else "") for k, (v, u) in e2e.items()],
        )
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items() if k not in TABLE_ONLY}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    saved = dict(result, window_inputs_per_s=_inputs_per_s(sessions[: workload.min_sessions]))
    (OUT / ("%s-trace%d.json" % (stem, args.trace))).write_text(json.dumps(saved) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
