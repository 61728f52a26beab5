import json

import pytest

from facetspace import expansions, rec
from facetspace.cli import main

HAPPY = """
; one buyer, ample funds
(place b1 o1 5 50)
(expect-quiescent)
(assert-order-result o1 fulfilled)
(assert-balance a1 800)
"""


def write(tmp_path, text):
    p = tmp_path / "script.txt"
    p.write_text(text)
    return str(p)


def test_run_simple_scenario(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code = main(["run", "--scenario", "simple", "--script", write(tmp_path, HAPPY), "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert "order o1: fulfilled" in out
    assert "balance a1: 800" in out
    lines = trace.read_text().splitlines()
    assert lines and all(set(json.loads(l)) == {"turn", "actor", "event", "actions", "crashed"} for l in lines)


def test_run_extended_scenario(tmp_path, capsys):
    script = write(tmp_path, "(place b1 o1 5 50)(advance 500)(expect-quiescent)(assert-balance a1 800)")
    code = main(["run", "--scenario", "extended", "--script", script, "--trace", str(tmp_path / "t.jsonl")])
    assert code == 0
    assert "order o1: fulfilled" in capsys.readouterr().out


def test_run_failing_assertion_exits_nonzero(tmp_path, capsys):
    script = write(tmp_path, "(place b1 o1 5 50)(expect-quiescent)(assert-balance a1 1)")
    code = main(["run", "--script", script, "--trace", str(tmp_path / "t.jsonl")])
    assert code == 1
    assert "script assertion failed" in capsys.readouterr().err


def test_run_rejects_bad_scripts(tmp_path, capsys):
    for text in ["(advance foo)", "(place b1 o1 5 50", "[" * 3000 + "]" * 3000]:
        script = write(tmp_path, text)
        assert main(["run", "--script", script, "--trace", str(tmp_path / "t.jsonl")]) == 2
        assert "bad script" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--wait-period", "0", "wait_period must be an integer >= 1, got 0"),
        ("--open-ms", "0", "open_ms must be an integer >= 1, got 0"),
        ("--open-ms", "-5", "open_ms must be an integer >= 1, got -5"),
        ("--closed-ms", "-1", "closed_ms must be an integer >= 0, got -1"),
    ],
)
def test_run_rejects_bad_timing_flags(tmp_path, capsys, flag, value, message):
    script = write(tmp_path, "(place b1 o1 5 50)(advance 500)(expect-quiescent)")
    argv = ["run", "--scenario", "extended", "--script", script, "--trace", str(tmp_path / "t.jsonl")]
    assert main(argv + [flag, value]) == 2
    assert message in capsys.readouterr().err


def test_bad_flag_leaves_an_existing_trace_file_alone(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text("old trace")
    argv = ["run", "--script", write(tmp_path, HAPPY), "--trace", str(trace), "--open-ms", "0"]
    assert main(argv) == 2
    assert "bad options: open_ms must be" in capsys.readouterr().err
    assert trace.read_text() == "old trace"


def test_run_accepts_closed_ms_zero_as_always_open(tmp_path, capsys):
    script = write(tmp_path, HAPPY)
    assert main(["run", "--script", script, "--trace", str(tmp_path / "t.jsonl"), "--closed-ms", "0"]) == 0


def test_run_reports_unreadable_script(tmp_path, capsys):
    for script in [str(tmp_path / "missing.txt"), str(tmp_path)]:
        assert main(["run", "--script", script, "--trace", str(tmp_path / "t.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("cannot read script %s: " % script)


def test_run_reports_unwritable_trace(tmp_path, capsys):
    trace = str(tmp_path / "no-such-dir" / "t.jsonl")
    assert main(["run", "--script", write(tmp_path, HAPPY), "--trace", trace]) == 2
    assert capsys.readouterr().err.startswith("cannot write trace %s: " % trace)


def test_run_deterministic_traces(tmp_path):
    script = write(tmp_path, HAPPY)
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for p in paths:
        assert main(["run", "--script", script, "--trace", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_expand_check(capsys):
    assert main(["expand-check", "--form", "during"]) == 0
    assert main(["expand-check", "--form", "state-machine"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 6


def test_expand_check_reports_a_mismatch(monkeypatch, capsys):
    # an expansion that never stops its children differs from during once
    # a value is retracted
    def leaky_boot(f):
        f.on_asserted(expansions.ITEM, lambda hf, b: hf.react(lambda cf: cf.publish(rec("seen", b["x"]))))
        f.on_retracted(expansions.ITEM, lambda hf, b: None)

    form_boot, _expanded, schedules, puppet = expansions.FORMS["during"]
    monkeypatch.setitem(expansions.FORMS, "during", (form_boot, leaky_boot, schedules, puppet))
    assert main(["expand-check", "--form", "during"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "during schedule 1: ok", "during schedule 2: MISMATCH", "during schedule 3: MISMATCH"]
