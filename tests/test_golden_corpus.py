"""Replay guard: the golden corpus must reproduce its committed trace
digests, in this process and in a child process whose hash seed and heap
layout differ (criterion 10 only compares runs within one process). The
child cannot import ``hypothesis``, so the corpus runs without the test
dependencies. The reference model must write each corpus trace too."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import facetspace
import facetspace.expansions
import facetspace.market
import golden_corpus
from conftest import runtime_switched_off
from golden_corpus import DIGESTS, corpus, digests
from reference_model import ModelDataspace


def _mismatches(got: dict) -> list:
    want = json.loads(DIGESTS.read_text())
    return sorted(name for name in want.keys() | got.keys() if got.get(name) != want.get(name))


def test_golden_digests_in_process():
    assert _mismatches(digests()) == []


def test_golden_digests_in_perturbed_child():
    src = str(Path(facetspace.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(DIGESTS.parent)])
    env = dict(os.environ, PYTHONHASHSEED="4242", PYTHONPATH=path)
    script = str(DIGESTS.with_name("golden_corpus.py"))
    prelude = (
        'import runpy, sys; sys.modules["hypothesis"] = None; '
        'runpy.run_path(sys.argv.pop(1), run_name="__main__")'
    )
    out = subprocess.run(
        [sys.executable, "-c", prelude, script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert _mismatches(json.loads(out.stdout)) == []


@pytest.mark.parametrize("name", sorted(corpus()))
def test_the_reference_model_writes_the_runtimes_trace(name, monkeypatch):
    run = corpus()[name]
    runtime = run()
    for module in (golden_corpus, facetspace.market, facetspace.expansions):
        monkeypatch.setattr(module, "Dataspace", ModelDataspace)
    with runtime_switched_off():
        model = run()
    assert model == runtime
