"""Replay guard: the golden corpus must reproduce its committed trace
digests, in this process and in a child process whose hash seed and heap
layout differ (criterion 10 only compares runs within one process)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import facetspace
from golden_corpus import DIGESTS, digests


def _mismatches(got: dict) -> list:
    want = json.loads(DIGESTS.read_text())
    return sorted(name for name in want.keys() | got.keys() if got.get(name) != want.get(name))


def test_golden_digests_in_process():
    assert _mismatches(digests()) == []


def test_golden_digests_in_perturbed_child():
    src = str(Path(facetspace.__file__).resolve().parents[1])
    # keep the inherited path: test dependencies may come through it
    path = [src, str(DIGESTS.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONHASHSEED="4242", PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, str(DIGESTS.with_name("golden_corpus.py"))],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert _mismatches(json.loads(out.stdout)) == []
