"""The engine's work and its reduced bases, pinned by the benchmark's own records.

perfbench/selftest.py pins exact work counts (calls, basis sizes, budget steps)
of two cells, and perfbench/rees_digests.json holds a digest of every Rees
basis the benchmark builds.  Checking both here makes a change to the engine's
hot paths that alters the work done or a reduced basis fail the default suite.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import cycle_rees

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (perfbench/run.py)
import selftest  # noqa: E402  (perfbench/selftest.py)

DIGESTS = json.loads((PERFBENCH / "rees_digests.json").read_text())
CELLS = sorted(tuple(map(int, cell.split(","))) for cell in DIGESTS)


def test_selftest_pins_hold():
    assert selftest.main() == 0


@pytest.mark.parametrize("n,t", CELLS)
def test_rees_basis_matches_recorded_digest(n, t, rees_cache):
    assert run.rees_digest(cycle_rees, rees_cache(n, t)) == DIGESTS[f"{n},{t}"]
