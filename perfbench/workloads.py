"""Workloads of the cycle-rees benchmark: op lists and their reference answers.

An op is one public library call.  Each op looks its function up on the
``cycle_rees`` package at call time, so a tracer that replaces the package
attribute sees the call.  The reference answers come from outside the engine:
the classification grid published with the acceptance suite, and the
theorems the invariants certify (CM type 2, a verified Hilbert series, both
families Groebner bases, a Pfaffian sign of +-1, rank equal to the fiber
dimension).

Sizes are trimmed so that one pass over a workload fits several times into a
run; see README.md for what was left out and why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import cycle_rees as cr

# The CLI's default per-computation budget, in seconds.
BUDGET_SECS = 60.0

# Known classification grid (row n lists t = 1 .. n-1), as in the acceptance
# suite; L linear, F fiber, x neither.
KNOWN_GRID = {
    3: "LL",
    4: "LFL",
    5: "LLLL",
    6: "LFFFL",
    7: "LLLxLL",
    8: "LFxFxFL",
    9: "LLFLxFLL",
    10: "LFLxFxxFL",
    11: "LLxxLxxxLL",
}
GLYPH = {"linear": "L", "fiber": "F", "neither": "x"}

LOW_T_ROWS = range(3, 11)
HIGH_T_ROWS = range(3, 10)
CM_TYPE_ROWS = range(3, 12, 2)
HILBERT_ROWS = range(3, 11)
FAMILY_ROWS = range(3, 13)
PFAFFIAN_ROWS = range(4, 13, 2)
RANK_ROWS = range(3, 13)


@dataclass(frozen=True)
class Op:
    """One library call; ``call`` takes the op's budget and returns the answer."""

    label: str
    call: Callable[[cr.Budget], object]
    expected: object


def _classify(n: int, t: int) -> Op:
    def call(budget: cr.Budget) -> str:
        # classify builds its own Budget from the seconds it is given
        record = cr.classify(n, t, BUDGET_SECS)
        if record.klass == "timeout":
            raise cr.BudgetExceeded(f"classify({n},{t})")
        return GLYPH[record.klass]

    return Op(f"classify({n},{t})", call, KNOWN_GRID[n][t - 1])


def _family_is_gb(name: str, n: int) -> Op:
    build = cr.family_n_minus_2 if name == "n2" else cr.family_half
    polys = list(build(n).values())
    order = cr.product_order(cr.cycle_ring(n))
    return Op(f"is_groebner_basis({name},{n})", lambda b: cr.is_groebner_basis(polys, order, b)[0], True)


def _invariants() -> list[Op]:
    ops = [Op(f"cm_type_odd({n})", lambda b, n=n: cr.cm_type_odd(n, b), 2) for n in CM_TYPE_ROWS]
    ops += [Op(f"verify_hilbert({n})", lambda b, n=n: cr.verify_hilbert(n, b), True) for n in HILBERT_ROWS]
    ops += [_family_is_gb("n2", n) for n in FAMILY_ROWS]
    ops += [_family_is_gb("half", n) for n in FAMILY_ROWS if n % 2 == 0]
    ops += [
        Op(f"pfaffian_fiber_sign({n})", lambda b, n=n: cr.pfaffian_fiber_sign(n)[0] in (1, -1), True)
        for n in PFAFFIAN_ROWS
    ]
    ops += [
        Op(f"circulant_rank({n},{t})", lambda b, n=n, t=t: cr.circulant_rank(n, t), cr.fiber_dimension(n, t))
        for n in RANK_ROWS
        for t in range(1, n)
    ]
    return ops


WORKLOADS: dict[str, Callable[[], list[Op]]] = {
    "grid-low-t": lambda: [_classify(n, t) for n in LOW_T_ROWS for t in range(1, n // 2 + 1)],
    "grid-high-t": lambda: [_classify(n, t) for n in HIGH_T_ROWS for t in range(n // 2 + 1, n)],
    "invariants": _invariants,
}


def build(workload: str) -> list[Op]:
    """The op list of a workload, in canonical order."""
    return WORKLOADS[workload]()
