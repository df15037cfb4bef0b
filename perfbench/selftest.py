"""Self-test of the tracer's work counts on two small cells.

From the root of a checkout:

    python3 perfbench/selftest.py

Classifies each cell twice under the tracer and checks that the exact work
counts (calls, basis sizes, key compiles, budget steps) repeat and equal the
values pinned below.  A change to the engine that alters the work done shows
here as a count that moved; update the pins in the same change and say why.
"""

from __future__ import annotations

import sys

import run

# Non-zero exact counts of classify(n, t) at the commit that added them:
# (7, 4) is a "neither" cell, (8, 6) a "fiber" cell.
PINNED: dict[tuple[int, int], dict[str, int]] = {
    (7, 4): {
        "groebner.buchberger.calls": 3,
        "groebner.normal_form.calls": 39,
        "groebner.ideal_membership.calls": 39,
        "groebner.eliminate.calls": 2,
        "orders.key_function.calls": 43,
        "rees.rees_ideal.calls": 1,
        "rees.fiber_ideal.calls": 1,
        "rees.sym_relations.calls": 1,
        "classify.classify.calls": 1,
        "groebner.buchberger.gens_in": 44,
        "groebner.buchberger.basis_out": 80,
        "groebner.budget_steps": 1450,
    },
    (8, 6): {
        "groebner.buchberger.calls": 4,
        "groebner.normal_form.calls": 79,
        "groebner.ideal_membership.calls": 79,
        "groebner.eliminate.calls": 2,
        "orders.key_function.calls": 83,
        "rees.rees_ideal.calls": 1,
        "rees.fiber_ideal.calls": 1,
        "rees.sym_relations.calls": 1,
        "classify.classify.calls": 1,
        "groebner.buchberger.gens_in": 76,
        "groebner.buchberger.basis_out": 110,
        "groebner.budget_steps": 2370,
    },
}


def traced_counts(cr, tracing, n: int, t: int) -> dict[str, int]:
    tracer = tracing.Tracer()
    with tracer:
        cr.classify(n, t, 60.0)
    metrics = tracer.metrics()
    return {name: metrics[name] for name in tracing.COUNTS if metrics[name]}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import cycle_rees as cr
    import tracer as tracing

    ok = True
    for (n, t), pinned in PINNED.items():
        first = traced_counts(cr, tracing, n, t)
        second = traced_counts(cr, tracing, n, t)
        if first != second:
            ok = False
            print(f"classify({n},{t}): counts differ between two traced runs:\n  {first}\n  {second}")
        elif first != pinned:
            ok = False
            moved = {k: (pinned.get(k, 0), first.get(k, 0)) for k in pinned.keys() | first.keys() if pinned.get(k) != first.get(k)}
            print(f"classify({n},{t}): counts moved (pinned, now): {moved}")
        else:
            print(f"classify({n},{t}): {len(first)} counts repeat and match the pins")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
