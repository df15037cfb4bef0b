"""Record the digests of every Rees basis the benchmark's workloads build.

Run from the root of a checkout whose Rees bases are trusted:

    python3 perfbench/record_digests.py

It makes one traced pass over each workload, digests the reduced basis of
every Rees ideal built (see run.rees_digest) and writes rees_digests.json.
Traced benchmark runs compare against that file, so a change that alters any
reduced basis shows as a failed op.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import cycle_rees as cr
    import tracer as tracing
    import workloads

    digests: dict[str, str] = {}
    tracer = tracing.Tracer()
    for name in workloads.WORKLOADS:
        ops = workloads.build(name)
        with tracer:
            for op in ops:
                if op.call(cr.Budget(seconds=workloads.BUDGET_SECS)) != op.expected:
                    raise SystemExit(f"{op.label} disagrees with its reference; not recording")
        for n, t, ideal in tracer.rees_results:
            digests[f"{n},{t}"] = run.rees_digest(cr, ideal)
        tracer.reset()
    ordered = dict(sorted(digests.items(), key=lambda kv: tuple(map(int, kv[0].split(",")))))
    run.DIGESTS.write_text(json.dumps(ordered, indent=1) + "\n")
    print(f"wrote {len(ordered)} digests to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
