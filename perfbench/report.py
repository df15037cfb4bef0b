"""Run the benchmark on every workload and print each metric by name and unit.

From the root of a checkout:

    python3 perfbench/report.py                      # one run per workload
    python3 perfbench/report.py --runs 10 --save a.json
    python3 perfbench/report.py --runs 10 --baseline a.json

It runs every workload of BENCHMARK.json for its ``run_seconds``.  Each run
is a fresh process of run.py with its own seed (1, 2, ...).  With several
runs the table shows each metric's median and its spread, the distance
between the first and third quartile as a share of the median, next to the
bound in BENCHMARK.json.  ``--trace 1`` prints the per-layer metrics instead
of the end-to-end ones.  ``--baseline`` compares the medians with those of a
saved set of runs: a metric whose median is worse than the baseline's by more
than its bound is marked REGRESSED.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    *_, host_line, result_line = proc.stdout.splitlines()
    return {**json.loads(result_line), **json.loads(host_line)}


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = abs(statistics.median(values))
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write the raw results of every run here")
    parser.add_argument("--baseline", type=Path, help="raw results saved by an earlier --save")
    args = parser.parse_args()

    metrics = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    baseline = json.loads(args.baseline.read_text()) if args.baseline else {}
    results: dict[str, list[dict]] = {}
    all_correct = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = results[workload] = []
        for seed in range(1, args.runs + 1):
            out = run_once(workload, seed, args.trace)
            runs.append(out)
            all_correct &= out["correct"] and out["failed"] == 0
            print(f"# {workload} seed {seed}: correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']}", file=sys.stderr)
        print(f"{workload}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median = statistics.median(values)
            line = f"  {m['name']:50s} {median:14.6g} {m['unit']:6s}"
            if args.runs > 1:
                line += f" spread {spread(values):6.3f}"
            if "bound" in m:
                line += f" bound {m['bound']:g}"
            base = baseline.get(workload)
            if base and "bound" in m:
                base_median = statistics.median(r["metrics"][m["name"]]["value"] for r in base)
                change = (median - base_median) / base_median
                worse = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
                line += f" vs baseline {change:+.3f}{' REGRESSED' if worse else ''}"
            print(line)
    if args.save:
        args.save.write_text(json.dumps(results, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
