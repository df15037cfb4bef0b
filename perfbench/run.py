"""Closed-loop benchmark of cycle-rees: one client, one public call per op.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-low-t --seed 1 --seconds 44 --trace 0

The runner builds the workload's op list, then makes passes over it, each in
an order drawn from ``--seed``, for ``--seconds`` seconds.  Every answer is
checked against its reference.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced passes.  ``--trace 1``
reports the per-layer metrics of traced passes (see tracer.py); it also checks
each Rees basis a pass builds against the digests in rees_digests.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "rees_digests.json"

# Set-up as a user pays it: a fresh interpreter imports the library and
# builds the op list.
SETUP_PROBE = "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; workloads.build(sys.argv[3])"
# No op starts after this many seconds, so a run ends within three minutes
# even if an op runs into its 60 s budget.  Ops skipped at the stop are not
# attempted; the pass they belong to is reported as incomplete.
HARD_STOP_S = 100.0


def host_calibration() -> float:
    """Seconds for a fixed pure-Python loop; a diagnostic of host speed."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def code_identity() -> dict[str, str]:
    """The git commit if the checkout is a repository, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": git_sha(), "src_sha256": digest.hexdigest()}


def git_sha() -> str:
    """HEAD's commit, read from the checkout's own .git; "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_time(workload: str) -> float:
    """Wall time of a fresh process that imports and builds the op list."""
    start = time.perf_counter()
    # no timeout: with one, wait() polls in steps of up to 50 ms, which
    # would quantise the measurement
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), workload], cwd=ROOT, check=True)
    return time.perf_counter() - start


@dataclass
class Pass:
    """Outcome of one pass over the op list.

    A pass cut by the hard stop has ``skipped`` ops; its ``wall`` is then the
    time until the cut, a lower bound.
    """

    wall: float = 0.0
    slowest: float = 0.0
    skipped: int = 0
    failed: set[int] = field(default_factory=set)
    wrong: list[str] = field(default_factory=list)


class Runner:
    """One client making the workload's ops in sequence, pass after pass."""

    def __init__(self, cr, workloads, workload: str, seed: int, deadline: float):
        self.cr = cr
        self.workload = workload
        self.budget_secs = workloads.BUDGET_SECS
        self.ops = workloads.build(workload)
        self.rng = random.Random(seed)
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.incomplete_passes = 0
        self.wrong: list[str] = []

    def next_order(self) -> list[int]:
        order = list(range(len(self.ops)))
        self.rng.shuffle(order)
        return order

    def run_pass(self, order: list[int], on_op=None) -> Pass:
        cr = self.cr
        result = Pass()
        start = time.perf_counter()
        for i in order:
            op = self.ops[i]
            if time.perf_counter() > self.deadline:
                result.skipped += 1
                continue
            budget = cr.Budget(seconds=self.budget_secs)
            t0 = time.perf_counter()
            try:
                answer = op.call(budget)
            except cr.BudgetExceeded:
                answer = None
                result.failed.add(i)
            except Exception as exc:  # a crash is a wrong answer, not a lost run
                answer = None
                result.failed.add(i)
                result.wrong.append(f"{op.label}: {type(exc).__name__}: {exc}")
            result.slowest = max(result.slowest, time.perf_counter() - t0)
            if answer is not None and answer != op.expected:
                result.failed.add(i)
                result.wrong.append(f"{op.label}: got {answer!r}, expected {op.expected!r}")
            if on_op is not None:
                on_op(i)
        result.wall = time.perf_counter() - start
        return result

    def tally(self, p: Pass) -> None:
        self.attempted += len(self.ops) - p.skipped
        self.failed += len(p.failed)
        self.wrong.extend(p.wrong)
        if p.skipped:
            self.incomplete_passes += 1
            print(f"warning: hard stop after {HARD_STOP_S:g} s skipped {p.skipped} ops of a pass", file=sys.stderr)

    def end_to_end(self, seconds: float) -> dict[str, tuple[float, str]]:
        """Untraced passes for ``seconds``; means over the passes.

        On a shared host the speed drifts in phases of seconds to minutes
        (see README.md).  A mean over every pass of the run averages over the
        whole run, where a median of three to ten passes rests on one or two.
        Set-up is timed once after every pass for the same reason; more
        timings per pass would take passes, and so samples of the slowest op,
        out of the run.
        """
        t_end = time.perf_counter() + seconds
        passes: list[Pass] = []
        setup: list[float] = []
        while not passes or time.perf_counter() + passes[-1].wall <= t_end:
            passes.append(self.run_pass(self.next_order()))
            self.tally(passes[-1])
            setup.append(setup_time(self.workload))
        return {
            "wall_s": (statistics.mean(p.wall for p in passes), "s"),
            "slowest_op_s": (statistics.mean(p.slowest for p in passes), "s"),
            "ok_frac": (1.0 - self.failed / self.attempted, "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }

    def per_layer(self, tracing, seconds: float) -> dict[str, float]:
        """Traced passes for ``seconds``; medians over the passes."""
        digests = json.loads(DIGESTS.read_text())
        tracer = tracing.Tracer()
        t_end = time.perf_counter() + seconds
        walls: list[float] = []
        spans: list[int] = []
        layer_passes: list[dict[str, float]] = []
        while not walls or time.perf_counter() + walls[-1] <= t_end:
            rees_by_op: dict[int, list] = {}

            def collect(i: int) -> None:
                rees_by_op[i], tracer.rees_results = tracer.rees_results, []

            with tracer:
                p = self.run_pass(self.next_order(), on_op=collect)
            for i, results in rees_by_op.items():
                for n, t, ideal in results:
                    if rees_digest(self.cr, ideal) != digests.get(f"{n},{t}"):
                        p.failed.add(i)
                        p.wrong.append(f"{self.ops[i].label}: Rees basis of ({n},{t}) differs from the recorded one")
            self.tally(p)
            walls.append(p.wall)
            spans.append(len(tracer.spans))
            layer_passes.append(tracer.metrics())
            tracer.reset()
        for name in tracing.COUNTS:
            if len({p[name] for p in layer_passes}) > 1:
                print(f"warning: count {name} differs between traced passes", file=sys.stderr)
        layer = tracing.median_metrics(layer_passes)
        # The wrappers' cost is far below the host's pass-to-pass noise, so
        # it is estimated as spans times the measured cost of one wrapper.
        layer["trace.overhead_s"] = statistics.median(spans) * tracing.wrapper_cost()
        return layer


def rees_digest(cr, ideal) -> str:
    """sha256 of the sorted canonical texts of the reduced product-order basis."""
    basis = ideal.groebner_basis(cr.product_order(ideal.ring))
    return hashlib.sha256("\n".join(sorted(g.to_text() for g in basis)).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cycle_rees" / "__init__.py").is_file():
        print(f"error: no cycle_rees package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cycle_rees as cr
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    started = time.perf_counter()
    calib_before = host_calibration()
    runner = Runner(cr, workloads, args.workload, args.seed, started + HARD_STOP_S)
    if args.trace:
        import tracer as tracing

        layer = runner.per_layer(tracing, args.seconds)
    else:
        metrics = runner.end_to_end(args.seconds)
    calib_after = host_calibration()
    if args.trace:
        layer["host.calib_s"] = (calib_before + calib_after) / 2
        metrics = {name: (value, tracing.unit_of(name)) for name, value in layer.items()}
    host = {
        "calib_before_s": calib_before,
        "calib_after_s": calib_after,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **code_identity(),
    }
    for line in runner.wrong:
        print(f"wrong: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "host": host,
                "workload": args.workload,
                "seed": args.seed,
                "incomplete_passes": runner.incomplete_passes,
                "run_s": time.perf_counter() - started,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not runner.wrong,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
