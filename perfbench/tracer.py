"""Outside-in tracer for cycle-rees: spans around public library functions.

The library's source is not touched.  Entering a ``Tracer`` replaces each public
function of the traced modules by a wrapper in every ``cycle_rees`` namespace
that binds it, because the modules import one another's functions by name
(``classify`` calls its own ``buchberger`` binding, ``Ideal.groebner_basis``
the one in ``groebner``).  ``OrderSpec.key_function`` is wrapped on the class,
and ``Budget`` is replaced everywhere by a subclass that records each
instance, so the budget steps of every op can be read afterwards.

``rings`` is deliberately not traced: its public names are the monomial
helpers, called millions of times per cell, and wrapping them would measure
the tracer.

Each call leaves a span (name, parent span, start, end); a span's self time
is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

TRACED_MODULES = ("groebner", "orders", "rees", "classify", "monomial_ideals", "linalg")

# Functions reported with calls, total_s and self_s.
REPORTED = (
    "groebner.buchberger",
    "groebner.normal_form",
    "groebner.ideal_membership",
    "groebner.eliminate",
    "groebner.is_groebner_basis",
    "orders.key_function",
    "rees.rees_ideal",
    "rees.fiber_ideal",
    "rees.sym_relations",
    "classify.classify",
    "classify.cm_type_odd",
    "classify.verify_hilbert",
    "monomial_ideals.initial_ideal",
    "monomial_ideals.hilbert_numerator",
    "linalg.sparse_rank",
)

# Callers that buchberger's self time is split by; the nearest one of these
# above a buchberger span owns it, anything else is "other".
BUCHBERGER_CALLERS = ("rees.rees_ideal", "classify.classify", "rees.fiber_ideal", "groebner.ideal_membership")

# Per-layer metrics that are exact work counts; they repeat across runs.
COUNTS = tuple(f"{name}.calls" for name in REPORTED) + (
    "groebner.buchberger.gens_in",
    "groebner.buchberger.basis_out",
    "groebner.budget_steps",
)


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    counts: dict[str, int] | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    budgets: list = field(default_factory=list)
    # (n, t, Rees ideal) per rees_ideal call, for the basis digest check
    rees_results: list = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def reset(self) -> None:
        self.spans, self.budgets, self.rees_results = [], [], []

    def __enter__(self) -> "Tracer":
        """Install the wrappers; leaving the ``with`` block removes them."""
        groebner = sys.modules["cycle_rees.groebner"]
        orders = sys.modules["cycle_rees.orders"]
        replace: dict[int, object] = {}
        for layer in TRACED_MODULES:
            module = sys.modules[f"cycle_rees.{layer}"]
            for name, obj in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replace[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        replace[id(groebner.Budget)] = self._recording_budget(groebner.Budget)
        namespaces = [m for name, m in sys.modules.items() if name == "cycle_rees" or name.startswith("cycle_rees.")]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                if id(obj) in replace:
                    self._patch(module, name, replace[id(obj)])
        key_function = orders.OrderSpec.key_function
        self._patch(orders.OrderSpec, "key_function", self._wrap("orders.key_function", key_function))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, owner: object, name: str, new: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _recording_budget(self, budget_cls: type) -> type:
        tracer = self

        class RecordingBudget(budget_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.budgets.append(self)

        return RecordingBudget

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            span = Span(name, stack[-1] if stack else -1, perf_counter())
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, span, args, kwargs, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for name in REPORTED:
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        by = {caller: 0.0 for caller in BUCHBERGER_CALLERS + ("other",)}
        membership_misses: set[int] = set()
        gens_in = basis_out = 0
        for sid, s in enumerate(spans):
            if s.name not in REPORTED:
                continue
            duration = s.end - s.start
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.total_s"] += duration
            out[f"{s.name}.self_s"] += duration - child[sid]
            if s.name == "groebner.buchberger":
                owner = self._owner(sid)
                by[spans[owner].name if owner >= 0 else "other"] += duration - child[sid]
                if owner >= 0 and spans[owner].name == "groebner.ideal_membership":
                    membership_misses.add(owner)
                if s.counts:
                    gens_in += s.counts["gens_in"]
                    basis_out += s.counts["basis_out"]
        for caller, seconds in by.items():
            out[f"groebner.buchberger.self_s.by.{caller.split('.')[-1]}"] = seconds
        out["groebner.buchberger.gens_in"] = gens_in
        out["groebner.buchberger.basis_out"] = basis_out
        # Every metric is reported on every workload; with no membership
        # call there is no miss, and ``.calls`` shows that the layer was idle.
        memberships = out["groebner.ideal_membership.calls"]
        out["groebner.ideal_membership.gb_cache_hit_frac"] = (
            1.0 - len(membership_misses) / memberships if memberships else 1.0
        )
        out["groebner.budget_steps"] = sum(b.steps for b in self.budgets)
        return out

    def _owner(self, sid: int) -> int:
        parent = self.spans[sid].parent
        while parent >= 0 and self.spans[parent].name not in BUCHBERGER_CALLERS:
            parent = self.spans[parent].parent
        return parent


def _buchberger_counts(tracer: Tracer, span: Span, args, kwargs, result) -> None:
    gens = args[0] if args else kwargs["generators"]
    span.counts = {"gens_in": len(gens), "basis_out": len(result)}


def _capture_rees(tracer: Tracer, span: Span, args, kwargs, result) -> None:
    spec = args[0] if args else kwargs["spec"]
    tracer.rees_results.append((spec.n, spec.t, result))


_HOOKS = {"groebner.buchberger": _buchberger_counts, "rees.rees_ideal": _capture_rees}


def wrapper_cost() -> float:
    """Seconds one wrapper adds to a call: a wrapped no-op against a bare one, best of five rounds."""
    calls = 20_000

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("calibration", noop)
    best = float("inf")
    for _ in range(5):
        tracer.reset()
        t0 = perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = perf_counter()
        for _ in range(calls):
            noop()
        t2 = perf_counter()
        best = min(best, (t1 - t0) - (t2 - t1))
    return best / calls


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if any(part.endswith("_s") for part in name.split(".")):
        return "s"
    return "frac" if name.endswith("_frac") else "count"


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
