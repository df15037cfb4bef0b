"""Linear/fiber/neither classification and the structural invariants.

Per cell (n, t) the classifier computes the symmetric-algebra relations L,
the Rees ideal J (by elimination), the fiber relations H, and decides

    linear   J = L
    fiber    J = L + H T
    neither  otherwise

with an optional per-cell budget; cells that run out of budget are reported
as "timeout", never guessed.  The module also hosts the closed-form fiber
dimension, the circulant-rank cross-check, the Hilbert series closed forms
(a palindromic numerator witnesses Gorenstein, by Stanley's criterion for
domains), and the Cohen-Macaulay type of the Artinian reduction for odd n.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat
from math import comb, gcd

from .groebner import Budget, BudgetExceeded, Ideal, _reducer, ideal_equal, ideal_membership
from .linalg import sparse_rank
from .monomial_ideals import HilbertSeries, hilbert_numerator, initial_ideal
from .orders import grevlex_order, product_order
from .rees import PathIdealSpec, artinian_reduction_ideal, certify_rees, family_n_minus_2, fiber_ideal, rees_ideal
from .rees import sym_relations
from .rings import InvariantError, cycle_ring


def fiber_dimension(n: int, t: int) -> int:
    """Krull dimension of the fiber cone: n - gcd(n, t) + 1."""
    PathIdealSpec(n, t)
    return n - gcd(n, t) + 1


def circulant_rank(n: int, t: int) -> int:
    """Exact rank of the circulant of the t-window indicator vector.

    Column j is the j-fold cyclic shift of (1,...,1,0,...,0) with t ones;
    this is the exponent matrix of the monomial map defining the fiber cone.
    """
    if n < 1 or not 1 <= t <= n:
        raise ValueError("need 1 <= t <= n")
    return sparse_rank({j: 1 for j in range(n) if (i - j) % n < t} for i in range(n))


@dataclass
class ClassRecord:
    """Outcome of classifying one (n, t) cell."""

    n: int
    t: int
    klass: str  # linear | fiber | neither | timeout
    gcd: int
    fiber_dim: int
    ms: dict[str, float] = field(default_factory=dict)
    witness: str | None = None

    def to_json(self, include_ms: bool = False) -> dict[str, object]:
        out: dict[str, object] = {
            "n": self.n,
            "t": self.t,
            "class": self.klass,
            "gcd": self.gcd,
            "fiber_dim": self.fiber_dim,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if include_ms:
            out["ms"] = {k: round(v, 3) for k, v in self.ms.items()}
        return out


def _verdict(spec: PathIdealSpec, budget: Budget | None, ms: dict[str, float]) -> tuple[str, str | None]:
    """The cell's class and neither-witness, timing each stage into ``ms``.

    Raises BudgetExceeded when the budget runs out.
    """
    t0 = time.perf_counter()
    L = sym_relations(spec)
    order = product_order(L.ring)
    L.groebner_basis(order, budget)
    t1 = time.perf_counter()
    ms["sym"] = (t1 - t0) * 1000
    J = rees_ideal(spec, budget)
    t2 = time.perf_counter()
    ms["rees"] = (t2 - t1) * 1000
    if ideal_equal(L, J, order, budget):
        return "linear", None
    H = fiber_ideal(J, budget)
    ms["fiber"] = (time.perf_counter() - t2) * 1000
    if not H.generators:
        # H = 0 makes fiber type equivalent to linear type, already false
        return "neither", _neither_witness(J, L, budget)
    LH = Ideal(J.ring, L.generators + tuple(g.to_ring(J.ring) for g in H.generators))
    if ideal_equal(LH, J, order, budget):
        return "fiber", None
    return "neither", _neither_witness(J, LH, budget)


def classify(n: int, t: int, budget_secs: float | None = None) -> ClassRecord:
    """Full classification of one cell, with per-stage timings in ms."""
    spec = PathIdealSpec(n, t)
    record = ClassRecord(n=n, t=t, klass="timeout", gcd=spec.d, fiber_dim=fiber_dimension(n, t))
    budget = Budget(seconds=budget_secs) if budget_secs is not None else None
    try:
        record.klass, record.witness = _verdict(spec, budget, record.ms)
    except BudgetExceeded:
        pass  # klass stays "timeout": never guessed
    return record


def _neither_witness(J: Ideal, smaller: Ideal, budget: Budget | None) -> str:
    """A generator of J outside the candidate ideal, as canonical text; the
    caller found the two unequal, so finding none is an InvariantError."""
    order = product_order(J.ring)
    for g in J.generators:
        if not ideal_membership(g, smaller, order, budget):
            return g.to_text()
    raise InvariantError("J differs from the candidate ideal but contains no generator outside it")


def classification_table(
    n_min: int,
    n_max: int,
    budget_secs: float | None = None,
    jobs: int = 1,
) -> list[ClassRecord]:
    """Classify the full grid 1 <= t <= n-1 for n_min <= n <= n_max.

    Cells are independent; with jobs > 1 they run in a process pool and the
    results are merged in (n, t) order, so output is deterministic.
    """
    if not 3 <= n_min <= n_max:
        raise ValueError("need 3 <= n_min <= n_max")
    ns, ts = zip(*[(n, t) for n in range(n_min, n_max + 1) for t in range(1, n)])
    if jobs <= 1:
        return list(map(classify, ns, ts, repeat(budget_secs)))
    from concurrent.futures import ProcessPoolExecutor  # about 30 ms of imports, paid only here

    with ProcessPoolExecutor(max_workers=min(jobs, len(ns))) as pool:
        return list(pool.map(classify, ns, ts, repeat(budget_secs), chunksize=1))


GLYPHS = {"linear": "L", "fiber": "F", "neither": "×", "timeout": "T"}


def render_table(records: list[ClassRecord]) -> str:
    """Text grid of class glyphs, rows indexed by n and columns by t."""
    if not records:
        return ""
    n_max = max(r.n for r in records)
    by_cell = {(r.n, r.t): r for r in records}
    width = 2
    header = "n\\t" + "".join(str(t).rjust(width + (1 if t >= 10 else 0)) for t in range(1, n_max))
    lines = [header]
    for n in sorted({r.n for r in records}):
        row = str(n).ljust(3)
        for t in range(1, n):
            rec = by_cell.get((n, t))
            glyph = GLYPHS[rec.klass] if rec else " "
            row += glyph.rjust(width + (1 if t >= 10 else 0))
        lines.append(row)
    return "\n".join(lines) + "\n"


# -- closed-form Hilbert series and its verification --


def hilbert_closed_form_n_minus_2(n: int) -> HilbertSeries:
    """Hilbert series of the Rees algebra at path length n-2, expanded.

    odd n = 2s+1:  (sum_{k<s} (1+z)^{2k+1} z^{s-1-k} + z^s) / (1-z)^{2s+2}
    even n = 2s:   (sum_{k<s} (1+z)^{2k}   z^{s-1-k})       / (1-z)^{2s+1}
    """
    if n < 3:
        raise ValueError("need n >= 3")
    s = n // 2
    num = [0] * (2 * s + 1)
    for k in range(s):
        power = 2 * k + n % 2
        for j in range(power + 1):
            num[s - 1 - k + j] += comb(power, j)
    num[s] += n % 2
    return HilbertSeries(tuple(num), n + 1)


def verify_hilbert(n: int, budget: Budget | None = None) -> bool:
    """Certify the t = n-2 family as J; its grevlex initial ideal must have the closed-form series."""
    F = Ideal(cycle_ring(n), family_n_minus_2(n).values())
    if certify_rees(PathIdealSpec(n, n - 2), F, budget) is not None:
        return False
    K = initial_ideal(F, grevlex_order(F.ring), budget)
    return hilbert_numerator(K, budget=budget) == hilbert_closed_form_n_minus_2(n)


# -- Cohen-Macaulay type for odd n via the Artinian reduction --


def cm_type_odd(n: int, budget: Budget | None = None) -> int:
    """Socle dimension of the Artinian reduction, i.e. the CM type, odd n."""
    if n < 3 or n % 2 == 0:
        raise ValueError("need odd n >= 3")
    ideal = artinian_reduction_ideal(n)
    ring = ideal.ring
    K = initial_ideal(ideal, budget=budget)
    pure_powers = {i for g in K.gens for i, e in enumerate(g) if e and sum(g) == e}
    if len(pure_powers) < ring.nvars:
        raise InvariantError("quotient is not Artinian; construction bug")

    # one walk from 1 up: reduce x_i * b for each standard b as the list grows.
    # A normal form's monomials are standard, and every standard monomial but 1
    # is some x_i * b, so numbering them as they first appear lists each once;
    # modulo pure-difference binomials and monomials, each normal form is 0 or
    # one monomial with coefficient 1
    reduce = _reducer(ring, ideal, budget=budget)
    standard = [(0,) * ring.nvars]
    index = {standard[0]: 0}
    rows = []  # row of b: column index[m] * nvars + i holds m's coefficient in the normal form of x_i b
    for b in standard:
        row = {}
        for i in range(ring.nvars):
            for m, coeff in reduce({b[:i] + (b[i] + 1,) + b[i + 1 :]: 1}).items():
                if m not in index:
                    index[m] = len(standard)
                    standard.append(m)
                row[index[m] * ring.nvars + i] = coeff
        rows.append(row)
    return len(standard) - sparse_rank(rows)


def conjecture_fiber_iff_divides(records: list[ClassRecord]) -> list[tuple[int, int, bool]]:
    """Consistency report for: strictly between 2 and floor(n/2), fiber-not-
    linear holds exactly when t divides n.  Timeout cells are skipped."""
    report = []
    for r in records:
        if 2 < r.t < r.n // 2 and r.klass != "timeout":
            expected_fiber = r.n % r.t == 0
            report.append((r.n, r.t, (r.klass == "fiber") == expected_fiber))
    return report
