"""Independent reference computations the tests compare the library against.

None of these is on a library code path: each is a slower or differently
organised route to an answer the library computes another way, or, for the
classification grid, the answer itself as recorded from earlier runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from cycle_rees.groebner import normal_form
from cycle_rees.monomial_ideals import HilbertSeries, MonomialIdeal
from cycle_rees.orders import KeyFunction, OrderSpec
from cycle_rees.rees import PathIdealSpec, PolyMatrix
from cycle_rees.rings import Exponents, Polynomial, RingSpec, cycle_ring, mono_divides, mono_mul


# -- monomials as exponent tuples: the references for the packed kernels --


def mono_div(a: Exponents, b: Exponents) -> Exponents:
    """a / b, assuming divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


# -- packed monomials: the kernels the engine inlines, as functions --


def packed_lcm(a: int, b: int, guard: int) -> int:
    # a field's guard survives (a | guard) - b exactly when a_i >= b_i;
    # sel then spans the value bits of those fields
    d = ((a | guard) - b) & guard
    sel = d - (d >> 15)
    return (a & sel) | (b & ~sel)


def packed_divides(a: int, b: int, guard: int) -> bool:
    """Whether a divides b: every field keeps its guard in (b | guard) - a."""
    return ((b | guard) - a) & guard == guard


# -- the pair update: Gebauer-Moeller with every candidate lcm compared --


def gebauer_moeller_queue(
    leads: list[Exponents], key: KeyFunction
) -> tuple[dict[tuple[int, int], Exponents], list[tuple[int, int, int]]]:
    """The live pairs with their lcms, and the queue as (degree, i, j) in pop
    order, after inserting leads one by one under the order key.

    A newcomer f drops each old pair whose lcm lead(f) divides, unless that
    lcm is the lcm of f with one of the pair.  Of its own pairs it keeps one
    per lcm that no other of its lcms divides, the first such pair, and none
    for an lcm that a pair with coprime leads attains.  They are queued by
    lcm degree, first in first out, and in term order of the lcms within one
    insertion.
    """
    alive: dict[tuple[int, int], Exponents] = {}
    queue: list[tuple[int, int, int]] = []
    for t, lf in enumerate(leads):
        new = [mono_lcm(lead, lf) for lead in leads[:t]]
        for (i, j), lcm in list(alive.items()):
            if mono_divides(lf, lcm) and lcm != new[i] and lcm != new[j]:
                del alive[i, j]
        pushed = []
        for lcm in set(new):
            if any(other != lcm and mono_divides(other, lcm) for other in new):
                continue
            group = [i for i, other in enumerate(new) if other == lcm]
            if not any(mono_mul(leads[i], lf) == lcm for i in group):
                pushed.append((key(lcm), lcm, group[0]))
        for _, lcm, i in sorted(pushed):
            alive[i, t] = lcm
            queue.append((sum(lcm), i, t))
    return alive, sorted(queue, key=lambda entry: entry[0])  # a stable sort keeps FIFO


# -- Groebner bases by Buchberger's criterion on every pair --


def is_groebner_basis_all_pairs(polys: list[Polynomial], order: OrderSpec) -> bool:
    """Whether the S-polynomial of every pair of nonzero polys, none skipped,
    reduces to zero against them."""
    polys = [g for g in polys if g]

    def leading_term(g: Polynomial) -> tuple[Exponents, int | Fraction]:
        """The maximal monomial of g under order and its coefficient."""
        lead = max(g.terms, key=order.key_function(g.ring))
        return lead, g.terms[lead]

    def monic_multiple(g: Polynomial, lcm: Exponents) -> Polynomial:
        """(lcm / lead(g)) g / lc(g), whose leading term is lcm."""
        lead, coeff = leading_term(g)
        return g * Polynomial(g.ring, {mono_div(lcm, lead): Fraction(1) / coeff})

    for i, f in enumerate(polys):
        for g in polys[i + 1 :]:
            lcm = mono_lcm(leading_term(f)[0], leading_term(g)[0])
            if normal_form(monic_multiple(f, lcm) - monic_multiple(g, lcm), polys, order):
                return False
    return True


# -- symmetric-algebra relations by exponent arithmetic on lcms --


def lcm_syzygies(spec: PathIdealSpec) -> list[Polynomial]:
    """(lcm/u_i) y_i - (lcm/u_j) y_j for all windows u_i, u_j with i < j,
    each window an exponent tuple and each quotient a tuple difference."""
    n, t = spec.n, spec.t
    ring = cycle_ring(n)

    def exps(names: list[str]) -> Exponents:
        out = [0] * ring.nvars
        for name in names:
            out[ring.var_index[name]] += 1
        return tuple(out)

    window = {j: exps([f"x{(j + k) % n}" for k in range(t)]) for j in range(1, n + 1)}
    gens = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lcm = mono_lcm(window[i], window[j])
            left = mono_mul(mono_div(lcm, window[i]), exps([f"y{i % n}"]))
            right = mono_mul(mono_div(lcm, window[j]), exps([f"y{j % n}"]))
            gens.append(Polynomial(ring, {left: 1, right: -1}))
    return gens


# -- fiber graphs: monomials that no move of L + (H) reaches or leaves --
#
# L (the pairwise syzygies) and the toric ideal H are generated by
# pure-difference binomials, so M1 - M2 with M1 != M2 lies in L + (H) only if
# moves m*a -> m*b by its binomials a - b join M1 to M2 (Eisenbud-Sturmfels,
# "Binomial ideals", 1996).  A monomial no move applies to is isolated.


def _windows(spec: PathIdealSpec) -> list[set[int]]:
    """Window j as the set of x indices j, ..., j + t - 1 mod n, for y_j."""
    return [{(j + k) % spec.n for k in range(spec.t)} for j in range(spec.n)]


def _y_and_x(spec: PathIdealSpec, m: Exponents) -> tuple[list[int], list[int]]:
    """The exponents of y_0, ..., y_{n-1} and of x_0, ..., x_{n-1} in m, a monomial of cycle_ring(n)."""
    index = cycle_ring(spec.n).var_index
    return [m[index[f"y{j}"]] for j in range(spec.n)], [m[index[f"x{i}"]] for i in range(spec.n)]


def _coverage(spec: PathIdealSpec, ys: list[int]) -> list[int]:
    """How many times the windows of y_0^ys[0] ... y_{n-1}^ys[n-1] cover each x_i."""
    cover = [0] * spec.n
    for j, window in enumerate(_windows(spec)):
        for i in window:
            cover[i] += ys[j]
    return cover


def rees_image(spec: PathIdealSpec, m: Exponents) -> tuple[int, ...]:
    """The exponents of x_0, ..., x_{n-1} and s in the image of m under y_j -> u_j s."""
    ys, xs = _y_and_x(spec, m)
    return (*(c + e for c, e in zip(_coverage(spec, ys), xs)), sum(ys))


def window_covers(spec: PathIdealSpec, cover: list[int], limit: int = 2) -> int:
    """How many multisets of windows cover each x_i exactly cover[i] times,
    counted up to limit.

    Windows are chosen in index order; once window j >= t - 1 is chosen, no
    later window covers x_j, so what is left of cover[j] must be 0.
    """
    windows, rest = _windows(spec), list(cover)

    def count(j: int) -> int:
        if j == spec.n:
            return int(not any(rest))
        found = 0
        for c in range(min(rest[i] for i in windows[j]) + 1):
            for i in windows[j]:
                rest[i] -= c
            if j < spec.t - 1 or rest[j] == 0:
                found += count(j + 1)
            for i in windows[j]:
                rest[i] += c
            if found >= limit:
                break
        return found

    return min(count(0), limit)


def l_isolated(spec: PathIdealSpec, m: Exponents) -> bool:
    """Whether no move by a binomial of L applies to the monomial m of K[y, x].

    No term (lcm/u_i) y_i of a syzygy may divide m; a window is squarefree,
    so lcm/u_i is the product of u_j's variables outside u_i.
    """
    ys, xs = _y_and_x(spec, m)
    windows = _windows(spec)
    return not any(
        ys[i] and j != i and all(xs[v] for v in windows[j] - windows[i]) for i in range(spec.n) for j in range(spec.n)
    )


def isolated(spec: PathIdealSpec, m: Exponents) -> bool:
    """Whether no move by a binomial of L + (H) applies to the monomial m of K[y, x].

    m must be l_isolated, and no term y^beta of a binomial of H may divide m
    either: no sub-multiset beta of m's y-indices may have another multiset of
    windows with the same x-coverage.  Adding the rest of the y-part to both
    would give the whole y-part a second cover too, so it is enough that the
    whole y-part covers in one way only.
    """
    return l_isolated(spec, m) and window_covers(spec, _coverage(spec, _y_and_x(spec, m)[0])) == 1


# -- monomial orders: comparison through the compiled key, and the
# stage-by-stage key the compiled key must agree with --


def compare(order: OrderSpec, ring: RingSpec, a: Exponents, b: Exponents) -> int:
    """-1, 0 or 1 as a <, =, > b under the order."""
    key = order.key_function(ring)
    return (key(a) > key(b)) - (key(a) < key(b))


def reference_key(order: OrderSpec, ring: RingSpec) -> KeyFunction:
    """Key read stage by stage: lex as the exponents, grevlex as the degree
    followed by the negated exponents from the last variable back."""
    order.validate(ring)
    stage_specs: list[tuple[str, tuple[int, ...]]] = []
    for blocks, base in order.stages:
        idxs: list[int] = []
        for b in blocks:
            idxs.extend(ring.block_indices(b))
        stage_specs.append((base, tuple(idxs)))

    def key(exps: Exponents) -> tuple:
        parts: list = []
        for base, idxs in stage_specs:
            if base == "lex":
                parts.append(tuple(exps[i] for i in idxs))
            else:
                total = 0
                for i in idxs:
                    total += exps[i]
                parts.append(total)
                parts.append(tuple(-exps[i] for i in reversed(idxs)))
        return tuple(parts)

    return key


# -- Hilbert series: a second pivot rule and inclusion-exclusion --


def pivot_least_frequent(gens: tuple[Exponents, ...]) -> int:
    """Alternative deterministic strategy used for cross-checking."""
    nvars = len(gens[0])
    candidates = set()
    for g in gens:
        if sum(1 for e in g if e) > 1:
            candidates.update(i for i, e in enumerate(g) if e)
    counts = [sum(1 for g in gens if g[i]) for i in range(nvars)]
    return min(sorted(candidates), key=lambda i: counts[i])


def hilbert_by_inclusion_exclusion(ideal: MonomialIdeal) -> HilbertSeries:
    """Independent oracle: alternating sum of z^deg(lcm) over generator subsets.

    Exponential in the number of generators; intended for small cross-checks.
    """
    gens = ideal.gens
    if len(gens) > 16:
        raise ValueError("inclusion-exclusion oracle limited to 16 generators")
    num = [0] * (sum(sum(g) for g in gens) + 1)
    for mask in range(1 << len(gens)):
        lcm = (0,) * ideal.ring.nvars
        bits = 0
        for i in range(len(gens)):
            if mask >> i & 1:
                bits += 1
                lcm = tuple(max(a, b) for a, b in zip(lcm, gens[i]))
        num[sum(lcm)] += -1 if bits % 2 else 1
    return HilbertSeries(tuple(num), ideal.ring.nvars)


# -- determinant, for Pf(A)^2 = det(A) --


def determinant(matrix: PolyMatrix) -> Polynomial:
    """Exact determinant by cofactor expansion, memoized on row subsets.

    Columns are consumed left to right, so the active column is always
    determined by how many rows remain; the row subset alone keys the
    minor.
    """
    memo: dict[tuple[int, ...], Polynomial] = {}

    def det(rows: tuple[int, ...]) -> Polynomial:
        if not rows:
            return Polynomial(matrix.ring, {(0,) * matrix.ring.nvars: 1})
        if rows in memo:
            return memo[rows]
        col = len(matrix.rows) - len(rows)
        total = Polynomial(matrix.ring, {})
        for pos, row in enumerate(rows):
            entry = matrix.rows[row][col]
            if not entry:
                continue
            term = entry * det(rows[:pos] + rows[pos + 1 :])
            total = total + term if pos % 2 == 0 else total - term
        memo[rows] = total
        return total

    return det(tuple(range(len(matrix.rows))))


# -- the classification grid, one glyph per cell (n, t) for t = 1 .. n-1 --

GLYPH = {"linear": "L", "fiber": "F", "neither": "×", "timeout": "T"}

KNOWN_GRID = {
    3: "LL",
    4: "LFL",
    5: "LLLL",
    6: "LFFFL",
    7: "LLL×LL",
    8: "LF×F×FL",
    9: "LLFL×FLL",
    10: "LFL×F××FL",
    11: "LL××L×××LL",
    12: "LFFF×F×××FL",
    13: "LLLL×L××××LL",
}


# -- cases of linear type known from the literature on cycle path ideals --


def known_linear(n: int, t: int) -> bool:
    """Cases known to be of linear type: t in {1, n-1}, odd n with t in
    {2, n-2, (n-1)/2}."""
    if t in (1, n - 1):
        return True
    if n % 2 == 1 and t in (2, n - 2, (n - 1) // 2):
        return True
    return False


def known_not_linear(n: int, t: int) -> bool:
    """Cases known to fail linear type (items (3)-(6) of the background list)."""
    if gcd(n, t) > 1:
        return True
    half = (n - 1) // 2
    if half < t <= n - 3:
        return True
    if 1 < t <= half:
        l = pow(t, -1, n)
        if 1 < l <= half:
            return True
        if half < l < n and (n - l) >= 1 and n % (n - l) >= 2:
            return True
    return False
