"""Ideals attached to the t-path ideal of an n-cycle.

Constructs the path ideal, the symmetric-algebra relations, the Rees ideal
(by eliminating s from the graph of the monomial map) and a check that a
candidate ideal equals it, the fiber relations, the two explicit binomial
families (for t = n-2 and t = n/2), the ideal of the Artinian reduction for
odd n, and the skew relation matrix of the Jacobian dual with its Pfaffian.

Index convention: subscripts of both x and y are cyclic modulo n, with x0 and
xn naming the same variable.  Generator j of the path ideal is the window
x_j x_{j+1} ... x_{j+t-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .groebner import Budget, Ideal, _reducer, eliminate
from .orders import grevlex_order
from .rings import Exponents, InvariantError, Polynomial, RingError, RingSpec, cycle_ring, x_ring, y_ring


@dataclass(frozen=True)
class PathIdealSpec:
    """Cycle size n and path length t, with 1 <= t <= n-1."""

    n: int
    t: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("cycle size must be at least 3")
        if not 1 <= self.t <= self.n - 1:
            raise ValueError(f"path length {self.t} out of range for n={self.n}")

    @property
    def d(self) -> int:
        return gcd(self.n, self.t)


def _mono(ring: RingSpec, names: list[str]) -> Exponents:
    """Exponent vector of the product of the named variables, repeats counted."""
    exps = [0] * ring.nvars
    for name in names:
        exps[ring.var_index[name]] += 1
    return tuple(exps)


def _x(n: int, *i: int) -> list[str]:
    return [f"x{k % n}" for k in i]


def _y(n: int, *i: int) -> list[str]:
    return [f"y{k % n}" for k in i]


def _binomial(ring: RingSpec, plus: list[str], minus: list[str]) -> Polynomial:
    return Polynomial(ring, {_mono(ring, plus): 1, _mono(ring, minus): -1})


def path_ideal(spec: PathIdealSpec) -> Ideal:
    """The ideal of all length-t windows of the n-cycle, in the x variables."""
    n, t = spec.n, spec.t
    ring = x_ring(n)
    return Ideal(ring, [Polynomial(ring, {_mono(ring, _x(n, *range(j, j + t))): 1}) for j in range(1, n + 1)])


def sym_relations(spec: PathIdealSpec) -> Ideal:
    """Defining ideal of the symmetric algebra: all pairwise lcm syzygies.

    For windows u_i, u_j the syzygy is (lcm/u_i) y_i - (lcm/u_j) y_j; the
    full pairwise set generates the first syzygy module of a monomial ideal.
    A window is squarefree (t < n), so lcm/u_i is u_j's variables outside u_i.
    """
    n, t = spec.n, spec.t
    ring = cycle_ring(n)
    u = {j: set(_x(n, *range(j, j + t))) for j in range(1, n + 1)}
    gens = [
        _binomial(ring, [*u[j] - u[i], *_y(n, i)], [*u[i] - u[j], *_y(n, j)])
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    return Ideal(ring, gens)


def graph_ideal(spec: PathIdealSpec) -> Ideal:
    """The ideal (y_j - u_j s) in K[y, x, s] presenting the monomial map."""
    n, t = spec.n, spec.t
    ring = RingSpec(cycle_ring(n).blocks + (("S", ("s",)),))
    return Ideal(ring, [_binomial(ring, _y(n, j), [*_x(n, *range(j, j + t)), "s"]) for j in range(1, n + 1)])


def rees_ideal(spec: PathIdealSpec, budget: Budget | None = None) -> Ideal:
    """Defining ideal of the Rees algebra: eliminate s from the graph ideal.

    The returned ideal lives in K[y, x] and carries its reduced Groebner
    basis under the product order.
    """
    return eliminate(graph_ideal(spec), "S", budget)


def certify_rees(spec: PathIdealSpec, F: Ideal, budget: Budget | None = None) -> str | None:
    """None exactly when F is the Rees ideal J, else the first check that fails.

    "image": the generators are homogeneous and map to 0 under y_j -> u_j s.
    "saturated": no element of the reduced grevlex basis is divisible by the
    last variable x0, so F : x0^oo = F (Bayer-Stillman).  "rotation": x_i ->
    x_{i+1}, y_i -> y_{i+1} maps F into F, so F is saturated by every x_i.
    "symmetric": L lies in F.  So J = L : x^oo lies in F : x^oo = F, within J.
    """
    n, t, ring = spec.n, spec.t, F.ring
    if ring != cycle_ring(n):
        raise RingError("the candidate ideal must live in the cycle ring")
    phi = {v: [*_x(n, *range(int(v[1:]), int(v[1:]) + t)), "s"] if v[0] == "y" else [v] for v in ring.variables}
    for g in F.generators:
        image: dict[tuple[str, ...], int] = {}
        for e, c in g.terms.items():
            m = tuple(sorted(w for v, k in zip(ring.variables, e) for w in phi[v] * k))
            image[m] = image.get(m, 0) + c
        if len({sum(e) for e in g.terms}) > 1 or any(image.values()):
            return "image"
    order = grevlex_order(ring)
    if any(all(e[ring.var_index["x0"]] for e in g.terms) for g in F.groebner_basis(order, budget)):
        return "saturated"
    reduce = _reducer(ring, F, order, budget)
    back = [ring.var_index[f"{v[0]}{(int(v[1:]) - 1) % n}"] for v in ring.variables]
    if any(reduce({tuple(e[k] for k in back): c for e, c in g.terms.items()}) for g in F.generators):
        return "rotation"
    return "symmetric" if any(reduce(g.terms) for g in sym_relations(spec).generators) else None


def fiber_ideal(J: Ideal, budget: Budget | None = None) -> Ideal:
    """The fiber relations: intersection of the Rees ideal J with K[y]."""
    return eliminate(J, "X", budget)


def fiber_ideal_closed_form(spec: PathIdealSpec) -> Ideal:
    """The d-1 binomials m_i - m_d, m_i the product of y_j with j = i mod d."""
    n, d = spec.n, spec.d
    ring = y_ring(n)
    return Ideal(ring, [_binomial(ring, _y(n, *range(i, n + 1, d)), _y(n, *range(d, n + 1, d))) for i in range(1, d)])


def family_n_minus_2(n: int) -> dict[str, Polynomial]:
    """Named binomial family presenting the Rees ideal at path length n-2.

    f_j = x_{j-2} y_j - x_j y_{j+1}            (j = 1 .. n-1)
    g_k = x_{2k-2} prod(y_i, i odd in [0,2k))
          - x_{n-2} prod(y_i, i even in [0,2k))  (k = 1 .. floor(n/2))
    h   = prod(y odd) - prod(y even)           (n even only)
    """
    if n < 3:
        raise ValueError("need n >= 3")
    ring = cycle_ring(n)
    out: dict[str, Polynomial] = {}
    for j in range(1, n):
        out[f"f{j}"] = _binomial(ring, _x(n, j - 2) + _y(n, j), _x(n, j) + _y(n, j + 1))
    for k in range(1, n // 2 + 1):
        odd, even = _y(n, *range(1, 2 * k, 2)), _y(n, *range(0, 2 * k, 2))
        out[f"g{k}"] = _binomial(ring, _x(n, 2 * k - 2) + odd, _x(n, n - 2) + even)
    if n % 2 == 0:
        out["h"] = _binomial(ring, _y(n, *range(1, n, 2)), _y(n, *range(0, n, 2)))
    return out


def family_half(n: int) -> dict[str, Polynomial]:
    """Named binomial family presenting the Rees ideal at path length n/2.

    f_j = x_{n/2+j} y_j - x_j y_{j+1}              (j = 1 .. n-1)
    g_k = y_k x_0...x_{k-1} - y_0 x_{n/2}...x_{n/2+k-1}  (k = 1 .. n/2-1)
    h_l = y_l y_{l+n/2} - y_0 y_{n/2}              (l = 1 .. n/2-1)
    """
    if n < 4 or n % 2:
        raise ValueError("need even n >= 4")
    half = n // 2
    ring = cycle_ring(n)
    out: dict[str, Polynomial] = {}
    for j in range(1, n):
        out[f"f{j}"] = _binomial(ring, _x(n, half + j) + _y(n, j), _x(n, j) + _y(n, j + 1))
    for k in range(1, half):
        out[f"g{k}"] = _binomial(ring, _y(n, k) + _x(n, *range(k)), _y(n, 0) + _x(n, *range(half, half + k)))
    for l in range(1, half):
        out[f"h{l}"] = _binomial(ring, _y(n, l, l + half), _y(n, 0, half))
    return out


def artinian_reduction_ideal(n: int) -> Ideal:
    """The ideal presenting the Artinian reduction of the Rees algebra, odd n.

    In K[x1..x_{n-1}] under its canonical order, lex x1 > ... > x_{n-1}:
    (x_i^2 - x_{i+1}x_{i+2} for i <= n-3, x_{n-2}^2, x_{n-1}^2, x_1 x_2).
    """
    ring = RingSpec((("X", tuple(_x(n, *range(1, n)))),))
    gens = [_binomial(ring, _x(n, i, i), _x(n, i + 1, i + 2)) for i in range(1, n - 2)]
    for names in (_x(n, n - 2, n - 2), _x(n, n - 1, n - 1), _x(n, 1, 2)):
        gens.append(Polynomial(ring, {_mono(ring, names): 1}))
    return Ideal(ring, gens)


class PolyMatrix:
    """Square matrix of polynomials over a common ring."""

    def __init__(self, ring: RingSpec, rows: list[list[Polynomial]]):
        size = len(rows)
        if any(len(row) != size for row in rows):
            raise ValueError("matrix must be square")
        for row in rows:
            for p in row:
                if p.ring != ring:
                    raise RingError("entry in a different ring")
        self.ring = ring
        self.rows = [list(row) for row in rows]

    def __getitem__(self, ij: tuple[int, int]) -> Polynomial:
        i, j = ij
        return self.rows[i][j]

    def is_skew_symmetric(self) -> bool:
        return all(entry == -self.rows[j][i] for i, row in enumerate(self.rows) for j, entry in enumerate(row))


def jacobian_dual(n: int) -> PolyMatrix:
    """Skew relation matrix A with f = A x for the path length n-2 family.

    Physical row r holds the coefficients of f_{r+1} (indices mod n), which
    places y_j in column j-2 and -y_{j+1} in column j and makes A literally
    skew-symmetric.  Raises if the skew check fails.
    """
    if n % 2:
        raise ValueError("Jacobian dual Pfaffian needs even n")
    ring = y_ring(n)
    rows = [[Polynomial(ring, {}) for _ in range(n)] for _ in range(n)]
    for r in range(1, n + 1):
        j = r + 1
        rows[r - 1][(r - 2) % n] = Polynomial(ring, {_mono(ring, _y(n, j)): 1})  # column of x_{j-2}, 0-based
        rows[r - 1][r % n] = Polynomial(ring, {_mono(ring, _y(n, j + 1)): -1})  # column of x_j, 0-based
    matrix = PolyMatrix(ring, rows)
    if not matrix.is_skew_symmetric():
        raise InvariantError("relation matrix is not skew-symmetric; indexing bug")
    return matrix


def pfaffian(matrix: PolyMatrix) -> Polynomial:
    """Pfaffian by recursive expansion along the first remaining row."""
    size = len(matrix.rows)
    if size % 2:
        raise ValueError("Pfaffian needs even dimension")
    if not matrix.is_skew_symmetric():
        raise ValueError("Pfaffian needs a skew-symmetric matrix")
    memo: dict[tuple[int, ...], Polynomial] = {}

    def pf(active: tuple[int, ...]) -> Polynomial:
        if not active:
            return Polynomial(matrix.ring, {(0,) * matrix.ring.nvars: 1})
        if active in memo:
            return memo[active]
        first = active[0]
        total = Polynomial(matrix.ring, {})
        for pos in range(1, len(active)):
            entry = matrix.rows[first][active[pos]]
            if not entry:
                continue
            rest = tuple(active[k] for k in range(1, len(active)) if k != pos)
            term = entry * pf(rest)
            total = total + term if pos % 2 == 1 else total - term
        memo[active] = total
        return total

    return pf(tuple(range(size)))


def pfaffian_fiber_sign(n: int) -> tuple[int, Polynomial]:
    """Compare Pf(A) with the fiber relation h; return (sign, Pf(A)).

    The sign is +1 or -1 with Pf(A) = sign * h; raises if neither matches.
    """
    matrix = jacobian_dual(n)
    pf = pfaffian(matrix)
    fam = family_n_minus_2(n)
    h = fam["h"].to_ring(y_ring(n))
    if pf == h:
        return 1, pf
    if pf == -h:
        return -1, pf
    raise InvariantError("Pfaffian does not match the fiber relation up to sign")
