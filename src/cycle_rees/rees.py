"""Ideals attached to the t-path ideal of an n-cycle.

Constructs the path ideal itself, the symmetric-algebra relations, the Rees
ideal (by eliminating the auxiliary variable s from the graph of the monomial
map), the fiber relations, the two explicit binomial families (for t = n-2
and t = n/2), and the skew relation matrix of the Jacobian dual together with
its Pfaffian.

Index convention: subscripts of both x and y are cyclic modulo n, with x0 and
xn naming the same variable.  Generator j of the path ideal is the window
x_j x_{j+1} ... x_{j+t-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .groebner import Budget, Ideal, eliminate
from .rings import Exponents, InvariantError, Polynomial, RingError, RingSpec, cycle_ring, mono_div, mono_lcm, mono_mul, x_ring, y_ring


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


def _mono(ring: RingSpec, factors: dict[str, int]) -> Exponents:
    exps = [0] * ring.nvars
    for name, e in factors.items():
        exps[ring.var_index[name]] += e
    return tuple(exps)


def _xname(n: int, i: int) -> str:
    return f"x{i % n}"


def _yname(n: int, i: int) -> str:
    return f"y{i % n}"


def _window_exps(ring: RingSpec, n: int, t: int, j: int) -> Exponents:
    """Exponent vector of x_j x_{j+1} ... x_{j+t-1}."""
    exps = [0] * ring.nvars
    for k in range(t):
        exps[ring.var_index[_xname(n, j + k)]] += 1
    return tuple(exps)


def _binomial(ring: RingSpec, plus: dict[str, int], minus: dict[str, int]) -> Polynomial:
    return Polynomial(ring, {_mono(ring, plus): Fraction(1), _mono(ring, minus): Fraction(-1)})


def path_ideal(spec: PathIdealSpec) -> Ideal:
    """The ideal of all length-t windows of the n-cycle, in the x variables."""
    ring = x_ring(spec.n)
    gens = [Polynomial.monomial(ring, _window_exps(ring, spec.n, spec.t, j)) for j in range(1, spec.n + 1)]
    return Ideal(ring, gens)


def sym_relations(spec: PathIdealSpec) -> Ideal:
    """Defining ideal of the symmetric algebra: all pairwise lcm syzygies.

    For windows u_i, u_j the syzygy is (lcm/u_i) y_i - (lcm/u_j) y_j; the
    full pairwise set generates the first syzygy module of a monomial ideal.
    """
    n, t = spec.n, spec.t
    ring = cycle_ring(n)
    windows = {j: _window_exps(ring, n, t, j) for j in range(1, n + 1)}
    gens: list[Polynomial] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lcm = mono_lcm(windows[i], windows[j])
            left = mono_mul(mono_div(lcm, windows[i]), _mono(ring, {_yname(n, i): 1}))
            right = mono_mul(mono_div(lcm, windows[j]), _mono(ring, {_yname(n, j): 1}))
            gens.append(Polynomial(ring, {left: Fraction(1), right: Fraction(-1)}))
    return Ideal(ring, gens)


def graph_ideal(spec: PathIdealSpec) -> Ideal:
    """The ideal (y_j - u_j s) in K[y, x, s] presenting the monomial map."""
    n, t = spec.n, spec.t
    ring = cycle_ring(n, with_s=True)
    gens = []
    for j in range(1, n + 1):
        y_exps = _mono(ring, {_yname(n, j): 1})
        u_exps = list(_window_exps(ring, n, t, j))
        u_exps[ring.var_index["s"]] = 1
        gens.append(Polynomial(ring, {y_exps: Fraction(1), tuple(u_exps): Fraction(-1)}))
    return Ideal(ring, gens)


def rees_ideal(spec: PathIdealSpec, budget: Budget | None = None) -> Ideal:
    """Defining ideal of the Rees algebra: eliminate s from the graph ideal.

    The returned ideal lives in K[y, x] and carries its reduced Groebner
    basis under the product order.
    """
    return eliminate(graph_ideal(spec), ["S"], budget)


def fiber_ideal(spec: PathIdealSpec, budget: Budget | None = None, rees: Ideal | None = None) -> Ideal:
    """The fiber relations: intersection of the Rees ideal with K[y]."""
    J = rees if rees is not None else rees_ideal(spec, budget)
    return eliminate(J, ["X"], budget)


def fiber_ideal_closed_form(spec: PathIdealSpec) -> Ideal:
    """The d-1 binomials m_i - m_d, m_i the product of y_j with j = i mod d."""
    n, d = spec.n, spec.d
    ring = y_ring(n)
    if d == 1:
        return Ideal(ring, [])

    def m(i: int) -> dict[str, int]:
        return {_yname(n, j): 1 for j in range(1, n + 1) if j % d == i % d}

    last = m(d)
    gens = [_binomial(ring, m(i), last) for i in range(1, d)]
    return Ideal(ring, gens)


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
        out[f"f{j}"] = _binomial(
            ring,
            {_xname(n, j - 2): 1, _yname(n, j): 1},
            {_xname(n, j): 1, _yname(n, j + 1): 1},
        )
    for k in range(1, n // 2 + 1):
        odd = {_yname(n, i): 1 for i in range(2 * k) if i % 2 == 1}
        even = {_yname(n, i): 1 for i in range(2 * k) if i % 2 == 0}
        odd[_xname(n, 2 * k - 2)] = odd.get(_xname(n, 2 * k - 2), 0) + 1
        even[_xname(n, n - 2)] = even.get(_xname(n, n - 2), 0) + 1
        out[f"g{k}"] = _binomial(ring, odd, even)
    if n % 2 == 0:
        odd = {_yname(n, i): 1 for i in range(n) if i % 2 == 1}
        even = {_yname(n, i): 1 for i in range(n) if i % 2 == 0}
        out["h"] = _binomial(ring, odd, even)
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
        out[f"f{j}"] = _binomial(
            ring,
            {_xname(n, half + j): 1, _yname(n, j): 1},
            {_xname(n, j): 1, _yname(n, j + 1): 1},
        )
    for k in range(1, half):
        plus = {_xname(n, i): 1 for i in range(k)}
        plus[_yname(n, k)] = 1
        minus = {_xname(n, i): 1 for i in range(half, half + k)}
        minus[_yname(n, 0)] = 1
        out[f"g{k}"] = _binomial(ring, plus, minus)
    for l in range(1, half):
        out[f"h{l}"] = _binomial(
            ring,
            {_yname(n, l): 1, _yname(n, l + half): 1},
            {_yname(n, 0): 1, _yname(n, half): 1},
        )
    return out


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

    @property
    def size(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> Polynomial:
        i, j = ij
        return self.rows[i][j]

    def is_skew_symmetric(self) -> bool:
        for i in range(self.size):
            for j in range(self.size):
                if self.rows[i][j] != -self.rows[j][i]:
                    return False
        return True


def jacobian_dual(n: int) -> PolyMatrix:
    """Skew relation matrix A with f = A x for the path length n-2 family.

    Physical row r holds the coefficients of f_{r+1} (indices mod n), which
    places y_j in column j-2 and -y_{j+1} in column j and makes A literally
    skew-symmetric.  Raises if the skew check fails.
    """
    if n % 2:
        raise ValueError("Jacobian dual Pfaffian needs even n")
    ring = y_ring(n)
    zero = Polynomial.zero(ring)
    rows = [[zero for _ in range(n)] for _ in range(n)]
    for r in range(1, n + 1):
        j = r + 1
        col_plus = (r - 1 - 1) % n  # column of x_{j-2}, 0-based
        col_minus = (r + 1 - 1) % n  # column of x_j, 0-based
        rows[r - 1][col_plus] = Polynomial.variable(ring, _yname(n, j))
        rows[r - 1][col_minus] = -Polynomial.variable(ring, _yname(n, j + 1))
    matrix = PolyMatrix(ring, rows)
    if not matrix.is_skew_symmetric():
        raise InvariantError("relation matrix is not skew-symmetric; indexing bug")
    return matrix


def pfaffian(matrix: PolyMatrix) -> Polynomial:
    """Pfaffian by recursive expansion along the first remaining row."""
    size = matrix.size
    if size % 2:
        raise ValueError("Pfaffian needs even dimension")
    if not matrix.is_skew_symmetric():
        raise ValueError("Pfaffian needs a skew-symmetric matrix")
    memo: dict[tuple[int, ...], Polynomial] = {}

    def pf(active: tuple[int, ...]) -> Polynomial:
        if not active:
            return Polynomial.one(matrix.ring)
        if active in memo:
            return memo[active]
        first = active[0]
        total = Polynomial.zero(matrix.ring)
        for pos in range(1, len(active)):
            entry = matrix.rows[first][active[pos]]
            if entry.is_zero():
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
    h = fam["h"].project_to(*cycle_ring(n).restrict(["Y"]))
    if pf == h:
        return 1, pf
    if pf == -h:
        return -1, pf
    raise InvariantError("Pfaffian does not match the fiber relation up to sign")
