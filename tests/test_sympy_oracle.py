"""SymPy's groebner as an independent route to the engine's reduced bases.

SymPy is not a dependency of cycle-rees; without it these tests are skipped.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from cycle_rees.rees import artinian_reduction_ideal
from cycle_rees.groebner import buchberger
from cycle_rees.orders import elimination_order
from cycle_rees.rees import PathIdealSpec, fiber_ideal, graph_ideal

from conftest import cached_rees

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex, lex  # noqa: E402

CELLS = [(n, t) for n in range(3, 7) for t in range(1, n)]
FIBER_CELLS = [(n, t) for n in range(3, 9) for t in range(1, n)]


def _slice(indices):
    return lambda m: tuple(m[i] for i in indices)


def _monic(p, order, keep=None) -> frozenset:
    """The terms of p divided by its leading coefficient under order, as
    Fractions; ``keep`` restricts each exponent vector to those indices."""
    lc = p.LC(order=order)
    return frozenset(
        (m if keep is None else tuple(m[i] for i in keep), Fraction(int((c / lc).p), int((c / lc).q)))
        for m, c in p.terms()
    )


def _sympy_basis(polys, ring, order):
    gens = sympy.symbols(ring.variables)
    exprs = [sum(c * sympy.prod(v**e for v, e in zip(gens, m)) for m, c in g.terms.items()) for g in polys]
    return sympy.groebner(exprs, *gens, order=order, domain=sympy.QQ).polys


@pytest.mark.parametrize("n,t", CELLS)
def test_graph_ideal_basis_matches_sympy(n, t):
    # eliminating s: s by grevlex, then Y by grevlex, then X by lex
    ideal = graph_ideal(PathIdealSpec(n, t))
    ring = ideal.ring
    order = ProductOrder(
        (grevlex, _slice(ring.block_indices("S"))),
        (grevlex, _slice(ring.block_indices("Y"))),
        (lex, _slice(ring.block_indices("X"))),
    )
    expected = {_monic(p, order) for p in _sympy_basis(ideal.generators, ring, order)}
    ours = {frozenset(g.terms.items()) for g in buchberger(ideal.generators, elimination_order(ring, "S"))}
    assert ours == expected


@pytest.mark.parametrize("n,t", FIBER_CELLS)
def test_fiber_ideal_matches_sympy(n, t):
    # eliminating X from J: X by grevlex, then Y by grevlex; keep the X-free part
    J = cached_rees(n, t)
    ring = J.ring
    xs, ys = ring.block_indices("X"), ring.block_indices("Y")
    order = ProductOrder((grevlex, _slice(xs)), (grevlex, _slice(ys)))
    theirs = _sympy_basis(J.generators, ring, order)
    expected = {_monic(p, order, ys) for p in theirs if not any(m[i] for m, _ in p.terms() for i in xs)}
    assert {frozenset(g.terms.items()) for g in fiber_ideal(J).generators} == expected


@pytest.mark.parametrize("n", range(3, 12, 2))
def test_artinian_reduction_basis_matches_sympy(n):
    ideal = artinian_reduction_ideal(n)
    expected = {_monic(p, lex) for p in _sympy_basis(ideal.generators, ideal.ring, lex)}
    assert {frozenset(g.terms.items()) for g in ideal.groebner_basis()} == expected
