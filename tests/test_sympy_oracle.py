"""SymPy's groebner as an independent route to the engine's reduced bases.

SymPy is not a dependency of cycle-rees; without it these tests are skipped.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from cycle_rees.groebner import buchberger
from cycle_rees.orders import canonical_order
from cycle_rees.rees import PathIdealSpec, graph_ideal

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex, lex  # noqa: E402

CELLS = [(n, t) for n in range(3, 7) for t in range(1, n)]


def _slice(indices):
    return lambda m: tuple(m[i] for i in indices)


def _monic(p, order) -> frozenset:
    """The terms of p divided by its leading coefficient under order, as Fractions."""
    lc = p.LC(order=order)
    return frozenset((m, Fraction(int((c / lc).p), int((c / lc).q))) for m, c in p.terms())


@pytest.mark.parametrize("n,t", CELLS)
def test_graph_ideal_basis_matches_sympy(n, t):
    # canonical_order of K[y, x, s]: s by grevlex, then Y by grevlex, then X by lex
    ideal = graph_ideal(PathIdealSpec(n, t))
    ring = ideal.ring
    order = ProductOrder(
        (grevlex, _slice(ring.block_indices("S"))),
        (grevlex, _slice(ring.block_indices("Y"))),
        (lex, _slice(ring.block_indices("X"))),
    )
    gens = sympy.symbols(ring.variables)
    exprs = [sum(c * sympy.prod(v**e for v, e in zip(gens, m)) for m, c in g.terms.items()) for g in ideal.generators]
    theirs = sympy.groebner(exprs, *gens, order=order, domain=sympy.QQ)
    expected = {_monic(p, order) for p in theirs.polys}
    ours = {frozenset(g.terms.items()) for g in buchberger(ideal.generators, canonical_order(ring))}
    assert ours == expected
