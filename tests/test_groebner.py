"""Buchberger engine: normal forms, bases, membership, elimination."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, strategies as st

from cycle_rees.groebner import (
    Budget,
    BudgetExceeded,
    Ideal,
    buchberger,
    eliminate,
    ideal_equal,
    ideal_membership,
    is_groebner_basis,
    normal_form,
)
from cycle_rees.orders import OrderSpec, product_order
from cycle_rees.rees import PathIdealSpec, family_half, family_n_minus_2, graph_ideal, rees_ideal
from cycle_rees.rings import Polynomial, RingSpec, cycle_ring, mono_divides, parse_polynomial


def fam_polys(n: int, which: str = "n2") -> list[Polynomial]:
    fam = family_n_minus_2(n) if which == "n2" else family_half(n)
    return list(fam.values())


def test_g2_membership_needs_a_groebner_basis():
    # g2 lies in the ideal of the linear relations, but plain division by the
    # raw generators cannot see that: no leading monomial divides its terms
    fam = family_n_minus_2(6)
    ring = cycle_ring(6)
    order = product_order(ring)
    raw = [fam[f"f{j}"] for j in range(1, 6)] + [fam["g1"]]
    assert normal_form(fam["g2"], raw, order) == fam["g2"]
    assert ideal_membership(fam["g2"], Ideal(ring, raw), order)
    assert normal_form(fam["g2"], list(buchberger(raw, order)), order).is_zero()


def test_normal_form_self_reduction():
    fam = family_n_minus_2(6)
    basis = list(fam.values())
    assert normal_form(fam["f3"], basis, product_order(cycle_ring(6))).is_zero()


def test_normal_form_irreducible_variable():
    ring = cycle_ring(6)
    y0 = Polynomial.variable(ring, "y0")
    assert normal_form(y0, fam_polys(6), product_order(ring)) == y0


def test_buchberger_principal_monomial():
    ring = cycle_ring(4)
    y1 = Polynomial.variable(ring, "y1")
    assert buchberger([y1], product_order(ring)) == (y1,)


def test_buchberger_initial_ideal_of_rees_n4():
    # reduced basis of L + HT for the 4-cycle at t = 2; leading monomials
    # are x3*y1, x0*y2, x1*y3, x0*y1, y1*y3
    ring = cycle_ring(4)
    order = product_order(ring)
    gb = buchberger(fam_polys(4), order)
    key = order.key_function(ring)
    leads = {max(g.monomials(), key=key) for g in gb}
    expected = {
        parse_polynomial(ring, text).monomials()[0]
        for text in ("x3*y1", "x0*y2", "x1*y3", "x0*y1", "y1*y3")
    }
    assert leads == expected


def test_half_family_is_already_a_basis():
    ring = cycle_ring(6)
    order = product_order(ring)
    polys = fam_polys(6, "half")
    ok, cert = is_groebner_basis(polys, order)
    assert ok and cert is None
    gb = buchberger(polys, order)
    # reduction cannot change the ideal: mutual containment
    assert ideal_equal(Ideal(ring, polys), Ideal(ring, list(gb)), order)
    assert len(gb) == len(polys)


def test_is_groebner_basis_coprime_monomials():
    ring = cycle_ring(4)
    ok, _ = is_groebner_basis(
        [Polynomial.variable(ring, "y1"), Polynomial.variable(ring, "y2")], product_order(ring)
    )
    assert ok


def test_is_groebner_basis_certificate_on_gap():
    # removing one ladder element from the n = 8 family must break the basis
    fam = family_n_minus_2(8)
    broken = [p for name, p in fam.items() if name != "g3"]
    ok, cert = is_groebner_basis(broken, product_order(cycle_ring(8)))
    assert not ok
    i, j, remainder = cert
    assert not remainder.is_zero()
    assert 0 <= i < j < len(broken)
    full = list(fam.values())
    ok_full, _ = is_groebner_basis(full, product_order(cycle_ring(8)))
    assert ok_full


def test_membership_examples(rees_cache, sym_cache):
    ring = cycle_ring(6)
    order = product_order(ring)
    J = rees_cache(6, 4)
    h = parse_polynomial(ring, "y1*y3*y5 - y0*y2*y4")
    assert ideal_membership(h, J, order)
    assert ideal_membership(Polynomial.zero(ring), J, order)
    ring5 = cycle_ring(5)
    J5 = rees_cache(5, 3)
    probe = parse_polynomial(ring5, "y1*y3 - y0*y2")
    assert not ideal_membership(probe, J5, product_order(ring5))


def test_ideal_equal_examples(rees_cache, sym_cache):
    # (7, 4) is not of linear type
    assert not ideal_equal(sym_cache(7, 4), rees_cache(7, 4))
    J = rees_cache(6, 4)
    assert ideal_equal(J, J)
    # J = L + (h) for the 6-cycle at t = 4
    ring = cycle_ring(6)
    L = sym_cache(6, 4)
    h = parse_polynomial(ring, "y1*y3*y5 - y0*y2*y4")
    LH = Ideal(ring, list(L.generators) + [h])
    assert ideal_equal(LH, J)


def test_eliminate_s_then_x(rees_cache, fiber_cache):
    H = fiber_cache(4, 2)
    expected = parse_polynomial(H.ring, "y1*y3 - y0*y2")
    assert tuple(H.generators) == (expected,)
    assert fiber_cache(5, 2).is_zero_ideal()


def test_eliminate_nothing_is_identity(rees_cache):
    J = rees_cache(4, 2)
    assert eliminate(J, []) is J


def test_budget_exceeded_is_distinct():
    G = graph_ideal(PathIdealSpec(8, 6))
    with pytest.raises(BudgetExceeded):
        G.groebner_basis(budget=Budget(max_steps=5))


def test_time_budget_is_honoured_by_a_long_elimination():
    # (10, 9) builds an intermediate basis of several hundred elements, so a
    # 0.3 s budget runs out inside the pair update and interreduction loops,
    # which do not tick themselves; the overshoot must stay small
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        rees_ideal(PathIdealSpec(10, 9), Budget(seconds=0.3))
    assert time.monotonic() - start < 0.3 + 1.0


def test_rees_basis_is_bihomogeneous(rees_cache):
    for (n, t) in ((5, 3), (6, 4), (6, 3), (7, 5)):
        for g in rees_cache(n, t).generators:
            assert len(g.block_degrees("X")) == 1
            assert len(g.block_degrees("Y")) == 1


SMALL_RING = RingSpec((("X", ("a", "b", "c")),))


def random_poly(rng: random.Random, ring=SMALL_RING, max_terms=3, max_exp=2) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms[exps] = terms.get(exps, 0) + rng.choice([-2, -1, 1, 2])
    return Polynomial(ring, terms)


def test_reduced_basis_unique_under_shuffles():
    order = OrderSpec(((("X",), "grevlex"),))
    rng = random.Random(7)
    for _ in range(50):
        gens = [random_poly(rng) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb1 = buchberger(gens, order)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        gb2 = buchberger(shuffled, order)
        assert gb1 == gb2


def test_membership_of_constructed_combinations():
    order = OrderSpec(((("X",), "grevlex"),))
    rng = random.Random(11)
    for _ in range(50):
        gens = [random_poly(rng) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ideal = Ideal(SMALL_RING, gens)
        combo = Polynomial.zero(SMALL_RING)
        for g in gens:
            combo = combo + random_poly(rng) * g
        assert ideal_membership(combo, ideal, order)


def assert_reduced_shape(gb, order) -> None:
    """Monic leads, strictly ascending, none dividing a term of another element."""
    key = order.key_function(gb[0].ring)
    leads = [max(g.terms, key=key) for g in gb]
    assert all(g.terms[lead] == 1 for g, lead in zip(gb, leads))
    assert all(key(a) < key(b) for a, b in zip(leads, leads[1:]))
    for i, lead in enumerate(leads):
        for j, g in enumerate(gb):
            assert i == j or not any(mono_divides(lead, m) for m in g.terms)


def test_buchberger_output_passes_checker():
    order = OrderSpec(((("X",), "grevlex"),))
    rng = random.Random(13)
    for _ in range(25):
        gens = [random_poly(rng) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens, order)
        ok, _ = is_groebner_basis(list(gb), order)
        assert ok
        assert_reduced_shape(gb, order)


@pytest.mark.parametrize("n,t", [(6, 4), (8, 6)])
def test_rees_basis_has_reduced_shape(n, t, rees_cache):
    J = rees_cache(n, t)
    order = product_order(J.ring)
    assert_reduced_shape(J.groebner_basis(order), order)


small_exps = st.tuples(*([st.integers(min_value=0, max_value=2)] * SMALL_RING.nvars))
small_polys = st.dictionaries(small_exps, st.integers(min_value=-3, max_value=3), min_size=1, max_size=4).map(
    lambda d: Polynomial(SMALL_RING, d)
)
scales = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(lambda c: c not in (0, 1, -1))


@given(small_polys, st.lists(st.tuples(small_polys.filter(bool), scales), min_size=1, max_size=3))
def test_normal_form_ignores_divisor_scaling(f, scaled):
    order = OrderSpec(((("X",), "grevlex"),))
    basis = [b for b, _ in scaled]
    assert normal_form(f, basis, order) == normal_form(f, [b.scale(c) for b, c in scaled], order)
