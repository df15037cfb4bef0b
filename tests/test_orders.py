"""Order axioms and the product order's documented comparisons."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from cycle_rees.groebner import Budget, _Engine
from cycle_rees.orders import OrderSpec, canonical_order, elimination_order, grevlex_order, product_order
from cycle_rees.rees import PathIdealSpec, artinian_reduction_ideal, graph_ideal
from cycle_rees.rings import RingError, RingSpec, cycle_ring, mono_divides, mono_mul, parse_polynomial

from oracles import compare, mono_lcm, packed_divides, reference_key

R5 = cycle_ring(5)
R4 = cycle_ring(4)
S4 = graph_ideal(PathIdealSpec(4, 2)).ring  # K[y, x, s]
PO5 = product_order(R5)
PO4 = product_order(R4)


def mono(ring, text):
    (exps,) = parse_polynomial(ring, text).terms
    return exps


def test_single_y_variables_follow_priority():
    assert compare(PO5, R5, mono(R5, "y1"), mono(R5, "y2")) == 1
    assert compare(PO5, R5, mono(R5, "y4"), mono(R5, "y0")) == 1


def test_y_block_dominates_x_parts():
    a = mono(R5, "x3*y1")
    b = mono(R5, "x1*y2")
    assert compare(PO5, R5, a, b) == 1


def test_reflexive_equal():
    m = mono(R5, "x1*y2^3")
    assert compare(PO5, R5, m, m) == 0


def test_equal_y_degree_revlex_rule():
    assert compare(PO4, R4, mono(R4, "y1*y3"), mono(R4, "y0*y2")) == 1


def test_x_lex_breaks_ties():
    assert compare(PO4, R4, mono(R4, "x1*y1"), mono(R4, "x2*y1")) == 1
    assert compare(PO4, R4, mono(R4, "x3*y1"), mono(R4, "x0*y1")) == 1


def test_elimination_order_puts_s_first():
    order = elimination_order(S4, "S")
    s = mono(S4, "s")
    big = mono(S4, "y1^5*x1^5")
    assert compare(order, S4, s, big) == 1


@pytest.mark.parametrize("n", [4, 7])
def test_elimination_orders_keep_their_stages(n):
    """The two eliminations: s from the graph ideal, then x from J."""
    assert elimination_order(graph_ideal(PathIdealSpec(n, 2)).ring, "S").stages == (
        (("S",), "grevlex"),
        (("Y",), "grevlex"),
        (("X",), "lex"),
    )
    assert elimination_order(cycle_ring(n), "X").stages == ((("X",), "grevlex"), (("Y",), "grevlex"))


def test_order_must_cover_ring():
    with pytest.raises(RingError):
        OrderSpec(((("Y",), "grevlex"),)).key_function(R5)
    with pytest.raises(RingError):
        OrderSpec(((("Y",), "weird"),))


exponents5 = st.tuples(*([st.integers(min_value=0, max_value=4)] * R5.nvars))


@given(exponents5, exponents5, exponents5)
def test_total_multiplicative_well_order(a, b, c):
    cmp_ab = compare(PO5, R5, a, b)
    assert cmp_ab in (-1, 0, 1)
    assert (cmp_ab == 0) == (a == b)
    assert cmp_ab == -compare(PO5, R5, b, a)
    # multiplicative: scaling both sides by c preserves the comparison
    assert cmp_ab == compare(PO5, R5, mono_mul(a, c), mono_mul(b, c))
    # 1 is the minimum
    one = (0,) * R5.nvars
    assert compare(PO5, R5, a, one) >= 0


@given(exponents5, exponents5, exponents5)
def test_transitivity(a, b, c):
    if compare(PO5, R5, a, b) >= 0 and compare(PO5, R5, b, c) >= 0:
        assert compare(PO5, R5, a, c) >= 0


@given(exponents5, exponents5)
def test_y_block_dominance(a, b):
    """If the Y parts differ, the X parts cannot influence the comparison."""
    y_idx = R5.block_indices("Y")
    ya = tuple(a[i] if i in y_idx else 0 for i in range(R5.nvars))
    yb = tuple(b[i] if i in y_idx else 0 for i in range(R5.nvars))
    cmp_y = compare(PO5, R5, ya, yb)
    if cmp_y != 0:
        assert compare(PO5, R5, a, b) == cmp_y


def test_canonical_order_matches_product_order_on_xy_ring():
    assert canonical_order(R5) == PO5


def test_leading_terms_of_family_members():
    from cycle_rees.monomial_ideals import initial_ideal

    R6 = cycle_ring(6)
    PO6 = product_order(R6)
    f1 = parse_polynomial(R6, "x5*y1 - x1*y2")
    assert initial_ideal([f1], PO6).gens == (mono(R6, "x5*y1"),)
    h1 = parse_polynomial(R6, "y1*y4 - y0*y3")
    assert initial_ideal([h1], PO6).gens == (mono(R6, "y1*y4"),)
    const = parse_polynomial(R6, "5/2")
    assert initial_ideal([const], PO6).gens == ((0,) * R6.nvars,)
    with pytest.raises(RingError):
        initial_ideal([parse_polynomial(R6, "0")], PO6)


def test_product_order_rejects_graph_ring():
    with pytest.raises(RingError):
        product_order(S4)


ART7_RING = artinian_reduction_ideal(7).ring
MIXED = RingSpec((("A", ("a",)), ("B", ("b1", "b2")), ("C", ("c",)), ("D", ("d1", "d2", "d3"))))
# product, S-elimination, single-block lex, non-contiguous stages and the
# general many-stage key, against the stage-by-stage reference key
COMPILED_CASES = [
    (R5, PO5),
    (S4, elimination_order(S4, "S")),
    (ART7_RING, canonical_order(ART7_RING)),
    (R4, OrderSpec(((("X", "Y"), "grevlex"),))),
    (R4, OrderSpec(((("X", "Y"), "lex"),))),
    # four stages, two of them over a single variable
    (MIXED, OrderSpec(((("A",), "lex"), (("B",), "grevlex"), (("C",), "grevlex"), (("D",), "lex")))),
]


@pytest.mark.parametrize("ring,order", COMPILED_CASES)
@given(data=st.data())
def test_compiled_key_matches_reference(ring, order, data):
    exps = st.tuples(*([st.integers(min_value=0, max_value=3)] * ring.nvars))
    a = data.draw(exps)
    # a permutation of a has the same degree, so grevlex falls to its tie-break
    b = data.draw(st.one_of(exps, st.permutations(a).map(tuple)))
    key, ref = order.key_function(ring), reference_key(order, ring)
    assert (key(a) > key(b)) - (key(a) < key(b)) == (ref(a) > ref(b)) - (ref(a) < ref(b))
    # every field is linear in the exponents, so the engine can add keys
    assert key(a) + key(b) == key(mono_mul(a, b))


@pytest.mark.parametrize("ring,order", COMPILED_CASES)
@given(data=st.data())
def test_packed_monomials_sort_in_term_order(ring, order, data):
    field = st.one_of(st.sampled_from([0, 1, 2**15 - 1]), st.integers(min_value=0, max_value=2**15 - 1))
    exps = st.tuples(*([field] * ring.nvars))
    a = data.draw(exps)
    # a permutation ties the degree; an lcm with a is a multiple of a
    b = data.draw(st.one_of(exps, st.permutations(a).map(tuple), exps.map(lambda c: mono_lcm(a, c))))
    engine = _Engine(ring, order, Budget())
    (pa,), (pb,) = engine.pack({a: 1}), engine.pack({b: 1})
    ref = reference_key(order, ring)
    assert (pa > pb) - (pa < pb) == (ref(a) > ref(b)) - (ref(a) < ref(b))
    low = engine.exponents
    assert packed_divides(pa & low, pb & low, engine.guard) == mono_divides(a, b)


@pytest.mark.parametrize("n", [3, 4, 7])
@given(data=st.data())
def test_grevlex_order_makes_x0_the_smallest_variable(n, data):
    """Grevlex read off the definition: the larger degree wins, and at equal
    degree the monomial with the smaller exponent in the last variable where
    the two differ wins; the ring's last variable is x0."""
    ring = cycle_ring(n)
    assert ring.variables[-1] == "x0"
    exps = st.tuples(*([st.integers(min_value=0, max_value=3)] * ring.nvars))
    a = data.draw(exps)
    b = data.draw(st.one_of(exps, st.permutations(a).map(tuple)))
    diff = [i for i in range(ring.nvars) if a[i] != b[i]]
    if sum(a) != sum(b):
        expected = 1 if sum(a) > sum(b) else -1
    elif diff:
        expected = 1 if a[diff[-1]] < b[diff[-1]] else -1
    else:
        expected = 0
    assert compare(grevlex_order(ring), ring, a, b) == expected


def test_key_is_compiled_once_per_order_and_ring():
    # equal values in distinct objects share one compiled key
    assert PO5.key_function(R5) is product_order(cycle_ring(5)).key_function(cycle_ring(5))
    assert PO5.key_function(R5) is not PO4.key_function(R4)
    # a failed compile is not remembered
    for _ in range(2):
        with pytest.raises(RingError, match="cover"):
            PO4.key_function(S4)


def test_key_fields_are_unsigned_32_bit():
    ring = RingSpec((("X", ("a", "b")),))
    lex, grevlex = (OrderSpec(((("X",), base),)).key_function(ring) for base in ("lex", "grevlex"))
    assert lex((2**32 - 1, 0)) > lex((0, 2**32 - 1))
    for exps in ((2**32, 0), (0, -1)):
        with pytest.raises(RingError, match="order key"):
            lex(exps)
    # a grevlex stage's first field is its degree
    assert grevlex((2**31, 2**31 - 1)) > grevlex((2**31 - 1, 2**31 - 1))
    with pytest.raises(RingError, match="order key"):
        grevlex((2**31, 2**31))
