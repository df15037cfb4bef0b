"""Initial ideals, squarefreeness, x-condition, the pivot split, Hilbert series."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from cycle_rees.classify import hilbert_closed_form_n_minus_2
from cycle_rees.groebner import Budget, BudgetExceeded, Ideal
from cycle_rees.monomial_ideals import (
    HilbertSeries,
    MonomialIdeal,
    _numerator,
    _split,
    hilbert_numerator,
    initial_ideal,
    is_squarefree,
    pivot_most_frequent,
    x_condition,
)
from cycle_rees.orders import OrderSpec, product_order
from cycle_rees.rings import RingError, RingSpec, cycle_ring, mono_divides, parse_polynomial, x_ring

from oracles import hilbert_by_inclusion_exclusion, pivot_least_frequent


def monos(ring, *texts):
    return [next(iter(parse_polynomial(ring, t).terms)) for t in texts]


def mono_ideal(ring, *texts) -> MonomialIdeal:
    return MonomialIdeal(ring, monos(ring, *texts))


def test_initial_ideal_n4(rees_cache):
    J = rees_cache(4, 2)
    K = initial_ideal(J, product_order(J.ring))
    expected = mono_ideal(J.ring, "x3*y1", "x0*y2", "x1*y3", "x0*y1", "y1*y3")
    assert set(K.gens) == set(expected.gens)
    assert is_squarefree(K)
    assert x_condition(K)


def test_initial_ideal_n5(rees_cache):
    J = rees_cache(5, 3)
    K = initial_ideal(J, product_order(J.ring))
    expected = mono_ideal(J.ring, "x4*y1", "x0*y2", "x1*y3", "x2*y4", "x0*y1", "x2*y1*y3")
    assert set(K.gens) == set(expected.gens)


def test_initial_ideal_zero():
    ring = cycle_ring(4)
    K = initial_ideal(Ideal(ring, []), product_order(ring))
    assert not K.gens


def test_initial_ideal_of_a_sequence_reads_it_as_given(rees_cache):
    J = rees_cache(5, 3)
    order = product_order(J.ring)
    assert initial_ideal(J.groebner_basis(order), order) == initial_ideal(J, order)
    # a^2 - b, a*b - 1 is no basis: a*(a*b - 1) - b*(a^2 - b) = b^2 - a
    ring = RingSpec((("X", ("a", "b")),))
    polys = [parse_polynomial(ring, "a^2 - b"), parse_polynomial(ring, "a*b - 1")]
    assert initial_ideal(polys) == mono_ideal(ring, "a^2", "a*b")
    assert initial_ideal(Ideal(ring, polys)) == mono_ideal(ring, "a", "b^3")


def test_initial_ideal_of_a_bad_sequence_raises():
    # a zero polynomial: tests/test_orders.py::test_leading_terms_of_family_members
    ring = cycle_ring(4)
    with pytest.raises(RingError):
        initial_ideal([], product_order(ring))
    with pytest.raises(RingError):
        initial_ideal([parse_polynomial(ring, "x1"), parse_polynomial(cycle_ring(5), "x1")], product_order(ring))


def test_squarefree_negative():
    ring = cycle_ring(4)
    assert not is_squarefree(mono_ideal(ring, "y1^2"))


def test_x_condition_cases(rees_cache):
    ring = cycle_ring(4)
    assert not x_condition(mono_ideal(ring, "x1^2*y1"))
    J = rees_cache(8, 6)
    assert x_condition(initial_ideal(J, product_order(J.ring)))


def test_exponent_vectors_are_checked():
    ring = RingSpec((("X", ("a", "b")),))
    with pytest.raises(RingError, match="negative exponent"):
        MonomialIdeal(ring, [(-1, 2)])
    with pytest.raises(RingError, match="negative exponent"):
        MonomialIdeal(ring, ((1, 0), (0, -1)))
    with pytest.raises(RingError, match="length"):
        MonomialIdeal(ring, ((1, 0, 0),))
    with pytest.raises(RingError, match="negative exponent"):
        MonomialIdeal(x_ring(3), ((-1, 0, 0), (1, 2)))
    # read pairwise, (1, 0) would divide the short (1,) and drop it unchecked
    with pytest.raises(RingError, match="length"):
        MonomialIdeal(ring, [(1, 0), (1,)])


def test_monomial_ideal_stores_its_minimal_generators():
    """Equality and the predicates read the ideal, not the generators given."""
    ring = RingSpec((("X", ("a", "b")),))
    M = MonomialIdeal(ring, ((2, 1), (1, 0)))
    assert M == MonomialIdeal(ring, ((1, 0),))
    assert M.gens == ((1, 0),)
    assert is_squarefree(M)
    assert x_condition(M)
    assert MonomialIdeal(ring, ((0, 1), (1, 0), (0, 1))) == MonomialIdeal(ring, ((1, 0), (0, 1)))


def test_monomial_ideal_from_a_list_is_hashable():
    ring = RingSpec((("X", ("a", "b")),))
    M = MonomialIdeal(ring, [(1, 1), (2, 0)])
    assert M.gens == ((1, 1), (2, 0))
    assert {M: 1}[MonomialIdeal(ring, ((2, 0), (1, 1)))] == 1


def test_colon_sum_laws():
    rng = random.Random(5)
    ring = RingSpec((("X", ("a", "b", "c", "d")),))
    for _ in range(100):
        gens = [tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        M = MonomialIdeal(ring, gens)
        i = rng.randrange(4)
        x = tuple(int(v == i) for v in range(4))
        S, colon = _split(M.gens, i)
        # the definitions, re-minimalised in full
        assert S == MonomialIdeal(ring, M.gens + (x,)).gens
        assert colon == MonomialIdeal(ring, [tuple(max(e - q, 0) for e, q in zip(g, x)) for g in M.gens]).gens
        for q in colon:
            assert any(mono_divides(g, tuple(a + b for a, b in zip(q, x))) for g in M.gens)
        for g in M.gens:
            assert any(mono_divides(o, g) for o in S)
        for gens in (M.gens, colon, S):
            for g in gens:
                assert not any(mono_divides(o, g) for o in gens if o != g)


def test_hilbert_base_cases():
    ring3 = RingSpec((("X", ("a", "b", "c")),))
    assert hilbert_numerator(MonomialIdeal(ring3, [])) == HilbertSeries((1,), 3)
    ring2 = RingSpec((("X", ("a", "b")),))
    M = MonomialIdeal(ring2, [(1, 1)])
    assert hilbert_numerator(M) == HilbertSeries((1, 1), 1)


def test_hilbert_k4(rees_cache):
    J = rees_cache(4, 2)
    K4 = initial_ideal(J, product_order(J.ring))
    assert hilbert_numerator(K4) == HilbertSeries((1, 3, 1), 5)


def test_hilbert_pivot_independence(rees_cache):
    J = rees_cache(6, 4)
    K = initial_ideal(J, product_order(J.ring))
    assert hilbert_numerator(K, pivot_most_frequent) == hilbert_numerator(K, pivot_least_frequent)


def test_hilbert_inclusion_exclusion_oracle():
    rng = random.Random(3)
    ring = RingSpec((("X", ("a", "b", "c", "d")),))
    for _ in range(200):
        gens = [tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(rng.randint(1, 5))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        M = MonomialIdeal(ring, gens)
        assert hilbert_numerator(M) == hilbert_by_inclusion_exclusion(M)


def test_hilbert_of_unminimalised_generators():
    """A MonomialIdeal built from non-minimal, unsorted or repeated generators
    stores the minimal ones; its series is that of the ideal they generate."""
    rng = random.Random(29)
    ring = RingSpec((("X", ("a", "b", "c", "d")),))
    for _ in range(200):
        gens = [tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(rng.randint(1, 5))]
        gens += rng.sample(gens, rng.randint(0, len(gens)))  # repeats
        gens += [tuple(e + rng.randint(0, 1) for e in g) for g in rng.sample(gens, min(2, len(gens)))]  # multiples
        rng.shuffle(gens)
        M = MonomialIdeal(ring, gens)
        assert set(M.gens) == {g for g in gens if not any(h != g and mono_divides(h, g) for h in gens)}
        assert hilbert_numerator(M) == hilbert_by_inclusion_exclusion(M)


def test_hilbert_split_law():
    """K(M1 + M2) = K(M1) * K(M2) for ideals in disjoint variables: the
    numerators multiply and the denominator powers add."""
    rng = random.Random(17)
    first = RingSpec((("X", ("a", "b", "c")),))
    second = RingSpec((("Y", ("d", "e", "f")),))
    both = RingSpec((("X", ("a", "b", "c")), ("Y", ("d", "e", "f"))))
    for _ in range(100):
        g1 = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(0, 4))]
        g2 = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(0, 4))]
        M1 = MonomialIdeal(first, [g for g in g1 if any(g)])
        M2 = MonomialIdeal(second, [g for g in g2 if any(g)])
        M = MonomialIdeal(both, [g + (0, 0, 0) for g in M1.gens] + [(0, 0, 0) + g for g in M2.gens])
        s1, s2, s = hilbert_numerator(M1), hilbert_numerator(M2), hilbert_numerator(M)
        product = [0] * (len(s1.numerator) + len(s2.numerator) - 1)
        for i, a in enumerate(s1.numerator):
            for j, b in enumerate(s2.numerator):
                product[i + j] += a * b
        assert s == HilbertSeries(tuple(product), s1.denom_power + s2.denom_power)
        for ideal, series in ((M1, s1), (M2, s2), (M, s)):
            assert series == hilbert_by_inclusion_exclusion(ideal)


def test_hilbert_recursion_memo_size(rees_cache):
    """The split leaves in(J) of (10, 8) 4 connected classes to pivot on;
    without it the pivot recursion memoised 340 ideals."""
    J = rees_cache(10, 8)
    memo: dict = {}
    _numerator(initial_ideal(J, product_order(J.ring)).gens, pivot_most_frequent, memo, Budget())
    assert len(memo) == 4


def test_hilbert_recursion_builds_no_monomial_ideal(rees_cache, monkeypatch):
    """The recursion runs on generator tuples: the ideal is checked once, when
    it is built, and no node builds or checks another."""
    J = rees_cache(8, 6)
    K = initial_ideal(J, product_order(J.ring))
    built = []
    monkeypatch.setattr(MonomialIdeal, "__post_init__", lambda self: built.append(self))
    assert hilbert_numerator(K) == hilbert_closed_form_n_minus_2(8)
    assert built == []


def test_hilbert_checks_the_deadline_and_counts_no_step(rees_cache):
    J = rees_cache(6, 4)
    K = initial_ideal(J, product_order(J.ring))
    with pytest.raises(BudgetExceeded):
        hilbert_numerator(K, budget=Budget(seconds=-1))
    budget = Budget(max_steps=0)
    assert hilbert_numerator(K, budget=budget) == hilbert_numerator(K)
    assert budget.steps == 0


def test_series_equal_across_orders(rees_cache):
    """The Hilbert series of T/J is order independent: two different initial
    ideals of the same Rees ideal have identical series."""
    J = rees_cache(6, 3)
    first = hilbert_numerator(initial_ideal(J, product_order(J.ring)))
    other_order = OrderSpec(((("X",), "grevlex"), (("Y",), "grevlex")))
    second = hilbert_numerator(initial_ideal(J, other_order))
    assert first == second


def test_series_canonical_form_strips_common_factors():
    s = HilbertSeries((1, 0, -1), 2)  # (1-z^2)/(1-z)^2 = (1+z)/(1-z)
    assert (s.numerator, s.denom_power) == ((1, 1), 1)
    zero = HilbertSeries((0,), 4)
    assert (zero.numerator, zero.denom_power) == ((), 0)


def test_series_equality_reads_the_series():
    """Equal series compare equal however they were written down."""
    assert HilbertSeries((1, -1), 1) == HilbertSeries((1,), 0)
    assert HilbertSeries((1, 0), 2).is_palindromic()
    assert HilbertSeries((1, 0, -1), 2).is_palindromic()  # (1 + z)(1-z) / (1-z)^2


def power_series(numerator: tuple[int, ...], denom_power: int, degree: int) -> list[int]:
    """Coefficients of z^0..z^degree of numerator / (1-z)^denom_power."""
    coeffs = (list(numerator) + [0] * (degree + 1))[: degree + 1]
    for _ in range(denom_power):
        for k in range(1, degree + 1):
            coeffs[k] += coeffs[k - 1]
    return coeffs


@given(st.lists(st.integers(-5, 5), max_size=8), st.integers(0, 4), st.data())
def test_canonical_keeps_the_series_and_is_lowest_terms(num, e, data):
    if data.draw(st.booleans()):
        # times (1-z)^k, so there is a common factor to strip
        for _ in range(data.draw(st.integers(0, e))):
            num = [a - b for a, b in zip(num + [0], [0] + num)]
    c = HilbertSeries(tuple(num), e)
    assert HilbertSeries(c.numerator, c.denom_power) == c
    assert power_series(c.numerator, c.denom_power, 12) == power_series(tuple(num), e, 12)
    assert not c.numerator or c.numerator[-1] != 0
    if c.denom_power > 0:
        assert sum(c.numerator) != 0


@pytest.mark.parametrize(
    "numerator, denom_power, text",
    [
        ((1, 3, 1), 5, "(1 + 3*z + z^2) / (1-z)^5"),
        ((-1, 2), 0, "-1 + 2*z"),
        ((-2, 0, 1), 3, "(-2 + z^2) / (1-z)^3"),
        ((1, 0, 0, -4, 2), 2, "(1 - 4*z^3 + 2*z^4) / (1-z)^2"),
        ((0, 1), 0, "z"),
        ((0, -1), 1, "(-z) / (1-z)^1"),
        ((3,), 0, "3"),
        ((), 0, "0"),
        ((), 3, "0"),
        ((0,), 0, "0"),
        ((0, 0), 2, "0"),
        ((1, 0, -1, 0), 2, "(1 + z) / (1-z)^1"),
        ((1, -1), 1, "1"),
    ],
)
def test_series_text(numerator, denom_power, text):
    assert str(HilbertSeries(numerator, denom_power)) == text


def test_json_shape():
    s = HilbertSeries((1, 3, 1), 5)
    assert s.to_json() == {"numerator": [1, 3, 1], "denom_power": 5}
