"""Polynomial arithmetic, normalization, and the text format."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cycle_rees.rings import (
    Polynomial,
    RingError,
    RingSpec,
    cycle_ring,
    mono_divides,
    mono_mul,
    parse_polynomial,
    x_ring,
    y_ring,
)

from oracles import mono_div, mono_lcm

R6 = cycle_ring(6)


def P(text: str, ring=R6) -> Polynomial:
    return parse_polynomial(ring, text)


def test_cycle_ring_layout():
    assert R6.variables == ("y1", "y2", "y3", "y4", "y5", "y0", "x1", "x2", "x3", "x4", "x5", "x0")
    assert x_ring(5).variables == ("x1", "x2", "x3", "x4", "x0")
    assert y_ring(3).variables == ("y1", "y2", "y0")


def test_display_order_puts_x_y_first_then_declared_blocks():
    ring = RingSpec(
        (
            ("W", ("w2", "b", "w1")),
            ("S", ("s",)),
            ("Q", ("q10", "q2", "a2", "q")),
            ("Y", ("y", "y3", "y1")),
            ("X", ("x10", "x2", "x")),
        )
    )
    assert [ring.variables[i] for i in ring.display_indices] == [
        "x", "x2", "x10", "y", "y1", "y3", "b", "w1", "w2", "s", "q", "q2", "a2", "q10",
    ]


def test_duplicate_variables_rejected():
    with pytest.raises(RingError):
        RingSpec((("A", ("u", "v")), ("B", ("v",))))
    # a repeated block name would give two variables one order key
    with pytest.raises(RingError, match="duplicate block 'X'"):
        RingSpec((("X", ("a",)), ("X", ("b",))))


def test_without_drops_one_block_and_names_an_unknown_one():
    ring = RingSpec((("Y", ("y",)), ("X", ("x",)), ("S", ("s",))))
    assert ring.without("X") == RingSpec((("Y", ("y",)), ("S", ("s",))))
    assert ring.without("S").without("Y") == RingSpec((("X", ("x",)),))
    with pytest.raises(RingError, match="no block 'Q'"):
        ring.without("Q")


def test_cancellation():
    assert P("x1 - y1") + P("y1") == P("x1")


def test_difference_of_squares():
    assert P("y1 - y2") * P("y1 + y2") == P("y1^2 - y2^2")


def test_zero_absorbs():
    assert P("0") * P("x1*y2 + 3*x0") == P("0")
    assert P("0") == Polynomial(R6, {})


def test_scalar_and_pow():
    assert P("x1") * 3 == P("3*x1")
    assert P("x1 + y1") * P("x1 + y1") == P("x1^2 + 2*x1*y1 + y1^2")


def test_ring_mismatch_raises():
    with pytest.raises(RingError):
        P("x1") + parse_polynomial(cycle_ring(5), "x1")


def test_negative_exponent_rejected():
    # a^2*b^-1 is no polynomial: its text would drop the b^-1 factor
    ring = RingSpec((("X", ("a", "b")),))
    with pytest.raises(RingError, match="negative exponent"):
        Polynomial(ring, {(2, -1): 1, (0, 0): 1})
    with pytest.raises(RingError, match="negative exponent"):
        Polynomial(ring, {(0, -1): 1})


def test_wrong_length_exponents_rejected():
    with pytest.raises(RingError, match="length"):
        Polynomial(R6, {(0,) * 3: 1})
    with pytest.raises(RingError, match="length"):
        Polynomial(R6, {(1,) * (R6.nvars + 1): 1})


def test_text_roundtrip_and_canonical_order():
    p = P("x5*y1 - x1*y2")
    assert p.to_text() == "x5*y1 - x1*y2"
    assert parse_polynomial(R6, p.to_text()) == p
    assert P("- y0*y2 + y1*y3").to_text() == "y1*y3 - y0*y2"
    assert P("1/2*x1 + 1/2*x1").to_text() == "x1"
    assert P("0").to_text() == "0"


def test_parse_whitespace_and_powers():
    assert P("  y1 ^ 2 *   x3\t- 5/3 * x0 ") == P("y1^2*x3 - 5/3*x0")


def test_parse_rejects_unknown_variable():
    with pytest.raises(RingError):
        P("z1 + y1")


def test_parse_rejects_zero_denominator():
    with pytest.raises(RingError):
        P("1/0")


@pytest.mark.parametrize(
    "text",
    ["x1^", "x1**2", "2 3", "3x1", "x1 x2", "x1^-1", "x1^1/2", "x1^2^3", "x1*", "1/2*+ y2", "*x1", "x1 +", "- - x1"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(RingError):
        P(text)


PARSER_ALPHABET = ["x1", "y2", "x0", "z1", "3", "0", "1/2", "2/0", "x1^2", "*", "**", "^", "2", "+", "-", " ", "\t"]


@given(st.lists(st.sampled_from(PARSER_ALPHABET), max_size=12).map("".join))
def test_parse_is_total_on_its_alphabet(text):
    # any text either parses to a polynomial its own text reproduces, or raises RingError
    try:
        p = P(text)
    except RingError:
        return
    assert P(p.to_text()) == p


def test_extend_and_project():
    small = y_ring(6)
    h = parse_polynomial(small, "y1*y3*y5 - y0*y2*y4")
    big = h.to_ring(R6)
    assert big.to_text() == h.to_text()
    assert big.to_ring(small) == h
    with pytest.raises(RingError):
        P("x1*y1").to_ring(small)


exponents6 = st.tuples(*([st.integers(min_value=0, max_value=3)] * R6.nvars))
coeffs = st.fractions(min_value=-4, max_value=4).filter(lambda c: c != 0)
polys6 = st.dictionaries(exponents6, coeffs, max_size=5).map(lambda d: Polynomial(R6, d))


# sparse: each term names at most three variables, so many polynomials miss a given one
sparse_exps6 = st.dictionaries(st.integers(min_value=0, max_value=R6.nvars - 1), st.integers(min_value=1, max_value=3), max_size=3)
sparse_polys6 = st.dictionaries(
    sparse_exps6.map(lambda d: tuple(d.get(i, 0) for i in range(R6.nvars))), coeffs, max_size=3
).map(lambda d: Polynomial(R6, d))


@given(sparse_polys6, st.permutations(R6.variables), st.booleans())
def test_to_ring_round_trip_through_a_split_layout(p, shuffled, z_first):
    # every variable but one in block A (reordered), that one alone in block Z
    blocks = (("A", tuple(shuffled[1:])), ("Z", (shuffled[0],)))
    layout = RingSpec(blocks[::-1] if z_first else blocks)
    q = p.to_ring(layout)
    assert q.to_ring(R6) == p
    assert sorted(q.block_degrees("Z")) == sorted({e[R6.var_index[shuffled[0]]] for e in p.terms})


@given(sparse_polys6, st.sets(st.sampled_from(R6.variables), max_size=3))
def test_to_ring_into_a_subring_raises_exactly_on_a_dropped_variable(p, dropped):
    sub = RingSpec((("K", tuple(v for v in R6.variables if v not in dropped)),))
    if any(e[R6.var_index[v]] for e in p.terms for v in dropped):
        with pytest.raises(RingError):
            p.to_ring(sub)
    else:
        assert p.to_ring(sub).to_ring(R6) == p


@given(polys6, polys6, polys6)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys6)
def test_normalization_idempotent(p):
    again = Polynomial(R6, p.terms)
    assert again == p
    assert all(c != 0 for c in again.terms.values())
    with pytest.raises(TypeError):
        again.terms[(0,) * R6.nvars] = 1


@given(polys6)
def test_text_roundtrip_random(p):
    assert parse_polynomial(R6, p.to_text()) == p


def one_form(p: Polynomial) -> bool:
    """Every coefficient is an int exactly when it is integral, else a Fraction."""
    return all(type(c) is (int if c.denominator == 1 else Fraction) for c in p.terms.values())


mixed_coeffs = st.one_of(st.integers(min_value=-4, max_value=4), coeffs).filter(lambda c: c != 0)
mixed_polys6 = st.dictionaries(exponents6, mixed_coeffs, max_size=5).map(lambda d: Polynomial(R6, d))
REVERSED6 = RingSpec((("K", R6.variables[::-1]),))


@given(mixed_polys6, mixed_polys6, mixed_coeffs)
def test_integral_coefficients_are_ints(p, q, c):
    built = [Polynomial(R6, {(0,) * R6.nvars: c}), p.to_ring(REVERSED6), parse_polynomial(R6, p.to_text())]
    results = [p, p + q, p - q, -p, p * q, p * c, c * p, *built]
    assert all(one_form(r) for r in results)


def test_integral_fraction_is_stored_as_int():
    one = (0,) * R6.nvars
    p = Polynomial(R6, {one: Fraction(4, 2)})
    assert dict(p.terms) == {one: 2}
    assert type(p.terms[one]) is int
    assert p.to_text() == "2"


@given(st.dictionaries(exponents6, st.integers(min_value=-4, max_value=4), max_size=5))
def test_int_and_fraction_inputs_build_one_polynomial(d):
    ints = Polynomial(R6, d)
    fractions = Polynomial(R6, {e: Fraction(c) for e, c in d.items()})
    assert ints == fractions
    assert hash(ints) == hash(fractions)
    assert ints.to_text() == fractions.to_text()
    assert [type(c) for c in ints.terms.values()] == [type(c) for c in fractions.terms.values()]


def exponent_vectors(n: int):
    return st.tuples(*([st.integers(min_value=0, max_value=5)] * n))


exponent_pairs = st.integers(min_value=0, max_value=12).flatmap(lambda n: st.tuples(exponent_vectors(n), exponent_vectors(n)))


@given(exponent_pairs)
def test_monomial_kernels_are_componentwise(pair):
    a, b = pair
    n = len(a)
    assert mono_mul(a, b) == tuple(a[i] + b[i] for i in range(n))
    assert mono_lcm(a, b) == tuple(max(a[i], b[i]) for i in range(n))
    assert mono_divides(a, b) == all(a[i] <= b[i] for i in range(n))
    assert mono_div(a, b) == tuple(a[i] - b[i] for i in range(n))
    assert mono_div(mono_mul(a, b), b) == a
    for m in (mono_mul(a, b), mono_lcm(a, b), mono_div(a, b)):
        assert type(m) is tuple
