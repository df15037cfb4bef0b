"""Buchberger engine: normal forms, bases, membership, elimination."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import example, given, strategies as st

from cycle_rees import groebner
from cycle_rees.groebner import (
    Budget,
    BudgetExceeded,
    Ideal,
    _pack,
    _unpack,
    buchberger,
    eliminate,
    ideal_equal,
    ideal_membership,
    is_groebner_basis,
    normal_form,
)
from cycle_rees.orders import OrderSpec, canonical_order, elimination_order, product_order
from cycle_rees.rees import (
    PathIdealSpec,
    family_half,
    family_n_minus_2,
    fiber_ideal,
    graph_ideal,
    rees_ideal,
    sym_relations,
)
from cycle_rees.rings import (
    Polynomial,
    RingError,
    RingSpec,
    cycle_ring,
    mono_divides,
    mono_mul,
    parse_polynomial,
)

from oracles import (
    gebauer_moeller_queue,
    is_groebner_basis_all_pairs,
    mono_lcm,
    packed_divides,
    packed_lcm,
    reference_key,
)


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
    assert not normal_form(fam["g2"], list(buchberger(raw, order)), order)


def test_normal_form_self_reduction():
    fam = family_n_minus_2(6)
    basis = list(fam.values())
    assert not normal_form(fam["f3"], basis, product_order(cycle_ring(6)))


def test_normal_form_irreducible_variable():
    ring = cycle_ring(6)
    y0 = parse_polynomial(ring, "y0")
    assert normal_form(y0, fam_polys(6), product_order(ring)) == y0


def test_buchberger_principal_monomial():
    ring = cycle_ring(4)
    y1 = parse_polynomial(ring, "y1")
    assert buchberger([y1], product_order(ring)) == (y1,)


def test_buchberger_initial_ideal_of_rees_n4():
    # reduced basis of L + HT for the 4-cycle at t = 2; leading monomials
    # are x3*y1, x0*y2, x1*y3, x0*y1, y1*y3
    ring = cycle_ring(4)
    order = product_order(ring)
    gb = buchberger(fam_polys(4), order)
    key = order.key_function(ring)
    leads = {max(g.terms, key=key) for g in gb}
    expected = {
        next(iter(parse_polynomial(ring, text).terms))
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
        [parse_polynomial(ring, "y1"), parse_polynomial(ring, "y2")], product_order(ring)
    )
    assert ok


def test_is_groebner_basis_certificate_on_gap():
    # removing one ladder element from the n = 8 family must break the basis
    fam = family_n_minus_2(8)
    broken = [p for name, p in fam.items() if name != "g3"]
    ok, cert = is_groebner_basis(broken, product_order(cycle_ring(8)))
    assert not ok
    i, j, remainder = cert
    assert remainder
    assert 0 <= i < j < len(broken)
    full = list(fam.values())
    ok_full, _ = is_groebner_basis(full, product_order(cycle_ring(8)))
    assert ok_full


@pytest.mark.parametrize("names, other", [(("c", "d"), "c*d - d"), (("c", "d", "e"), "e^2 - c")])
def test_is_groebner_basis_rejects_mixed_rings(names, other):
    ab = RingSpec((("X", ("a", "b")),))
    with pytest.raises(RingError, match="different rings"):
        is_groebner_basis([parse_polynomial(ab, "a^2 - b"), parse_polynomial(RingSpec((("X", names),)), other)])


def test_engine_rejects_mismatched_or_zero_input():
    ab = RingSpec((("X", ("a", "b")),))
    cd = RingSpec((("X", ("c", "d")),))
    f, g = parse_polynomial(ab, "a^2 - b"), parse_polynomial(cd, "c*d - d")
    with pytest.raises(RingError, match="basis polynomial in a different ring"):
        normal_form(f, [g])
    with pytest.raises(RingError, match="zero polynomial in reduction basis"):
        normal_form(f, [parse_polynomial(ab, "b"), parse_polynomial(ab, "0")])
    with pytest.raises(RingError, match="polynomial and ideal live in different rings"):
        ideal_membership(f, Ideal(cd, [g]))
    with pytest.raises(RingError, match="ideals live in different rings"):
        ideal_equal(Ideal(ab, [f]), Ideal(cd, [g]))
    with pytest.raises(RingError, match="generator in a different ring"):
        Ideal(ab, [g])


def test_reused_basis_records_keep_the_input_checks():
    ab = RingSpec((("X", ("a", "b")),))
    cd = RingSpec((("X", ("c", "d")),))
    gb = buchberger([parse_polynomial(ab, "a^2 - b")])
    assert normal_form(parse_polynomial(ab, "a^3"), gb) == parse_polynomial(ab, "a*b")
    # the same basis tuple still rejects a polynomial of another ring
    with pytest.raises(RingError, match="basis polynomial in a different ring"):
        normal_form(parse_polynomial(cd, "c"), gb)
    # so does an Ideal whose records are already kept
    ideal = Ideal(ab, gb)
    assert normal_form(parse_polynomial(ab, "a^3"), ideal) == parse_polynomial(ab, "a*b")
    assert ideal._records
    with pytest.raises(RingError, match="basis polynomial in a different ring"):
        normal_form(parse_polynomial(cd, "c"), ideal)
    # a list basis is read afresh on every call
    f = parse_polynomial(ab, "a^2 + b")
    basis = [parse_polynomial(ab, "a - b")]
    assert normal_form(f, basis) == parse_polynomial(ab, "b^2 + b")
    basis[0] = parse_polynomial(ab, "b - 1")
    assert normal_form(f, basis) == parse_polynomial(ab, "a^2 + 1")


def memo_free_normal_form(f: Polynomial, basis, order: OrderSpec) -> Polynomial:
    """f reduced against fresh records of basis, with a fresh memo."""
    engine = groebner._Engine(f.ring, order, Budget())
    reducers = [engine.reducer(engine.pack(g.terms)) for g in basis]
    leads = [rec[0] for rec in reducers]
    return Polynomial(f.ring, engine.unpack(engine.reduce_full(engine.pack(f.terms), reducers, leads, {})))


def test_first_divisor_memo_matches_memo_free_normal_forms():
    order = OrderSpec(((("X",), "grevlex"),))
    rng = random.Random(17)
    for _ in range(40):
        first, second = (buchberger([random_poly(rng) for _ in range(3)], order) for _ in range(2))
        fs = [random_poly(rng, max_terms=5, max_exp=4) for _ in range(4)]
        expected = {id(basis): [memo_free_normal_form(f, basis, order) for f in fs] for basis in (first, second)}
        # an Ideal whose cached basis is first stands for first
        ideal = Ideal(SMALL_RING, first)
        assert ideal.groebner_basis(order) == first
        # one reducer's normal forms share one memo; an Ideal's second
        # reducer reuses the records its first one kept
        reducers = [groebner._reducer(SMALL_RING, basis, order) for basis in (first, ideal)]
        kept = ideal._records[order]
        reducers.append(groebner._reducer(SMALL_RING, ideal, order))
        assert ideal._records[order] is kept
        for reduce in reducers:
            assert [Polynomial(SMALL_RING, reduce(f.terms)) for f in fs] == expected[id(first)]
        # a second basis interleaves with the first
        for k, f in enumerate(fs):
            assert normal_form(f, list(first), order) == expected[id(first)][k]
            assert normal_form(f, second, order) == expected[id(second)][k]
            assert normal_form(f, first, order) == expected[id(first)][k]


def test_ideal_keeps_records_and_no_memo(rees_cache):
    J = rees_cache(6, 4)
    order = product_order(J.ring)
    h = parse_polynomial(J.ring, "y1*y3*y5 - y0*y2*y4")
    assert ideal_membership(h, J, order)
    kept = J._records[order]
    reducers, leads = kept
    assert isinstance(reducers, tuple) and isinstance(leads, tuple)
    assert len(reducers) == len(leads) == len(J.groebner_basis(order))
    assert leads == tuple(rec[0] for rec in reducers)
    # a second membership reuses the same immutable pair: nothing kept grows
    assert ideal_membership(h * h, J, order)
    assert J._records[order] is kept


class NoMemo(dict):
    """A first-divisor memo that remembers nothing."""

    def __setitem__(self, m, k):
        pass


def test_first_divisor_memo_changes_no_basis_and_no_step(monkeypatch):
    """Every memo owner (the pair queue, interreduction and _reducer)
    reduces through reduce_full, so patching it disables all three."""
    rng = random.Random(19)
    order = OrderSpec(((("X",), "grevlex"),))
    cases = [([random_poly(rng, max_terms=4, max_exp=3) for _ in range(3)], order) for _ in range(20)]
    G = graph_ideal(PathIdealSpec(6, 4))
    cases.append((list(G.generators), elimination_order(G.ring, "S")))
    reduce_full = groebner._Engine.reduce_full

    def memo_free_reduce_full(self, work, reducers, leads, memo):
        return reduce_full(self, work, reducers, leads, NoMemo())

    for gens, order in cases:
        budget = Budget()
        gb = buchberger(gens, order, budget)
        fs = [random_poly(rng, gens[0].ring, max_terms=4) for _ in range(3)]
        nfs = [normal_form(f, gb, order, budget) for f in fs]
        with monkeypatch.context() as patch:
            patch.setattr(groebner._Engine, "reduce_full", memo_free_reduce_full)
            memo_free_budget = Budget()
            assert buchberger(gens, order, memo_free_budget) == gb
            assert [normal_form(f, list(gb), order, memo_free_budget) for f in fs] == nfs
        assert budget.steps == memo_free_budget.steps


def test_second_membership_packs_no_basis_element(rees_cache, sym_cache, monkeypatch):
    J = rees_cache(6, 4)
    order = product_order(J.ring)
    h = parse_polynomial(J.ring, "y1*y3*y5 - y0*y2*y4")
    assert ideal_membership(h, J, order)
    # a membership in L of the same cell keeps J's records
    L = sym_cache(6, 4)
    assert L.ring == J.ring
    assert not ideal_membership(h, L, order)
    packed = []
    init = groebner._Engine.__init__

    def counting_init(self, *args):
        init(self, *args)
        pack = self.pack
        self.pack = lambda terms: packed.append(terms) or pack(terms)

    monkeypatch.setattr(groebner._Engine, "__init__", counting_init)
    assert ideal_membership(h, J, order)
    assert len(J.groebner_basis(order)) > 1
    assert packed == [h.terms]


def test_membership_examples(rees_cache, sym_cache):
    ring = cycle_ring(6)
    order = product_order(ring)
    J = rees_cache(6, 4)
    h = parse_polynomial(ring, "y1*y3*y5 - y0*y2*y4")
    assert ideal_membership(h, J, order)
    assert ideal_membership(parse_polynomial(ring, "0"), J, order)
    assert not ideal_membership(h, Ideal(ring, []), order)
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
    assert not fiber_cache(5, 2).generators


def test_eliminate_drops_a_middle_block():
    ring = RingSpec((("A", ("a",)), ("B", ("b1", "b2")), ("C", ("c",))))
    ideal = Ideal(ring, [parse_polynomial(ring, text) for text in ("a - b1*b2", "b1 - c", "b2 - c")])
    # under (B grevlex, A lex, C lex) the reduced basis is b1 - c, b2 - c, a - c^2
    result = eliminate(ideal, "B")
    sub = RingSpec((("A", ("a",)), ("C", ("c",))))
    assert result.ring == sub
    assert result.generators == (parse_polynomial(sub, "a - c^2"),)
    assert result.groebner_basis() == result.generators


def test_eliminated_ideals_cache_only_their_canonical_basis():
    # eliminate seeds the projected basis under the subring's canonical order,
    # the order a reduction against the result defaults to
    J = rees_ideal(PathIdealSpec(6, 4))
    assert list(J._gb_cache) == [canonical_order(J.ring)]
    H = fiber_ideal(J)
    assert list(H._gb_cache) == [canonical_order(H.ring)]


def test_budget_exceeded_is_distinct():
    G = graph_ideal(PathIdealSpec(8, 6))
    with pytest.raises(BudgetExceeded):
        G.groebner_basis(elimination_order(G.ring, "S"), Budget(max_steps=5))


def test_time_budget_is_honoured_by_a_long_elimination():
    # (10, 9) builds an intermediate basis of several hundred elements, so a
    # budget of a small fraction of its run time runs out inside the pair
    # update and interreduction loops, which do not tick themselves; the
    # overshoot must stay small
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        rees_ideal(PathIdealSpec(10, 9), Budget(seconds=0.05))
    assert time.monotonic() - start < 0.05 + 1.0


def test_time_budget_is_checked_while_generators_are_inserted():
    # inserting L's generators counts no step, but for a long cycle it alone
    # can take many times the budget
    budget = Budget(seconds=0)
    with pytest.raises(BudgetExceeded):
        buchberger(sym_relations(PathIdealSpec(8, 1)).generators, budget=budget)
    assert budget.steps == 0


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
        gens = [g for g in gens if g]
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
        gens = [g for g in gens if g]
        if not gens:
            continue
        ideal = Ideal(SMALL_RING, gens)
        combo = Polynomial(SMALL_RING, {})
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
        gens = [g for g in gens if g]
        if not gens:
            continue
        gb = buchberger(gens, order)
        ok, _ = is_groebner_basis(list(gb), order)
        assert ok
        assert is_groebner_basis_all_pairs(list(gb), order)
        assert_reduced_shape(gb, order)


@pytest.mark.parametrize("n,t", [(6, 4), (8, 6)])
def test_rees_basis_has_reduced_shape(n, t, rees_cache):
    J = rees_cache(n, t)
    order = product_order(J.ring)
    assert_reduced_shape(J.groebner_basis(order), order)


def test_engine_results_keep_integral_coefficients_as_ints(rees_cache):
    J = rees_cache(6, 4)
    gb = J.groebner_basis(product_order(J.ring))
    remainder = normal_form(parse_polynomial(J.ring, "y1^2*x2 + 3*y1*y3*y5 - 2*x1*x3"), gb)
    # the record of 2*a - 4*b divides by its lead coefficient, so the engine
    # computes the remainder's coefficient 2 as a Fraction
    ab = RingSpec((("X", ("a", "b")),))
    two_b = normal_form(parse_polynomial(ab, "a"), [parse_polynomial(ab, "2*a - 4*b")])
    assert two_b == parse_polynomial(ab, "2*b")
    assert remainder
    assert all(type(c) is int for g in (*gb, remainder, two_b) for c in g.terms.values())


small_exps = st.tuples(*([st.integers(min_value=0, max_value=2)] * SMALL_RING.nvars))
small_polys = st.dictionaries(small_exps, st.integers(min_value=-3, max_value=3), min_size=1, max_size=4).map(
    lambda d: Polynomial(SMALL_RING, d)
)
scales = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(lambda c: c not in (0, 1, -1))


@given(small_polys, st.lists(st.tuples(small_polys.filter(bool), scales), min_size=1, max_size=3))
def test_normal_form_ignores_divisor_scaling(f, scaled):
    order = OrderSpec(((("X",), "grevlex"),))
    basis = [b for b, _ in scaled]
    assert normal_form(f, basis, order) == normal_form(f, [b * c for b, c in scaled], order)


fractional = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda c: c.denominator > 1)
fractional_polys = st.dictionaries(small_exps, fractional, min_size=1, max_size=4).map(
    lambda d: Polynomial(SMALL_RING, d)
)


@given(st.lists(st.tuples(small_polys.filter(bool), scales), max_size=2), st.tuples(fractional_polys, scales))
def test_reduced_basis_ignores_generator_scaling(scaled, fractional_gen):
    # the last generator has only non-integral coefficients, so its record
    # divides by a Fraction lead coefficient
    order = OrderSpec(((("X",), "grevlex"),))
    scaled = scaled + [fractional_gen]
    gb = buchberger([b for b, _ in scaled], order)
    assert buchberger([b * c for b, c in scaled], order) == gb
    assert_reduced_shape(gb, order)


# squarefree generators keep lex bases small: with exponents up to 2, about
# one ideal of three trinomials in 300 has a lex basis that takes seconds
squarefree_polys = st.dictionaries(
    st.tuples(*([st.integers(min_value=0, max_value=1)] * SMALL_RING.nvars)),
    st.integers(min_value=-3, max_value=3),
    min_size=1,
    max_size=4,
).map(lambda d: Polynomial(SMALL_RING, d))


@given(st.lists(squarefree_polys, min_size=1, max_size=4), st.sampled_from(["lex", "grevlex"]))
def test_checker_matches_all_pairs_oracle(polys, base):
    order = OrderSpec(((("X",), base),))
    ok, cert = is_groebner_basis(polys, order)
    assert ok == is_groebner_basis_all_pairs(polys, order)
    if not ok:
        i, j, remainder = cert
        nonzero = [g for g in polys if g]
        assert 0 <= i < j < len(nonzero)
        assert remainder
        assert normal_form(remainder, nonzero, order) == remainder
        assert not normal_form(remainder, list(buchberger(polys, order)), order)


# exponents from both ends of a packed field, so that divisibility is common
field = st.one_of(st.sampled_from([0, 1, 2, 2**15 - 2, 2**15 - 1]), st.integers(min_value=0, max_value=2**15 - 1))
packable = st.tuples(*([field] * 5))


@given(packable, packable, packable)
def test_packed_kernels_match_tuple_kernels(a, b, c):
    guard = _pack((2**15,) * len(a))
    pa, pb = _pack(a), _pack(b)
    assert _unpack(pa, len(a)) == a
    assert _unpack(packed_lcm(pa, pb, guard), len(a)) == mono_lcm(a, b)
    assert packed_divides(pa, pb, guard) == mono_divides(a, b)
    # the coprime criterion: the packed lcm is the sum exactly for coprime leads
    assert (packed_lcm(pa, pb, guard) == pa + pb) == (mono_lcm(a, b) == mono_mul(a, b))
    # int order extends divisibility, so sorting packed lcms meets divisors first
    assert not mono_divides(a, b) or pa <= pb
    assert pa <= _pack(mono_lcm(a, b))
    # the pair update stores each live pair with the lcm of its two leads
    ring = RingSpec((("X", tuple("abcde")),))
    engine = groebner._Engine(ring, OrderSpec(((("X",), "grevlex"),)), Budget())
    pairs = groebner._Pairs(engine)
    leads = [a, b, c]
    for lead in leads:
        pairs.insert(engine.reducer(engine.pack({lead: 1})))
    assert all(lcm == _pack(mono_lcm(leads[i], leads[j])) for (i, j), lcm in pairs.alive.items())


# exponents up to 7, so that the quotient of an lcm by the newcomer's lead
# can be x_v^2 or x_v^4
@given(st.lists(st.tuples(*([st.integers(min_value=0, max_value=7)] * 4)), max_size=10), st.sampled_from(["lex", "grevlex"]))
# over the last lead, d, the quotients are a^4 and b*c; a^4 is no single
# variable, so b*c stays minimal
@example([(4, 0, 0, 1), (0, 1, 1, 1), (0, 0, 0, 1)], "grevlex")
def test_pair_update_matches_reference(leads, base):
    ring = RingSpec((("X", tuple("abcd")),))
    order = OrderSpec(((("X",), base),))
    engine = groebner._Engine(ring, order, Budget())
    pairs = groebner._Pairs(engine)
    for lead in leads:
        pairs.insert(engine.reducer(engine.pack({lead: 1})))
    alive, queue = gebauer_moeller_queue(leads, reference_key(order, ring))
    assert {ij: _unpack(lcm, 4) for ij, lcm in pairs.alive.items()} == alive
    popped = [(degree, i, j, _unpack(lcm & engine.exponents, 4)) for degree, _, i, j, lcm in sorted(pairs.heap)]
    assert popped == [(degree, i, j, mono_lcm(leads[i], leads[j])) for degree, i, j in queue]


# a pair's lcm is queued as the newcomer's packed lead plus the lift of its
# excess over that lead, which is exact because the key is linear
@given(st.lists(packable, min_size=2, max_size=8), st.sampled_from(["lex", "grevlex"]))
def test_queued_lcms_pack_as_lead_plus_excess(leads, base):
    ring = RingSpec((("X", tuple("abc")), ("Y", tuple("de"))))
    engine = groebner._Engine(ring, OrderSpec(((("Y",), "grevlex"), (("X",), base))), Budget())
    pairs = groebner._Pairs(engine)
    for lead in leads:
        pairs.insert(engine.reducer(engine.pack({lead: 1})))
    for degree, _, i, j, packed in pairs.heap:
        assert (packed, degree) == engine.lift(packed_lcm(_pack(leads[i]), _pack(leads[j]), engine.guard))


def test_packed_lead_exponent_limit():
    ring = RingSpec((("X", ("a", "b")),))
    order = OrderSpec(((("X",), "grevlex"),))
    top = Polynomial(ring, {(2**15 - 1, 0): 1})
    assert buchberger([top], order) == (top,)
    assert normal_form(top, [parse_polynomial(ring, "b")], order) == top
    for e in (2**15, 2**16):
        big = Polynomial(ring, {(1, e): 1})
        with pytest.raises(RingError, match="32767"):
            buchberger([big], order)
        with pytest.raises(RingError, match="32767"):
            normal_form(big, [top], order)
        with pytest.raises(RingError, match="32767"):
            normal_form(top, [big], order)
    with pytest.raises(RingError, match="32767"):
        _pack((0, -1))
    # a product past the limit: b*a^32766 -> a^2 * a^32766 under lex with b > a
    ring = RingSpec((("X", ("b", "a")),))
    order = OrderSpec(((("X",), "lex"),))
    f = parse_polynomial(ring, "b*a^32766")
    g = parse_polynomial(ring, "b - a^2")
    with pytest.raises(RingError, match="32767"):
        normal_form(f, [g], order)
    with pytest.raises(RingError, match="32767"):
        buchberger([f, g], order)
