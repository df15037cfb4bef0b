"""Classification, invariants, Hilbert closed forms, CM type, table."""

from __future__ import annotations

import concurrent.futures
import importlib
from math import gcd

import pytest

from cycle_rees.classify import (
    ClassRecord,
    circulant_rank,
    classification_table,
    classify,
    cm_type_odd,
    conjecture_fiber_iff_divides,
    fiber_dimension,
    hilbert_closed_form_n_minus_2,
    render_table,
    verify_hilbert,
)
from cycle_rees.groebner import Budget, BudgetExceeded, _reducer, buchberger, gb_certificate, normal_form
from cycle_rees.monomial_ideals import HilbertSeries, hilbert_numerator, initial_ideal
from cycle_rees.orders import OrderSpec, canonical_order, elimination_order, product_order
from cycle_rees.rees import (
    PathIdealSpec,
    PolyMatrix,
    artinian_reduction_ideal,
    family_n_minus_2,
    fiber_ideal_closed_form,
    rees_ideal,
    sym_relations,
)
from cycle_rees.rings import InvariantError, Polynomial, RingError, cycle_ring, parse_polynomial, y_ring

from oracles import GLYPH, KNOWN_GRID, isolated, known_linear, known_not_linear, l_isolated, rees_image, window_covers


def test_fiber_dimension_examples():
    assert fiber_dimension(6, 3) == 4
    assert fiber_dimension(5, 2) == 5
    assert fiber_dimension(6, 2) == 5


def test_circulant_rank_examples():
    assert circulant_rank(6, 3) == 4
    assert circulant_rank(7, 7) == 1
    assert circulant_rank(7, 3) == 7


def test_circulant_rank_matches_gcd_formula():
    for n in range(3, 13):
        for t in range(1, n + 1):
            assert circulant_rank(n, t) == n - gcd(n, t) + 1


def test_is_linear_type_examples():
    assert classify(5, 3).klass == "linear"
    assert classify(6, 2).klass != "linear"
    assert classify(6, 3).klass != "linear"


def test_is_fiber_type_examples():
    assert classify(8, 4).klass in ("linear", "fiber")
    assert classify(7, 4).klass == "neither"
    assert classify(6, 5).klass == "linear"  # linear type implies fiber type


def test_classify_rows_match_known_grid():
    records = classification_table(3, 8)
    for n in range(3, 9):
        row = "".join(GLYPH[r.klass] for r in records if r.n == n)
        assert row == KNOWN_GRID[n], f"n={n}: {row} != {KNOWN_GRID[n]}"
    # the fiber dimension formula holds, and every neither cell has a witness
    for r in records:
        assert r.fiber_dim == r.n - r.gcd + 1
        if r.klass == "neither":
            assert r.witness == NEITHER_WITNESSES[(r.n, r.t)], (r.n, r.t)
    # out of budget is an exception, never a wrong basis
    with pytest.raises(BudgetExceeded):
        rees_ideal(PathIdealSpec(9, 5), Budget(max_steps=1))


def test_classify_single_cell():
    rec = classify(6, 2)
    assert rec.klass == "fiber"
    assert rec.gcd == 2
    assert rec.fiber_dim == 5
    assert set(rec.ms) == {"sym", "rees", "fiber"}
    assert rec.to_json() == {
        "n": 6,
        "t": 2,
        "class": "fiber",
        "gcd": 2,
        "fiber_dim": 5,
    }


def test_linear_cell_times_only_the_stages_it_ran():
    # a linear cell stops before the fiber stage, so it reports no time for it
    rec = classify(6, 5)
    assert rec.klass == "linear"
    assert set(rec.ms) == {"sym", "rees"}


def test_classify_timeout_is_reported_not_guessed():
    rec = classify(10, 7, budget_secs=1e-9)
    assert rec.klass == "timeout"


def test_render_table_shape():
    records = classification_table(3, 5)
    text = render_table(records)
    lines = text.splitlines()
    assert lines[1].startswith("3")
    assert "L" in lines[1]
    assert len(lines) == 4


Y4 = y_ring(4)


@pytest.mark.parametrize(
    "call, outcome",
    [
        (lambda: circulant_rank(5, 0), ValueError),
        (lambda: classification_table(5, 4), ValueError),
        (lambda: hilbert_closed_form_n_minus_2(2), ValueError),
        (lambda: cycle_ring(2), RingError),
        (lambda: cycle_ring(4).block_indices("Q"), RingError),
        (lambda: OrderSpec((((), "lex"),)), RingError),
        (lambda: elimination_order(cycle_ring(4), "Q"), RingError),
        (lambda: PolyMatrix(Y4, [[parse_polynomial(Y4, "y1")]] * 2), ValueError),
        (lambda: PolyMatrix(Y4, [[parse_polynomial(cycle_ring(4), "x1")]]), RingError),
        (lambda: render_table([]), ""),
        (lambda: gb_certificate([], product_order(Y4))["basis"], []),
    ],
    ids=[
        "circulant-rank-t-0",
        "table-n-min-above-n-max",
        "hilbert-closed-form-n-2",
        "cycle-ring-2",
        "unknown-block",
        "empty-order-stage",
        "eliminate-unknown-block",
        "non-square-matrix",
        "matrix-entry-in-another-ring",
        "empty-table",
        "empty-certificate",
    ],
)
def test_input_edges(call, outcome):
    """Checks of bad or empty input that no other test reaches."""
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            call()
    else:
        assert call() == outcome


def test_known_type_predicates_against_table():
    # KNOWN_GRID is classify's grid: test_classify_rows_match_known_grid
    # checks rows 3-8, C1 rows 3-10 and the stretch test rows 11-13
    for n, row in KNOWN_GRID.items():
        for t, glyph in enumerate(row, 1):
            if known_linear(n, t):
                assert glyph == "L", (n, t)
            if known_not_linear(n, t):
                assert glyph != "L", (n, t)
                if gcd(n, t) == 1:
                    # with no fiber relations, failing linear type means neither
                    assert glyph == "×", (n, t)


def test_conjecture_report_consistent_small():
    records = classification_table(3, 8)
    report = conjecture_fiber_iff_divides(records)
    assert report, "range should cover at least one conjecture cell"
    for n, t, ok in report:
        assert ok, (n, t)


def assert_in_j_outside_l_plus_h(spec: PathIdealSpec, w: Polynomial) -> None:
    """w = M1 - M2 lies in J, because M1 and M2 have one image under
    y_j -> u_j s, and outside L + (H), because both terms are isolated."""
    (m1, c1), (m2, c2) = w.terms.items()
    assert c1 == -c2
    assert rees_image(spec, m1) == rees_image(spec, m2), spec
    assert isolated(spec, m1) and isolated(spec, m2), spec


# Cells with t | n that are not of fiber type, each with a witness w in J
# outside L + (H): an element of the grevlex basis of L + (H_c) with x_1 last,
# divided by x_1.  The test checks them without Groebner code
NOT_FIBER_THOUGH_T_DIVIDES_N = {
    (20, 4): "x2*x3*x12*x13*y1*y5*y7*y11*y15*y17 - x7*x8*x17*x18*y0*y2*y6*y10*y12*y16",
    (20, 5): "x2*x6*x10*x14*x18*y0*y4*y8*y12*y16 - x0*x4*x8*x12*x16*y2*y6*y10*y14*y18",
    (24, 3): "x2*x10*x18*y1*y4*y6*y9*y12*y14*y17*y20*y22 - x6*x14*x22*y0*y2*y5*y8*y10*y13*y16*y18*y21",
}


def test_fiber_iff_divides_fails_from_n_20():
    for (n, t), text in NOT_FIBER_THOUGH_T_DIVIDES_N.items():
        spec = PathIdealSpec(n, t)
        assert_in_j_outside_l_plus_h(spec, parse_polynomial(cycle_ring(n), text))
        record = ClassRecord(n, t, "neither", spec.d, fiber_dimension(n, t))
        assert conjecture_fiber_iff_divides([record]) == [(n, t, False)]
    # controls: the 20-cycle has 4 tilings by 4-windows, and a term of an
    # L syzygy or of an H_c binomial has a move
    spec = PathIdealSpec(20, 4)
    assert window_covers(spec, [1] * 20, limit=5) == 4
    syzygy = sym_relations(spec).generators[0]
    binomial = fiber_ideal_closed_form(spec).generators[0].to_ring(cycle_ring(20))
    assert not any(isolated(spec, m) for g in (syzygy, binomial) for m in g.terms)


# The neither cells of rows 7-13, each with the witness classify reports:
# the test below checks them without Groebner code, and the grid tests
# (rows 3-8 here, rows 3-10 in C1, rows 11-13 at the stretch setting) check
# that classify still reports them
NEITHER_WITNESSES = {
    (7, 4): "x0*y2*y6 - x2*y0*y4",
    (8, 3): "x0*y2*y4*y7 - x4*y0*y3*y6",
    (8, 5): "x0*x4*y2*y6 - x2*x6*y0*y4",
    (9, 5): "x0*y3*y8 - x3*y0*y5",
    (10, 4): "x0*x1*y3*y5*y9 - x5*x6*y0*y4*y8",
    (10, 6): "x0*x1*y3*y9 - x3*x4*y0*y6",
    (10, 7): "x0*y2*y6*y9 - x2*y0*y4*y7",
    (11, 3): "x0*y2*y5*y7*y10 - x7*y0*y3*y6*y9",
    (11, 4): "x0*y3*y6*y10 - x6*y0*y4*y8",
    (11, 6): "x0*y4*y10 - x4*y0*y6",
    (11, 7): "x0*x1*x6*y3*y9 - x3*x4*x9*y0*y6",
    (11, 8): "x0*x4*y2*y6*y10 - x2*x6*y0*y4*y8",
    (12, 5): "x0*x1*x2*y4*y6*y11 - x6*x7*x8*y0*y5*y10",
    (12, 7): "x0*x1*y4*y11 - x4*x5*y0*y7",
    (12, 8): "x0*x1*x6*x7*y3*y9 - x3*x4*x9*x10*y0*y6",
    (12, 9): "x0*x4*x8*y2*y6*y10 - x2*x6*x10*y0*y4*y8",
    (13, 5): "x0*x1*y4*y7*y12 - x7*x8*y0*y5*y10",
    (13, 7): "x0*y5*y12 - x5*y0*y7",
    (13, 8): "x0*x1*x2*y4*y12 - x4*x5*x6*y0*y8",
    (13, 9): "x0*y3*y8*y12 - x3*y0*y5*y9",
    (13, 10): "x0*y2*y6*y9*y12 - x2*y0*y4*y7*y10",
}


def assert_neither_witnesses_isolated(rows: range) -> None:
    """The pins of rows are exactly their neither cells, and each is certified."""
    cells = [(n, t) for n in rows for t, glyph in enumerate(KNOWN_GRID[n], 1) if glyph == "×"]
    assert cells == [cell for cell in NEITHER_WITNESSES if cell[0] in rows]
    for n, t in cells:
        assert_in_j_outside_l_plus_h(PathIdealSpec(n, t), parse_polynomial(cycle_ring(n), NEITHER_WITNESSES[n, t]))


def test_every_neither_witness_to_n_10_is_isolated():
    assert min(KNOWN_GRID) == 3 and min(n for n, _ in NEITHER_WITNESSES) == 7
    assert_neither_witnesses_isolated(range(3, 11))


def test_every_neither_witness_of_rows_11_to_13_is_isolated():
    assert max(KNOWN_GRID) == 13 and max(n for n, _ in NEITHER_WITNESSES) == 13
    assert_neither_witnesses_isolated(range(11, 14))


def test_every_cell_of_rows_3_to_13_not_of_linear_type_has_a_certificate():
    """A binomial whose two terms have one image under y_j -> u_j s lies in J.
    L is generated by pure-difference binomials, so if one term has no move by
    them, the binomial lies outside L and J != L.  The binomial is the first
    fiber relation of the closed form if d > 1, else the neither witness."""
    for n, row in KNOWN_GRID.items():
        ring = cycle_ring(n)
        for t, glyph in enumerate(row, 1):
            spec = PathIdealSpec(n, t)
            if glyph == "L":
                assert spec.d == 1 and (n, t) not in NEITHER_WITNESSES, (n, t)
                continue
            if spec.d > 1:
                w = fiber_ideal_closed_form(spec).generators[0].to_ring(ring)
            else:
                w = parse_polynomial(ring, NEITHER_WITNESSES[n, t])
            m1, m2 = w.terms
            assert rees_image(spec, m1) == rees_image(spec, m2), (n, t)
            assert l_isolated(spec, m1) or l_isolated(spec, m2), (n, t)
    # control: a syzygy of L lies in J too, but each of its terms has a move
    spec = PathIdealSpec(7, 4)
    assert not any(l_isolated(spec, m) for m in sym_relations(spec).generators[0].terms)


def test_a_neither_cell_never_loses_its_witness(monkeypatch):
    # J differs from the candidate ideal yet holds no generator outside it: an
    # inconsistency, not a verdict.  The package binds the name classify to
    # the function, so the module comes from importlib
    monkeypatch.setattr(importlib.import_module("cycle_rees.classify"), "ideal_membership", lambda *args: True)
    with pytest.raises(InvariantError):
        classify(7, 4)


def test_hilbert_closed_forms():
    assert hilbert_closed_form_n_minus_2(3) == HilbertSeries((1, 2), 4)
    assert hilbert_closed_form_n_minus_2(4) == HilbertSeries((1, 3, 1), 5)
    assert hilbert_closed_form_n_minus_2(5) == HilbertSeries((1, 4, 5, 1), 6)
    assert hilbert_closed_form_n_minus_2(6) == HilbertSeries((1, 5, 9, 5, 1), 7)
    assert hilbert_closed_form_n_minus_2(11) == HilbertSeries((1, 10, 44, 111, 175, 176, 111, 44, 10, 1), 12)
    assert hilbert_closed_form_n_minus_2(12) == HilbertSeries((1, 11, 54, 155, 286, 351, 286, 155, 54, 11, 1), 13)
    assert hilbert_closed_form_n_minus_2(13) == HilbertSeries(
        (1, 12, 65, 209, 441, 637, 638, 441, 209, 65, 12, 1), 14
    )


def test_verify_hilbert_small():
    for n in (3, 4, 5, 6, 7):
        assert verify_hilbert(n), n


@pytest.mark.parametrize("n", range(11, 21))
def test_verify_hilbert_beyond_the_computed_rees_ideals(n):
    assert verify_hilbert(n)


@pytest.mark.parametrize("n", range(3, 9))
def test_eliminated_rees_ideal_has_the_closed_form_series(n, rees_cache):
    """The route independent of the certificate: J by eliminating s, its
    initial ideal under the product order, then the pivot recursion."""
    J = rees_cache(n, n - 2)
    K = initial_ideal(J, product_order(J.ring))
    assert hilbert_numerator(K) == hilbert_closed_form_n_minus_2(n)


def test_verify_hilbert_is_false_when_the_certificate_fails(monkeypatch):
    # the family's series still matches; only the certificate says no
    monkeypatch.setattr(importlib.import_module("cycle_rees.classify"), "certify_rees", lambda *args: "rotation")
    assert verify_hilbert(6) is False


def test_verify_hilbert_honours_the_budget():
    with pytest.raises(BudgetExceeded):
        verify_hilbert(10, Budget(max_steps=1))


@pytest.mark.parametrize("n", range(3, 31))
def test_family_leads_have_the_closed_form_series(n):
    """The leading monomials of the t = n-2 family under the product order
    span an ideal with the closed-form series: the Hilbert half of certifying
    that family, for rows far beyond those whose Rees ideal is computed."""
    fam = list(family_n_minus_2(n).values())
    leads = initial_ideal(fam, product_order(fam[0].ring))
    assert hilbert_numerator(leads) == hilbert_closed_form_n_minus_2(n)


def test_hilbert_numerator_is_palindromic_exactly_for_even_n():
    # palindromy is the Gorenstein witness; odd n is the negative control
    for n in (4, 6, 8, 10):
        assert hilbert_closed_form_n_minus_2(n).is_palindromic()
    for n in (3, 5, 7, 9):
        assert not hilbert_closed_form_n_minus_2(n).is_palindromic()


def test_artinian_reduction_n3():
    assert {g.to_text() for g in artinian_reduction_ideal(3).generators} == {"x1^2", "x2^2", "x1*x2"}


def test_cm_type_small_odd():
    assert cm_type_odd(3) == 2
    assert cm_type_odd(5) == 2
    with pytest.raises(ValueError):
        cm_type_odd(4)


def test_cm_type_work_is_pinned():
    # one normal form per shifted standard monomial; reusing the basis
    # records across them must not change the reduction steps
    budget = Budget()
    assert cm_type_odd(9, budget) == 2
    assert budget.steps == 2189


def test_batch_normal_forms_match_single_calls():
    ideal = artinian_reduction_ideal(7)
    ring, gens = ideal.ring, list(ideal.generators)
    order = canonical_order(ring)
    basis = list(buchberger(gens, order))
    f1 = parse_polynomial(ring, "x1^3*x4 - 2*x3^2*x5 + x1^2*x6 + x2")
    f2 = parse_polynomial(ring, "x5^2*x6 + x4*x6 - 1/3*x1")
    for b in (basis, gens, []):
        # one reducer over several f, in either order, against fresh calls
        reduce = _reducer(ring, b, order)
        for f in (f1, f2, f1, f2 * f1):
            assert reduce(f.terms) == dict(normal_form(f, b, order).terms)


def test_table_pool_is_capped_at_the_cell_count(monkeypatch):
    """A large --jobs must not fork more workers than there are cells."""
    recorded = []

    class FakePool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    # classification_table imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    records = classification_table(3, 4, jobs=10_000)
    assert recorded == [5]
    assert [(r.n, r.t) for r in records] == [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
