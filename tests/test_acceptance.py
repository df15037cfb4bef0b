"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy eliminations
are shared through the session caches in conftest, so the whole suite stays
within a few minutes of CPU time.
"""

from __future__ import annotations

import functools
import io
import os
import pathlib
import random
from math import gcd

import pytest

from cycle_rees.classify import (
    circulant_rank,
    classification_table,
    cm_type_odd,
    hilbert_closed_form_n_minus_2,
    render_table,
    verify_hilbert,
)
from cycle_rees.cli import run as cli_run
from cycle_rees.groebner import Ideal, buchberger, ideal_equal, is_groebner_basis, normal_form
from cycle_rees.monomial_ideals import (
    HilbertSeries,
    MonomialIdeal,
    hilbert_numerator,
    initial_ideal,
    pivot_most_frequent,
)
from cycle_rees.orders import OrderSpec, product_order
from cycle_rees.rees import (
    PathIdealSpec,
    PolyMatrix,
    certify_rees,
    family_half,
    family_n_minus_2,
    fiber_ideal_closed_form,
    jacobian_dual,
    pfaffian,
    pfaffian_fiber_sign,
    sym_relations,
)
from cycle_rees.rings import Polynomial, RingSpec, cycle_ring, mono_mul

from conftest import cached_fiber, cached_rees, cached_sym
from oracles import GLYPH, KNOWN_GRID, compare, determinant, hilbert_by_inclusion_exclusion, pivot_least_frequent
from test_classify import NEITHER_WITNESSES


def criterion(label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {label}: FAIL")
                raise
            print(f"\nACCEPTANCE {label}: PASS")

        return run

    return wrap


@criterion("C1 classification grid 3..10")
def test_c1_classification_grid():
    records = classification_table(3, 10, budget_secs=120.0, jobs=2)
    assert all(r.klass != "timeout" for r in records), "budget must suffice for every cell"
    for n in range(3, 11):
        row = "".join(GLYPH[r.klass] for r in records if r.n == n)
        assert row == KNOWN_GRID[n], f"row {n}: computed {row}, expected {KNOWN_GRID[n]}"
    for r in records:
        if r.klass == "neither":
            assert r.witness == NEITHER_WITNESSES[(r.n, r.t)], (r.n, r.t)
    golden = pathlib.Path(__file__).with_name("golden_table_3_10.txt").read_text()
    assert render_table(records) == golden
    out = io.StringIO()
    code = cli_run(["table", "--n-min", "3", "--n-max", "10", "--jobs", "2", "--budget-secs", "120"], out=out)
    assert code == 0
    assert out.getvalue() == golden


@criterion("C2 circulant rank and fiber vanishing, n <= 12")
def test_c2_rank_and_fiber_vanishing():
    for n in range(3, 13):
        for t in range(1, n + 1):
            assert circulant_rank(n, t) == n - gcd(n, t) + 1, (n, t)
    for n in range(3, 13):
        for t in range(1, n):
            assert (not cached_fiber(n, t).generators) == (gcd(n, t) == 1), (n, t)


@criterion("C3 fiber relations match the closed form, n <= 10")
def test_c3_fiber_closed_form():
    for n in range(3, 11):
        for t in range(1, n):
            if gcd(n, t) == 1:
                continue
            assert ideal_equal(cached_fiber(n, t), fiber_ideal_closed_form(PathIdealSpec(n, t))), (n, t)


@criterion("C4 families are Groebner bases with squarefree initial ideals")
def test_c4_family_groebner_bases():
    from cycle_rees.monomial_ideals import is_squarefree, x_condition

    for n in range(3, 13):
        ring = cycle_ring(n)
        order = product_order(ring)
        polys = list(family_n_minus_2(n).values())
        ok, cert = is_groebner_basis(polys, order)
        assert ok, f"n-2 family fails at n={n}: {cert}"
        ini = initial_ideal(polys, order)
        assert is_squarefree(ini), f"initial ideal not squarefree at n={n}"
        assert x_condition(ini), f"x-condition fails at n={n}"
    for n in range(4, 13, 2):
        ring = cycle_ring(n)
        order = product_order(ring)
        polys = list(family_half(n).values())
        ok, cert = is_groebner_basis(polys, order)
        assert ok, f"half family fails at n={n}: {cert}"
        ini = initial_ideal(polys, order)
        assert is_squarefree(ini), f"half initial ideal not squarefree at n={n}"


@criterion("C5 Rees ideal equals L (odd) / L + HT (even)")
def test_c5_rees_structure():
    for n in range(3, 12, 2):
        assert ideal_equal(cached_rees(n, n - 2), cached_sym(n, n - 2)), f"odd n={n}"
    for n in range(4, 13, 2):
        for t in (n - 2, n // 2):
            J = cached_rees(n, t)
            L = cached_sym(n, t)
            H = cached_fiber(n, t)
            LH = Ideal(J.ring, list(L.generators) + [p.to_ring(J.ring) for p in H.generators])
            assert ideal_equal(J, LH), f"even n={n}, t={t}"
            if t == n - 2:
                assert not ideal_equal(J, L), f"even n={n} should not be of linear type"
    # the statement itself, certified without computing J
    for n in range(3, 21):
        check_c5_certificate(n)


def check_c5_certificate(n: int) -> None:
    """certify_rees on C5's statement: J = L at odd n, t = n-2; J = L + (H_c)
    at even n, t in {n-2, n/2}, with H_c the closed-form fiber binomials."""
    for t in (n - 2,) if n % 2 else sorted({n - 2, n // 2}):
        spec = PathIdealSpec(n, t)
        L = sym_relations(spec)
        if n % 2:
            assert certify_rees(spec, L) is None, f"odd n={n}"
            continue
        H = fiber_ideal_closed_form(spec)
        LH = Ideal(L.ring, [*L.generators, *(p.to_ring(L.ring) for p in H.generators)])
        assert certify_rees(spec, LH) is None, f"even n={n}, t={t}"
        if t == n - 2:
            assert certify_rees(spec, L) is not None, f"even n={n} should not be of linear type"


@criterion("C6 Hilbert series closed form, 3 <= n <= 10")
def test_c6_hilbert_series():
    assert hilbert_closed_form_n_minus_2(4) == HilbertSeries((1, 3, 1), 5)
    assert hilbert_closed_form_n_minus_2(5) == HilbertSeries((1, 4, 5, 1), 6)
    for n in range(3, 11):
        assert verify_hilbert(n), f"series mismatch at n={n}"


@criterion("C7 Cohen-Macaulay type two (odd) and Gorenstein witness (even)")
def test_c7_cm_type_and_gorenstein():
    for n in range(3, 16, 2):
        assert cm_type_odd(n) == 2, n
        assert not hilbert_closed_form_n_minus_2(n).is_palindromic(), n
    for n in (4, 6, 8, 10):
        assert hilbert_closed_form_n_minus_2(n).is_palindromic(), n


@criterion("C8 Jacobian dual Pfaffian")
def test_c8_jacobian_dual():
    for n in (4, 6, 8, 10):
        matrix = jacobian_dual(n)
        assert matrix.is_skew_symmetric()
        sign, pf = pfaffian_fiber_sign(n)
        assert sign in (1, -1), n
    rng = random.Random(2024)
    ring = RingSpec((("X", ("a", "b", "c")),))
    for size in (4, 6):
        for _ in range(10):
            rows = [[Polynomial(ring, {})] * size for _ in range(size)]
            for i in range(size):
                for j in range(i + 1, size):
                    exps = tuple(rng.randint(0, 1) for _ in range(3))
                    entry = Polynomial(ring, {exps: rng.choice([-2, -1, 1, 2])})
                    rows[i][j] = entry
                    rows[j][i] = -entry
            m = PolyMatrix(ring, rows)
            assert pfaffian(m) * pfaffian(m) == determinant(m)


# -- criterion 9: randomized kernel properties, >= 1000 cases each --

R5 = cycle_ring(5)
PO5 = product_order(R5)
SMALL = RingSpec((("X", ("a", "b", "c")),))
SMALL_ORDER = OrderSpec(((("X",), "grevlex"),))


def _random_exps(rng: random.Random, nvars: int, cap: int = 3) -> tuple[int, ...]:
    return tuple(rng.randint(0, cap) for _ in range(nvars))


def _random_poly(rng: random.Random, ring=SMALL, max_terms=3, cap=2) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = _random_exps(rng, ring.nvars, cap)
        terms[exps] = terms.get(exps, 0) + rng.choice([-2, -1, 1, 2])
    return Polynomial(ring, terms)


@criterion("C9a order axioms (1000 random triples)")
def test_c9a_order_axioms():
    rng = random.Random(101)
    one = (0,) * R5.nvars
    for _ in range(1000):
        a = _random_exps(rng, R5.nvars)
        b = _random_exps(rng, R5.nvars)
        c = _random_exps(rng, R5.nvars)
        cmp_ab = compare(PO5, R5, a, b)
        assert cmp_ab in (-1, 0, 1)
        assert (cmp_ab == 0) == (a == b)
        assert cmp_ab == -compare(PO5, R5, b, a)
        assert cmp_ab == compare(PO5, R5, mono_mul(a, c), mono_mul(b, c))
        assert compare(PO5, R5, a, one) >= 0
        if cmp_ab >= 0 and compare(PO5, R5, b, c) >= 0:
            assert compare(PO5, R5, a, c) >= 0


@criterion("C9b reduced basis unique under generator shuffles (1000 runs)")
def test_c9b_gb_uniqueness():
    rng = random.Random(202)
    runs = 0
    while runs < 1000:
        gens = [_random_poly(rng) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        reference = buchberger(gens, SMALL_ORDER)
        runs += 1
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, SMALL_ORDER) == reference
        runs += 1


@criterion("C9c normal-form membership soundness (1000 combinations)")
def test_c9c_membership_soundness():
    rng = random.Random(303)
    checks = 0
    while checks < 1000:
        gens = [_random_poly(rng) for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        ideal = Ideal(SMALL, gens)
        gb = list(ideal.groebner_basis(SMALL_ORDER))
        for _ in range(5):
            combo = Polynomial(SMALL, {})
            for g in gens:
                combo = combo + _random_poly(rng, max_terms=2, cap=1) * g
            assert not normal_form(combo, gb, SMALL_ORDER)
            checks += 1


@criterion("C9d Hilbert pivot-strategy independence (1000 ideals)")
def test_c9d_hilbert_pivot_independence():
    rng = random.Random(404)
    ring = RingSpec((("X", ("a", "b", "c", "d")),))
    done = 0
    while done < 1000:
        gens = [_random_exps(rng, 4, 3) for _ in range(rng.randint(1, 5))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        M = MonomialIdeal(ring, gens)
        assert hilbert_numerator(M, pivot_most_frequent) == hilbert_numerator(M, pivot_least_frequent)
        done += 1


@criterion("C9e inclusion-exclusion oracle agreement (1000 ideals)")
def test_c9e_inclusion_exclusion():
    rng = random.Random(505)
    ring = RingSpec((("X", ("a", "b", "c", "d")),))
    done = 0
    while done < 1000:
        gens = [_random_exps(rng, 4, 3) for _ in range(rng.randint(1, 5))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        M = MonomialIdeal(ring, gens)
        assert hilbert_numerator(M) == hilbert_by_inclusion_exclusion(M)
        done += 1


STRETCH = os.environ.get("CYCLE_REES_STRETCH") == "1"


@pytest.mark.skipif(not STRETCH, reason="stretch rows; set CYCLE_REES_STRETCH=1")
@criterion("C1-stretch classification rows 11..13")
def test_c1_stretch_rows():
    records = classification_table(11, 13, budget_secs=600.0, jobs=2)
    for n in (11, 12, 13):
        row = "".join(GLYPH[r.klass] for r in records if r.n == n)
        reported = sum(1 for r in records if r.n == n and r.klass == "timeout")
        print(f"\nrow {n}: {row} ({reported} timeouts)")
        expected = KNOWN_GRID[n]
        for got, want in zip(row, expected):
            assert got in (want, "T"), f"row {n}: {row} vs {expected}"
    for r in records:
        if r.klass == "neither":
            assert r.witness == NEITHER_WITNESSES[(r.n, r.t)], (r.n, r.t)


@pytest.mark.skipif(not STRETCH, reason="stretch row; set CYCLE_REES_STRETCH=1")
@criterion("C7-stretch Cohen-Macaulay type two at n = 17")
def test_c7_stretch_cm_type():
    assert cm_type_odd(17) == 2
    assert not hilbert_closed_form_n_minus_2(17).is_palindromic()


@pytest.mark.skipif(not STRETCH, reason="stretch rows; set CYCLE_REES_STRETCH=1")
@criterion("C5-stretch Rees ideal certified as L (odd) / L + HT (even), 21 <= n <= 24")
def test_c5_stretch_certified():
    for n in range(21, 25):
        check_c5_certificate(n)
