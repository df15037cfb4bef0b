"""Path ideals, relation families, Rees/fiber ideals, Jacobian dual."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from cycle_rees.groebner import Ideal, ideal_equal, ideal_membership, is_groebner_basis, normal_form
from cycle_rees.monomial_ideals import initial_ideal, is_squarefree, x_condition
from cycle_rees.orders import product_order
from cycle_rees.rees import (
    PathIdealSpec,
    PolyMatrix,
    certify_rees,
    family_half,
    family_n_minus_2,
    fiber_ideal_closed_form,
    graph_ideal,
    jacobian_dual,
    path_ideal,
    pfaffian,
    pfaffian_fiber_sign,
    sym_relations,
)
from cycle_rees.rings import Polynomial, RingError, RingSpec, cycle_ring, parse_polynomial, y_ring

from oracles import KNOWN_GRID, determinant, lcm_syzygies, rees_image


def texts(ideal: Ideal) -> set[str]:
    return {g.to_text() for g in ideal.generators}


def test_sym_relations_match_lcm_syzygy_oracle():
    for n in range(3, 11):
        for t in range(1, n):
            spec = PathIdealSpec(n, t)
            assert list(sym_relations(spec).generators) == lcm_syzygies(spec), (n, t)


def test_graph_ring_is_the_cycle_ring_plus_s_last():
    ring = graph_ideal(PathIdealSpec(4, 2)).ring
    assert ring.blocks == cycle_ring(4).blocks + (("S", ("s",)),)
    assert ring.variables[-1] == "s"


def test_path_ideal_windows():
    assert texts(path_ideal(PathIdealSpec(4, 2))) == {"x1*x2", "x2*x3", "x0*x3", "x0*x1"}
    assert texts(path_ideal(PathIdealSpec(5, 1))) == {"x1", "x2", "x3", "x4", "x0"}
    assert texts(path_ideal(PathIdealSpec(5, 3))) == {
        "x1*x2*x3",
        "x2*x3*x4",
        "x0*x3*x4",
        "x0*x1*x4",
        "x0*x1*x2",
    }


def test_path_spec_validation():
    with pytest.raises(ValueError):
        PathIdealSpec(4, 4)
    with pytest.raises(ValueError):
        PathIdealSpec(2, 1)


def test_sym_relations_contains_adjacent_and_coprime_syzygies():
    L = sym_relations(PathIdealSpec(4, 2))
    ring = L.ring
    f1 = parse_polynomial(ring, "x3*y1 - x1*y2")
    coprime = parse_polynomial(ring, "x3*x0*y1 - x1*x2*y3")
    assert any(g in (f1, -f1) for g in L.generators)
    assert any(g in (coprime, -coprime) for g in L.generators)


def test_sym_relations_contain_named_families(sym_cache):
    for n in (5, 6, 7):
        L = sym_cache(n, n - 2)
        order = product_order(L.ring)
        for name, p in family_n_minus_2(n).items():
            if name == "h":
                continue
            assert ideal_membership(p, L, order), name
    for n in (6, 8):
        L = sym_cache(n, n // 2)
        order = product_order(L.ring)
        fam = family_half(n)
        for j in range(1, n):
            assert ideal_membership(fam[f"f{j}"], L, order)
        for k in range(1, n // 2):
            assert ideal_membership(fam[f"g{k}"], L, order)


def test_family_n_minus_2_members():
    fam6 = family_n_minus_2(6)
    assert fam6["g2"].to_text() == "x2*y1*y3 - x4*y0*y2"
    assert fam6["f1"].to_text() == "x5*y1 - x1*y2"
    assert family_n_minus_2(4)["h"].to_text() == "y1*y3 - y0*y2"
    assert set(family_n_minus_2(7)) == {f"f{j}" for j in range(1, 7)} | {"g1", "g2", "g3"}
    assert "h" in family_n_minus_2(8)


def test_family_half_members():
    fam6 = family_half(6)
    assert fam6["g2"].to_text() == "x0*x1*y2 - x3*x4*y0"
    assert fam6["h1"].to_text() == "y1*y4 - y0*y3"
    assert family_half(4)["g1"].to_text() == "x0*y1 - x2*y0"
    with pytest.raises(ValueError):
        family_half(5)


def test_rees_equalities_small(rees_cache, sym_cache):
    # odd: J = L at t = n-2
    assert ideal_equal(rees_cache(5, 3), sym_cache(5, 3))
    # even: J = L + (h)
    ring = cycle_ring(6)
    L = sym_cache(6, 4)
    LH = Ideal(ring, list(L.generators) + [parse_polynomial(ring, "y1*y3*y5 - y0*y2*y4")])
    assert ideal_equal(rees_cache(6, 4), LH)
    assert not ideal_equal(rees_cache(6, 4), L)


def test_rees_t1_koszul(rees_cache, sym_cache):
    # 1-paths give a regular sequence: the Rees ideal is the Koszul ideal
    J = rees_cache(5, 1)
    ring = J.ring
    koszul = []
    names = [1, 2, 3, 4, 0]
    for a in range(5):
        for b in range(a + 1, 5):
            i, j = names[a], names[b]
            koszul.append(parse_polynomial(ring, f"x{i}*y{j} - x{j}*y{i}"))
    assert ideal_equal(J, Ideal(ring, koszul))
    assert ideal_equal(J, sym_cache(5, 1))


def test_fiber_closed_form():
    assert texts(fiber_ideal_closed_form(PathIdealSpec(6, 2))) == {"y1*y3*y5 - y0*y2*y4"}
    assert not fiber_ideal_closed_form(PathIdealSpec(5, 2)).generators
    assert texts(fiber_ideal_closed_form(PathIdealSpec(6, 3))) == {
        "y1*y4 - y0*y3",
        "y2*y5 - y0*y3",
    }


def test_fiber_matches_closed_form(fiber_cache):
    for (n, t) in ((4, 2), (6, 2), (6, 3), (6, 4), (8, 2), (8, 6), (9, 3), (8, 4)):
        computed = fiber_cache(n, t)
        closed = fiber_ideal_closed_form(PathIdealSpec(n, t))
        assert ideal_equal(computed, closed), (n, t)
    assert not fiber_cache(7, 3).generators


def test_families_are_groebner_bases_with_witnesses():
    for n in range(3, 9):
        polys = list(family_n_minus_2(n).values())
        ring = cycle_ring(n)
        order = product_order(ring)
        ok, _ = is_groebner_basis(polys, order)
        assert ok, n
        ini = initial_ideal(polys, order)
        assert is_squarefree(ini)
        assert x_condition(ini)
    for n in (4, 6, 8):
        polys = list(family_half(n).values())
        ok, _ = is_groebner_basis(polys, product_order(cycle_ring(n)))
        assert ok, n


def test_family_generates_rees_ideal(rees_cache):
    for n in (5, 6):
        fam = Ideal(cycle_ring(n), list(family_n_minus_2(n).values()))
        assert ideal_equal(fam, rees_cache(n, n - 2))
    for n in (6, 8):
        fam = Ideal(cycle_ring(n), list(family_half(n).values()))
        assert ideal_equal(fam, rees_cache(n, n // 2))


# -- certifying a candidate as the Rees ideal, without eliminating s --


def family_ideal(n: int, build=family_n_minus_2) -> Ideal:
    return Ideal(cycle_ring(n), build(n).values())


@pytest.mark.parametrize("n", range(4, 9))
def test_certificate_agrees_with_elimination_on_each_dropped_member(n, rees_cache):
    """Drop one member of the t = n-2 family: the certificate holds exactly
    when the rest still generates the J that elimination computes."""
    spec, fam, J = PathIdealSpec(n, n - 2), family_n_minus_2(n), rees_cache(n, n - 2)
    redundant = set()
    for name in fam:
        F = Ideal(cycle_ring(n), [p for other, p in fam.items() if other != name])
        verdict = certify_rees(spec, F)
        assert (verdict is None) == ideal_equal(F, J), (n, name, verdict)
        assert verdict in (None, "saturated", "rotation"), (n, name, verdict)
        if verdict is None:
            redundant.add(name)
    # g_1 is needed, the later g_k follow from it and the f_j
    assert redundant == {f"g{k}" for k in range(2, n // 2 + 1)}


@pytest.mark.parametrize("n", range(3, 12))
def test_symmetric_relations_certify_exactly_at_the_linear_cells(n):
    # at t = n-2 the linear cells are the odd rows; at even rows L is not
    # saturated, since J needs the fiber relation h
    spec = PathIdealSpec(n, n - 2)
    linear = KNOWN_GRID[n][n - 3] == "L"
    assert linear == (n % 2 == 1)
    assert certify_rees(spec, sym_relations(spec)) == (None if linear else "saturated")


def test_certificate_rejects_a_generator_outside_J():
    n, ring = 6, cycle_ring(6)
    spec = PathIdealSpec(n, n - 2)
    outside = parse_polynomial(ring, "x1*y1 - x2*y2")
    m1, m2 = outside.terms
    assert rees_image(spec, m1) != rees_image(spec, m2)
    assert certify_rees(spec, Ideal(ring, [*family_n_minus_2(n).values(), outside])) == "image"
    # each homogeneous part of f1 + x1*f2 lies in J, but the whole is not
    # homogeneous, which the saturation test needs
    fam = family_n_minus_2(n)
    mixed = fam["f1"] + parse_polynomial(ring, "x1") * fam["f2"]
    assert certify_rees(spec, Ideal(ring, [mixed, *fam.values()])) == "image"


def test_certificate_needs_the_symmetric_relations():
    # (h) and the zero ideal lie in J, are saturated and rotation-invariant,
    # yet miss L
    n, ring = 6, cycle_ring(6)
    spec = PathIdealSpec(n, n - 2)
    assert certify_rees(spec, Ideal(ring, [family_n_minus_2(n)["h"]])) == "symmetric"
    assert certify_rees(spec, Ideal(ring, [])) == "symmetric"


def test_certificate_needs_the_cycle_ring():
    with pytest.raises(RingError):
        certify_rees(PathIdealSpec(5, 3), family_ideal(6))


@pytest.mark.parametrize("n", range(3, 31))
def test_family_n_minus_2_is_certified_as_the_rees_ideal(n):
    assert certify_rees(PathIdealSpec(n, n - 2), family_ideal(n)) is None


@pytest.mark.parametrize("n", range(4, 21, 2))
def test_family_half_is_certified_as_the_rees_ideal(n):
    assert certify_rees(PathIdealSpec(n, n // 2), family_ideal(n, family_half)) is None


def test_rees_generators_y_degree(rees_cache):
    for g in rees_cache(6, 3).generators:
        (ydeg,) = g.block_degrees("Y")
        assert ydeg >= 1


def test_sym_and_fiber_relations_lie_in_rees_ideal(rees_cache, sym_cache, fiber_cache):
    for (n, t) in ((6, 3), (8, 4), (9, 3), (10, 4)):
        J = rees_cache(n, t)
        order = product_order(J.ring)
        for g in sym_cache(n, t).generators:
            assert ideal_membership(g, J, order), (n, t)
        for g in fiber_cache(n, t).generators:
            assert ideal_membership(g.to_ring(J.ring), J, order), (n, t)


def test_rees_initial_ideal_squarefree_half_case(rees_cache):
    J = rees_cache(6, 3)
    assert is_squarefree(initial_ideal(J, product_order(J.ring)))


def test_gb_certificate_roundtrip():
    from cycle_rees.groebner import gb_certificate
    from cycle_rees.rings import parse_polynomial as parse

    ring = cycle_ring(4)
    order = product_order(ring)
    polys = list(family_n_minus_2(4).values())
    cert = gb_certificate(polys, order)
    assert cert["order"] == [
        {"blocks": ["Y"], "base": "grevlex"},
        {"blocks": ["X"], "base": "lex"},
    ]
    assert [parse(ring, text) for text in cert["basis"]] == polys


def test_jacobian_dual_structure():
    A = jacobian_dual(4)
    assert len(A.rows) == 4
    assert A.is_skew_symmetric()
    for i in range(4):
        assert not A[i, i]
    with pytest.raises(ValueError):
        jacobian_dual(5)


def test_pfaffian_2x2():
    ring = y_ring(4)
    a = parse_polynomial(ring, "y1")
    zero = parse_polynomial(ring, "0")
    m = PolyMatrix(ring, [[zero, a], [-a, zero]])
    assert pfaffian(m) == a


def test_pfaffian_rejects_bad_input():
    ring = y_ring(4)
    one = parse_polynomial(ring, "1")
    zero = parse_polynomial(ring, "0")
    with pytest.raises(ValueError):
        pfaffian(PolyMatrix(ring, [[zero, one], [one, zero]]))  # not skew
    with pytest.raises(ValueError):
        pfaffian(PolyMatrix(ring, [[zero]]))  # odd dimension


def test_pfaffian_equals_fiber_relation_up_to_sign():
    for n in (4, 6, 8):
        sign, pf = pfaffian_fiber_sign(n)
        assert sign in (1, -1)
        ring = y_ring(n)
        odd = "*".join(f"y{i}" for i in range(1, n, 2))
        even = "*".join(f"y{i}" for i in range(0, n, 2))
        assert pf == parse_polynomial(ring, f"{odd} - {even}") * sign


def test_pfaffian_squared_is_determinant():
    rng = random.Random(17)
    ring = RingSpec((("X", ("a", "b", "c")),))

    def rand_entry():
        exps = tuple(rng.randint(0, 1) for _ in range(3))
        return Polynomial(ring, {exps: rng.choice([-2, -1, 1, 2])})

    for size in (4, 6):
        for _ in range(5):
            rows = [[Polynomial(ring, {}) for _ in range(size)] for _ in range(size)]
            for i in range(size):
                for j in range(i + 1, size):
                    e = rand_entry()
                    rows[i][j] = e
                    rows[j][i] = -e
            m = PolyMatrix(ring, rows)
            assert pfaffian(m) * pfaffian(m) == determinant(m)


# -- every Rees basis the benchmark records: the monomial map and the rotation --

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "rees_digests.json"
RECORDED_CELLS = sorted(tuple(map(int, cell.split(","))) for cell in json.loads(DIGESTS.read_text()))


def rotate(g: Polynomial, n: int) -> Polynomial:
    """g under x_i -> x_{i+1}, y_i -> y_{i+1}, indices mod n."""
    ring = g.ring
    target = [ring.var_index[f"{v[0]}{(int(v[1:]) + 1) % n}"] for v in ring.variables]
    terms = {}
    for exps, coeff in g.terms.items():
        vec = [0] * ring.nvars
        for pos, e in zip(target, exps):
            vec[pos] = e
        terms[tuple(vec)] = coeff
    return Polynomial(ring, terms)


@pytest.mark.parametrize("n,t", RECORDED_CELLS)
def test_rees_basis_maps_to_zero(n, t, rees_cache):
    # g maps to 0 under y_j -> u_j s when the coefficients of each image cancel
    spec, J = PathIdealSpec(n, t), rees_cache(n, t)
    for g in J.groebner_basis(product_order(J.ring)):
        image: dict[tuple[int, ...], int] = {}
        for m, coeff in g.terms.items():
            key = rees_image(spec, m)
            image[key] = image.get(key, 0) + coeff
        assert not any(image.values()), g.to_text()


@pytest.mark.parametrize("n,t", RECORDED_CELLS)
def test_rees_and_fiber_ideals_are_rotation_invariant(n, t, rees_cache, fiber_cache):
    for ideal in (rees_cache(n, t), fiber_cache(n, t)):
        order = product_order(ideal.ring)
        basis = ideal.groebner_basis(order)
        for g in basis:
            assert not normal_form(rotate(g, n), basis, order), g.to_text()
