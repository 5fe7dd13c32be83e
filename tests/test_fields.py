"""Exterior calculus and bracket identities for the chart-level fields:
d² = 0, Cartan's formula, Lie/Schouten/Courant algebra, and the shipped
field library."""

import pytest
from hypothesis import given, settings, strategies as st

from fiberdirac import dual as dm
from fiberdirac import fields
from fiberdirac._numerics import dot
from fiberdirac.fields import (antisym_matrix, combos,
                               constant_symplectic_bivector, courant_bracket,
                               covector_field, evaluate_form,
                               exterior_derivative, interior_product, k_form,
                               lie_bracket, lie_derivative_bivector,
                               lie_derivative_covector, pairing,
                               poisson_bracket, scalar_field, schouten_square,
                               section_pair, sharp, so3_linear_bivector,
                               two_form, vector_field)

DDZERO_TOL = 1e-10

SAMPLE_3D = [[0.3, -0.8, 1.1], [1.4, 0.2, -0.5], [-0.9, -0.4, 0.7]]


def test_combos_ordering():
    assert combos(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert combos(4, 3)[0] == (0, 1, 2)


def test_antisym_matrix_so3():
    piv = so3_linear_bivector(sign=+1.0)
    mat = antisym_matrix(piv, [0.3, -0.8, 1.1])
    assert mat[0][1] == pytest.approx(1.1)
    assert mat[1][0] == pytest.approx(-1.1)
    assert mat[0][2] == pytest.approx(0.8)
    assert mat[1][2] == pytest.approx(0.3)
    assert mat[2][2] == 0.0


def test_sharp_of_so3_is_cross_product():
    # the fiber-model orientation (sign = −1) is the one with ♯α = x × α
    piv = so3_linear_bivector(sign=-1.0)
    x = [0.3, -0.8, 1.1]
    alpha = [0.5, 0.2, -0.9]
    out = sharp(piv, x, alpha)
    cross = [x[1] * alpha[2] - x[2] * alpha[1],
             x[2] * alpha[0] - x[0] * alpha[2],
             x[0] * alpha[1] - x[1] * alpha[0]]
    assert out == pytest.approx(cross)


def test_evaluate_form_is_alternating():
    om = two_form(3, lambda p: [p[0], 1.0 + p[2], -p[1]])
    pt = [0.4, 0.9, -0.2]
    u, v = [1.0, 2.0, -1.0], [0.5, -0.3, 2.0]
    assert evaluate_form(om, pt, [u, v]) == pytest.approx(
        -evaluate_form(om, pt, [v, u]), rel=1e-12)
    assert evaluate_form(om, pt, [u, u]) == pytest.approx(0.0, abs=1e-14)


def test_exterior_derivative_of_scalar_is_gradient():
    f = scalar_field(3, lambda p: p[0] * p[1] + dm.sin(p[2]))
    df = exterior_derivative(f)
    out = df([0.3, -0.8, 1.1])
    assert out[0] == pytest.approx(-0.8)
    assert out[1] == pytest.approx(0.3)
    assert out[2] == pytest.approx(dm.cos(1.1), rel=1e-12)


def test_exterior_derivative_one_form_hand_check():
    # α = x₂² dx₀  ⇒  dα = −2x₂ dx₀∧dx₂
    alpha = covector_field(3, lambda p: [p[2] * p[2], 0.0, 0.0])
    da = exterior_derivative(alpha)
    out = da([0.5, 0.7, 1.3])     # comps over (0,1), (0,2), (1,2)
    assert out[0] == pytest.approx(0.0, abs=1e-14)
    assert out[1] == pytest.approx(-2.0 * 1.3, rel=1e-12)
    assert out[2] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("pt", SAMPLE_3D)
def test_dd_scalar_vanishes(pt):
    f = scalar_field(3, lambda p: dm.sin(p[0] * p[1]) + p[2] ** 3
                     - 0.4 * p[0] * p[2])
    dd = exterior_derivative(exterior_derivative(f))
    assert max(abs(c) for c in dd(pt)) < DDZERO_TOL


@pytest.mark.parametrize("pt", SAMPLE_3D)
def test_dd_one_form_vanishes(pt):
    alpha = covector_field(
        3, lambda p: [p[1] * p[2], dm.exp(0.3 * p[0]), p[0] * p[0] * p[1]])
    dd = exterior_derivative(exterior_derivative(alpha))
    assert max(abs(c) for c in dd(pt)) < DDZERO_TOL


def test_dd_one_form_vanishes_in_four_dims():
    alpha = covector_field(
        4, lambda p: [p[1] * p[3], p[0] * p[2], dm.sin(p[3]), p[0] * p[1]])
    dd = exterior_derivative(exterior_derivative(alpha))
    assert max(abs(c) for c in dd([0.2, -0.6, 0.9, 0.4])) < DDZERO_TOL


def test_lie_bracket_of_coordinate_fields_vanishes():
    X = vector_field(3, lambda p: [1.0, 0.0, 0.0])
    Y = vector_field(3, lambda p: [0.0, 0.0, 1.0])
    assert max(abs(c) for c in lie_bracket(X, Y)([0.3, 0.1, -0.2])) == 0.0


def test_lie_bracket_hand_check():
    # [y∂x, x∂y] = y∂y − x∂x
    X = vector_field(2, lambda p: [p[1], 0.0])
    Y = vector_field(2, lambda p: [0.0, p[0]])
    out = lie_bracket(X, Y)([0.7, -0.3])
    assert out == pytest.approx([-0.7, -0.3])


def test_lie_bracket_jacobi_identity():
    X = vector_field(3, lambda p: [p[1], -p[0], 0.2 * p[2]])
    Y = vector_field(3, lambda p: [p[2] * p[0], 0.5, p[1]])
    Z = vector_field(3, lambda p: [dm.sin(p[1]), p[0], p[0] * p[2]])
    j1 = lie_bracket(lie_bracket(X, Y), Z)
    j2 = lie_bracket(lie_bracket(Y, Z), X)
    j3 = lie_bracket(lie_bracket(Z, X), Y)
    for pt in SAMPLE_3D:
        total = [a + b + c for a, b, c in zip(j1(pt), j2(pt), j3(pt))]
        assert max(abs(c) for c in total) < 1e-9


def test_cartan_formula_for_one_forms():
    # L_X α = i_X dα + d(i_X α)
    X = vector_field(3, lambda p: [p[1] * p[2], -p[0], 0.3])
    alpha = covector_field(3, lambda p: [p[0] * p[1], p[2], dm.cos(p[0])])
    lhs = lie_derivative_covector(X, alpha)
    rhs1 = interior_product(X, exterior_derivative(alpha))
    rhs2 = exterior_derivative(interior_product(X, alpha))
    for pt in SAMPLE_3D:
        diff = [a - b - c for a, b, c in zip(lhs(pt), rhs1(pt), rhs2(pt))]
        assert max(abs(d) for d in diff) < 1e-9


def test_interior_product_agrees_with_evaluation():
    om = two_form(3, lambda p: [p[0], 1.0, -p[1]])
    X = vector_field(3, lambda p: [0.4, p[2], -1.0])
    ix = interior_product(X, om)
    pt = [0.3, -0.8, 1.1]
    for v in ([1.0, 0.0, 0.0], [0.2, -0.5, 0.9]):
        assert dot(ix(pt), v) == pytest.approx(
            evaluate_form(om, pt, [X(pt), v]), rel=1e-12)


@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_so3_bivector_is_poisson(sign):
    sq = schouten_square(so3_linear_bivector(sign=sign))
    for pt in SAMPLE_3D:
        assert max(abs(c) for c in sq(pt)) < 1e-12


def test_constant_symplectic_is_poisson():
    sq = schouten_square(constant_symplectic_bivector(n_pairs=2))
    assert max(abs(c) for c in sq([0.1, 0.2, 0.3, 0.4])) == 0.0


def test_schouten_square_detects_non_poisson():
    # π = x₂ ∂₀∧∂₁ + x₁ ∂₁∧∂₂ has S^{012} = x₂
    piv = fields.bivector(3, lambda p: [p[2], 0.0, p[1]])
    sq = schouten_square(piv)
    out = sq([0.3, -0.8, 1.1])
    assert out[0] == pytest.approx(1.1, rel=1e-12)


def test_poisson_bracket_jacobi_for_so3():
    piv = so3_linear_bivector(sign=+1.0)
    f = scalar_field(3, lambda p: p[0] * p[0])
    g = scalar_field(3, lambda p: p[1] + 0.5 * p[2])
    h = scalar_field(3, lambda p: p[0] * p[2])
    cyc1 = poisson_bracket(piv, f, poisson_bracket(piv, g, h))
    cyc2 = poisson_bracket(piv, g, poisson_bracket(piv, h, f))
    cyc3 = poisson_bracket(piv, h, poisson_bracket(piv, f, g))
    for pt in SAMPLE_3D:
        assert abs(cyc1(pt) + cyc2(pt) + cyc3(pt)) < 1e-9


def test_hamiltonian_fields_preserve_the_bivector():
    piv = so3_linear_bivector(sign=+1.0)
    X = vector_field(3, lambda p: sharp(piv, p, [1.0, 0.0, 0.0]))
    lx = lie_derivative_bivector(X, piv)
    for pt in SAMPLE_3D:
        assert max(abs(c) for c in lx(pt)) < 1e-12


def test_pairing_symmetry():
    X = vector_field(2, lambda p: [p[1], 0.0])
    alpha = covector_field(2, lambda p: [0.0, p[0]])
    Y = vector_field(2, lambda p: [0.0, p[0]])
    beta = covector_field(2, lambda p: [p[1], 0.0])
    s1, s2 = section_pair(X, alpha), section_pair(Y, beta)
    pt = [0.7, -0.3]
    assert pairing(s1, s2, +1)(pt) == pytest.approx(pairing(s2, s1, +1)(pt))
    assert pairing(s1, s2, -1)(pt) == pytest.approx(-pairing(s2, s1, -1)(pt))
    with pytest.raises(ValueError):
        pairing(s1, s2, sign=0)


def test_courant_bracket_frozen_plane_example():
    # s1 = (y∂x, x dy), s2 = (x∂y, y dx): bracket = ((−x∂x + y∂y), 0)
    X = vector_field(2, lambda p: [p[1], 0.0])
    alpha = covector_field(2, lambda p: [0.0, p[0]])
    Y = vector_field(2, lambda p: [0.0, p[0]])
    beta = covector_field(2, lambda p: [p[1], 0.0])
    out = courant_bracket(section_pair(X, alpha), section_pair(Y, beta))
    pt = [0.7, -0.3]
    assert out.vector(pt) == pytest.approx([-0.7, -0.3])
    assert max(abs(c) for c in out.covector(pt)) < 1e-12


def test_courant_bracket_is_antisymmetric():
    X = vector_field(3, lambda p: [p[1] * p[2], -p[0], 0.3])
    alpha = covector_field(3, lambda p: [p[0], dm.sin(p[1]), p[2] * p[0]])
    Y = vector_field(3, lambda p: [0.5, p[0] * p[0], p[1]])
    beta = covector_field(3, lambda p: [p[2], 0.1, p[0] + p[1]])
    s1, s2 = section_pair(X, alpha), section_pair(Y, beta)
    fwd = courant_bracket(s1, s2)
    bwd = courant_bracket(s2, s1)
    for pt in SAMPLE_3D:
        total = fwd.value(pt)
        back = bwd.value(pt)
        assert max(abs(a + b) for a, b in zip(total, back)) < 1e-9


def test_round_area_density_signs():
    assert fields.round_area_form(0)([0.5, -0.2])[0] > 0
    assert fields.round_area_form(1)([0.5, -0.2])[0] < 0


def test_form_constructors_reject_missing_degree():
    with pytest.raises(ValueError):
        fields.SmoothField(3, "form", lambda p: [0.0], degree=None)
    with pytest.raises(ValueError):
        antisym_matrix(k_form(3, 3, lambda p: [1.0]), [0.0, 0.0, 0.0])


@given(st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_dd_vanishes_for_random_scalars(x, y, z, c):
    f = scalar_field(3, lambda p: c * p[0] * p[1] + dm.cos(p[2]) * p[0])
    dd = exterior_derivative(exterior_derivative(f))
    assert max(abs(v) for v in dd([x, y, z])) < DDZERO_TOL
