"""Exterior calculus and bracket identities for the chart-level fields:
d² = 0, the Lie algebra of vector fields, and the Courant bracket of
TM ⊕ T*M sections against a reference built from Cartan's formula."""

import pytest
from hypothesis import given, settings, strategies as st

from fiberdirac import dual as dm
from fiberdirac import fields
from fiberdirac._numerics import combos, dot, matvec
from fiberdirac.fields import (antisym_matrix, courant_bracket,
                               covector_field, exterior_derivative, k_form,
                               lie_bracket, vector_field)
from reference import bivector, lie_derivative_bivector, scalar_field

DDZERO_TOL = 1e-10

SAMPLE_3D = [[0.3, -0.8, 1.1], [1.4, 0.2, -0.5], [-0.9, -0.4, 0.7]]


def so3_bivector():
    """The linear Poisson bivector π^{ij} = ε_{ijk} x_k on R³ ≅ so(3)*."""
    return bivector(3, lambda x: [x[2], -x[1], x[0]], name="so3")


def interior(X, omega):
    """i_X ω of a one-form (a scalar) or a two-form: (i_X ω)_j = X^i ω_ij."""
    if omega.degree == 1:
        return scalar_field(omega.dim, lambda pt: dot(omega(pt), X(pt)))
    return covector_field(omega.dim, lambda pt: [
        -c for c in matvec(antisym_matrix(omega, pt), X(pt))])


def test_combos_ordering():
    assert combos(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert combos(4, 3)[0] == (0, 1, 2)


def test_antisym_matrix_so3():
    mat = antisym_matrix(so3_bivector(), [0.3, -0.8, 1.1])
    assert mat[0][1] == pytest.approx(1.1)
    assert mat[1][0] == pytest.approx(-1.1)
    assert mat[0][2] == pytest.approx(0.8)
    assert mat[1][2] == pytest.approx(0.3)
    assert mat[2][2] == 0.0


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


def test_hamiltonian_fields_preserve_the_bivector():
    piv = so3_bivector()
    X = vector_field(3, lambda p: matvec(antisym_matrix(piv, p),
                                         [1.0, 0.0, 0.0]))
    lx = lie_derivative_bivector(X, piv)
    for pt in SAMPLE_3D:
        assert max(abs(c) for c in lx(pt)) < 1e-12


def section(X, alpha):
    """The TM ⊕ T*M section pt ↦ X ‖ α of a vector and a covector field."""
    return lambda pt: list(X(pt)) + list(alpha(pt))


def reference_courant(X, alpha, Y, beta):
    """⟦(X,α),(Y,β)⟧ with each Lie derivative written by Cartan's formula:
    ([X,Y], i_X dβ + d(i_X β) − i_Y dα − d(i_Y α) + ½ d(α(Y) − β(X)))."""
    terms = [(+1.0, interior(X, exterior_derivative(beta))),
             (+1.0, exterior_derivative(interior(X, beta))),
             (-1.0, interior(Y, exterior_derivative(alpha))),
             (-1.0, exterior_derivative(interior(Y, alpha))),
             (+0.5, exterior_derivative(scalar_field(3, lambda pt: dot(
                 alpha(pt), Y(pt)) - dot(beta(pt), X(pt)))))]
    vec = lie_bracket(X, Y)

    def comps(pt):
        cov = [0.0] * 3
        for c, term in terms:
            cov = [acc + c * t for acc, t in zip(cov, term(pt))]
        return list(vec(pt)) + cov

    return comps


def test_courant_bracket_matches_the_cartan_reference():
    X = vector_field(3, lambda p: [p[1] * p[2], -p[0], 0.3])
    alpha = covector_field(3, lambda p: [p[0] * p[1], p[2], dm.cos(p[0])])
    Y = vector_field(3, lambda p: [dm.sin(p[2]), p[0] * p[0], p[1] - p[2]])
    beta = covector_field(3, lambda p: [p[2] * p[1], dm.exp(0.4 * p[0]),
                                        p[0] + p[1] * p[1]])
    got = courant_bracket(section(X, alpha), section(Y, beta))
    want = reference_courant(X, alpha, Y, beta)
    for pt in SAMPLE_3D:
        assert max(abs(a - b) for a, b in zip(got(pt), want(pt))) < 1e-12


def test_courant_bracket_frozen_plane_example():
    # s1 = (y∂x, x dy), s2 = (x∂y, y dx): bracket = ((−x∂x + y∂y), 0)
    s1 = lambda p: [p[1], 0.0, 0.0, p[0]]
    s2 = lambda p: [0.0, p[0], p[1], 0.0]
    out = courant_bracket(s1, s2)([0.7, -0.3])
    assert out[:2] == pytest.approx([-0.7, -0.3])
    assert max(abs(c) for c in out[2:]) < 1e-12


def test_courant_bracket_is_antisymmetric():
    s1 = lambda p: [p[1] * p[2], -p[0], 0.3,
                    p[0], dm.sin(p[1]), p[2] * p[0]]
    s2 = lambda p: [0.5, p[0] * p[0], p[1], p[2], 0.1, p[0] + p[1]]
    fwd = courant_bracket(s1, s2)
    bwd = courant_bracket(s2, s1)
    for pt in SAMPLE_3D:
        assert max(abs(a + b) for a, b in zip(fwd(pt), bwd(pt))) < 1e-9


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
