"""Gauge-theoretic builders: structure constants, field strength and its
differential identity, hamiltonian fiber models, the assembled coupling
data, and the two-chart compatibility of the monopole potential."""

import pytest

from fiberdirac import dual as dm
from fiberdirac._numerics import matvec, stack
from fiberdirac.dual import Dual
from fiberdirac.fibration import curvature
from fiberdirac.yangmills import (EXAMPLES, HamiltonianFiber, PrincipalData,
                                  StructureGroupModel,
                                  gauge_transition_check, hopf_example,
                                  hopf_flat_example, monopole_potential,
                                  so3_coadjoint_example,
                                  trivial_torus_example, ymh_geometric_data)
from fiberdirac.charts import CoordinateDomain


def test_sampled_points_are_python_floats():
    # box-chart jitter comes from numpy; numpy scalars in a point would run
    # every scalar Dual operation of the coupling checks on numpy floats
    points = hopf_example(lambda x: 2.0 * x + 1.0).space.sample(4)
    assert all(type(c) is float for p in points for c in p)


def test_structure_constants_satisfy_jacobi():
    assert StructureGroupModel.circle().jacobi_residual() == 0.0
    assert StructureGroupModel.rotations().jacobi_residual() < 1e-14


def test_broken_structure_constants_are_detected():
    bad = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
    bad[0][1][0] = 1.0            # [e₀,e₁] = e₀ but [e₁,e₀] = 0: not a bracket
    grp = StructureGroupModel("bad", 2, bad)
    assert grp.jacobi_residual() > 0.1


def test_rotations_bracket_is_cross_product():
    grp = StructureGroupModel.rotations()
    u, v = [1.0, 2.0, -0.5], [0.3, -1.0, 0.4]
    cross = [u[1] * v[2] - u[2] * v[1],
             u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0]]
    assert grp.bracket(u, v) == pytest.approx(cross)
    assert grp.bracket(v, u) == pytest.approx([-c for c in cross])


def test_monopole_field_strength_is_round_density():
    pot = monopole_potential(0)
    for b in ([0.3, -0.4], [1.2, 0.7], [-0.1, 0.05]):
        su = [Dual(b[0], 1.0), Dual(b[1], 0.0)]
        sv = [Dual(b[0], 0.0), Dual(b[1], 1.0)]
        d_a_v = pot(su)[1][0].eps          # ∂_u A_v
        d_a_u = pot(sv)[0][0].eps          # ∂_v A_u
        r2 = b[0] * b[0] + b[1] * b[1]
        assert d_a_v - d_a_u == pytest.approx(4.0 / (1.0 + r2) ** 2,
                                              rel=1e-12)


def test_so3_potential_curvature_hand_value():
    base = CoordinateDomain.box([(-1.0, 1.0)] * 2, name="plane")
    a0, d0, c0 = (0.3, -0.5, 0.7), (0.5, 0.1, -0.3), (-0.2, 0.9, 0.4)

    def potential(b):
        return [[a0[k] + b[1] * d0[k] for k in range(3)], list(c0)]

    pd = PrincipalData(StructureGroupModel.rotations(), base, potential)
    b = [0.4, -0.6]
    # ω(e₀,e₁) = ∂₀A₁ − ∂₁A₀ + A₀×A₁ = −d0 + (a0 + b₂d0)×c0
    a_col = [a0[k] + b[1] * d0[k] for k in range(3)]
    cross = [a_col[1] * c0[2] - a_col[2] * c0[1],
             a_col[2] * c0[0] - a_col[0] * c0[2],
             a_col[0] * c0[1] - a_col[1] * c0[0]]
    want = [-d + c for d, c in zip(d0, cross)]
    assert pd.curvature(b)[0] == pytest.approx(want, rel=1e-12)


BASE_3D = CoordinateDomain.box([(-1.0, 1.0)] * 3, name="b3")
POINTS_3D = ([0.2, -0.5, 0.8], [-0.7, 0.3, 0.1])


def generic_potential(b):
    return [[0.3 + b[1] * 0.5, -0.5, 0.7],
            [-0.2, 0.9 * b[2], 0.4],
            [b[0] * 0.6, 0.1, -0.3 * b[0]]]


def test_bianchi_identity_on_a_three_dimensional_base():
    pd = PrincipalData(StructureGroupModel.rotations(), BASE_3D,
                       generic_potential)
    for b in POINTS_3D:
        assert pd.bianchi_residual(b) < 1e-10


def test_bianchi_on_stacked_points_is_their_worst():
    # the points as one array axis; in the sparse potential the constant
    # entries of a face meet varying ones
    sparse = lambda b: [[b[1] * b[1], 0.0, 0.0], [0.0] * 3, [0.0] * 3]
    consts = [[list(row) for row in plane]
              for plane in StructureGroupModel.rotations().constants]
    consts[0][1][0], consts[1][0][0] = 0.5, -0.5
    for group in (StructureGroupModel.rotations(),
                  StructureGroupModel("broken-so3", 3, consts)):
        for potential in (generic_potential, sparse):
            pd = PrincipalData(group, BASE_3D, potential)
            assert pd.bianchi_residual(stack(POINTS_3D)) == \
                max(pd.bianchi_residual(b) for b in POINTS_3D)


def test_bianchi_fails_for_a_bracket_that_breaks_jacobi():
    # so(3) with [e₀,e₁] gaining 0.5·e₀: still antisymmetric, but the
    # Jacobi identity fails, and with it d ω_θ + [A, ω_θ] = 0
    consts = [[list(row) for row in plane]
              for plane in StructureGroupModel.rotations().constants]
    consts[0][1][0], consts[1][0][0] = 0.5, -0.5
    broken = StructureGroupModel("broken-so3", 3, consts)
    assert broken.jacobi_residual() > 0.1
    pd = PrincipalData(broken, BASE_3D, generic_potential)
    for b in POINTS_3D:
        assert pd.bianchi_residual(b) > 1e-3


def test_two_dimensional_bases_have_trivial_bianchi():
    pd = PrincipalData(StructureGroupModel.circle(),
                       CoordinateDomain.sphere(), monopole_potential(0))
    assert pd.bianchi_residual([0.3, 0.4]) == 0.0


def test_coadjoint_fiber_action_and_hamiltonian_agree():
    fib = HamiltonianFiber.coadjoint_so3()
    assert fib.prehamiltonian_residual(count=16) < 1e-10
    x, xi = [0.3, -0.8, 1.1], [0.5, 0.2, -0.9]
    cross = [x[1] * xi[2] - x[2] * xi[1],
             x[2] * xi[0] - x[0] * xi[2],
             x[0] * xi[1] - x[1] * xi[0]]
    assert fib.action(xi, x) == pytest.approx(cross)
    assert fib.hamiltonian_field(xi, x) == pytest.approx(cross, rel=1e-12)


def test_action_matrix_linearizes_the_action():
    fib = HamiltonianFiber.coadjoint_so3()
    xi = [0.5, 0.2, -0.9]
    mat = fib.action_matrix(xi)
    x = [0.3, -0.8, 1.1]
    out = [sum(mat[i][j] * x[j] for j in range(3)) for i in range(3)]
    assert out == pytest.approx(fib.action(xi, x), rel=1e-12)


def test_declared_generators_are_the_action_and_its_jacobian():
    # action_matrix sums the G(e_i) read off the action at construction; at
    # sampled (ξ, x) it must be the action itself and the dual Jacobian of
    # the action, to the bit
    fib = HamiltonianFiber.coadjoint_so3()
    xis = fib.domain.sample(count=6, seed=3)
    for xi, x in zip(xis, fib.domain.sample(count=6, seed=4)):
        mat = fib.action_matrix(xi)
        assert matvec(mat, x) == fib.action(xi, x)
        assert mat == dm.jacobian(lambda y: fib.action(xi, y), x)


def test_ymh_generator_reproduces_the_connection_coefficient():
    geom = so3_coadjoint_example()
    conn = geom.connection
    for pt in geom.space.sample(count=6, seed=2):
        b, x = geom.space.split(pt)
        for v in ([1.0, 0.0], [0.0, 1.0], [0.7, -0.4]):
            want = matvec(conn.coeff(b, x), v)
            got = matvec(conn.generator(b, v), x)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-15)


def test_scaled_line_fiber_is_prehamiltonian():
    fib = HamiltonianFiber.scaled_line(lambda x: 2.0 * x + 1.0)
    assert fib.prehamiltonian_residual(count=8) < 1e-12


def test_assembled_connection_applies_the_action_columnwise():
    geom = so3_coadjoint_example()
    pd, fib = geom.principal, geom.fiber_model
    pt = [0.4, -0.6, 0.3, -0.8, 1.1]
    b, x = pt[:2], pt[2:]
    a_mat = geom.conn_matrix(pt)
    pot = pd.potential(b)
    for col in range(2):
        want = fib.action(pot[col], x)
        assert [a_mat[k][col] for k in range(3)] == pytest.approx(want)


def test_total_space_curvature_represents_the_field_strength():
    # Curv(e₀,e₁) on E must be the fiber action of ω_θ(e₀,e₁)
    geom = so3_coadjoint_example()
    pd, fib = geom.principal, geom.fiber_model
    pt = [0.4, -0.6, 0.3, -0.8, 1.1]
    curv_total = curvature(geom.connection, pt)[0]
    omega_theta = pd.curvature(pt[:2])[0]
    want = fib.action(omega_theta, pt[2:])
    assert [dm.value_of(c) for c in curv_total] == pytest.approx(
        want, rel=1e-9, abs=1e-9)


def test_hopf_example_structure():
    geom = hopf_example(lambda x: 2.0 * x + 1.0)
    assert geom.space.n_base == 2 and geom.space.n_fiber == 1
    assert geom.principal.group.dim == 1
    pt = [0.3, -0.4, 0.5]
    om = geom.omega_matrix(pt)
    s = 1.0 + 0.3 * 0.3 + 0.4 * 0.4
    assert om[0][1] == pytest.approx((2.0 * 0.5 + 1.0) * 4.0 / s ** 2,
                                     rel=1e-12)


def test_hopf_flat_example_has_flat_transport():
    geom = hopf_flat_example(lambda x: x)
    assert geom.connection.is_flat
    assert geom.omega_matrix([0.0, 0.0, 0.7])[0][1] == pytest.approx(
        0.7 * 4.0, rel=1e-12)


def test_trivial_torus_default_scaling():
    geom = trivial_torus_example()
    assert geom.omega_matrix([0.1, 0.2, 2.0])[0][1] == pytest.approx(
        1.0 + 0.25 * 4.0)


def test_example_registry_is_complete():
    assert set(EXAMPLES) == {"hopf", "hopf-flat", "so3-coadjoint",
                             "trivial-torus"}


def test_gauge_charts_are_compatible():
    out = gauge_transition_check()
    assert out["closedness"] < 1e-8
    assert out["winding"] == pytest.approx(-2.0, abs=1e-6)


def test_base_form_augments_omega():
    base = CoordinateDomain.box([(-1.0, 1.0)] * 2, name="plane")
    pd = PrincipalData(StructureGroupModel.circle(), base,
                       lambda b: [[0.0], [0.0]])
    fib = HamiltonianFiber.scaled_line(lambda x: x)
    geom = ymh_geometric_data(pd, fib, base_form=lambda b: [2.5])
    assert geom.omega_matrix([0.1, 0.2, 0.4])[0][1] == pytest.approx(2.5)
