"""Transport layer: parallel transport (around loops too), curvature, and
the covariant differential on the product patch."""

import math

import pytest

from fiberdirac import dual as dm
from fiberdirac.charts import CoordinateDomain
from fiberdirac.fibration import (BasePath, Connection, FiberedSpace,
                                  FlatConnection, HorizontalForm,
                                  IncompleteTransportError, VerticalBivector,
                                  curvature, parallel_transport,
                                  transport_samples)
from reference import covariant_differential


def make_space(fb=3.0):
    base = CoordinateDomain.box([(-2.0, 2.0), (-2.0, 2.0)], name="plane")
    fiber = CoordinateDomain.box([(-fb, fb)], name="line")
    return FiberedSpace(base, fiber)


def rotation_space(fb=5.0):
    base = CoordinateDomain.box([(-2.0, 2.0)], name="interval")
    fiber = CoordinateDomain.box([(-fb, fb)] * 2, name="disc-box")
    return FiberedSpace(base, fiber)


CIRCLE = BasePath(lambda t: [0.8 * dm.cos(2 * math.pi * t),
                             0.8 * dm.sin(2 * math.pi * t)], name="circle")


def test_split_join_round_trip():
    space = make_space()
    b, x = space.split([0.1, 0.2, 0.3])
    assert b == [0.1, 0.2] and x == [0.3]
    assert space.join(b, x) == [0.1, 0.2, 0.3]


def test_base_path_velocity_via_duals():
    v = CIRCLE.velocity(0.25)
    assert v[0] == pytest.approx(-0.8 * 2 * math.pi, rel=1e-12)
    assert abs(v[1]) < 1e-9


def test_flat_transport_is_identity():
    space = make_space()
    out = parallel_transport(FlatConnection(space), CIRCLE, [0.4])
    assert out == [0.4]


def test_transport_concatenates():
    space = make_space()
    conn = Connection(space, lambda b, x: [[0.6 * x[0], -0.3 * b[0]]])
    direct = parallel_transport(conn, CIRCLE, [0.5], 0.0, 1.0)
    mid = parallel_transport(conn, CIRCLE, [0.5], 0.0, 0.37)
    relay = parallel_transport(conn, CIRCLE, mid, 0.37, 1.0)
    assert direct[0] == pytest.approx(relay[0], rel=1e-12)


def test_transport_step_convergence_is_fourth_order():
    space = make_space(fb=10.0)
    conn = Connection(space, lambda b, x: [[dm.sin(x[0]) + b[1], -b[0]]])
    ref = parallel_transport(conn, CIRCLE, [0.3], step=1e-4)[0]
    errs = [abs(parallel_transport(conn, CIRCLE, [0.3], step=s)[0] - ref)
            for s in (0.02, 0.01)]
    assert 10.0 < errs[0] / errs[1] < 24.0


def test_transport_samples_sequence():
    space = make_space()
    conn = Connection(space, lambda b, x: [[0.6 * x[0], -0.3 * b[0]]])
    times = [0.0, 0.25, 0.5, 1.0]
    seq = transport_samples(conn, CIRCLE, [0.5], times)
    assert seq[0] == [0.5]
    for tv, state in zip(times[1:], seq[1:]):
        direct = parallel_transport(conn, CIRCLE, [0.5], 0.0, tv)
        assert state[0] == pytest.approx(direct[0], rel=1e-10)


def test_abelian_holonomy_matches_line_integral():
    # x-independent coefficient: ẋ = A(b)·γ̇, so the displacement is ∮A
    space = make_space(fb=10.0)
    conn = Connection(space, lambda b, x: [[-b[1], b[0]]])
    out = parallel_transport(conn, CIRCLE, [0.0])
    n = 4001
    acc = 0.0
    for k in range(n - 1):
        t0, t1 = k / (n - 1), (k + 1) / (n - 1)
        tm = 0.5 * (t0 + t1)
        b, v = CIRCLE(tm), CIRCLE.velocity(tm)
        acc += (-b[1] * v[0] + b[0] * v[1]) * (t1 - t0)
    assert out[0] == pytest.approx(acc, rel=1e-6)


def test_escape_raises_with_time_stamp():
    space = make_space(fb=1.0)
    conn = Connection(space, lambda b, x: [[4.0 + x[0] * x[0], 0.0]])
    with pytest.raises(IncompleteTransportError) as err:
        parallel_transport(conn, BasePath(lambda t: [t, 0.0]), [0.9])
    assert 0.0 <= err.value.t_escape <= 1.0


def test_flat_curvature_vanishes():
    space = make_space()
    curv = curvature(FlatConnection(space), [0.1, 0.2, 0.3])
    assert max(abs(c) for pair in curv for c in pair) == 0.0


def test_curvature_is_antisymmetric():
    space = make_space()
    conn = Connection(space, lambda b, x: [[b[1] * x[0], b[0] * b[0]]])
    pt = [0.4, -0.7, 0.2]
    uv = curvature(conn, pt, u=[1.0, 0.5], v=[-0.2, 1.0])
    vu = curvature(conn, pt, u=[-0.2, 1.0], v=[1.0, 0.5])
    assert max(abs(a + b) for a, b in zip(uv, vu)) < 1e-12
    with pytest.raises(ValueError):
        curvature(conn, pt, u=[1.0, 0.0])


def test_curvature_hand_value():
    # A = [[b₂x, b₁²]]: along the lifts h(e₀) = ∂₀ + b₂x ∂ₓ and
    # h(e₁) = ∂₁ + b₁² ∂ₓ,
    #   Curv(e₀,e₁) = d_{h(e₀)}(b₁²) − d_{h(e₁)}(b₂x) = 2b₁ − x − b₂b₁²
    space = make_space()
    conn = Connection(space, lambda b, x: [[b[1] * x[0], b[0] * b[0]]])
    b1, b2, x = 0.4, -0.7, 0.2
    curv = curvature(conn, [b1, b2, x])[0]
    assert curv[0] == pytest.approx(2 * b1 - x - b2 * b1 * b1, rel=1e-12)
    assert conn.lift([1.0, 0.0], [b1, b2, x]) == pytest.approx(
        [1.0, 0.0, b2 * x])


def second_covariant_residual(connection, f, point):
    """max over base pairs of |d²_Γ f (e_a, e_b) − L_{Curv(e_a,e_b)} f|."""
    d2 = covariant_differential(
        connection, covariant_differential(connection, f))(point)
    nb = connection.space.n_base
    return max(abs(lhs - dm.directional(f, point, [0.0] * nb + list(curv)))
               for lhs, curv in zip(d2, curvature(connection, point)))


def test_second_covariant_differential_is_curvature_action():
    space = make_space()
    conn = Connection(space, lambda b, x: [[dm.sin(b[1]) * x[0],
                                            b[0] * x[0]]])
    f = lambda pt: pt[2] * pt[2] + 0.3 * pt[0] * pt[2]
    for pt in ([0.4, -0.7, 0.2], [-0.3, 0.5, 0.6]):
        assert second_covariant_residual(conn, f, pt) < 1e-9


def test_covariant_differential_reduces_to_exterior_on_flat():
    space = make_space()
    conn = FlatConnection(space)
    om = HorizontalForm(space, 1, lambda pt: [pt[0] * pt[1], pt[1]])
    d_om = covariant_differential(conn, om)
    # base-only comps: dω = (∂₀ω₁ − ∂₁ω₀) db₀∧db₁ = (0 − b₀)
    out = d_om([0.4, -0.7, 0.2])
    assert out[0] == pytest.approx(-0.4, rel=1e-12)


def test_horizontal_form_evaluates_on_base_vectors():
    space = make_space()
    om = HorizontalForm(space, 2, lambda pt: [3.0])
    val = om.value([0.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 2.0]])
    assert val == pytest.approx(6.0)


def test_vertical_bivector_matrix_and_sharp():
    base = CoordinateDomain.box([(-1.0, 1.0)], name="segment")
    fiber = CoordinateDomain.box([(-2.0, 2.0)] * 3, name="ball-box")
    space = FiberedSpace(base, fiber)
    piv = VerticalBivector(space, lambda pt: [-pt[3], pt[2], -pt[1]])
    pt = [0.0, 0.3, -0.8, 1.1]
    x, alpha = pt[1:], [0.5, 0.2, -0.9]
    out = piv.sharp(pt, alpha)
    cross = [x[1] * alpha[2] - x[2] * alpha[1],
             x[2] * alpha[0] - x[0] * alpha[2],
             x[0] * alpha[1] - x[1] * alpha[0]]
    assert out == pytest.approx(cross)
    mat = piv.matrix(pt)
    assert mat[0][1] == pytest.approx(-1.1)
    assert mat[1][0] == pytest.approx(1.1)


def test_rotation_transport_preserves_radius():
    space = rotation_space()
    conn = Connection(space, lambda b, x: [[-x[1]], [x[0]]],
                      name="rotation")
    path = BasePath(lambda t: [1.4 * t])
    out = parallel_transport(conn, path, [1.0, 0.5])
    assert out[0] ** 2 + out[1] ** 2 == pytest.approx(1.25, rel=1e-10)
