"""Pair-groupoid algebra, multiplicative two-forms, and the integrated
coupling data on product models."""

import numpy as np
import pytest

from fiberdirac import fields
from fiberdirac.charts import CoordinateDomain
from fiberdirac.coupling import GeometricData
from fiberdirac.fibration import (Connection, FiberedSpace, FlatConnection,
                                  HorizontalForm, VerticalBivector)
from fiberdirac.groupoid import (PairGroupoid, coupling_form,
                                 integrated_data_check,
                                 multiplicativity_residual, pair_form,
                                 presymplectic_nondegeneracy,
                                 source_target_orthogonality)

X = [0.1, -0.4]
Y = [0.7, 0.2]
Z = [-0.3, 0.5]


def symplectic_plane(comps=(1.0,)):
    return fields.two_form(2, lambda p: list(comps), name="const-omega")


def product_geometry(twist=False):
    base = CoordinateDomain.box([(-1.0, 1.0)] * 2, name="plane")
    fiber = CoordinateDomain.box([(-1.0, 1.0)] * 2, name="torus-patch")
    space = FiberedSpace(base, fiber)
    if twist:
        conn = Connection(space, lambda b, x: [[0.3, -0.1], [0.2, 0.4]],
                          name="constant-twist")
    else:
        conn = FlatConnection(space)
    pi_v = VerticalBivector(space, lambda p: [2.0], name="const-pi")
    om = HorizontalForm(space, 2, lambda p: [1.5], name="const-omega")
    return GeometricData(space, conn, pi_v, om,
                         name="twisted-product" if twist else "split-product")


def test_pair_groupoid_structure_maps():
    g = PairGroupoid(2)
    first = Y + X          # an arrow x -> y
    second = Z + Y         # an arrow y -> z
    assert g.source(first) == X and g.target(first) == Y
    assert g.unit(X) == X + X
    assert g.inverse(first) == X + Y
    assert g.multiply(second, first) == Z + X
    with pytest.raises(ValueError):
        g.multiply(first, second)   # middles z vs x do not match


def test_axioms_hold_exactly():
    assert PairGroupoid(3).axioms_residual(count=10) == 0.0


def test_pair_form_blocks_and_value():
    form = pair_form(symplectic_plane())
    arrow = Y + X
    mat = form.matrix(arrow)
    want = np.zeros((4, 4))
    want[0, 1], want[1, 0] = 1.0, -1.0        # ω at the target point
    want[2, 3], want[3, 2] = -1.0, 1.0        # −ω at the source point
    assert np.allclose(mat, want)
    u = [0.5, -0.2, 0.3, 0.8]
    v = [-0.1, 0.4, 0.7, 0.6]
    want_val = (u[0] * v[1] - u[1] * v[0]) - (u[2] * v[3] - u[3] * v[2])
    assert form.value(arrow, u, v) == pytest.approx(want_val, abs=1e-15)


def test_pair_form_rejects_non_closed_input():
    bad = fields.two_form(3, lambda p: [p[2], 0.0, 0.0], name="non-closed")
    with pytest.raises(ValueError):
        pair_form(bad)
    with pytest.raises(ValueError):
        pair_form(fields.covector_field(2, lambda p: [1.0, 0.0]))


def test_difference_form_is_multiplicative():
    # t*ω − s*ω cancels along middles for any base form, including a
    # position-dependent one (top-degree on the plane, hence closed)
    varying = fields.two_form(
        2, lambda p: [1.0 + 0.3 * p[0] * p[0] + 0.5 * p[1]], name="vary")
    for omega in (symplectic_plane(), varying):
        form = pair_form(omega)
        assert multiplicativity_residual(form.value, 2) < 1e-12


def test_sum_form_is_not_multiplicative():
    def broken(arrow, u, v):
        return ((u[0] * v[1] - u[1] * v[0])
                + (u[2] * v[3] - u[3] * v[2]))   # t*ω + s*ω

    assert multiplicativity_residual(broken, 2) > 0.1
    assert multiplicativity_residual(lambda a, u, v: 0.0, 2) == 0.0


def test_nondegeneracy_report_on_symplectic_plane():
    report = presymplectic_nondegeneracy(symplectic_plane())
    assert report == {"triple_kernel_dim": 0, "base_kernel_dim": 0,
                      "verdict": "PASS"}


def test_nondegeneracy_flags_degenerate_forms():
    zero = presymplectic_nondegeneracy(symplectic_plane(comps=(0.0,)))
    assert zero["base_kernel_dim"] == 2 and zero["verdict"] == "FAIL"

    rank_two = fields.two_form(
        4, lambda p: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], name="rank-two")
    report = presymplectic_nondegeneracy(rank_two)
    assert report["base_kernel_dim"] == 2 and report["verdict"] == "FAIL"


@pytest.mark.parametrize("twist", [False, True], ids=["split", "twisted"])
def test_coupling_form_matrix_blocks(twist):
    geom = product_geometry(twist)
    form = coupling_form(geom)
    pt = [0.4, -0.7, 0.2, 0.6]
    mat = np.array(fields.antisym_matrix(form, pt))
    w = np.array([[0.0, 1.5], [-1.5, 0.0]])
    a = np.array(geom.conn_matrix(pt))
    q = np.linalg.inv(np.array([[0.0, 2.0], [-2.0, 0.0]]))
    want = np.block([[w + a.T @ q @ a, -a.T @ q], [-q @ a, q]])
    assert np.allclose(mat, want, atol=1e-12)


@pytest.mark.parametrize("twist", [False, True], ids=["split", "twisted"])
def test_integrated_data_check_passes_on_products(twist):
    geom = product_geometry(twist)
    report = integrated_data_check(geom)
    assert report["verdict"] == "PASS"
    assert report["fiber_nondegeneracy_dim"] == 0
    assert report["horizontal_identity"] < 1e-12
    assert report["hor_projection"] == 0.0
    assert report["hor_vertical_orthogonality"] < 1e-12


def test_invariant_lifts_are_coupling_orthogonal():
    geom = product_geometry(twist=True)
    form = pair_form(coupling_form(geom))
    assert source_target_orthogonality(geom, form) < 1e-15


def test_degenerate_vertical_structure_is_rejected():
    base = CoordinateDomain.box([(-1.0, 1.0)], name="line")
    fiber3 = CoordinateDomain.box([(-1.0, 1.0)] * 3, name="ball")
    space3 = FiberedSpace(base, fiber3)
    odd = GeometricData(
        space3, FlatConnection(space3),
        VerticalBivector(space3, lambda p: [-p[3], p[2], -p[1]],
                         name="coadjoint"),
        HorizontalForm(space3, 2, lambda p: [], name="none"), name="odd")
    with pytest.raises(ValueError):
        integrated_data_check(odd)

    fiber2 = CoordinateDomain.box([(-1.0, 1.0)] * 2, name="disk")
    space2 = FiberedSpace(base, fiber2)
    degenerate = GeometricData(
        space2, FlatConnection(space2),
        VerticalBivector(space2, lambda p: [0.0], name="zero"),
        HorizontalForm(space2, 2, lambda p: [], name="none"),
        name="degenerate")
    with pytest.raises(ValueError):
        integrated_data_check(degenerate)

    # π_V vanishing at one of the twelve sampled points only
    c = space2.sample(12)[5][1]
    once = GeometricData(
        space2, FlatConnection(space2),
        VerticalBivector(space2, lambda p: [p[1] - c], name="vanishes-once"),
        HorizontalForm(space2, 2, lambda p: [], name="none"), name="once")
    with pytest.raises(ValueError):
        integrated_data_check(once)
