"""Chart domains: box/sphere construction, the inversion transition,
embeddings, and deterministic sampling."""

import math

import numpy as np
import pytest

from fiberdirac._numerics import sample_unit_cube, unstack
from fiberdirac.charts import POLE_MARGIN, CoordinateDomain
from fiberdirac.dual import Dual


def test_box_construction_and_membership():
    dom = CoordinateDomain.box([(-1.0, 1.0), (0.0, 2.0)])
    assert dom.dim == 2
    assert dom.contains([0.5, 1.9])
    assert not dom.contains([0.5, 2.5])
    assert not dom.contains([float("nan"), 0.0])


def test_membership_of_array_points():
    dom = CoordinateDomain.box([(-1.0, 1.0), (0.0, 2.0)])
    xs = np.array([-0.5, 0.0, 0.9])
    assert dom.contains([xs, np.array([0.1, 1.0, 1.9])])
    assert dom.contains([Dual(xs, 1.0), 1.0])
    assert not dom.contains([xs, np.array([0.1, 2.5, 1.9])])
    assert not dom.contains([np.array([-0.5, math.nan, 0.9]), 1.0])
    assert dom.inside([xs, np.array([0.1, 2.5, 1.9])]).tolist() == \
        [True, False, True]
    sphere = CoordinateDomain.sphere()
    assert sphere.contains([xs, 3.0])
    assert not sphere.contains([xs, np.array([0.0, math.inf, 0.0])])


def test_box_needs_matching_bounds():
    with pytest.raises(ValueError):
        CoordinateDomain("box", 2, bounds=[(-1.0, 1.0)])
    with pytest.raises(ValueError):
        CoordinateDomain("weird", 2)


def test_sphere_is_two_dimensional():
    with pytest.raises(ValueError):
        CoordinateDomain("sphere-stereo", 3)
    dom = CoordinateDomain.sphere()
    assert dom.dim == 2
    assert dom.contains([100.0, -250.0])          # finite ⇒ on chart 0
    assert not dom.contains([float("inf"), 0.0])


def test_transition_is_an_involution():
    dom = CoordinateDomain.sphere()
    for w in ([0.7, -0.3], [2.5, 1.1], [-0.05, 0.02]):
        back = dom.transition(dom.transition(w))
        assert max(abs(a - b) for a, b in zip(back, w)) < 1e-12


def test_embeddings_agree_across_the_transition():
    dom = CoordinateDomain.sphere()
    for w in ([0.7, -0.3], [1.4, 0.9]):
        p0 = dom.embed(w, chart=0)
        p1 = dom.embed(dom.transition(w), chart=1)
        assert max(abs(a - b) for a, b in zip(p0, p1)) < 1e-12
        assert sum(c * c for c in p0) == pytest.approx(1.0, rel=1e-12)


def test_angle_round_trip():
    dom = CoordinateDomain.sphere()
    w = dom.from_angles(1.1, 2.3)
    theta, phi = dom.to_angles(w)
    assert theta == pytest.approx(1.1, rel=1e-12)
    assert phi == pytest.approx(2.3, rel=1e-12)


def test_box_from_unit_hits_bounds():
    dom = CoordinateDomain.box([(-2.0, 3.0)])
    assert dom.from_unit([0.0]) == [-2.0]
    assert dom.from_unit([1.0]) == [3.0]


def test_sphere_sampling_respects_pole_margin():
    dom = CoordinateDomain.sphere()
    for w in unstack(dom.sample(count=128, seed=3), 128):
        theta, _ = dom.to_angles(w)
        assert POLE_MARGIN * 0.99 <= theta <= math.pi - POLE_MARGIN * 0.99


@pytest.mark.parametrize("dom", [CoordinateDomain.box([(-1.0, 1.0),
                                                        (0.0, 2.5)]),
                                  CoordinateDomain.sphere()],
                         ids=["box", "sphere"])
def test_sample_is_from_unit_of_each_cube_point(dom):
    # a sphere sample runs numpy's tan/sin/cos on the arrays where the
    # per-point route runs math's, which may differ in the last bit: a
    # relative 1e-15
    cube = unstack(sample_unit_cube(64, 2, seed=5), 64)
    got = unstack(dom.sample(count=64, seed=5), 64)
    want = [dom.from_unit(row) for row in cube]
    if dom.kind == "box":
        assert [[c.hex() for c in p] for p in got] == \
            [[c.hex() for c in p] for p in want]
    else:
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)


def test_sampling_is_deterministic_per_seed():
    dom = CoordinateDomain.box([(-1.0, 1.0), (0.0, 1.0)])
    assert np.array_equal(dom.sample(count=16, seed=0),
                          dom.sample(count=16, seed=0))
    assert not np.array_equal(dom.sample(count=16, seed=0),
                              dom.sample(count=16, seed=1))


def test_sphere_ops_rejected_on_boxes():
    dom = CoordinateDomain.box([(-1.0, 1.0)])
    with pytest.raises(ValueError):
        dom.transition([0.5])
