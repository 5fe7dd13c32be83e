"""Sphere families, the transgression endpoint against its flat oracle
and closed-form areas, and the lattice/verdict layer."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fiberdirac import _numerics, monodromy
from fiberdirac import dual as dm
from fiberdirac._numerics import simpson_weights, smoothstep, worst
from fiberdirac.charts import CoordinateDomain
from fiberdirac.coupling import GeometricData, check_coupling_conditions
from fiberdirac.fibration import (Connection, FiberedSpace, FlatConnection,
                                  HorizontalForm, IncompleteTransportError,
                                  VerticalBivector, parallel_transport,
                                  transport_samples)
from fiberdirac.monodromy import (FAMILIES, SphereFamily, VerStarPath, cap,
                                  concat_families, integrability_verdict,
                                  lattice_model_data, round_sphere,
                                  so3_lattice, transgress, transgress_flat)
from fiberdirac.yangmills import hopf_flat_example
from reference import per_radius_lattice

AREA_TOL = 1e-6
ORACLE_TOL = 1e-4


def round_density(p, vt, ve):
    s = 1.0 + p[0] * p[0] + p[1] * p[1]
    return 4.0 / (s * s) * (vt[0] * ve[1] - vt[1] * ve[0])


@pytest.fixture(scope="module")
def flat_geom():
    return hopf_flat_example(lambda x: 2.0 * x + 1.0)


def test_family_registry():
    assert set(FAMILIES) == {"round-sphere", "cap"}


def test_grids_must_be_odd_and_large_enough():
    with pytest.raises(ValueError):
        SphereFamily(lambda t, e: [t, e], n_t=4, n_eps=5)
    with pytest.raises(ValueError):
        SphereFamily(lambda t, e: [t, e], n_t=5, n_eps=1)


def test_round_sphere_boundary_collapse():
    assert round_sphere(33, 33).collapse_residual() < 1e-10


def test_cap_is_based_but_not_closed():
    fam = cap(1.2, 33, 33)
    assert not fam.closed
    assert fam.collapse_residual() < 1e-10
    for theta in (0.0, math.pi, -0.3, 4.0):
        with pytest.raises(ValueError):
            cap(theta)


def test_round_sphere_signed_area_is_four_pi():
    area = round_sphere(65, 65).signed_area(round_density)
    assert abs(area - 4.0 * math.pi) / (4.0 * math.pi) < AREA_TOL


@pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2, 2.1])
def test_cap_signed_area_matches_closed_form(theta):
    area = cap(theta, 65, 65).signed_area(round_density)
    want = 2.0 * math.pi * (1.0 - math.cos(theta))
    assert abs(area - want) / want < 1e-6


def test_eps_slices_are_base_paths():
    fam = round_sphere(17, 17)
    path = fam.eps_slice(0.4)
    assert path(0.3) == pytest.approx(fam.point(0.3, 0.4))
    v = path.velocity(0.6)
    assert len(v) == 2 and any(abs(c) > 0 for c in v)


def test_transgression_matches_flat_oracle_on_five_families(flat_geom):
    families = [round_sphere(65, 65), cap(0.8, 65, 65),
                cap(math.pi / 2, 65, 65), cap(math.pi / 3, 65, 65),
                cap(2.1, 65, 65)]
    for fam in families:
        endpoint = transgress(flat_geom, fam, [0.3]).endpoint()[0]
        oracle = transgress_flat(flat_geom, fam, [0.3])[0]
        scale = max(1.0, abs(oracle))
        assert abs(endpoint - oracle) / scale < ORACLE_TOL, fam.name


def test_transgression_endpoint_equals_twice_swept_area(flat_geom):
    # f′ = 2, so the endpoint must be 2 × (signed area), independently
    # of the quadrature agreement between the two routes
    fam = cap(0.8, 65, 65)
    endpoint = transgress(flat_geom, fam, [0.3]).endpoint()[0]
    want = 2.0 * 2.0 * math.pi * (1.0 - math.cos(0.8))
    assert abs(endpoint - want) / want < 1e-6


def test_homotopy_reparameterization_keeps_the_endpoint(flat_geom):
    fam = round_sphere(65, 65)
    warped = SphereFamily(
        lambda t, e: fam.fn(smoothstep(t), smoothstep(e)),
        n_t=129, n_eps=129, closed=True, name="round-warped")
    a = transgress(flat_geom, fam, [0.3]).endpoint()[0]
    b = transgress(flat_geom, warped, [0.3]).endpoint()[0]
    assert abs(a - b) / abs(a) < 1e-4


def test_concatenation_is_additive(flat_geom):
    single = round_sphere(129, 129)
    double = concat_families(round_sphere(129, 129),
                             round_sphere(129, 129))
    assert double.collapse_residual() < 1e-10
    a = transgress(flat_geom, single, [0.3]).endpoint()[0]
    b = transgress(flat_geom, double, [0.3]).endpoint()[0]
    assert abs(b - 2.0 * a) < 1e-4 * abs(2.0 * a)
    with pytest.raises(ValueError):
        concat_families(cap(0.8), round_sphere())


def test_endpoint_converges_at_simpson_order(flat_geom):
    ends = [transgress(flat_geom, round_sphere(n, n), [0.3]).endpoint()[0]
            for n in (9, 17, 33)]
    d1, d2 = abs(ends[1] - ends[0]), abs(ends[2] - ends[1])
    assert d2 < d1 / 8.0


def test_zero_horizontal_form_transgresses_to_zero():
    geom = hopf_flat_example(lambda x: 1.0)   # f' = 0
    out = transgress(geom, round_sphere(17, 17), [0.3]).endpoint()
    assert abs(out[0]) < 1e-12


def test_non_collapsing_family_is_rejected(flat_geom):
    fam = SphereFamily(lambda t, e: [t + 0.1, e - 0.4], n_t=9, n_eps=9)
    with pytest.raises(ValueError):
        transgress(flat_geom, fam, [0.3])


def test_flat_oracle_requires_flat_transport(flat_geom):
    geom = curved_model()
    with pytest.raises(ValueError):
        transgress_flat(geom, round_sphere(9, 9), [0.3])
    assert transgress_flat(flat_geom, round_sphere(9, 9), [0.3])


def scalar_transgress_flat(geom, family, x0):
    """Dual reference for the flat oracle: the gradient in x of the
    per-node surface integral `signed_area` of ω_H at (p, x)."""
    space, omega = geom.space, geom.omega_h
    return dm.gradient(lambda x: family.signed_area(
        lambda p, vt, ve: omega.value(space.join(p, x), [vt, ve])),
        list(x0))


def oracle_families(n):
    """The families of the flat-oracle scenario, with a concatenation, at
    n × n nodes."""
    half = (n + 1) // 2
    return [round_sphere(n, n), cap(0.8, n, n), cap(math.pi / 2, n, n),
            cap(math.pi / 3, n, n), cap(2.1, n, n),
            concat_families(round_sphere(n, half), round_sphere(n, half))]


@pytest.mark.parametrize("fam", oracle_families(17), ids=lambda f: f.name)
def test_surface_oracles_match_the_scalar_dual_route(fam):
    assert (fam.n_t, fam.n_eps) == (17, 17)
    b, (vt, ve) = monodromy._surface_nodes(fam)
    area = monodromy._surface_integral(fam, round_density(b, vt, ve))
    assert type(area) is float
    assert area == pytest.approx(fam.signed_area(round_density),
                                 rel=1e-13, abs=0.0)
    for f in (lambda x: 2.0 * x + 1.0, lambda x: dm.exp(x),
              lambda x: dm.sin(3.0 * x) * x):
        geom = hopf_flat_example(f)
        got = transgress_flat(geom, fam, [0.3])
        assert all(type(c) is float for c in got)
        assert got == pytest.approx(scalar_transgress_flat(geom, fam, [0.3]),
                                    rel=1e-13, abs=0.0)


@pytest.mark.parametrize("fam", [
    round_sphere(65, 65), cap(math.pi / 3, 65, 65), cap(math.pi / 2, 65, 65),
    cap(2.1, 65, 65),
    concat_families(round_sphere(33, 33), round_sphere(33, 33))],
    ids=lambda f: f.name)
def test_complex_step_nodes_match_the_dual_partials(fam):
    # on a 9 × 9 subgrid, each node's (γ, ∂_t γ, ∂_ε γ) against the
    # scalar Dual route, relative to the node's largest entry
    b, (vt, ve) = monodromy._surface_nodes(fam)
    for k in range(0, fam.n_t, (fam.n_t - 1) // 8):
        for j in range(0, fam.n_eps, (fam.n_eps - 1) // 8):
            t, e = k / (fam.n_t - 1), j / (fam.n_eps - 1)
            for got, want in zip((b, vt, ve), (fam.point(t, e),
                                               fam.d_t(t, e),
                                               fam.d_eps(t, e))):
                got = [np.broadcast_to(c, (fam.n_t, fam.n_eps))[k, j]
                       for c in got]
                err = max(abs(g - w) for g, w in zip(got, want))
                assert err <= 1e-13 * max(abs(w) for w in want), (k, j)


def test_flat_oracle_constructs_no_dual(monkeypatch):
    # the oracle must not share the derivative engine of the route it
    # checks; the same counter sees the Duals that `transgress` builds
    geom = hopf_flat_example(lambda x: 2.0 * x + 1.0)
    families = oracle_families(65)[:5]
    made = []
    init = dm.Dual.__init__

    def counted(self, *args):
        made.append(1)
        init(self, *args)

    monkeypatch.setattr(dm.Dual, "__init__", counted)
    for fam in families:
        transgress_flat(geom, fam, [0.3])
    assert made == []
    transgress(geom, families[0], [0.3])
    assert made


def test_flat_oracle_is_nan_where_the_real_integrand_fails():
    # Im log(−0.3 + ih)/h is π/h, a finite number; the real primal log(−0.3)
    # is NaN, and so must the oracle be
    geom = hopf_flat_example(lambda x: dm.log(x))
    with np.errstate(invalid="ignore"):
        (got,) = transgress_flat(geom, round_sphere(17, 17), [-0.3])
    assert math.isnan(got)
    (fine,) = transgress_flat(geom, round_sphere(17, 17), [0.3])
    assert math.isfinite(fine)


def curved_model(strength=(0.6, -0.4), bound=8.0):
    base = CoordinateDomain.sphere()
    fiber = CoordinateDomain.box([(-bound, bound)], name="line")
    space = FiberedSpace(base, fiber)

    def coeff(b, x):
        g = 1.0 / (1.0 + b[0] * b[0] + b[1] * b[1])
        return [[strength[0] * x[0] * g, strength[1] * x[0] * g]]

    def om_comps(pt):
        r2 = pt[0] * pt[0] + pt[1] * pt[1]
        return [(2.0 * pt[2] + 1.0) * 4.0 / (1.0 + r2) ** 2]

    return GeometricData(
        space, Connection(space, coeff, name="pole-decaying"),
        VerticalBivector(space, lambda p: [], name="zero"),
        HorizontalForm(space, 2, om_comps, name="f-round"), name="curved")


def test_curved_transgression_machinery():
    geom = curved_model()
    path = transgress(geom, round_sphere(17, 17), [0.3], step=2e-3)
    # the transported base points genuinely move across slices
    xs = [c[0] for c in path.base_points]
    assert max(xs) - min(xs) > 0.05
    # recomputing the transports at a different step must reproduce γ̃
    assert path.transport_consistency(step=1e-3) < 1e-6
    assert path.endpoint()[0] != 0.0


def per_node_endpoint(geom, family, x0, step):
    """Reference transgression endpoint by the per-node algorithm: each
    ε-slice sums ω_H node by node in scalar duals, at the scalar family
    nodes and the transported fiber points."""
    space, conn, omega = geom.space, geom.connection, geom.omega_h
    w_s = simpson_weights(family.n_t)
    s_nodes = [k / (family.n_t - 1) for k in range(family.n_t)]
    eps_grid = [j / (family.n_eps - 1) for j in range(family.n_eps)]
    y0 = parallel_transport(conn, family.eps_slice(0.0), list(x0), 0.0, 1.0,
                            step=step)
    covectors = []
    for eps in eps_grid:
        sl = family.eps_slice(eps)
        x_tilde = parallel_transport(conn, sl, y0, 1.0, 0.0, step=step)

        def s_integral(x):
            states = transport_samples(conn, sl, x, s_nodes, step=step)
            acc = 0.0
            for wk, s, xk in zip(w_s, s_nodes, states):
                vectors = [family.d_t(s, eps), family.d_eps(s, eps)]
                acc = acc + wk * omega.value(
                    space.join(family.point(s, eps), xk), vectors)
            return acc

        covectors.append(dm.gradient(s_integral, x_tilde))
    return VerStarPath(eps_grid, covectors, [x0] * len(eps_grid)).endpoint()


def test_curved_transgression_matches_the_per_node_reference():
    geom, fam = curved_model(), round_sphere(9, 9)
    got = transgress(geom, fam, [0.3], step=1e-2).endpoint()
    want = per_node_endpoint(geom, fam, [0.3], step=1e-2)
    assert abs(want[0]) > 1e-3
    assert all(type(c) is float for c in got)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_flat_lattice_evaluates_the_form_once_per_slice_and_channel(
        monkeypatch):
    calls = {"value": 0, "rk4": 0}
    value, rk4_step = HorizontalForm.value, _numerics.rk4_step

    def counted_value(self, point, base_vectors):
        calls["value"] += 1
        return value(self, point, base_vectors)

    def counted_rk4_step(*args):
        calls["rk4"] += 1
        return rk4_step(*args)

    monkeypatch.setattr(HorizontalForm, "value", counted_value)
    monkeypatch.setattr(_numerics, "rk4_step", counted_rk4_step)
    radii, grid = (0.5, 1.0), (8, 8)
    so3_lattice(lambda r: 2.0 * r + 1.0, radii=radii, grid=grid)
    n_fiber = 3
    # one array pass over the whole (radius, s, ε) grid of the one ε-block
    # per gradient channel, not one per radius, ε-slice or node
    assert calls["value"] == n_fiber
    assert calls["rk4"] == 0


LATTICE_FS = {"linear": lambda r: 2.0 * r + 1.0,
              "quadratic": lambda r: r * r - 0.4 * r + 0.3,
              "irrational": lambda r: math.pi * r + 0.7}


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("f", LATTICE_FS.values(), ids=LATTICE_FS.keys())
def test_one_pass_lattice_is_the_per_radius_route_to_the_bit(f, n):
    # the 129 × 129 nodes of n = 128 run in three ε-blocks
    radii = (0.3, 0.0, 1.2, 0.5, 2.2)
    report = so3_lattice(f, radii=radii, grid=(n, n))
    assert report.radii == [0.3, 1.2, 0.5, 2.2]
    assert hexes(report.radial_components) == \
        hexes(per_radius_lattice(f, radii, (n, n)))


@pytest.mark.parametrize("f", LATTICE_FS.values(), ids=LATTICE_FS.keys())
def test_one_pass_lattice_in_small_blocks_is_the_per_radius_route(
        monkeypatch, f):
    # 40 nodes per block split the 9 × 9 grid into ε-blocks of 4, 4 and 1
    monkeypatch.setattr(monodromy, "BLOCK_NODES", 40)
    radii = (0.5, 1.0, 1.5)
    assert hexes(so3_lattice(f, radii=radii, grid=(8, 8)).radial_components) \
        == hexes(per_radius_lattice(f, radii, (8, 8)))


def test_a_radius_whose_generator_is_nan_leaves_the_others_alone(capfd):
    # log(r − 1) is NaN at r = 0.5 only; the stacked radii must neither
    # raise a math domain error nor move the other radii's bits
    f, radii = (lambda r: dm.log(r - 1.0)), (1.5, 0.5, 2.5)
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("error")
        got = so3_lattice(f, radii=radii, grid=(16, 16)).radial_components
        want = per_radius_lattice(f, radii, (16, 16))
    assert math.isnan(got[1]) and math.isnan(want[1])
    assert all(math.isfinite(c) for c in got[::2])
    assert hexes(got[::2]) == hexes(want[::2])
    assert capfd.readouterr().err == ""


def test_the_lattice_evaluates_the_family_once_for_all_radii(monkeypatch):
    # one collapse probe per lattice (the base point and four edges) and
    # one `_grid_nodes` per ε-block (three calls of fn), for any number
    # of radii
    counts = {"fn": 0, "probe": 0}
    make, probe = monodromy.round_sphere, SphereFamily.collapse_residual

    def counted_round_sphere(n_t, n_eps):
        family = make(n_t, n_eps)
        fn = family.fn

        def counted(t, eps):
            counts["fn"] += 1
            return fn(t, eps)

        family.fn = counted
        return family

    def counted_probe(self):
        counts["probe"] += 1
        return probe(self)

    monkeypatch.setattr(monodromy, "round_sphere", counted_round_sphere)
    monkeypatch.setattr(SphereFamily, "collapse_residual", counted_probe)
    seen = []
    for radii in ((0.5,), (0.3, 0.5, 1.0, 1.5, 2.2)):
        counts.update(fn=0, probe=0)
        so3_lattice(lambda r: 2.0 * r + 1.0, radii=radii, grid=(16, 16))
        seen.append(dict(counts))
    assert seen == [{"fn": 8, "probe": 1}] * 2


@pytest.mark.parametrize("radii", [(-1.0, 0.5, 1.0), (4.0, 5.0), (0.5, 3.2)],
                         ids=["negative", "off-chart", "one-off-chart"])
def test_the_lattice_refuses_a_radius_it_cannot_use(radii):
    # a negative radius was dropped, and one whose sample point
    # r·(0.6, 0, 0.8) leaves the fiber box |x_i| ≤ 2.5 was transgressed
    def f(r):
        raise AssertionError("a refused radius reached the transgression")

    with pytest.raises(ValueError, match="radius"):
        so3_lattice(f, radii=radii, grid=(8, 8))


def test_a_radius_on_the_fiber_chart_edge_is_used():
    # 3.125 · 0.8 = 2.5 lies on a face of the fiber box
    assert monodromy.lattice_point(3.125)[2] == 2.5
    assert monodromy.LATTICE_FIBER.contains(monodromy.lattice_point(3.125))
    with pytest.raises(ValueError):
        monodromy.lattice_point(3.125 + 1e-6)
    f = LATTICE_FS["linear"]
    report = so3_lattice(f, radii=(0.5, 3.125), grid=(16, 16))
    assert report.radii == [0.5, 3.125]
    assert hexes(report.radial_components) == \
        hexes(per_radius_lattice(f, (0.5, 3.125), (16, 16)))


def test_curved_rk4_work_does_not_grow_with_the_slice_count(monkeypatch):
    # every ε-slice rides in the same array-state integration, so doubling
    # the slices must not add a single RK4 step
    steps = []
    rk4_step = _numerics.rk4_step

    def counted_rk4_step(*args):
        steps[-1] += 1
        return rk4_step(*args)

    monkeypatch.setattr(_numerics, "rk4_step", counted_rk4_step)
    for fam in (round_sphere(9, 9), round_sphere(9, 17)):
        steps.append(0)
        transgress(curved_model(), fam, [0.3], step=1e-2)
    assert steps[0] == steps[1] > 0


@pytest.mark.parametrize("geom", [curved_model(), hopf_flat_example(
    lambda x: 2.0 * x + 1.0)], ids=["curved", "flat"])
def test_blocks_of_slices_match_the_reference(monkeypatch, geom):
    # 40 nodes per block split the 9 × 9 grid into ε-blocks of 4, 4 and 1
    monkeypatch.setattr(monodromy, "BLOCK_NODES", 40)
    fam = round_sphere(9, 9)
    got = transgress(geom, fam, [0.3], step=1e-2)
    want = per_node_endpoint(geom, fam, [0.3], step=1e-2)
    assert len(got.covectors) == len(got.base_points) == 9
    assert got.endpoint() == pytest.approx(want, rel=1e-12, abs=0.0)


def test_stacked_state_never_reaches_parallel_transport(monkeypatch):
    # parallel_transport is the public per-path entry point, and tracing
    # keys its calls by float(x0); stacked ε-slice state takes the private
    # integrator instead
    starts = []
    original = monodromy.parallel_transport

    def checked(connection, path, x0, *args, **kwargs):
        starts.append([float(dm.value_of(c)) for c in x0])
        return original(connection, path, x0, *args, **kwargs)

    monkeypatch.setattr(monodromy, "parallel_transport", checked)
    path = transgress(curved_model(), round_sphere(9, 9), [0.3], step=1e-2)
    path.transport_consistency(step=1e-2)
    assert len(starts) == 1 + 1 + 5   # y0, then transport_consistency


def test_concat_families_on_an_eps_array_matches_scalar_evaluation():
    fam = concat_families(round_sphere(9, 9), round_sphere(9, 9))
    t = np.linspace(0.0, 1.0, 7)[:, None]
    eps = np.linspace(0.0, 1.0, 13)
    got = [fam.fn(t, eps),
           dm.tangent(fam.fn(dm.Dual(t, 1.0), eps)),
           dm.tangent(fam.fn(t, dm.Dual(eps, 1.0)))]
    for k, tk in enumerate(t[:, 0]):
        for j, ej in enumerate(eps):
            want = [fam.point(tk, ej), fam.d_t(tk, ej), fam.d_eps(tk, ej)]
            for g, w in zip(got, want):
                assert [np.broadcast_to(c, (7, 13))[k, j] for c in g] == \
                    pytest.approx(w, rel=1e-15, abs=0.0)


def test_curved_transgression_of_a_concatenation_matches_the_reference():
    geom = curved_model()
    fam = concat_families(round_sphere(9, 9), round_sphere(9, 9))
    got = transgress(geom, fam, [0.3], step=1e-2).endpoint()
    want = per_node_endpoint(geom, fam, [0.3], step=1e-2)
    assert abs(want[0]) > 1e-3
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("component", [
    lambda p: [dm.log(p[0]) * p[2]],     # NaN in value and tangent
    lambda p: [dm.log(p[0]) + p[2]],     # NaN value, finite tangent
], ids=["product", "sum"])
def test_nan_in_an_array_evaluation_reaches_the_endpoint(component):
    # log of the first base coordinate, which is negative on part of the
    # round sphere: numpy returns NaN there where math would raise
    space = FiberedSpace(CoordinateDomain.sphere(),
                         CoordinateDomain.box([(-2.0, 2.0)], name="line"))
    geom = GeometricData(space, FlatConnection(space),
                         VerticalBivector(space, lambda p: [], name="zero"),
                         HorizontalForm(space, 2, component, name="log-b1"))
    fam = round_sphere(9, 9)
    assert min(fam.point(0.5, e / 8)[0] for e in range(9)) < 0.0
    with np.errstate(invalid="ignore"):
        end = transgress(geom, fam, [0.3]).endpoint()
    assert math.isnan(end[0])
    assert math.isnan(worst(abs(c) for c in end))


def test_curved_transgression_escape_propagates():
    geom = curved_model(strength=(8.0, -6.0), bound=0.45)
    with pytest.raises(IncompleteTransportError) as info:
        transgress(geom, round_sphere(17, 17), [0.4], step=2e-3)
    # the escape happens in the stacked transport of all ε-slices, and
    # still names one slice's point in Python floats
    err = info.value
    assert math.isfinite(err.t_escape) and 0.0 <= err.t_escape <= 1.0
    assert err.point and all(type(c) is float for c in err.point)
    assert not geom.space.fiber.contains(err.point)


def test_ver_star_path_endpoint_is_simpson():
    n = 9
    grid = [k / (n - 1) for k in range(n)]
    covs = [[e * e] for e in grid]           # ∫₀¹ ε² dε = 1/3
    path = VerStarPath(grid, covs, [[0.0, 0.0]] * n)
    assert path.endpoint()[0] == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_lattice_model_is_a_coupling():
    geom = lattice_model_data(lambda r: 2.0 * r + 1.0)
    assert check_coupling_conditions(geom, count=32)["max"] < 1e-8


def test_lattice_generator_for_linear_slope():
    report = so3_lattice(lambda r: 2.0 * r + 1.0,
                         radii=(0.5, 1.0, 1.5, 0.0), grid=(64, 64))
    for comp in report.radial_components:
        assert abs(comp - 8.0 * math.pi) / (8.0 * math.pi) < 1e-4
    assert report.is_constant
    assert report.has_degenerate_origin
    assert report.origin_pi < 1e-8
    assert report.mean_radial() == pytest.approx(8.0 * math.pi, rel=1e-4)


def test_lattice_requires_a_positive_radius():
    with pytest.raises(ValueError):
        so3_lattice(lambda r: r, radii=(0.0,))


def test_verdicts_on_the_three_model_slopes():
    linear = so3_lattice(lambda r: 2.0 * r + 1.0, radii=(0.5, 1.0, 1.5),
                         grid=(32, 32))
    assert integrability_verdict(linear, exact_slope=2) == \
        "INTEGRABLE-CANDIDATE"
    assert integrability_verdict(linear, exact_slope="2") == \
        "INTEGRABLE-CANDIDATE"
    assert integrability_verdict(linear) == "INCONCLUSIVE"

    quadratic = so3_lattice(lambda r: r * r, radii=(0.5, 1.0, 1.5),
                            grid=(32, 32))
    assert integrability_verdict(quadratic) == "NON-INTEGRABLE"

    irrational = so3_lattice(lambda r: math.pi * r, radii=(0.5, 1.0, 1.5),
                             grid=(32, 32))
    assert integrability_verdict(irrational) == "INCONCLUSIVE"


@pytest.mark.parametrize("radii", [(0.5, 1.5), (0.5,)], ids=["two", "one"])
def test_a_generator_that_is_not_finite_is_inconclusive(radii):
    # log(r − 1) is NaN at r = 0.5: neither constancy nor a slope can be
    # read off it, with or without a second radius
    with np.errstate(invalid="ignore"):
        report = so3_lattice(lambda r: dm.log(r - 1.0), radii=radii,
                             grid=(16, 16))
    assert math.isnan(report.radial_components[0])
    assert not report.is_constant
    assert integrability_verdict(report) == "INCONCLUSIVE"
    assert integrability_verdict(report, exact_slope=2) == "INCONCLUSIVE"


@pytest.mark.parametrize("f", [lambda r: 2.0 * r + 1.0, lambda r: r * r],
                         ids=["linear", "quadratic"])
def test_a_deviation_equal_to_the_tolerance_is_not_constant(f):
    # constancy is deviation < tolerance, the rule the CLI's
    # generator_constancy check scores it by
    report = so3_lattice(f, radii=(0.5, 1.5), grid=(16, 16))
    again = so3_lattice(f, radii=(0.5, 1.5), grid=(16, 16),
                        constancy_tol=report.relative_deviation)
    assert again.relative_deviation == report.relative_deviation
    assert not again.is_constant


def test_rationality_is_exact_input_only():
    report = so3_lattice(lambda r: 2.0 * r + 1.0, radii=(0.5, 1.0),
                         grid=(32, 32))
    with pytest.raises(TypeError):
        integrability_verdict(report, exact_slope=2.0)
    with pytest.raises(TypeError):
        integrability_verdict(report, exact_slope=True)
    with pytest.raises(TypeError):
        integrability_verdict(report, exact_slope="1e400")
    assert integrability_verdict(report, exact_slope=Fraction(2, 1)) == \
        "INTEGRABLE-CANDIDATE"


def test_contradicted_slope_claim_raises():
    report = so3_lattice(lambda r: 2.0 * r + 1.0, radii=(0.5, 1.0),
                         grid=(32, 32))
    with pytest.raises(ValueError):
        integrability_verdict(report, exact_slope="1/3")
