"""Pair-groupoid algebra, multiplicative two-forms, and the integrated
coupling data on product models."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fiberdirac import dual as dm
from fiberdirac import fields
from fiberdirac._numerics import (bilinear, intersection_dimension,
                                  lstsq_residual, matvec, nullspace,
                                  sample_unit_cube, stacked_matrix, unstack,
                                  worst)
from fiberdirac.charts import CoordinateDomain
from fiberdirac.cli import KINDS, _groupoid_instance
from fiberdirac.coupling import GeometricData, frame_rows
from fiberdirac.fibration import (Connection, FiberedSpace, FlatConnection,
                                  HorizontalForm, VerticalBivector)
from fiberdirac.groupoid import (PairForm, PairGroupoid, _box_points,
                                 coupling_form, integrated_data_check,
                                 multiplicativity_residual, pair_form,
                                 presymplectic_nondegeneracy,
                                 source_target_orthogonality)
from reference import fiber_intersection_dim

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


class SwappedInverse(PairGroupoid):
    """A broken model: the inverse of (y, x) is (x, x), composable with it
    but not its inverse."""

    def inverse(self, arrow):
        return self.source(arrow) + self.source(arrow)


def test_a_wrong_inverse_breaks_the_axioms():
    assert SwappedInverse(3).axioms_residual() > 1e-3


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


def test_a_form_undefined_at_one_sampled_pair_is_not_multiplicative():
    # ω is NaN at the middle point y of the sixth of the twelve sampled
    # pairs (samples 7k + 1 are the middles) and 1 everywhere else
    y0 = _box_points(7 * 12, 2)[0][7 * 5 + 1]
    undefined = pair_form(fields.two_form(
        2, lambda p: [np.where(p[0] == y0, np.nan, 1.0)], name="nan-once"))
    assert math.isnan(multiplicativity_residual(undefined.value, 2))
    assert multiplicativity_residual(pair_form(symplectic_plane()).value,
                                     2) < 1e-12


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


def rank_two_form():
    return fields.two_form(
        4, lambda p: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], name="rank-two")


def test_nondegeneracy_flags_degenerate_forms():
    zero = presymplectic_nondegeneracy(symplectic_plane(comps=(0.0,)))
    assert zero["base_kernel_dim"] == 2 and zero["verdict"] == "FAIL"

    report = presymplectic_nondegeneracy(rank_two_form())
    assert report["base_kernel_dim"] == 2 and report["verdict"] == "FAIL"


def per_unit_kernel_dims(omega):
    """The two kernel dimensions of `presymplectic_nondegeneracy` by the
    loop over the eight sampled units, one `nullspace` call per matrix."""
    d = omega.dim
    form = PairForm(omega)
    ds_dt = ([[0.0] * d + dm.unit(d, i) for i in range(d)]
             + [dm.unit(d, i) + [0.0] * d for i in range(d)])
    triple_dim = base_dim = 0
    for x in unstack(_box_points(8, d), 8):
        stacked = [list(r) for r in form.matrix(x + x)] + ds_dt
        triple_dim = max(triple_dim, len(nullspace(stacked)))
        base_dim = max(base_dim, len(nullspace(form.base_matrix(x))))
    return triple_dim, base_dim


@pytest.mark.parametrize("omega", [symplectic_plane(),
                                   symplectic_plane(comps=(0.0,)),
                                   rank_two_form()],
                         ids=["full-rank", "zero", "rank-two"])
def test_stacked_kernels_are_the_per_unit_loop(omega):
    report = presymplectic_nondegeneracy(omega)
    assert (report["triple_kernel_dim"], report["base_kernel_dim"]) == \
        per_unit_kernel_dims(omega)


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


#: the CLI's tolerance for each entry of the integrated-data report: the
#: fixed threshold of the intersection dimension, and the declared defaults
CLI_TOLERANCES = {"fiber_nondegeneracy_dim": 0.5} | {
    key: KINDS["groupoid-check"].tolerances[key]
    for key in ("horizontal_identity", "hor_projection",
                "hor_vertical_orthogonality")}


@pytest.mark.parametrize("twist", [False, True], ids=["split", "twisted"])
def test_integrated_data_check_passes_on_products(twist):
    geom = product_geometry(twist)
    report = integrated_data_check(geom)
    assert report.keys() == CLI_TOLERANCES.keys()
    assert all(report[key] < tol for key, tol in CLI_TOLERANCES.items())
    assert report["fiber_nondegeneracy_dim"] == 0
    assert report["horizontal_identity"] < 1e-12
    assert report["hor_projection"] == 0.0
    assert report["hor_vertical_orthogonality"] < 1e-12


def test_invariant_lifts_are_coupling_orthogonal():
    geom = product_geometry(twist=True)
    form = pair_form(coupling_form(geom))
    assert source_target_orthogonality(geom, form) < 1e-15


def once_at_sample(count, seed, index, value, elsewhere):
    """A component equal to `value` at sample `index` of the first base
    coordinate of `sample_points(count, seed)` on the product geometry,
    and to `elsewhere` at every other sample."""
    b0 = product_geometry().sample_points(count, seed=seed)[0][index]
    return lambda p: [np.where(dm.value_of(p[0]) == b0, value, elsewhere)]


def test_a_vertical_structure_undefined_at_one_sample_is_rejected():
    # |det| < 1e-10 is False for a NaN determinant, and `>=` is too: the
    # check names π_V instead of letting the NaN reach the coupling form
    geom = product_geometry(twist=True)
    geom.pi_v = VerticalBivector(geom.space,
                                 once_at_sample(12, 0, 5, np.nan, 2.0),
                                 name="nan-once")
    with pytest.raises(ValueError, match="invertible π_V"):
        integrated_data_check(geom)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_coupling_form_undefined_at_one_arrow_is_rejected(value):
    # an infinite entry gives NaN singular values, rank 0 and an
    # intersection of dimension 0: it must never read as nondegenerate
    geom = product_geometry(twist=True)
    geom.omega_h = HorizontalForm(geom.space, 2,
                                  once_at_sample(12, 0, 5, value, 1.5),
                                  name="undefined-once")
    with pytest.raises(ValueError, match="coupling form is not finite"):
        integrated_data_check(geom)


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
    c = unstack(space2.sample(12), 12)[5][1]
    once = GeometricData(
        space2, FlatConnection(space2),
        VerticalBivector(space2, lambda p: [p[1] - c], name="vanishes-once"),
        HorizontalForm(space2, 2, lambda p: [], name="none"), name="once")
    with pytest.raises(ValueError):
        integrated_data_check(once)


# -- the per-arrow loops, kept as references for the sample-axis route ----------------

def per_arrow_axioms(gpd, count, seed):
    """`PairGroupoid.axioms_residual` by the loop over sampled triples."""
    pts = unstack(_box_points(4 * count, gpd.dim, seed=seed), 4 * count)

    def identities(w, z, y, x):
        g, h, f = z + y, y + x, w + z
        gh = gpd.multiply(g, h)
        yield gpd.source(gh), gpd.source(h)
        yield gpd.target(gh), gpd.target(g)
        yield (gpd.multiply(gpd.multiply(f, g), h),
               gpd.multiply(f, gpd.multiply(g, h)))
        yield gpd.multiply(h, gpd.unit(x)), h
        yield gpd.multiply(gpd.unit(y), h), h
        yield gpd.multiply(h, gpd.inverse(h)), gpd.unit(y)

    return worst(abs(a - b) for k in range(count)
                 for lhs, rhs in identities(*pts[4 * k:4 * k + 4])
                 for a, b in zip(lhs, rhs))


def per_arrow_multiplicativity(arrow_form, dim, seed):
    """`multiplicativity_residual` by the loop over the twelve pairs."""
    pts = unstack(_box_points(7 * 12, dim, seed=seed), 7 * 12)

    def defect(z, y, x, dz, dy, dx, extra):
        second, first, composed = z + y, y + x, z + x
        u2, u1, u12 = dz + dy, dy + dx, dz + dx
        v2, v1, v12 = extra + dx, dx + dz, extra + dz
        lhs = arrow_form(composed, u12, v12)
        rhs = (arrow_form(second, u2, v2)
               + arrow_form(first, u1, v1))
        return abs(dm.value_of(lhs) - dm.value_of(rhs))

    return worst(defect(*pts[7 * k:7 * k + 7]) for k in range(12))


def per_arrow_fiber_nondegeneracy(geom, count, seed):
    """Part (a) of `integrated_data_check` by the loop over the sampled
    arrows: one `intersection_dimension` call per arrow."""
    space = geom.space
    nb, nf, dim = space.n_base, space.n_fiber, space.dim
    pts = unstack(geom.sample_points(2 * count, seed=seed), 2 * count)
    form = PairForm(coupling_form(geom))
    two_d = 2 * dim
    zero = [0.0] * two_d
    w_rows = []
    for blk in (0, 1):
        w_rows += [dm.unit(two_d, blk * dim + nb + i) + zero
                   for i in range(nf)]
        w_rows += [zero + dm.unit(two_d, blk * dim + i) for i in range(nb)]
    return max(intersection_dimension(
        [dm.unit(two_d, i) + list(row)
         for i, row in enumerate(form.matrix(pts[2 * k] + pts[2 * k + 1]))],
        w_rows) for k in range(count))


def per_arrow_integrated_data(geom, count, seed):
    """Parts (b) and (c) of `integrated_data_check` by the loop over the
    sampled arrows."""
    space = geom.space
    nb, nf, dim = space.n_base, space.n_fiber, space.dim
    pts = unstack(geom.sample_points(2 * count, seed=seed), 2 * count)
    form = PairForm(coupling_form(geom))
    vecs = unstack(sample_unit_cube(4 * count, nb, seed=seed + 1), 4 * count)
    identity_defects, proj_defects, orth_defects = [], [], []
    two_d = 2 * dim
    ver = [[dm.unit(two_d, blk * dim + nb + i) for i in range(nf)]
           for blk in (0, 1)]
    for k in range(count):
        y, x = list(pts[2 * k]), list(pts[2 * k + 1])
        mat = form.matrix(y + x)
        v1, w1, v2, w2 = ([2.0 * c - 1.0 for c in vecs[4 * k + m]]
                          for m in range(4))
        a_y = geom.conn_matrix(y)
        a_x = geom.conn_matrix(x)

        def hor(v, w):
            return (list(v) + matvec(a_y, v)
                    + list(w) + matvec(a_x, w))

        h1 = hor(v1, w1)
        h2 = hor(v2, w2)
        lhs = bilinear(mat, h1, h2)
        rhs = (geom.omega_h.value(y, [v1, v2])
               - geom.omega_h.value(x, [w1, w2]))
        identity_defects.append(abs(dm.value_of(lhs) - dm.value_of(rhs)))
        proj = h1[:nb] + h1[dim:dim + nb]
        wanted = list(v1) + list(w1)
        proj_defects += [abs(a - b) for a, b in zip(proj, wanted)]
        orth_defects += [abs(dm.value_of(bilinear(mat, h1, v)))
                         for block in ver for v in block]
    return {"horizontal_identity": worst(identity_defects),
            "hor_projection": worst(proj_defects),
            "hor_vertical_orthogonality": worst(orth_defects)}


@pytest.mark.parametrize("twist", [False, True], ids=["split", "twisted"])
@pytest.mark.parametrize("seed", range(5))
def test_sample_axis_matches_the_per_arrow_loop_to_the_bit(twist, seed):
    # the strided sample arrays run, entry by entry, the IEEE operations
    # of the loop over arrows
    geom = product_geometry(twist)
    dim = geom.space.dim
    form = pair_form(coupling_form(geom))
    gpd = PairGroupoid(dim)
    assert gpd.axioms_residual(seed=seed).hex() == \
        per_arrow_axioms(gpd, 8, seed).hex()
    assert multiplicativity_residual(form.value, dim, seed=seed).hex() == \
        per_arrow_multiplicativity(form.value, dim, seed).hex()
    report = integrated_data_check(geom, seed=seed)
    want = per_arrow_integrated_data(geom, 6, seed)
    assert {key: report[key].hex() for key in want} == \
        {key: value.hex() for key, value in want.items()}
    assert report["fiber_nondegeneracy_dim"] == \
        per_arrow_fiber_nondegeneracy(geom, 6, seed) == 0


@pytest.mark.parametrize("count,seed", [(1, 0), (6, 2), (9, 4)])
def test_stacked_intersection_is_the_per_arrow_loop(count, seed):
    # π_V = 10¹² makes the fiber block of Ω 10⁻¹², so its graph is within
    # about 10⁻¹² of the vertical vectors and the intersection is not
    # trivial; the stack counts what the loop over arrows counts
    geom = product_geometry(twist=True)
    geom.pi_v = VerticalBivector(geom.space, lambda p: [1e12], name="huge")
    report = integrated_data_check(geom, count=count, seed=seed)
    want = per_arrow_fiber_nondegeneracy(geom, count, seed)
    assert report["fiber_nondegeneracy_dim"] == want > 0
    assert type(report["fiber_nondegeneracy_dim"]) is int


@pytest.mark.parametrize("pi", [1e9, 1e12, 1e15])
def test_a_huge_fiber_bivector_counts_every_vertical_direction(pi):
    # Ω's fiber block is 1/π_V, so each of the 2·n_fiber vertical
    # directions of an arrow lies within about 1/π_V of Ver_G ⊕ Ver_G⁰,
    # below the threshold for all three: the count is 4 on each.  Counted
    # by arccos of the cosines, the intersection read 1, 2 and 1
    geom = product_geometry(twist=True)
    geom.pi_v = VerticalBivector(geom.space, lambda p: [pi], name="huge")
    for count, seed in ((1, 0), (6, 2)):
        report = integrated_data_check(geom, count=count, seed=seed)
        assert report["fiber_nondegeneracy_dim"] == 4


def random_triple(nb, nf, log_scale, kappa, coeffs, slope, cross, om):
    """A triple on [−1, 1]^nb × [−1, 1]^nf for the property test: π_V of
    size 10^log_scale times 1 + κ·x₀ (x₀ the first fiber coordinate),
    with the cross terms `cross` on a four-dimensional fiber (its
    Pfaffian stays above 0.8); A = coeffs + slope·x₀; ω_H constant."""
    space = FiberedSpace(CoordinateDomain.box([(-1.0, 1.0)] * nb),
                         CoordinateDomain.box([(-1.0, 1.0)] * nf))
    scale = 10.0 ** log_scale

    def pi(p):
        s = scale * (1.0 + kappa * p[nb])
        return [s] if nf == 2 else [s] + [s * c for c in cross] + [s]

    conn = Connection(space, lambda b, x: [[c + slope * x[0] for c in row]
                                           for row in coeffs])
    om_h = HorizontalForm(space, 2, lambda p: [om] * (nb * (nb - 1) // 2))
    return GeometricData(space, conn, VerticalBivector(space, pi), om_h)


@st.composite
def triple_params(draw):
    nb = draw(st.integers(1, 3))
    nf = draw(st.sampled_from([2, 4]))
    unit = st.floats(-1.0, 1.0)
    return {"nb": nb, "nf": nf,
            "log_scale": draw(st.floats(-2.0, 15.0)),
            "kappa": draw(st.just(0.0) | st.floats(-0.25, 0.25)),
            "coeffs": draw(st.lists(st.lists(unit, min_size=nb, max_size=nb),
                                    min_size=nf, max_size=nf)),
            "slope": draw(st.just(0.0) | st.floats(-0.5, 0.5)),
            "cross": draw(st.lists(st.floats(-0.3, 0.3),
                                   min_size=4, max_size=4)),
            "om": draw(st.floats(-2.0, 2.0))}


def twisted_with_pi(log_scale):
    """`product_geometry(twist=True)`'s parameters with π_V = 10^log_scale."""
    return {"nb": 2, "nf": 2, "log_scale": log_scale, "kappa": 0.0,
            "coeffs": [[0.3, -0.1], [0.2, 0.4]], "slope": 0.0,
            "cross": [0.0] * 4, "om": 1.5}


@given(triple_params(), st.integers(1, 8), st.integers(0, 100))
@example(twisted_with_pi(9.0), 6, 2)
@example(twisted_with_pi(12.0), 6, 2)
@example(twisted_with_pi(15.0), 6, 2)
@settings(max_examples=100, deadline=None)
def test_fiber_kernel_is_the_subspace_intersection(params, count, seed):
    # dim(graph(Ω) ∩ (Ver_G ⊕ Ver_G⁰)) is the nullity of Ω's vertical
    # block: the check's one SVD counts what the intersection in T ⊕ T*
    # counts, from 0 through every vertical direction (π_V = 1e9, 1e12
    # and 1e15 read 4 on both routes)
    geom = random_triple(**params)
    report = integrated_data_check(geom, count=count, seed=seed)
    assert report["fiber_nondegeneracy_dim"] == \
        fiber_intersection_dim(geom, count, seed)


@pytest.mark.parametrize("instance", ["split-product", "twisted-product"])
def test_the_coupling_form_integrates_the_structure_of_minus_pi(instance):
    # the graph rows e_i ‖ Ω(e_i, ·) of ω_H ⊕ π_V⁻¹ span the Dirac frame of
    # (−π_V, Γ, ω_H), and lie far from the frame of (π_V, Γ, ω_H): the
    # fiber block π_V⁻¹ integrates the coupling structure of −π_V
    geom = _groupoid_instance(instance)
    pt = geom.sample_points(8, seed=0)
    n = geom.space.dim
    omega = stacked_matrix(fields.antisym_matrix(coupling_form(geom), pt),
                           pt[0])
    graph = np.concatenate([np.broadcast_to(np.eye(n), omega.shape), omega],
                           axis=-1)

    def distance(sign):
        pi_v = VerticalBivector(
            geom.space, lambda p: [sign * c for c in geom.pi_v(p)])
        frame = frame_rows(GeometricData(geom.space, geom.connection, pi_v,
                                         geom.omega_h))(pt)
        return lstsq_residual(stacked_matrix(frame, pt[0]), graph).max()

    assert distance(-1.0) < 1e-14
    assert 0.85 < distance(1.0) < 0.95
