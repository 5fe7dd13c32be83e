"""The coupling layer: pointwise frames and their isotropy, the four
structural conditions against the direct closure oracle, leaf forms, the
splitting brackets, and how many seeded passes the conditions take."""

import itertools
import math

import numpy as np
import pytest

from fiberdirac import dual as dm
from fiberdirac import fields
from fiberdirac.charts import CoordinateDomain
from fiberdirac import coupling
from fiberdirac._numerics import dot, matvec, skew_matrix, unstack, worst
from fiberdirac.coupling import (CONDITION_NAMES, SPLITTING_NAMES,
                                 GeometricData, assemble_dirac,
                                 check_coupling_conditions,
                                 dirac_closure_residual, leaf_two_form,
                                 splitting_bracket_residual)
from fiberdirac.fibration import (Connection, FiberedSpace, FlatConnection,
                                  HorizontalForm, VerticalBivector, curvature)
from fiberdirac.monodromy import lattice_model_data
from fiberdirac.yangmills import (HamiltonianFiber, PrincipalData,
                                  StructureGroupModel, hopf_example,
                                  hopf_flat_example, so3_coadjoint_example,
                                  trivial_torus_example, ymh_geometric_data)
from reference import (bivector, covariant_differential,
                       lie_derivative_bivector, per_direction_jacobian,
                       per_section_splitting, vertical_covector_bracket)

CONDITION_TOL = 1e-8
ORACLE_TOL = 1e-6


# -- instance factory ---------------------------------------------------------------
# Each entry: (name, builder, should_couple).  The broken ones each violate
# exactly one structural condition; both verification routes must agree on
# every instance.

def constant_split():
    base = CoordinateDomain.box([(-1.0, 1.0)] * 2, name="plane")
    fiber = CoordinateDomain.box([(-1.0, 1.0)] * 2, name="fiber")
    space = FiberedSpace(base, fiber)
    return GeometricData(
        space, FlatConnection(space),
        VerticalBivector(space, lambda p: [2.0], name="const-pi"),
        HorizontalForm(space, 2, lambda p: [1.5], name="const-omega"),
        name="constant-split")


def fiber_scaled_plane(broken=False):
    base = CoordinateDomain.box([(-1.0, 1.0)] * 3, name="b3")
    fiber = CoordinateDomain.box([(-1.0, 1.0)], name="line")
    space = FiberedSpace(base, fiber)
    if broken:
        comps = lambda p: [p[2], 0.0, 0.0]   # g = b₃ ⇒ dω ≠ 0
    else:
        comps = lambda p: [1.0 + 0.5 * p[3] * p[3], 0.0, 0.0]
    return GeometricData(
        space, FlatConnection(space),
        VerticalBivector(space, lambda p: [], name="zero"),
        HorizontalForm(space, 2, comps, name="g-area"),
        name="broken-closure" if broken else "fiber-scaled-plane")


def so3_fiber_transport(stretch=False):
    base = CoordinateDomain.box([(-1.0, 1.0)], name="interval")
    fiber = CoordinateDomain.box([(-2.0, 2.0)] * 3, name="so3-dual")
    space = FiberedSpace(base, fiber)
    if stretch:
        coeff = lambda b, x: [[0.5 * x[0]], [0.5 * x[1]], [0.5 * x[2]]]
    else:
        coeff = lambda b, x: [[-x[1]], [x[0]], [0.0]]   # rotation about e₃
    return GeometricData(
        space, Connection(space, coeff, name="fiber-transport"),
        VerticalBivector(space, lambda p: [-p[3], p[2], -p[1]],
                         name="so3-linear"),
        HorizontalForm(space, 2, lambda p: [], name="zero"),
        name="broken-transport" if stretch else "so3-rotation-transport")


def non_poisson_vertical():
    base = CoordinateDomain.box([(-1.0, 1.0)], name="interval")
    fiber = CoordinateDomain.box([(-2.0, 2.0)] * 3, name="threespace")
    space = FiberedSpace(base, fiber)
    return GeometricData(
        space, FlatConnection(space),
        VerticalBivector(space, lambda p: [p[3], 0.0, p[2]],
                         name="non-jacobi"),
        HorizontalForm(space, 2, lambda p: [], name="zero"),
        name="broken-vertical")


def curvature_mismatch():
    base = CoordinateDomain.box([(-1.0, 1.0)] * 2, name="plane")
    fiber = CoordinateDomain.box([(-3.0, 3.0)], name="line")
    space = FiberedSpace(base, fiber)
    return GeometricData(
        space, Connection(space, lambda b, x: [[b[1], 0.0]], name="shear"),
        VerticalBivector(space, lambda p: [], name="zero"),
        HorizontalForm(space, 2, lambda p: [1.0], name="unit-area"),
        name="broken-curvature")


def quadratic_so3_potential(b):
    """An so(3) potential on a three-dimensional base, quadratic in b, so
    its field strength varies and d_Γ ω_H has second base derivatives."""
    return [[0.3 + 0.5 * b[1] * b[2], -0.2 * b[0] * b[0], 0.4 * b[1]],
            [0.1 * b[2] * b[2], 0.6 + 0.3 * b[0] * b[2], -0.5 * b[0]],
            [0.2 * b[0] * b[1], -0.1 * b[1], 0.7 * b[1] * b[1]]]


def ymh_so3_quadratic():
    base = CoordinateDomain.box([(-1.0, 1.0)] * 3, name="b3")
    principal = PrincipalData(StructureGroupModel.rotations(), base,
                              quadratic_so3_potential, name="so3-quadratic")
    return ymh_geometric_data(principal, HamiltonianFiber.coadjoint_so3(),
                              name="ymh-so3-quadratic")


INSTANCES = [
    ("hopf-poly", lambda: hopf_example(lambda x: 2.0 * x + 1.0), True),
    ("hopf-const", lambda: hopf_example(lambda x: 1.5), True),
    ("hopf-flat", lambda: hopf_flat_example(lambda x: 2.0 * x + 1.0), True),
    ("so3-coadjoint", so3_coadjoint_example, True),
    ("trivial-torus", trivial_torus_example, True),
    ("constant-split", constant_split, True),
    ("fiber-scaled-plane", fiber_scaled_plane, True),
    ("so3-rotation-transport", so3_fiber_transport, True),
    ("lattice-model", lambda: lattice_model_data(lambda r: 2.0 * r + 1.0),
     True),
    ("ymh-so3-quadratic", ymh_so3_quadratic, True),
    ("broken-vertical", non_poisson_vertical, False),
    ("broken-transport", lambda: so3_fiber_transport(stretch=True), False),
    ("broken-closure", lambda: fiber_scaled_plane(broken=True), False),
    ("broken-curvature", curvature_mismatch, False),
]


@pytest.fixture(scope="module")
def hopf():
    return hopf_example(lambda x: 2.0 * x + 1.0)


def isotropy_residual(frame):
    """max over row pairs of |⟨row_r, row_s⟩_+| = ½|ξ_r(X_s) + ξ_s(X_r)|."""
    rows = list(zip(frame.vectors(), frame.covectors()))
    return max(0.5 * abs(dot(a, y) + dot(b, x))
               for x, a in rows for y, b in rows)


def test_frames_are_isotropic(hopf):
    for pt in unstack(hopf.sample_points(12, seed=2), 12):
        assert isotropy_residual(assemble_dirac(hopf, pt)) < 1e-12


def test_frames_are_isotropic_nonabelian():
    geom = so3_coadjoint_example()
    for pt in unstack(geom.sample_points(8, seed=5), 8):
        assert isotropy_residual(assemble_dirac(geom, pt)) < 1e-12


@pytest.mark.parametrize("name,builder,expect",
                         [(n, b, e) for n, b, e in INSTANCES],
                         ids=[n for n, _, _ in INSTANCES])
def test_conditions_and_oracle_agree(name, builder, expect):
    geom = builder()
    cond = check_coupling_conditions(geom, count=48, seed=0)
    closure = dirac_closure_residual(geom, count=10, seed=0)
    assert bool(cond["max"] < ORACLE_TOL) is expect, cond
    assert bool(closure < ORACLE_TOL) is expect, closure


def test_broken_instances_fail_the_named_condition():
    cond = check_coupling_conditions(non_poisson_vertical(), count=24)
    assert cond["vertical_poisson"] > 1e-2
    cond = check_coupling_conditions(so3_fiber_transport(stretch=True),
                                     count=24)
    assert cond["transport_invariance"] > 1e-2
    cond = check_coupling_conditions(fiber_scaled_plane(broken=True),
                                     count=24)
    assert cond["covariant_closure"] > 1e-2
    cond = check_coupling_conditions(curvature_mismatch(), count=24)
    assert cond["curvature_match"] > 1e-2


def test_vertical_schouten_reads_the_jacobiator():
    # the fiber π = x₂ ∂₀∧∂₁ + x₁ ∂₁∧∂₂ has S^{012} = x₂, which is pt[3]
    geom = non_poisson_vertical()
    for pt in ([0.2, 0.3, -0.8, 1.1], [-0.5, 1.2, 0.4, -0.7]):
        cond = check_coupling_conditions(geom, points=[pt])
        assert cond["vertical_poisson"] == pytest.approx(abs(pt[3]),
                                                         abs=1e-12)


def count_seeded_passes(monkeypatch, run, keep=None):
    """How many `dual._seeded_pass` calls `run()` makes, nested ones too;
    with `keep`, only the calls (f, point, direction) that it accepts."""
    seeded_pass = dm._seeded_pass
    calls = []

    def counted(*args):
        calls.append(args)
        return seeded_pass(*args)

    monkeypatch.setattr(dm, "_seeded_pass", counted)
    run()
    return sum(1 for c in calls if keep is None or keep(*c))


def _vertical_bracket(geom, pt):
    alpha = coupling._default_fiber_covector(geom.space, salt=0)
    beta = coupling._default_fiber_covector(geom.space, salt=1)
    return vertical_covector_bracket(geom, alpha, beta)(pt)


def _conditions(geom, pt):
    return check_coupling_conditions(geom, points=[pt])


def _schouten_passes(geom):
    # π_V along the fiber directions: all that the Schouten square reads
    nb = geom.space.n_base
    return lambda f, point, direction: (f == geom.pi_v.comps
                                        and not any(direction[:nb]))


def _transport_passes(geom):
    # π_V along every coordinate (a lift h_a moves the base too), and the
    # connection coefficient A along the fiber directions
    nb = geom.space.n_base

    def keep(f, point, direction):
        if f == geom.pi_v.comps:
            return True
        outer = not any(isinstance(x, dm.Dual) for x in point)
        return (outer and f != geom.omega_h.comps
                and not any(direction[:nb]))

    return keep


@pytest.mark.parametrize(
    "fn,keep,passes",
    [(_conditions, None, 19), (_conditions, _schouten_passes, 3),
     (_conditions, _transport_passes, 8), (_vertical_bracket, None, 15)],
    ids=["coupling_conditions", "vertical_schouten", "transport_invariance",
         "vertical_covector_bracket"])
def test_each_field_is_differentiated_once_per_direction(monkeypatch, fn,
                                                         keep, passes):
    # so(3)* has 2 base and 3 fiber directions, and one seeded pass per
    # direction gives every component of a field.  The conditions take π_V
    # along all 5 coordinates, A along 3 fiber directions and 2 lifts, and
    # ω_H along 3 fiber directions, each ω_H evaluation differentiating
    # the potential along 2 base directions: 5 + 5 + 3·3 = 19.  Of these
    # the Schouten square reads 3 and transport invariance 5 + 3 = 8.  One
    # pass per condition and lift took 34; one component per pass would
    # take 39 for the bracket.
    geom = so3_coadjoint_example()
    pt = unstack(geom.sample_points(1, seed=0), 1)[0]
    assert count_seeded_passes(monkeypatch, lambda: fn(geom, pt),
                               keep and keep(geom)) == passes


def reference_residuals(geom, pt):
    """The four residuals by one derivative route per condition, from
    general operators: the Schouten square from fiber partials of π_V,
    L_{h(e_a)} π_V by `reference.lie_derivative_bivector` on π_V embedded
    in the total space, d_Γ ω_H by `reference.covariant_differential`, and
    Curv by `fibration.curvature`."""
    space = geom.space
    nb, nf, n = space.n_base, space.n_fiber, space.dim
    basis = [[1.0 if i == a else 0.0 for i in range(nb)] for a in range(nb)]
    p = geom.pi_matrix(pt)
    poisson = transport = closure = curv = 0.0
    if nf >= 3:
        d_p = [skew_matrix(nf, dm.partial(geom.pi_v.comps, pt, nb + l))
               for l in range(nf)]

        def component(i, j, k):
            acc = 0.0
            for (r, s, t) in ((i, j, k), (j, k, i), (k, i, j)):
                for l in range(nf):
                    acc = acc + p[r][l] * d_p[l][s][t]
            return acc

        poisson = worst(abs(dm.value_of(component(*tri)))
                        for tri in itertools.combinations(range(nf), 3))
    if nf >= 2:
        where = {pair: idx for idx, pair in enumerate(geom.pi_v.pairs)}

        def embedded(q):
            vals = geom.pi_v(q)
            return [vals[where[(i - nb, j - nb)]] if i >= nb else 0.0
                    for i, j in fields.combos(n, 2)]

        piv = bivector(n, embedded)
        transport = worst(
            abs(dm.value_of(c)) for e in basis
            for c in lie_derivative_bivector(
                fields.vector_field(
                    n, lambda q, e=e: geom.connection.lift(e, q)), piv)(pt))
    if nb >= 3:
        closure = worst(abs(dm.value_of(c)) for c in covariant_differential(
            geom.connection, geom.omega_h)(pt))
    if nf:
        d_w = [dm.partial(geom.omega_h.comps, pt, nb + k) for k in range(nf)]
        curv = worst(
            abs(dm.value_of(c) - dm.value_of(r))
            for idx, (a, b) in enumerate(geom.omega_h.combos)
            for c, r in zip(curvature(geom.connection, pt, basis[a],
                                      basis[b]),
                            matvec(p, [d[idx] for d in d_w])))
    return poisson, transport, closure, curv


REFERENCE_INSTANCES = INSTANCES + [
    ("hopf-chart1", lambda: hopf_example(lambda x: 2.0 * x + 1.0, chart=1),
     True)]


@pytest.mark.parametrize("name,builder",
                         [(n, b) for n, b, _ in REFERENCE_INSTANCES],
                         ids=[n for n, _, _ in REFERENCE_INSTANCES])
def test_conditions_match_the_per_condition_route_to_the_bit(name, builder):
    # each residual reads the same tangents as the general operators do,
    # in the same arithmetic order, so the two routes agree bitwise
    geom = builder()
    for pt in unstack(geom.sample_points(8, seed=3), 8):
        cond = check_coupling_conditions(geom, points=[pt])
        got = [cond[key] for key in CONDITION_NAMES]
        want = reference_residuals(geom, pt)
        assert [float(x).hex() for x in got] == \
            [float(x).hex() for x in want], (pt, got, want)


POLYNOMIAL_INSTANCES = ("constant-split", "fiber-scaled-plane",
                        "so3-rotation-transport", "broken-vertical",
                        "broken-transport", "broken-closure",
                        "broken-curvature")


@pytest.mark.parametrize("name", POLYNOMIAL_INSTANCES)
def test_closure_oracle_takes_one_frame_jacobian_per_point(monkeypatch,
                                                           name):
    # A polynomial triple evaluates its frame without seeded passes, so the
    # oracle's only pass is one Jacobian of the whole frame, which serves
    # every sample point and every direction at once, whatever the point
    # count.  One pass per coordinate took `space.dim`; differentiating
    # each row once per bracket that holds it would take 168 passes per
    # point on broken-transport.
    geom = dict((n, b) for n, b, _ in INSTANCES)[name]()
    points = unstack(geom.sample_points(3, seed=1), 3)
    passes = count_seeded_passes(
        monkeypatch, lambda: dirac_closure_residual(geom, points=points))
    assert passes == 1


@pytest.mark.parametrize("name", POLYNOMIAL_INSTANCES)
def test_splitting_check_takes_one_jacobian_per_call(name):
    # the four sections and the two scalars the formulas differentiate are
    # one stacked field, and a polynomial triple evaluates it without
    # seeded passes: one pass along every direction, whatever the point
    # count.  One pass per coordinate took `space.dim`, and a Jacobian per
    # section and a pass per formula field took 26-46.
    geom = dict((n, b) for n, b, _ in INSTANCES)[name]()
    for count in (1, 6, 12):
        with pytest.MonkeyPatch.context() as mp:
            passes = count_seeded_passes(
                mp, lambda: splitting_bracket_residual(geom, count=count,
                                                       seed=1))
        assert passes == 1, count


def jacobian_bits(jac, shape):
    """Every entry of Jacobian rows at a point of the given shape, as bits:
    a float by its hex (and a non-float as its type), an array broadcast
    to the shape by its bytes, a Dual layer by layer."""
    def bits(x):
        if isinstance(x, dm.Dual):
            return bits(x.re), bits(x.eps)
        if not shape:
            return float(x).hex() if type(x) is float else type(x)
        return np.broadcast_to(np.asarray(x, dtype=float), shape).tobytes()

    return [[bits(x) for x in row] for row in jac]


def assert_jacobians_match_the_per_direction_route(run):
    """Every `dm.jacobian` call `run()` makes, against
    `reference.per_direction_jacobian` on the same function and point."""
    calls = []
    jacobian = dm.jacobian

    def recorded(f, point):
        out = jacobian(f, point)
        calls.append((f, point, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dm, "jacobian", recorded)
        run()
    assert calls
    for f, point, out in calls:
        shape = np.broadcast_shapes(*(np.shape(dm.value_of(x))
                                      for x in point))
        assert jacobian_bits(out, shape) == \
            jacobian_bits(per_direction_jacobian(f, point), shape)


@pytest.mark.parametrize("name,builder",
                         [(n, b) for n, b, _ in INSTANCES],
                         ids=[n for n, _, _ in INSTANCES])
def test_one_pass_jacobians_are_the_per_direction_route_to_the_bit(name,
                                                                   builder):
    # slice i of a tangent with a direction axis comes from the IEEE
    # operations of the pass seeded along coordinate i alone
    geom = builder()
    for seed in (0, 1, 2):
        assert_jacobians_match_the_per_direction_route(
            lambda: dirac_closure_residual(geom, count=16, seed=seed))
        assert_jacobians_match_the_per_direction_route(
            lambda: splitting_bracket_residual(geom, count=12, seed=seed))


def per_point_conditions(geom, points):
    """The four condition maxima by the per-point loop: one scalar call of
    `_condition_residuals` per sample point."""
    basis = [dm.unit(geom.space.n_base, a) for a in range(geom.space.n_base)]
    rows = [coupling._condition_residuals(geom, basis, pt) for pt in points]
    return [worst(r[i] for r in rows) for i in range(len(CONDITION_NAMES))]


def per_vector_distance(rows, vec):
    """The distance from vec to the span of rows, one vector at a time:
    `np.linalg.lstsq` on the matrix whose columns are the rows, then
    |a x − b| by one dot product."""
    a = np.array(rows, dtype=float).T
    b = np.array(vec, dtype=float)
    if a.size:
        b = a @ np.linalg.lstsq(a, b, rcond=None)[0] - b
    return math.sqrt(b @ b)


def courant_at(u, du, v, dv):
    """⟦(X,α),(Y,β)⟧ = ([X,Y], L_X β − L_Y α + ½ d(α(Y) − β(X))) at one
    point, from the values u = X ‖ α, v = Y ‖ β and their Jacobian rows
    du[a][j] = ∂_j u_a, dv[a][j] = ∂_j v_a, by scalar sums: each `dot` from
    0.0 and each `sum` from 0, in j order."""
    n = len(u) // 2
    x, a, y, b = u[:n], u[n:], v[:n], v[n:]
    dx, da, dy, db = du[:n], du[n:], dv[:n], dv[n:]

    def lie(x, dx, b, db, i):
        # (L_X β)_i = X^j ∂_j β_i + β_j ∂_i X^j
        return dot(db[i], x) + sum(b[j] * dx[j][i] for j in range(n))

    def d_pair(a, da, y, dy, i):
        # ∂_i α(Y) = α_j ∂_i Y^j + ∂_i α_j Y^j
        return sum(a[j] * dy[j][i] + da[j][i] * y[j] for j in range(n))

    vec = [dot(dy[i], x) - dot(dx[i], y) for i in range(n)]
    cov = [lie(x, dx, b, db, i) - lie(y, dy, a, da, i)
           + 0.5 * (d_pair(a, da, y, dy, i) - d_pair(b, db, x, dx, i))
           for i in range(n)]
    return vec + cov


def per_pair_courant_bracket(s1, s2):
    """⟦s1, s2⟧ by the scalar `courant_at` on one point and one pair."""
    return lambda pt: courant_at(s1(pt), per_direction_jacobian(s1, pt),
                                 s2(pt), per_direction_jacobian(s2, pt))


def per_point_closure(geom, points):
    """The closure oracle by the per-point loop: one frame evaluation, one
    frame Jacobian by one pass per direction, one scalar `courant_at` per
    pair of rows and one `per_vector_distance` per bracket per sample
    point."""
    frame = coupling.frame_rows(geom)
    n = geom.space.dim

    def flat(pt):
        return [c for row in frame(pt) for c in row]

    def at_point(pt):
        rows = [[dm.value_of(c) for c in row] for row in frame(pt)]
        jac = per_direction_jacobian(flat, pt)
        jets = [jac[2 * n * r:2 * n * (r + 1)] for r in range(n)]
        brackets = ([dm.value_of(c) for c in courant_at(
            rows[r], jets[r], rows[s], jets[s])]
            for r, s in itertools.combinations(range(n), 2))
        return worst(per_vector_distance(rows, vec)
                     / max(1.0, max(abs(c) for c in vec)) for vec in brackets)

    return worst(at_point(pt) for pt in points)


def assert_oracle_agrees(got, want, context=None):
    """The oracle against `per_point_closure`, the per-vector least-squares
    route: the same verdict, within 1e-13 where the triple couples, and
    within 1e-12 relative where it does not (a NaN on both routes)."""
    if math.isnan(want):
        assert math.isnan(got), context
        return
    assert (got < ORACLE_TOL) == (want < ORACLE_TOL), (got, want, context)
    bound = 1e-13 if want < ORACLE_TOL else 1e-12 * want
    assert abs(got - want) <= bound, (got, want, context)


def per_point_splitting(geom, count, seed=0):
    """The three splitting residuals by the per-point loop: the per-section
    route of `reference.per_section_splitting` on one scalar sample point
    at a time, each bracket by the scalar `courant_at`, maximized over the
    points."""
    points = unstack(geom.sample_points(count=count, seed=seed), count)
    runs = [per_section_splitting(geom, pt, per_pair_courant_bracket)
            for pt in points]
    return [worst(r[i] for r in runs) for i in range(len(SPLITTING_NAMES))]


@pytest.mark.parametrize("name,builder",
                         [(n, b) for n, b, _ in INSTANCES],
                         ids=[n for n, _, _ in INSTANCES])
def test_array_route_matches_the_per_point_loop_to_the_bit(name, builder):
    # the sample points as one array axis run the same IEEE operations,
    # entry by entry, as the scalar loop over them; the oracle's distances
    # are QR projections, which round differently from LAPACK's least
    # squares, and agree with the loop to `assert_oracle_agrees`
    geom = builder()
    points = unstack(geom.sample_points(48), 48)
    cond = check_coupling_conditions(geom, points=points)
    assert [cond[key].hex() for key in CONDITION_NAMES] == \
        [x.hex() for x in per_point_conditions(geom, points)]
    points = unstack(geom.sample_points(24), 24)
    assert_oracle_agrees(dirac_closure_residual(geom, points=points),
                         per_point_closure(geom, points))
    for seed in (0, 1, 2):
        split = splitting_bracket_residual(geom, count=12, seed=seed)
        assert [split[key].hex() for key in SPLITTING_NAMES] == \
            [x.hex() for x in per_point_splitting(geom, 12, seed)], seed


@pytest.mark.parametrize("name,builder",
                         [(n, b) for n, b, _ in INSTANCES],
                         ids=[n for n, _, _ in INSTANCES])
def test_closure_oracle_is_the_per_vector_route_on_other_samples(name,
                                                                 builder):
    # one QR per point measures every bracket at it, and one kernel call
    # sums each bracket entry in the scalar order
    geom = builder()
    for count, seed in ((16, 3), (5, 1), (5, 3), (10, 2), (1, 2)):
        points = unstack(geom.sample_points(count, seed=seed), count)
        assert_oracle_agrees(dirac_closure_residual(geom, points=points),
                             per_point_closure(geom, points), (count, seed))


def test_the_oracle_brackets_every_pair_in_one_kernel_call(monkeypatch):
    geom = ymh_so3_quadratic()   # 6 coordinates: 15 pairs of frame rows
    calls = []
    kernel = fields.courant_at

    def counted(u, du, v, dv):
        calls.append(np.shape(u))
        return kernel(u, du, v, dv)

    monkeypatch.setattr(fields, "courant_at", counted)
    dirac_closure_residual(geom, count=7, seed=1)
    assert calls == [(7, 15, 12)]


@pytest.mark.parametrize("check", [check_coupling_conditions,
                                   dirac_closure_residual])
def test_an_empty_or_mis_sized_point_list_is_refused(check):
    # an empty list has nothing to check, and a point of 7 or 4 coordinates
    # is not a point of the 5-dimensional so(3)* space
    geom = so3_coadjoint_example()
    point = [0.1, -0.2, 0.3, 0.4, -0.5]
    for points, got in (([], r"0 points of lengths \[\]"),
                        ([point + [0.6, 0.7]], r"1 points of lengths \[7\]"),
                        ([point, point[:4]], r"2 points of lengths \[4, 5\]")):
        with pytest.raises(ValueError, match="expected one or more points "
                           "of 5 coordinates, got " + got):
            check(geom, points=points)
    check(geom, points=[point])


@pytest.mark.parametrize("check", [check_coupling_conditions,
                                   dirac_closure_residual,
                                   splitting_bracket_residual])
def test_an_empty_sample_is_refused(check):
    # a residual maximized over no points reads 0.0: a PASS that checked
    # nothing
    with pytest.raises(ValueError, match="at least 1, got 0"):
        check(so3_coadjoint_example(), count=0)


def test_a_triple_of_the_wrong_types_is_refused():
    # π_V is a vertical bivector and ω_H a horizontal two-form: the two
    # swapped, or a horizontal form of another degree, are no triple
    good = constant_split()
    one_form = HorizontalForm(good.space, 1, lambda p: [1.0, 0.0])
    for pi_v, omega_h, message in [
            (good.omega_h, good.omega_h, "pi_v must be a VerticalBivector"),
            (good.pi_v, good.pi_v, "omega_h must be a degree-2"),
            (good.pi_v, one_form, "omega_h must be a degree-2")]:
        with pytest.raises(TypeError, match=message):
            GeometricData(good.space, good.connection, pi_v, omega_h)


def undefined_at_one_sampled_point(count, seed, index):
    """A constant split triple whose ω_H is NaN at sample `index` of
    `sample_points(count, seed)` and 1.5 everywhere else."""
    geom = constant_split()
    b0 = geom.sample_points(count, seed=seed)[0][index]

    def omega(p):
        return [1.5 + np.where(dm.value_of(p[0]) == b0, np.nan, 0.0)]

    geom.omega_h = HorizontalForm(geom.space, 2, omega, name="nan-once")
    geom.name = "nan-once"
    return geom


def test_a_form_undefined_at_one_sampled_point_fails_the_oracle():
    geom = undefined_at_one_sampled_point(16, 0, 5)
    assert math.isnan(dirac_closure_residual(geom, count=16, seed=0))
    points = unstack(geom.sample_points(16, seed=0), 16)
    del points[5]
    assert dirac_closure_residual(geom, points=points) < ORACLE_TOL


def plane_triple(pi_v, omega_h, fiber_dim=2):
    """A flat-connection triple on a box over a box: a plane base with a
    two-dimensional fiber, or a three-dimensional base with a line."""
    base = CoordinateDomain.box([(-1.0, 1.0)] * (4 - fiber_dim), name="b")
    fiber = CoordinateDomain.box([(-1.0, 1.0)] * fiber_dim, name="f")
    space = FiberedSpace(base, fiber)
    return GeometricData(space, FlatConnection(space),
                         VerticalBivector(space, pi_v, name="pi"),
                         HorizontalForm(space, 2, omega_h, name="omega"),
                         name="scaled")


@pytest.mark.parametrize("scale", [1e8, 1e9, 1e12, 1e15])
def test_frame_rows_of_any_length_are_independent(scale):
    # the base rows (e_i ‖ ω_H) and the fiber rows (π_V ♯ ‖ e^a) stay
    # independent whatever the sizes of π_V and ω_H, so the oracle measures
    # every triple that couples at rounding level and never reads NaN
    s = scale
    triples = [plane_triple(lambda p: [s], lambda p: [0.0]),
               plane_triple(lambda p: [0.0], lambda p: [s]),
               plane_triple(lambda p: [s * (1.0 + 0.5 * p[2] * p[2])],
                            lambda p: [0.0]),
               plane_triple(lambda p: [],
                            lambda p: [s * (1.0 + 0.5 * p[3] * p[3]),
                                       0.0, 0.0], fiber_dim=1)]
    for geom in triples:
        assert check_coupling_conditions(geom)["max"] == 0.0
        assert dirac_closure_residual(geom) <= 1e-14


def test_leaf_two_form_is_scaled_round_form(hopf):
    for pt in unstack(hopf.sample_points(10, seed=4), 10):
        vecs, leaf = leaf_two_form(assemble_dirac(hopf, pt))
        u, v, x = pt
        s = 1.0 + u * u + v * v
        expected = (2.0 * x + 1.0) * 4.0 / (s * s)
        n = len(leaf)
        for r in range(n):
            for c in range(n):
                want = expected if (r, c) == (0, 1) else (
                    -expected if (r, c) == (1, 0) else 0.0)
                assert abs(dm.value_of(leaf[r][c]) - want) < CONDITION_TOL


def test_leaf_vectors_span_the_lift(hopf):
    pt = [0.3, -0.4, 0.5]
    frame = assemble_dirac(hopf, pt)
    vecs, _ = leaf_two_form(frame)
    a = hopf.conn_matrix(pt)
    for row, e in zip(vecs[:2], ([1.0, 0.0], [0.0, 1.0])):
        lift = list(e) + [sum(a[k][j] * e[j] for j in range(2))
                          for k in range(1)]
        assert max(abs(dm.value_of(x) - y)
                   for x, y in zip(row, lift)) < 1e-12


def test_splitting_brackets_vanish_on_couplings():
    assert splitting_bracket_residual(
        so3_coadjoint_example(), count=6)["max"] < 1e-6
    assert splitting_bracket_residual(
        hopf_flat_example(lambda x: 2.0 * x + 1.0), count=6)["max"] < 1e-6


def test_splitting_brackets_with_chosen_sections():
    geom = so3_coadjoint_example()
    out = splitting_bracket_residual(
        geom, count=4,
        alpha_fn=lambda x: [0.3 * x[0], -0.1, 0.2 * x[2]],
        beta_fn=lambda x: [x[1], 0.4 * x[0], -0.2],
        v=[1.0, -0.5], w=[0.3, 0.8])
    assert out["max"] < 1e-6
    assert set(out) >= {"vertical_vertical", "horizontal_vertical",
                        "horizontal_horizontal", "max"}


def test_condition_report_shape(hopf):
    cond = check_coupling_conditions(hopf, count=8)
    assert set(cond) == {"vertical_poisson", "transport_invariance",
                         "covariant_closure", "curvature_match", "max"}
    assert cond["max"] == max(v for k, v in cond.items() if k != "max")
