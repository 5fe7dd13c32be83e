"""The coupling layer: pointwise frames and their isotropy, the four
structural conditions against the direct closure oracle, leaf forms, the
splitting brackets, and how many seeded passes the conditions take."""

import itertools

import pytest

from fiberdirac import dual as dm
from fiberdirac import fields
from fiberdirac.charts import CoordinateDomain
from fiberdirac import coupling
from fiberdirac._numerics import (dot, lstsq_residual, matvec,
                                  skew_matrix, worst)
from fiberdirac.coupling import (CONDITION_NAMES, GeometricData,
                                 assemble_dirac,
                                 check_coupling_conditions,
                                 dirac_closure_residual, leaf_two_form,
                                 splitting_bracket_residual)
from fiberdirac.fibration import (Connection, FiberedSpace, FlatConnection,
                                  HorizontalForm, VerticalBivector,
                                  covariant_differential, curvature)
from fiberdirac.monodromy import lattice_model_data
from fiberdirac.yangmills import (HamiltonianFiber, PrincipalData,
                                  StructureGroupModel, hopf_example,
                                  hopf_flat_example, so3_coadjoint_example,
                                  trivial_torus_example, ymh_geometric_data)

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
    for pt in hopf.sample_points(12, seed=2):
        assert isotropy_residual(assemble_dirac(hopf, pt)) < 1e-12


def test_frames_are_isotropic_nonabelian():
    geom = so3_coadjoint_example()
    for pt in geom.sample_points(8, seed=5):
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
    return coupling.vertical_covector_bracket(geom, alpha, beta)(pt)


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
    pt = geom.sample_points(1, seed=0)[0]
    assert count_seeded_passes(monkeypatch, lambda: fn(geom, pt),
                               keep and keep(geom)) == passes


def reference_residuals(geom, pt):
    """The four residuals by one derivative route per condition, from the
    library's general operators: the Schouten square from fiber partials
    of π_V, L_{h(e_a)} π_V by `fields.lie_derivative_bivector` on π_V
    embedded in the total space, d_Γ ω_H by `covariant_differential`, and
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

        piv = fields.bivector(n, embedded)
        transport = worst(
            abs(dm.value_of(c)) for e in basis
            for c in fields.lie_derivative_bivector(
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
    for pt in geom.sample_points(8, seed=3):
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
    # oracle's only passes are one Jacobian of the whole frame, which serves
    # every sample point at once: one pass per coordinate, whatever the
    # point count.  Differentiating each row once per bracket that holds it
    # would take 168 passes per point on broken-transport.
    geom = dict((n, b) for n, b, _ in INSTANCES)[name]()
    points = geom.sample_points(3, seed=1)
    passes = count_seeded_passes(
        monkeypatch, lambda: dirac_closure_residual(geom, points=points))
    assert passes == geom.space.dim


def per_point_conditions(geom, points):
    """The four condition maxima by the per-point loop: one scalar call of
    `_condition_residuals` per sample point."""
    basis = [dm.unit(geom.space.n_base, a) for a in range(geom.space.n_base)]
    rows = [coupling._condition_residuals(geom, basis, pt) for pt in points]
    return [worst(r[i] for r in rows) for i in range(len(CONDITION_NAMES))]


def per_point_closure(geom, points):
    """The closure oracle by the per-point loop: one frame evaluation and
    one frame Jacobian per sample point."""
    frame = coupling.frame_rows(geom)
    n = geom.space.dim

    def flat(pt):
        return [c for row in frame(pt) for c in row]

    def at_point(pt):
        rows = [[dm.value_of(c) for c in row] for row in frame(pt)]
        jac = dm.jacobian(flat, pt)
        jets = [jac[2 * n * r:2 * n * (r + 1)] for r in range(n)]
        return worst(
            lstsq_residual(rows, vec) / max(1.0, max(abs(c) for c in vec))
            for vec in ([dm.value_of(c) for c in fields.courant_at(
                rows[r], jets[r], rows[s], jets[s])]
                for r, s in itertools.combinations(range(n), 2)))

    return worst(at_point(pt) for pt in points)


SPLITTING_NAMES = ("vertical_vertical", "horizontal_vertical",
                   "horizontal_horizontal")


def per_point_splitting(monkeypatch, geom, count):
    """The three splitting residuals by the per-point loop: the check run
    on one scalar sample point at a time, maximized over the points."""
    points = geom.sample_points(count=count)
    monkeypatch.setattr(coupling, "stack", lambda pts: list(pts[0]))
    runs = []
    for pt in points:
        monkeypatch.setattr(geom, "sample_points",
                            lambda count, seed, pt=pt: [pt])
        runs.append(splitting_bracket_residual(geom, count=count))
    monkeypatch.undo()
    return [worst(r[key] for r in runs) for key in SPLITTING_NAMES]


@pytest.mark.parametrize("name,builder",
                         [(n, b) for n, b, _ in INSTANCES],
                         ids=[n for n, _, _ in INSTANCES])
def test_array_route_matches_the_per_point_loop_to_the_bit(monkeypatch,
                                                           name, builder):
    # the sample points as one array axis run the same IEEE operations,
    # entry by entry, as the scalar loop over them
    geom = builder()
    points = geom.sample_points(48)
    cond = check_coupling_conditions(geom, points=points)
    assert [cond[key].hex() for key in CONDITION_NAMES] == \
        [x.hex() for x in per_point_conditions(geom, points)]
    points = geom.sample_points(24)
    assert dirac_closure_residual(geom, points=points).hex() == \
        per_point_closure(geom, points).hex()
    split = splitting_bracket_residual(geom, count=12)
    assert [split[key].hex() for key in SPLITTING_NAMES] == \
        [x.hex() for x in per_point_splitting(monkeypatch, geom, 12)]


def test_leaf_two_form_is_scaled_round_form(hopf):
    for pt in hopf.sample_points(10, seed=4):
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
