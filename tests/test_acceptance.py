"""Acceptance criteria, one test per criterion.

Each test prints a single `[criterion NN] PASS/FAIL` line (run with `-s`
to see them; the `-v` test lines mirror them one-to-one) and asserts the
stated tolerance, enforcing the wall-clock budget where one is stated.
"""

import math
import time
from pathlib import Path

import test_coupling
import test_groupoid
from fiberdirac import dual as dm
from fiberdirac._numerics import unstack
from fiberdirac.coupling import (assemble_dirac, check_coupling_conditions,
                                 dirac_closure_residual, leaf_two_form,
                                 splitting_bracket_residual)
from fiberdirac.fibration import (FiberedSpace, FlatConnection,
                                  HorizontalForm, VerticalBivector)
from fiberdirac.charts import CoordinateDomain
from fiberdirac.coupling import GeometricData
from fiberdirac.groupoid import (coupling_form, integrated_data_check,
                                 multiplicativity_residual, pair_form)
from fiberdirac.monodromy import (cap, integrability_verdict, round_sphere,
                                  so3_lattice, transgress, transgress_flat)
from fiberdirac.yangmills import (HamiltonianFiber, hopf_example,
                                  hopf_flat_example,
                                  so3_coadjoint_example)
from fiberdirac.apath import flow_commutation_residual

FOUR_PI = 4.0 * math.pi


def report(number, ok, detail):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def round_density(p, vt, ve):
    s = 1.0 + p[0] * p[0] + p[1] * p[1]
    return 4.0 / (s * s) * (vt[0] * ve[1] - vt[1] * ve[0])


def test_criterion_01_sphere_area():
    start = time.perf_counter()
    area = round_sphere(65, 65).signed_area(round_density)
    elapsed = time.perf_counter() - start
    rel = abs(area - FOUR_PI) / FOUR_PI
    report(1, rel < 1e-6 and elapsed < 1.0,
           f"area {area:.9f}, rel err {rel:.2e}, {elapsed * 1000:.0f} ms")


def test_criterion_02_monopole_coupling_and_leaf_form():
    start = time.perf_counter()
    geom = hopf_example(lambda x: 2.0 * x + 1.0)
    cond = check_coupling_conditions(geom, count=64)
    worst = max(cond[k] for k in ("vertical_poisson", "transport_invariance",
                                  "covariant_closure", "curvature_match"))
    leaf_worst = 0.0
    for pt in unstack(geom.sample_points(8, seed=4), 8):
        _, leaf = leaf_two_form(assemble_dirac(geom, pt))
        u, v, x = pt
        expected = (2.0 * x + 1.0) * 4.0 / (1.0 + u * u + v * v) ** 2
        for r in range(len(leaf)):
            for c in range(len(leaf)):
                want = {(0, 1): expected, (1, 0): -expected}.get((r, c), 0.0)
                leaf_worst = max(leaf_worst,
                                 abs(dm.value_of(leaf[r][c]) - want))
    elapsed = time.perf_counter() - start
    report(2, worst < 1e-8 and leaf_worst < 1e-8 and elapsed < 5.0,
           f"conditions {worst:.2e}, leaf form {leaf_worst:.2e}, "
           f"{elapsed:.2f} s")


def test_criterion_03_lattice_generator_along_the_ray():
    start = time.perf_counter()
    out = so3_lattice(lambda r: 2.0 * r + 1.0,
                      radii=(0.0, 0.5, 1.0, 1.5), grid=(128, 128))
    elapsed = time.perf_counter() - start
    rel = max(abs(c - 8.0 * math.pi) / (8.0 * math.pi)
              for c in out.radial_components)
    origin = out.origin_pi
    report(3, rel < 1e-4 and origin < 1e-8
           and out.has_degenerate_origin and elapsed < 30.0,
           f"radial err {rel:.2e}, origin {origin:.1e}, {elapsed:.2f} s")


def test_criterion_04_verdicts_on_model_slopes():
    start = time.perf_counter()
    radii, grid = (0.5, 1.0, 1.5), (64, 64)
    got = (
        integrability_verdict(
            so3_lattice(lambda r: 2.0 * r + 1.0, radii, grid),
            exact_slope=2),
        integrability_verdict(so3_lattice(lambda r: r * r, radii, grid)),
        integrability_verdict(
            so3_lattice(lambda r: math.pi * r, radii, grid)),
    )
    elapsed = time.perf_counter() - start
    want = ("INTEGRABLE-CANDIDATE", "NON-INTEGRABLE", "INCONCLUSIVE")
    report(4, got == want and elapsed < 60.0,
           f"verdicts {got}, {elapsed:.2f} s")


def test_criterion_05_condition_checker_agrees_with_closure_oracle():
    threshold = 1e-6
    broken = 0
    failures = []
    for name, builder, couples in test_coupling.INSTANCES:
        geom = builder()
        cond_ok = check_coupling_conditions(
            geom, count=48)["max"] < threshold
        oracle_ok = dirac_closure_residual(geom, count=10) < threshold
        broken += 0 if couples else 1
        if not (cond_ok == oracle_ok == couples):
            failures.append(name)
    report(5, len(test_coupling.INSTANCES) >= 10 and broken >= 3
           and not failures,
           f"{len(test_coupling.INSTANCES)} instances ({broken} broken), "
           f"disagreements: {failures or 'none'}")


def test_criterion_06_splitting_brackets_vanish():
    worst = max(
        splitting_bracket_residual(so3_coadjoint_example(), count=6)["max"],
        splitting_bracket_residual(hopf_flat_example(lambda x: 2.0 * x + 1.0),
                                   count=6)["max"])
    report(6, worst < 1e-6, f"max splitting residual {worst:.2e}")


def test_criterion_07_flow_commutation_contracts_at_fourth_order():
    fiber = HamiltonianFiber.coadjoint_so3()
    # dual functions: math.sin of a Dual drops its tangent
    alpha = lambda t, e: [(3.0 + e) * dm.sin(2.0 * math.pi * t),
                          2.5 * dm.cos(3.0 * math.pi * t) - e * t,
                          1.5 * dm.sin(5.0 * t + e)]
    x0, eps = [0.6, 0.0, 0.8], 0.3
    r1 = flow_commutation_residual(fiber, alpha, x0, eps=eps, step=1e-3)
    r2 = flow_commutation_residual(fiber, alpha, x0, eps=eps, step=5e-4)
    report(7, r1 < 1e-6 and r2 <= r1 / 8.0,
           f"residual {r1:.2e}, halving gain {r2 / r1:.3f}")


def test_criterion_08_transgression_matches_flat_oracle():
    geom = hopf_flat_example(lambda x: 2.0 * x + 1.0)
    families = [round_sphere(65, 65), cap(0.8, 65, 65),
                cap(math.pi / 2, 65, 65), cap(math.pi / 3, 65, 65),
                cap(2.1, 65, 65)]
    rels = {}
    for fam in families:
        endpoint = transgress(geom, fam, [0.3]).endpoint()[0]
        oracle = transgress_flat(geom, fam, [0.3])[0]
        rels[fam.name] = abs(endpoint - oracle) / max(1.0, abs(oracle))
    worst_name = max(rels, key=rels.get)
    worst = rels[worst_name]
    report(8, worst < 1e-4,
           f"{len(families)} families, worst rel err {worst:.2e} "
           f"({worst_name})")


def varying_pi_product():
    base = CoordinateDomain.box([(-1.0, 1.0)] * 2, name="plane")
    fiber = CoordinateDomain.box([(-1.0, 1.0)] * 2, name="disk")
    space = FiberedSpace(base, fiber)
    return GeometricData(
        space, FlatConnection(space),
        VerticalBivector(space, lambda p: [2.0 + 0.5 * p[2] * p[2]],
                         name="varying-pi"),
        HorizontalForm(space, 2, lambda p: [1.5], name="const-omega"),
        name="varying-pi-product")


def test_criterion_09_groupoid_coupling_forms():
    suite = [test_groupoid.product_geometry(twist=False),
             test_groupoid.product_geometry(twist=True),
             varying_pi_product()]
    worst_mult = 0.0
    worst_dim = 0
    for geom in suite:
        form = pair_form(coupling_form(geom))
        worst_mult = max(worst_mult, multiplicativity_residual(
            form.value, geom.space.dim))
        worst_dim = max(worst_dim, integrated_data_check(
            geom)["fiber_nondegeneracy_dim"])
    identity = integrated_data_check(
        test_groupoid.product_geometry(twist=False))["horizontal_identity"]
    report(9, worst_mult < 1e-12 and worst_dim == 0 and identity < 1e-8,
           f"{len(suite)} coupling forms: multiplicativity {worst_mult:.2e}, "
           f"kernel dim {worst_dim}, horizontal identity {identity:.2e}")


def test_criterion_10_full_scale_claims_are_documented_out_of_scope():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    ok = "Scope and limits" in text and "not desk-verifiable" in text
    report(10, ok, "README documents the desk-scale/full-scale boundary "
                   "(no numeric check applies)")
