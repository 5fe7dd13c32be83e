"""Independent references that only the tests use.

Each function here is a general operator that no package code calls: the
tests keep it as the second route that a package check is compared with,
often to the bit.  It is built from the package's public pieces, so it
runs on the same fields, connections and paths.
"""

from fiberdirac import dual as dm
from fiberdirac._numerics import coboundary, combos, dot, smoothstep
from fiberdirac.apath import AlgebroidPath, _warped
from fiberdirac.fibration import (BasePath, HorizontalForm,
                                  directional_on_total)
from fiberdirac.fields import (MULTIVECTOR, SCALAR, SmoothField,
                               antisym_matrix)


def scalar_field(dim, fn, name=""):
    return SmoothField(dim, SCALAR, fn, name=name)


def bivector(dim, fn, name=""):
    return SmoothField(dim, MULTIVECTOR, fn, degree=2, name=name)


def lie_derivative_bivector(X, piv):
    """(L_X π)^{ij} = X^k ∂_k π^{ij} − π^{kj} ∂_k X^i − π^{ik} ∂_k X^j."""
    n = X.dim
    pairs = combos(n, 2)

    def comps(pt):
        xv = X(pt)
        mat = antisym_matrix(piv, pt)
        dpi = dm.jacobian(piv.comps, pt)    # dpi[idx][k] = ∂_k π_idx
        dx = dm.jacobian(X.comps, pt)       # dx[i][k] = ∂_k X^i
        out = []
        for idx, (i, j) in enumerate(pairs):
            adv = dot(dpi[idx], xv)
            corr = sum(mat[k][j] * dx[i][k] + mat[i][k] * dx[j][k]
                       for k in range(n))
            out.append(adv - corr)
        return out

    return bivector(n, comps, name=f"L_{X.name}{piv.name}")


def covariant_differential(connection, form):
    """d_Γ of a horizontal k-form (k ∈ {0, 1, 2}), on coordinate fields:

        (d_Γ ω)(e_{a₀},…,e_{a_k}) = Σ_i (−1)^i L_{h(e_{a_i})} ω(…,ê_{a_i},…)

    (coordinate base fields commute, so no bracket terms appear).  A scalar
    function on E counts as the k = 0 case.
    """
    space = connection.space
    nb = space.n_base
    basis = [dm.unit(nb, a) for a in range(nb)]

    if callable(form) and not isinstance(form, HorizontalForm):
        # scalar function on E → horizontal 1-form
        def comps1(pt):
            return [directional_on_total(connection, e, form, pt)
                    for e in basis]
        return HorizontalForm(space, 1, comps1, name="dGamma(f)")

    k = form.degree
    if k not in (1, 2):
        raise ValueError("covariant differential implemented for k in {0,1,2}")
    src_index = {c: i for i, c in enumerate(form.combos)}
    dst = combos(nb, k + 1)

    def comps(pt):
        # along[a][idx] = L_{h(e_a)} ω_idx, one pass per base direction
        along = [directional_on_total(connection, e, form.comps, pt)
                 for e in basis]
        return coboundary(dst, lambda a, face: along[a][src_index[face]])

    return HorizontalForm(space, k + 1, comps, name=f"dGamma({form.name})")


def reparameterized(apath):
    """Orientation-preserving reparameterization by s = `smoothstep`:
    points compose with s, covectors pick up the factor s′ (they scale like
    velocities)."""
    return AlgebroidPath(
        apath.geom,
        BasePath(lambda u: apath.base_path(smoothstep(u)),
                 name=f"{apath.base_path.name}@s"),
        lambda u: apath.fiber_path(smoothstep(u)),
        lambda u: _warped(apath.covector_path, u, 1.0),
        name=f"{apath.name}@s")
