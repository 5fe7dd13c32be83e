"""fiberdirac — numerical verification for coupling structures on
fibrations.

The package represents a fibered patch together with a vertical Poisson
structure, a transport law, and a horizontal two-form; checks the four
compatibility conditions that make the triple a coupling structure;
assembles the pointwise isotropic frames and their leaf forms; builds
gauge-theoretic examples; integrates paths, flows, and the transgression
of the horizontal form over sphere families; and decides integrability of
the resulting monodromy lattice on model families.
"""

__version__ = "0.1.0"

from .charts import CoordinateDomain
from .fibration import (BasePath, Connection, FiberedSpace, FlatConnection,
                        HorizontalForm, IncompleteTransportError,
                        VerticalBivector, parallel_transport)
from .coupling import (GeometricData, assemble_dirac,
                       check_coupling_conditions, dirac_closure_residual,
                       leaf_two_form, splitting_bracket_residual)
from .yangmills import (EXAMPLES, HamiltonianFiber, PrincipalData,
                        StructureGroupModel, ymh_geometric_data)
from .apath import (AlgebroidPath, build_apath, concat_base, concat_split,
                    flow_commutation_residual, inverse_split,
                    solve_evolution, split_apath, unsplit_apath)
from .monodromy import (FAMILIES, LatticeReport, SphereFamily, cap,
                        concat_families, integrability_verdict,
                        round_sphere, so3_lattice, transgress,
                        transgress_flat)
from .groupoid import (PairGroupoid, coupling_form, integrated_data_check,
                       multiplicativity_residual, pair_form,
                       presymplectic_nondegeneracy)

__all__ = [
    "__version__",
    "CoordinateDomain",
    "BasePath", "Connection", "FiberedSpace", "FlatConnection",
    "HorizontalForm", "IncompleteTransportError", "VerticalBivector",
    "parallel_transport",
    "GeometricData", "assemble_dirac", "check_coupling_conditions",
    "dirac_closure_residual", "leaf_two_form",
    "splitting_bracket_residual",
    "EXAMPLES", "HamiltonianFiber", "PrincipalData", "StructureGroupModel",
    "ymh_geometric_data",
    "AlgebroidPath", "build_apath", "concat_base", "concat_split",
    "flow_commutation_residual", "inverse_split", "solve_evolution",
    "split_apath", "unsplit_apath",
    "FAMILIES", "LatticeReport", "SphereFamily", "cap", "concat_families",
    "integrability_verdict", "round_sphere", "so3_lattice", "transgress",
    "transgress_flat",
    "PairGroupoid", "coupling_form", "integrated_data_check",
    "multiplicativity_residual", "pair_form",
    "presymplectic_nondegeneracy",
]
