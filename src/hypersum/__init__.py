"""Partial sums of generalized hypergeometric series.

Construction of the partial sums g_n and their monic rescalings G_n,
the three-term recurrences they satisfy, the annihilating differential
operator R with its eigenvalue identity, a rank-one Sobolev-type inner
product on the unit circle under which the g_n are orthogonal, integral
representations on the circle and the negative real axis, zero
localization with a simultaneous root finder, R_I/T-fraction recurrences,
Jacobi-type matrix pencils, and Chebyshev decompositions of partial sums
with positive coefficients.
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, DomainError
from .polycore import (
    DEGREE_CAP,
    Poly,
    pochhammer,
    trim_tiny,
)
from .partial_sums import (
    Gn_by_recurrence,
    Gn_monic,
    HypParams,
    PowerSeriesCoeffs,
    delta_k,
    generic_partial_sums,
    gn_by_recurrence,
    gn_direct,
    hyp_coeff,
)
from .operators import (
    LinDiffOp,
    build_R,
    kappa,
    op_add,
    op_apply,
    op_compose,
    op_ddz,
    op_identity,
    op_scale,
    op_sub,
    op_theta,
    r_action,
    r_image,
    verify_ode,
)
from .sobolev import (
    QuadratureRule,
    auto_node_count,
    build_sobolev_form,
    monomial_quadrature_defect,
    sobolev_gram,
    sobolev_inner,
    sobolev_inner_matrix,
)
from .roots import (
    RootReport,
    check_simple,
    enestrom_kakeya_bounds,
    find_roots,
    location_report,
)
from .pfq import (
    ConvergenceReport,
    PfqValue,
    convergence_report,
    integral_rep_circle,
    integral_rep_circle_batch,
    integral_rep_negative_axis,
    integral_rep_negative_axis_numeric,
    pfq_eval,
    terminating_pfq_poly,
)
from .ri_pencils import (
    ChebDecomposition,
    JacobiPencil,
    RIRecurrence,
    RIValidity,
    chebyshev_eval,
    kernel_decompose,
    pencil_polynomials,
    pencil_residual,
    pencil_row_terms,
    ri_generate,
    tfraction_from_hyp,
)
from .checks import CheckResult, run_checks

__all__ = [
    "ConvergenceError",
    "DomainError",
    "DEGREE_CAP",
    "Poly",
    "pochhammer",
    "trim_tiny",
    "Gn_by_recurrence",
    "Gn_monic",
    "HypParams",
    "PowerSeriesCoeffs",
    "delta_k",
    "generic_partial_sums",
    "gn_by_recurrence",
    "gn_direct",
    "hyp_coeff",
    "LinDiffOp",
    "build_R",
    "kappa",
    "op_add",
    "op_apply",
    "op_compose",
    "op_ddz",
    "op_identity",
    "op_scale",
    "op_sub",
    "op_theta",
    "r_action",
    "r_image",
    "verify_ode",
    "QuadratureRule",
    "auto_node_count",
    "build_sobolev_form",
    "monomial_quadrature_defect",
    "sobolev_gram",
    "sobolev_inner",
    "sobolev_inner_matrix",
    "RootReport",
    "check_simple",
    "enestrom_kakeya_bounds",
    "find_roots",
    "location_report",
    "ConvergenceReport",
    "PfqValue",
    "convergence_report",
    "integral_rep_circle",
    "integral_rep_circle_batch",
    "integral_rep_negative_axis",
    "integral_rep_negative_axis_numeric",
    "pfq_eval",
    "terminating_pfq_poly",
    "ChebDecomposition",
    "JacobiPencil",
    "RIRecurrence",
    "RIValidity",
    "chebyshev_eval",
    "kernel_decompose",
    "pencil_polynomials",
    "pencil_residual",
    "pencil_row_terms",
    "ri_generate",
    "tfraction_from_hyp",
    "CheckResult",
    "run_checks",
    "__version__",
]
