"""Partial sums of generalized hypergeometric series.

Construction of the partial sums g_n and their monic rescalings G_n,
the three-term recurrences they satisfy, the annihilating differential
operator R with its eigenvalue identity, a rank-one Sobolev-type inner
product on the unit circle under which the g_n are orthogonal, integral
representations on the circle and the negative real axis, zero
localization with a simultaneous root finder, R_I/T-fraction recurrences,
Jacobi-type matrix pencils, and Chebyshev decompositions of partial sums
with positive coefficients.

`import hypersum` loads no submodule. Each exported name, and each
submodule as `hypersum.<module>`, is imported on first access (PEP 562),
so a process pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# The verify checks, in the order a document lists them. They live here,
# not in checks, so the CLI builds its --check choices without loading the
# checks' engines.
CHECK_ORDER = (
    "recurrence",
    "ode",
    "sobolev",
    "circle-rep",
    "axis-rep",
    "roots",
    "rifrac",
    "pencil",
)

# Every exported name, by the submodule that defines it.
_EXPORTS = {
    "errors": ("ConvergenceError", "DomainError"),
    "polycore": ("DEGREE_CAP", "Poly"),
    "partial_sums": (
        "Gn_by_recurrence", "Gn_monic", "HypParams", "PowerSeriesCoeffs",
        "delta_k", "gn_by_recurrence", "gn_direct", "hyp_coeff",
    ),
    "operators": (
        "LinDiffOp", "build_R", "kappa", "op_apply", "op_compose", "op_theta",
        "r_action", "r_image", "verify_ode",
    ),
    "sobolev": (
        "QuadratureRule", "auto_node_count", "build_sobolev_form",
        "monomial_quadrature_defect", "sobolev_gram",
    ),
    "roots": (
        "RootReport", "enestrom_kakeya_bounds", "find_roots", "location_report",
    ),
    "pfq": (
        "ConvergenceReport", "PfqValue", "convergence_report",
        "integral_rep_circle_batch", "integral_rep_negative_axis",
        "integral_rep_negative_axis_numeric", "pfq_eval",
    ),
    "ri_pencils": (
        "ChebDecomposition", "JacobiPencil", "RIRecurrence", "RIValidity",
        "chebyshev_eval", "kernel_decompose", "pencil_polynomials",
        "pencil_residual", "pencil_row_terms", "ri_generate",
        "tfraction_from_hyp",
    ),
    "checks": ("CheckResult", "run_checks"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    # Called only for a name the package namespace lacks. The value is not
    # stored here: each access reads the defining module's current binding,
    # so a name patched or wrapped there, and later restored, reads the same
    # through the package.
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
