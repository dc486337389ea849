"""Exact solvers for the quasi-Einstein equation on homogeneous affine
surfaces, with the induced neutral-signature geometry on the cotangent
bundle."""

from .funcalg import (
    AnsatzFunction, Context, DomainError, FunctionAlgebraError, Point, Term,
    constant, exp_linear, monomial, product, rank_basis, x1_power,
)
from .scalars import Scalar, roots_of_monic
from .surface import (
    AffineConnection2, NormalizationRecord, RicciData, TypeFlags,
    connection_from_json, connection_to_json, is_strongly_projectively_flat,
    load_connection, normalize_type_b, ricci, save_connection, transform,
    type_flags,
)
from .qesolver import (
    CoordinateChange, EigenspaceDescription,
    eigenspace, jet_dimension_oracle, qe_residual, realize_real_basis,
)
from .extension import (
    CurvaturePack4, DeformationTensor, ExtensionMetric, build_extension,
    conformal_einstein_residual, curvature4, default_probe_points,
    verify_theorem_1_1,
)
from .report import CheckResult, VerificationReport
from .warp import warped_einstein_report

__version__ = "0.1.0"


def cache_stats() -> dict:
    """The size of every cache in the package, by name: the `cache_info()`
    of each `lru_cache`, and the number of minimal polynomials whose float
    roots `scalars` keeps."""
    from . import cli, scalars, surface
    return {
        "cli.build_parser": cli.build_parser.cache_info(),
        "surface.ricci": surface.ricci.cache_info(),
        "surface.normalize_type_b": surface.normalize_type_b.cache_info(),
        "surface._gamma_function": surface._gamma_function.cache_info(),
        "scalars._CTX_ROOTS": len(scalars._CTX_ROOTS),
    }

__all__ = [
    "AffineConnection2", "AnsatzFunction", "CheckResult", "Context",
    "CoordinateChange", "CurvaturePack4", "DeformationTensor", "DomainError",
    "EigenspaceDescription", "ExtensionMetric", "FunctionAlgebraError",
    "NormalizationRecord", "Point", "RicciData", "Scalar", "Term", "TypeFlags",
    "VerificationReport", "build_extension", "cache_stats",
    "conformal_einstein_residual", "connection_from_json",
    "connection_to_json", "constant", "curvature4", "default_probe_points",
    "eigenspace", "exp_linear", "is_strongly_projectively_flat",
    "jet_dimension_oracle", "load_connection", "monomial", "normalize_type_b",
    "product", "qe_residual", "rank_basis", "realize_real_basis", "ricci",
    "roots_of_monic", "save_connection", "transform", "type_flags",
    "verify_theorem_1_1", "warped_einstein_report", "x1_power",
]
