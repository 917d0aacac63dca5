"""Fractional Hilfer-type integral equations on [1, T]: product-integration
quadrature, solvability certificates, Picard iteration, and
measure-of-noncompactness estimation with a sampled Darbo demonstration."""

from .config import RunConfig, bundled_example, dump_config, load_config, parse_config
from .equations import (
    EquationSpec,
    Nonlinearity,
    apply_operator,
    apply_operator_batch,
    check_zero_conditions,
    estimate_lipschitz,
    near_band,
)
from .errors import (
    ConfigError,
    DomainError,
    EvaluationError,
    NonconvergenceError,
    ParseError,
)
from .expressions import Expr, evaluate, parse, to_string
from .fractional import (
    FracParams,
    GridFunction,
    hilfer_integral,
    measure_convergence_order,
    product_quadrature,
    uniform_nodes,
)
from .mnc import (
    ContractionCertificate,
    FunctionEnsemble,
    MncEstimate,
    certificate_inequality_check,
    check_certificate_classes,
    darbo_iterate,
    default_certificate,
    ensemble_modulus,
    mnc_axiom_checks,
    mnc_estimate,
    modulus_of_continuity,
)
from .solvability import RadiusCertificate, certify
from .solver import SolveReport, solve
from .special_functions import KGammaResult, k_gamma, k_gamma_integral

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractionCertificate",
    "DomainError",
    "EquationSpec",
    "EvaluationError",
    "Expr",
    "FracParams",
    "FunctionEnsemble",
    "GridFunction",
    "KGammaResult",
    "MncEstimate",
    "NonconvergenceError",
    "Nonlinearity",
    "ParseError",
    "RadiusCertificate",
    "RunConfig",
    "SolveReport",
    "apply_operator",
    "apply_operator_batch",
    "bundled_example",
    "certificate_inequality_check",
    "certify",
    "check_certificate_classes",
    "check_zero_conditions",
    "darbo_iterate",
    "default_certificate",
    "dump_config",
    "ensemble_modulus",
    "estimate_lipschitz",
    "evaluate",
    "hilfer_integral",
    "k_gamma",
    "k_gamma_integral",
    "load_config",
    "measure_convergence_order",
    "mnc_axiom_checks",
    "mnc_estimate",
    "modulus_of_continuity",
    "near_band",
    "parse",
    "parse_config",
    "product_quadrature",
    "solve",
    "to_string",
    "uniform_nodes",
]
