"""Explicit-formula positivity certificates for zero gaps of L-functions.

The package certifies universal upper bounds on the gap between consecutive
critical-line zeros by evaluating a Weil-type explicit formula against
extremal (Beurling-Selberg) test functions, scans spectral-parameter space
for functional equations that the formula rules out, and checks bundled
L-function data for explicit-formula consistency.

The package logs to the ``zerogap`` logger, which is silent until the
application configures logging.
"""

import logging

from .certification import (
    GapCertificate,
    certify_gap,
    min_ell_over_mu,
    minimal_certified_length,
)
from .errors import (
    AccuracyError,
    DomainError,
    IncompletenessError,
    SchemaError,
    ValidationError,
)
from .explicit_formula import (
    PRIME_FREE_RADIUS,
    ExplicitFormulaReport,
    ell,
    rhs,
    verify,
    zero_sum,
)
from .extremal import (
    TestFunction,
    beurling,
    fejer,
    fourier_at,
    selberg_minorant,
    windowed_fejer,
)
from .lfunctions import (
    FunctionalEquation,
    LFunctionData,
    LogDerivativeCoefficients,
    bundled_example_path,
    c_coefficients,
    extend_multiplicatively,
    load_lfunction,
    serialize_lfunction,
)
from .region_scan import RegionClassification, classify_point, scan_region, scan_to_csv

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "AccuracyError",
    "DomainError",
    "ExplicitFormulaReport",
    "FunctionalEquation",
    "GapCertificate",
    "IncompletenessError",
    "LFunctionData",
    "LogDerivativeCoefficients",
    "PRIME_FREE_RADIUS",
    "RegionClassification",
    "SchemaError",
    "TestFunction",
    "ValidationError",
    "__version__",
    "beurling",
    "bundled_example_path",
    "c_coefficients",
    "certify_gap",
    "classify_point",
    "ell",
    "extend_multiplicatively",
    "fejer",
    "fourier_at",
    "load_lfunction",
    "min_ell_over_mu",
    "minimal_certified_length",
    "rhs",
    "scan_region",
    "scan_to_csv",
    "selberg_minorant",
    "serialize_lfunction",
    "verify",
    "windowed_fejer",
    "zero_sum",
]
