"""Moment constants of L-function families and their satellite objects.

Exact integer moment constants for the three symmetry classes, their
p-adic structure, the self-similar valuation densities, the analytic
continuation in the degree parameter (limit products and Barnes-G closed
forms), the arithmetic Euler products, and exact mollified mean-square
functionals.  ``python -m lfmoments.cli --help`` or the ``lfmoments``
script expose everything on the command line.
"""

from .analytic_moments import (
    SUM_KINDS,
    barnes_g,
    half_moment_unitary,
    log_moment_asymptotic,
    log_sum_asymptotics,
    moment_by_limit,
    moment_closed_form,
    moment_ratio_closed_form,
    pole_order,
)
from .errors import (
    ConstraintError,
    DomainError,
    IntegralityViolation,
    LfmomentsError,
    NoConvergence,
    OutOfRegime,
    PoleError,
    PreconditionError,
    UnsupportedClass,
)
from .euler_products import (
    FamilyDescriptor,
    MeanValueShape,
    assemble_mean_value,
    sp_quadratic_arithmetic_factor,
    zeta_arithmetic_factor,
)
from .exact_moments import (
    SymmetryClass,
    log_power,
    moment_constant,
    moment_constant_factorial_form,
    moment_factored,
)
from .mollifier import (
    THETA_VALIDITY,
    LaurentPolynomial,
    RationalPolynomial,
    m_orthogonal,
    m_symplectic,
    m_unitary,
    mean_square,
)
from .numeric_core import (
    FactoredInteger,
    abs_least_residue,
    decimal_string,
    is_prime,
    primes_up_to,
)
from .padic_valuation import valuation, zero_valuation_window
from .precision import DEFAULT_PRECISION_BITS, RealApprox, default_precision
from .self_similar import (
    Cusp,
    SelfSimilar,
    VerticalTangent,
    classify_point,
    density_exact,
    density_numeric,
    sample_density,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # integer utilities
    "abs_least_residue",
    "primes_up_to",
    "is_prime",
    "FactoredInteger",
    "decimal_string",
    # symmetry classes and exact moments
    "SymmetryClass",
    "log_power",
    "moment_constant",
    "moment_constant_factorial_form",
    "moment_factored",
    # valuations
    "valuation",
    "zero_valuation_window",
    # self-similar densities
    "SelfSimilar",
    "Cusp",
    "VerticalTangent",
    "classify_point",
    "density_exact",
    "density_numeric",
    "sample_density",
    # analytic continuation
    "barnes_g",
    "moment_ratio_closed_form",
    "moment_closed_form",
    "moment_by_limit",
    "half_moment_unitary",
    "pole_order",
    "log_moment_asymptotic",
    "log_sum_asymptotics",
    "SUM_KINDS",
    # Euler products and assembly
    "zeta_arithmetic_factor",
    "sp_quadratic_arithmetic_factor",
    "FamilyDescriptor",
    "MeanValueShape",
    "assemble_mean_value",
    # mollifiers
    "RationalPolynomial",
    "LaurentPolynomial",
    "m_unitary",
    "m_orthogonal",
    "m_symplectic",
    "mean_square",
    "THETA_VALIDITY",
    # precision plumbing
    "RealApprox",
    "DEFAULT_PRECISION_BITS",
    "default_precision",
    # errors
    "LfmomentsError",
    "DomainError",
    "PreconditionError",
    "IntegralityViolation",
    "UnsupportedClass",
    "OutOfRegime",
    "PoleError",
    "NoConvergence",
    "ConstraintError",
]
