"""Moment constants of L-function families and their satellite objects.

Exact integer moment constants for the three symmetry classes, their
p-adic structure, the self-similar valuation densities, the analytic
continuation in the degree parameter (limit products and Barnes-G closed
forms), the arithmetic Euler products, and exact mollified mean-square
functionals.  ``python -m lfmoments.cli --help`` or the ``lfmoments``
script expose everything on the command line.

The namespace is lazy: ``import lfmoments`` loads no module, and a public
name loads the one module that defines it on first use, so a caller of the
exact layers never imports mpmath.
"""

import importlib

__version__ = "0.1.0"

# each module and the public names it defines, in the order of __all__: the
# one map from a public name to its module, which the CLI reaches through too
_MODULES = {
    "numeric_core": (
        "primes_up_to", "is_prime", "FactoredInteger", "decimal_string",
    ),
    "exact_moments": (
        "SymmetryClass", "log_power", "moment_constant", "moment_constant_factorial_form",
        "moment_factored",
    ),
    "padic_valuation": ("valuation", "zero_valuation_window"),
    "self_similar": (
        "SelfSimilar", "Cusp", "VerticalTangent", "classify_point", "density_exact",
        "density_numeric", "sample_density",
    ),
    "analytic_moments": (
        "barnes_g", "moment_ratio_closed_form", "moment_closed_form", "moment_by_limit",
        "half_moment_unitary", "pole_order", "log_moment_asymptotic",
    ),
    "euler_products": (
        "zeta_arithmetic_factor", "sp_quadratic_arithmetic_factor", "FamilyDescriptor",
        "MeanValueShape", "assemble_mean_value",
    ),
    "mollifier": (
        "RationalPolynomial", "LaurentPolynomial", "mean_square", "THETA_VALIDITY",
    ),
    "precision": ("RealApprox",),
    "errors": (
        "LfmomentsError", "DomainError", "PreconditionError", "IntegralityViolation",
        "UnsupportedClass", "OutOfRegime", "PoleError", "NoConvergence", "ConstraintError",
    ),
}
# public name -> the module that defines it
_SOURCE = {name: module for module, names in _MODULES.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
