"""Exact arithmetic for inhomogeneous Bohr sets, their progression structure,
and restricted sums driving multiplicative approximation experiments."""

__version__ = "0.1.0"

import importlib

# Public names by defining module.  A name is imported on first access
# (PEP 562), so importing the package, or running one CLI command, loads
# only the modules that command uses.
_EXPORTS = {
    "bohr": (
        "BohrSet",
        "all_lifts",
        "enumerate_bohr",
        "is_member",
        "lift_bohr",
        "restricted_bohr",
        "shift_injection_holds",
    ),
    "counting": (
        "CongruenceLattice",
        "DavenportCertificate",
        "TotientTable",
        "alpha_p",
        "alpha_p_table",
        "congruence_lattice",
        "davenport_count",
        "euclidean_minima",
        "totient_average",
        "totient_sieve",
    ),
    "errors": (
        "AmbiguousLift",
        "BasePointDrift",
        "BudgetExceeded",
        "ConstructionError",
        "LengthUnderflow",
        "MinimaDegenerate",
        "NoBasePoint",
        "PrecisionExhausted",
        "SmallDirichletWitness",
        "ValidationError",
    ),
    "exponents": (
        "ExponentReport",
        "dual_exponent_est",
        "exponent_report",
        "mult_exponent_est",
        "multiplicative_hypothesis",
        "simult_exponent_est",
        "uniform_inhom_est",
    ),
    "gap": (
        "GAP",
        "cardinality_ratio",
        "decompose",
        "gap_elements",
        "inner_gap",
        "is_proper",
        "outer_gap",
    ),
    "minima": ("ConvexBody", "MinimaResult", "build_body", "successive_minima"),
    "realfield": ("BohrSpec", "FixedReal", "RealSpec", "TargetVector"),
    "sums": (
        "ApproxFunction",
        "DyadicTable",
        "GallagherResult",
        "ModifiedPsi",
        "SumResult",
        "SupportMask",
        "ds_hypothesis_check",
        "dyadic_table",
        "eta_split_check",
        "gallagher_experiment",
        "psi_family",
        "psi_modified",
        "sum_series",
        "support_mask",
        "t_star_sum",
        "t_sum",
        "trivial_mask",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
