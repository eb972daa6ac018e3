"""Determinants of Laplacians on surfaces with conical singularities.

Explicit evaluation of zeta-regularized log-determinants for spindles,
flat polyhedral spheres, constant-curvature disks and hyperbolic spheres,
built on Barnes double-zeta derivatives at s = 0 computed by independent
cross-checking routes (rational closed form, integral representation,
Taylor expansion), with deterministic adaptive quadrature and a
Monte-Carlo oracle for the improper area integrals.

``import conedet`` loads no submodule: each public name, and each submodule
that exports them, is imported on first access and then kept here.
"""

from importlib import import_module

_EXPORTS = {
    "barnes": (
        "barnes_J",
        "zprime0",
        "zprime0_integral",
        "zprime0_rational",
        "zprime0_taylor_near1",
        "zprime_a0",
    ),
    "cone": (
        "ConeOrder",
        "SurfaceTopology",
        "c_beta",
        "c_beta_parts",
        "heat_trace_a0",
        "rescale_logdet",
        "zeta0_surface",
        "zeta_disk_at0",
        "zeta_disk_prime0",
    ),
    "constants": (
        "FundamentalConstants",
        "euler_gamma",
        "fundamental_constants",
        "zeta_prime_minus1",
    ),
    "determinants": (
        "ComparisonData",
        "DiskConfig",
        "HyperbolicSummary",
        "LogDet",
        "SpindleConfig",
        "logdet_disk",
        "logdet_flat_disk",
        "logdet_flat_sphere",
        "logdet_flat_sphere_AS",
        "logdet_hyperbolic_sphere",
        "logdet_pullback",
        "logdet_spindle",
        "logdet_spindle_area4pi",
        "polyakov_compare",
        "polyakov_compare_two_singular",
        "pullback_constant_C",
        "round_sphere_logdet",
        "spindle_asymptotic",
        "spindle_distance",
    ),
    "errors": ("ConfigurationError", "ConvergenceError", "DomainError"),
    "extremal": (
        "ExtremumReport",
        "ScanGrid",
        "ScanResult",
        "find_local_max",
        "scan_curve",
        "taylor_check_at_zero",
    ),
    "quadrature": (
        "FlatSphereConfig",
        "QuadratureReport",
        "flat_sphere_area",
        "flat_sphere_area_mc",
        "integrate_adaptive",
    ),
    "special": (
        "RationalOrder",
        "dedekind_sum",
        "hurwitz_zero_values",
        "log_gamma",
        "sawtooth",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
