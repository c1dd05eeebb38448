"""Lattice-based symbolic abstractions with certificate-backed interfaces."""

from .abstraction import AugmentedRun, simulate_augmented
from .certificates import (
    GpsConstants,
    IqcCertificate,
    MonomialKInf,
    PrecisionSpec,
    SineCertificate,
    check_lmi_iqc,
    check_lmi_sine,
    delta_qc_sample_check,
    eta_bound_closed_form,
    eta_feasible,
    gps_constants,
    lipschitz_delta_mm,
    max_feasible_alpha_iqc,
    max_feasible_alpha_sine,
)
from .config import ExperimentConfig, fixture_names, load_config, parse_config, resolve_eta, serialize_config
from .dynamics import (
    IqcSystem,
    PiecewiseConstantSignal,
    SineSystem,
    Trajectory,
    integrate_rk4,
    rk4_step,
)
from .errors import SymabsError
from .interface import ALL_SPACE, AffineInterface, BoxInputSet, input_margin, shrink_box
from .lattice import LatticeParams, quantize_batch
from .numerics import eig_extremes, nsd_check, spectral_norm
from .verify import (
    eps_close,
    lyapunov_decrease_check,
    verify_gps_trajectory,
    verify_simulation_relation,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_SPACE",
    "AffineInterface",
    "AugmentedRun",
    "BoxInputSet",
    "ExperimentConfig",
    "GpsConstants",
    "IqcCertificate",
    "IqcSystem",
    "LatticeParams",
    "MonomialKInf",
    "PiecewiseConstantSignal",
    "PrecisionSpec",
    "SineCertificate",
    "SineSystem",
    "SymabsError",
    "Trajectory",
    "check_lmi_iqc",
    "check_lmi_sine",
    "delta_qc_sample_check",
    "eig_extremes",
    "eps_close",
    "eta_bound_closed_form",
    "eta_feasible",
    "fixture_names",
    "gps_constants",
    "input_margin",
    "integrate_rk4",
    "lipschitz_delta_mm",
    "load_config",
    "lyapunov_decrease_check",
    "max_feasible_alpha_iqc",
    "max_feasible_alpha_sine",
    "nsd_check",
    "parse_config",
    "quantize_batch",
    "resolve_eta",
    "rk4_step",
    "serialize_config",
    "shrink_box",
    "simulate_augmented",
    "spectral_norm",
    "verify_gps_trajectory",
    "verify_simulation_relation",
]
