"""The benchmark tracer (``perfbench/tracing.py``) wraps package functions
by (owner, attribute) name; a rename or a removed import would make its
traced runs fail.  This checks every name without running the benchmark,
and the set of spans each command calls on tiny runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from symabs.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = load_tracing().TARGETS
    assert targets
    missing = []
    for owner_name, attr, *_ in targets:
        mod_name, _, cls = owner_name.partition(":")
        owner = importlib.import_module(mod_name)
        if cls:
            owner = getattr(owner, cls)
        # The tracer replaces the attribute in the owner's own namespace.
        if not callable(vars(owner).get(attr)):
            missing.append(f"{owner_name}.{attr}")
    assert missing == []


# The spans each command calls on the demo config.  A change that moves a
# traced call out of the function the tracer wraps, or stops calling it,
# changes a set; the per-layer metrics of the benchmark would read 0.
# Planning reads one plan per command, so no planning command calls
# resolve_eta, ExperimentConfig.constants or gps_constants, and under
# theorem 4 (the default) none calls the eta_bound span either.  simulate
# runs verify's relation over one trial, so it calls the relation and
# eps_close spans; only verify calls the certificate and post-run checks.
COMMAND_SPANS = {
    "certify": {
        "certificates.boundary", "certificates.lmi_check", "cli.report_write",
        "config.load", "numerics.eig_extremes", "numerics.nsd_check",
    },
    "eta-bound": {
        "certificates.eta_bound", "cli.report_write", "config.load",
        "numerics.eig_extremes", "numerics.spectral_norm",
    },
    "shrink-input-set": {
        "cli.report_write", "config.load", "interface.margin",
        "numerics.eig_extremes", "numerics.spectral_norm",
    },
    "simulate": {
        "abstraction.simulate", "cli.csv_write", "cli.report_write", "config.load",
        "dynamics.rhs.sine", "dynamics.rk4", "interface.margin", "lattice.snap",
        "numerics.eig_extremes", "numerics.spectral_norm", "verify.eps_close",
        "verify.relation", "verify.trial_setup",
    },
    "verify": {
        "abstraction.simulate", "certificates.boundary", "certificates.lmi_check",
        "cli.report_write", "config.load", "dynamics.rhs.sine", "dynamics.rk4",
        "interface.margin", "lattice.snap", "numerics.eig_extremes",
        "numerics.nsd_check", "numerics.spectral_norm", "verify.eps_close", "verify.gps",
        "verify.lyapunov", "verify.relation", "verify.trial_setup",
    },
}

# Eigen-kernel calls per command, summed over the tracer's EIG_SPANS.  The
# plan costs three: eig(P) and ||L'B'PBL|| in the certificate scales, and
# ||C_out||.  The input margin adds ||gain||, and the certificate verdict
# (certify, verify) costs five: eig(P) twice, the block's nsd check, and
# the rate boundary's two extremes.
EIG_CALLS = {
    "certify": 5,
    "eta-bound": 3,
    "shrink-input-set": 4,
    "simulate": 4,
    "verify": 9,
}

COMMAND_FLAGS = {
    "certify": [],
    "eta-bound": ["--theorem", "3"],
    "shrink-input-set": [],
    "simulate": ["--horizon", "0.05"],
    "verify": ["--trials", "2", "--horizon", "0.05"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_SPANS))
def test_traced_call_graph(tmp_path, command):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        main([command, "example_sec6", *COMMAND_FLAGS[command], "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    called = {name for name, (calls, _, _) in tracer.stats.items() if calls}
    assert called == COMMAND_SPANS[command]
    assert tracer.calls(*tracing.EIG_SPANS) == EIG_CALLS[command]
