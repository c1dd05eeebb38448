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
COMMAND_SPANS = {
    "certify": {
        "certificates.boundary", "certificates.lmi_check", "cli.report_write",
        "config.load", "numerics.eig_extremes", "numerics.nsd_check",
    },
    "eta-bound": {
        "certificates.eta_bound", "certificates.gps_constants", "cli.report_write",
        "config.constants", "config.load", "config.resolve_eta",
        "numerics.eig_extremes", "numerics.spectral_norm",
    },
    "shrink-input-set": {
        "certificates.eta_bound", "certificates.gps_constants", "cli.report_write",
        "config.constants", "config.load", "config.resolve_eta", "interface.margin",
        "numerics.eig_extremes", "numerics.spectral_norm",
    },
    "simulate": {
        "abstraction.simulate", "certificates.eta_bound", "certificates.gps_constants",
        "cli.csv_write", "cli.report_write", "config.constants", "config.load",
        "config.resolve_eta", "dynamics.rhs.sine", "dynamics.rk4", "interface.margin",
        "lattice.snap", "numerics.eig_extremes", "numerics.spectral_norm",
        "verify.trial_setup",
    },
    "verify": {
        "abstraction.simulate", "certificates.boundary", "certificates.eta_bound",
        "certificates.gps_constants", "certificates.lmi_check", "cli.report_write",
        "config.constants", "config.load", "config.resolve_eta", "dynamics.rhs.sine",
        "dynamics.rk4", "interface.margin", "lattice.snap", "numerics.eig_extremes",
        "numerics.nsd_check", "numerics.spectral_norm", "verify.eps_close", "verify.gps",
        "verify.lyapunov", "verify.relation", "verify.trial_setup",
    },
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
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        main([command, "example_sec6", *COMMAND_FLAGS[command], "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    called = {name for name, (calls, _, _) in tracer.stats.items() if calls}
    assert called == COMMAND_SPANS[command]
