"""The benchmark tracer (``perfbench/tracing.py``) wraps package functions
by (owner, attribute) name; a rename or a removed import would make its
traced runs fail.  This checks every name without running the benchmark."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = trace_targets()
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
