"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the functions named in ``TARGETS`` with timing
wrappers where their callers look them up, and ``uninstall`` puts the
originals back.  Each wrapped call is a span at a layer boundary.  Spans
of cheap layers (RK4 steps, RHS evaluations, quantizer snaps, input-box
checks) run up to a million times per operation, so they are aggregated
into count, total and self time instead of being kept one by one; all
other spans are kept in memory as (id, name, start, end, parent, run id)
and written out by ``dump``.  Self time is a span's duration minus the
time of the wrapped spans directly inside it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (owner, attribute, span name, hot).  The owner is the module or class
# whose attribute callers use, e.g. abstraction calls ``_snap`` through
# its own module namespace.
TARGETS = [
    ("symabs.dynamics:SineSystem", "rhs", "dynamics.rhs.sine", True),
    ("symabs.dynamics:IqcSystem", "rhs", "dynamics.rhs.iqc", True),
    ("symabs.abstraction", "rk4_step", "dynamics.rk4", True),
    ("symabs.abstraction", "_snap", "lattice.snap", True),
    ("symabs.interface:BoxInputSet", "contains", "interface.contains", True),
    ("symabs.verify", "simulate_augmented", "abstraction.simulate", False),
    ("symabs.cli", "simulate_augmented", "abstraction.simulate", False),
    ("symabs.cli", "verify_simulation_relation", "verify.relation", False),
    ("symabs.verify", "trial_rng", "verify.trial_setup", False),
    ("symabs.verify", "draw_box_point", "verify.trial_setup", False),
    ("symabs.verify", "draw_signal", "verify.trial_setup", False),
    ("symabs.cli", "trial_rng", "verify.trial_setup", False),
    ("symabs.cli", "draw_box_point", "verify.trial_setup", False),
    ("symabs.cli", "draw_signal", "verify.trial_setup", False),
    ("symabs.verify", "eps_close", "verify.eps_close", False),
    ("symabs.cli", "verify_gps_trajectory", "verify.gps", False),
    ("symabs.cli", "lyapunov_decrease_check", "verify.lyapunov", False),
    ("symabs.cli", "max_feasible_alpha_sine", "certificates.boundary", False),
    ("symabs.cli", "max_feasible_alpha_iqc", "certificates.boundary", False),
    ("symabs.cli", "check_lmi_sine", "certificates.lmi_check", False),
    ("symabs.cli", "check_lmi_iqc", "certificates.lmi_check", False),
    ("symabs.config", "eta_bound_closed_form", "certificates.eta_bound", False),
    ("symabs.config", "eta_feasible", "certificates.eta_bound", False),
    ("symabs.config", "gps_constants", "certificates.gps_constants", False),
    ("symabs.cli", "load_config", "config.load", False),
    ("symabs.config:ExperimentConfig", "constants", "config.constants", False),
    ("symabs.cli", "resolve_eta", "config.resolve_eta", False),
    ("symabs.cli", "input_margin", "interface.margin", False),
    ("symabs.cli", "shrink_box", "interface.margin", False),
    ("symabs.cli", "write_trajectory_csv", "cli.csv_write", False),
    ("symabs.cli", "_write_report", "cli.report_write", False),
] + [
    # The eigen kernel, in each module that imports it by name.
    (f"symabs.{mod}", fn, f"numerics.{fn}", False)
    for mod, fns in (
        ("certificates", ("eig_extremes", "nsd_check", "spectral_norm")),
        ("config", ("eig_extremes", "spectral_norm")),
        ("interface", ("spectral_norm",)),
    )
    for fn in fns
]

RHS_SPANS = ("dynamics.rhs.sine", "dynamics.rhs.iqc")
EIG_SPANS = ("numerics.eig_extremes", "numerics.nsd_check", "numerics.spectral_norm")


def _resolve(owner: str):
    mod_name, _, cls = owner.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls) if cls else mod


class Tracer:
    def __init__(self):
        # name -> [calls, total seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        # (parent span name, child span name) -> calls
        self.by_parent = defaultdict(int)
        self.spans: list[tuple] = []
        self.counters = defaultdict(float)
        self.run_id = 0
        self.missing: list[str] = []
        # Open frames: [name, span id or None, child seconds].
        self._stack: list[list] = [["root", None, 0.0]]
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------

    def _hot(self, name, fn):
        stack = self._stack
        st = self.stats[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, None, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][2] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[2]

        return wrapper

    def _span(self, name, fn, hook=None):
        stack = self._stack
        st = self.stats[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(self.spans)
            self.spans.append(None)
            frame = [name, span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                parent[2] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[2]
                self.by_parent[(parent[0], name)] += 1
                self.spans[span_id] = (span_id, name, t0, t1, parent[1], self.run_id)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        hooks = {
            "abstraction.simulate": _count_steps,
            "verify.relation": _relation_result,
            "cli.csv_write": _csv_bytes,
        }
        for owner_name, attr, name, hot in TARGETS:
            owner = _resolve(owner_name)
            if attr not in vars(owner):
                self.missing.append(f"{owner_name}.{attr}")
                continue
            fn = vars(owner)[attr]
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._hot(name, fn) if hot else self._span(name, fn, hooks.get(name)))
        # Nonlinearity evaluations: the IQC model takes ``p`` from this
        # table when a config builds it.
        table = importlib.import_module("symabs.config").NONLINEARITIES
        for key, fn in list(table.items()):
            self._undo.append((table, key, fn))
            table[key] = self._counter("dynamics.p_evals", fn)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- results --------------------------------------------------------

    def total(self, *names) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def calls(self, *names) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def self_time(self, name) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def dump(self, path):
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "run"],
            "spans": [s for s in self.spans if s is not None],
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "missing": self.missing,
        }
        path.write_text(json.dumps(doc))


def _count_steps(tracer, args, run):
    tracer.counters["abstraction.steps"] += run.times.shape[0] - 1


def _relation_result(tracer, args, report):
    tracer.counters["verify.trials_failed"] += report.input_violations
    held = sum(
        arr.nbytes
        for run in report.runs
        for arr in vars(run).values()
        if hasattr(arr, "nbytes")
    )
    tracer.counters["verify.runs_held_mb"] = max(tracer.counters["verify.runs_held_mb"], held / 2**20)


def _csv_bytes(tracer, args, result):
    tracer.counters["cli.csv_bytes"] += args[0].stat().st_size


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics, as totals per timed operation where they add up."""
    per = 1.0 / max(ops, 1)
    iqc_rhs = tracer.calls("dynamics.rhs.iqc")
    rhs_calls = tracer.calls(*RHS_SPANS)
    sim_s = tracer.total("abstraction.simulate")
    steps = tracer.counters["abstraction.steps"]
    eig_calls = tracer.calls(*EIG_SPANS)
    eig_s = tracer.total(*EIG_SPANS)
    return {
        "dynamics.rhs_calls": rhs_calls * per,
        "dynamics.rhs_s": tracer.total(*RHS_SPANS) * per,
        "dynamics.rk4_calls": tracer.calls("dynamics.rk4") * per,
        "dynamics.rk4_self_s": tracer.self_time("dynamics.rk4") * per,
        "dynamics.p_evals_per_rhs": tracer.counters["dynamics.p_evals"] / iqc_rhs if iqc_rhs else 0.0,
        "abstraction.simulate_calls": tracer.calls("abstraction.simulate") * per,
        "abstraction.steps": steps * per,
        "abstraction.self_s": tracer.self_time("abstraction.simulate") * per,
        "abstraction.us_per_step": 1e6 * sim_s / steps if steps else 0.0,
        "lattice.snap_calls": tracer.calls("lattice.snap") * per,
        "lattice.snap_s": tracer.total("lattice.snap") * per,
        "interface.contains_calls": tracer.calls("interface.contains") * per,
        "interface.contains_s": tracer.total("interface.contains") * per,
        "interface.margin_s": tracer.total("interface.margin") * per,
        "verify.relation_s": tracer.total("verify.relation") * per,
        "verify.trial_setup_s": tracer.total("verify.trial_setup") * per,
        "verify.eps_close_s": tracer.total("verify.eps_close") * per,
        "verify.gps_s": tracer.total("verify.gps") * per,
        "verify.lyapunov_s": tracer.total("verify.lyapunov") * per,
        "verify.trials_failed": tracer.counters["verify.trials_failed"] * per,
        "verify.runs_held_mb": tracer.counters["verify.runs_held_mb"],
        "numerics.eig_calls": eig_calls * per,
        "numerics.eig_s": eig_s * per,
        "numerics.eig_us_per_call": 1e6 * eig_s / eig_calls if eig_calls else 0.0,
        "certificates.boundary_s": tracer.total("certificates.boundary") * per,
        "certificates.boundary_nsd_checks": tracer.by_parent[("certificates.boundary", "numerics.nsd_check")] * per,
        "certificates.lmi_check_s": tracer.total("certificates.lmi_check") * per,
        "certificates.eta_bound_s": tracer.total("certificates.eta_bound") * per,
        "certificates.gps_constants_calls": tracer.calls("certificates.gps_constants") * per,
        "config.load_s": tracer.total("config.load") * per,
        "config.constants_calls": tracer.calls("config.constants") * per,
        "config.resolve_eta_s": tracer.total("config.resolve_eta") * per,
        "cli.csv_write_s": tracer.total("cli.csv_write") * per,
        "cli.csv_bytes": tracer.counters["cli.csv_bytes"] * per,
        "cli.report_write_s": tracer.total("cli.report_write") * per,
    }
