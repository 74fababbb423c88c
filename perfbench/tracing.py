"""Spans and counts recorded around the calls into each negwit layer.

The tracer patches module attributes of ``negwit`` from outside the package,
so nothing under ``src/`` changes.  Every patched call becomes a span
(name, start, end, parent); the spans of one pass hang under a root span
named ``pass``.  Layer metrics are then read off the spans: a span's self
time is its duration minus the durations of its direct children, so the
self times of one pass add up to the pass's traced wall time by
construction.  What tracing adds to that time is estimated from the cost
of one wrapped call (``wrapper_cost``) times the number of spans.
"""

from __future__ import annotations

import functools
import time

# no-op calls timed, wrapped and bare, to estimate the cost of one wrapper
PROBE_CALLS = 20000

# span name -> the per-layer metric its self time is added to
SELF_METRIC = {
    "pass": "trace.other_s",
    "conic.solve": "conic.solve_s",
    "witness.build_lower": "witness.build_s",
    "witness.build_lower_dual": "witness.build_s",
    "witness.build_upper_compact": "witness.build_s",
    "witness.solve_lower": "witness.driver_s",
    "witness.solve_upper": "witness.driver_s",
    "witness.threshold_bounds": "witness.driver_s",
    "witness.fock_bounds_table": "witness.driver_s",
    "multimode.build_lower_multi": "multimode.build_s",
    "multimode.build_upper_multi_compact": "multimode.build_s",
    "multimode.solve_lower_multi": "multimode.driver_s",
    "multimode.solve_upper_multi": "multimode.driver_s",
    "torpedo.classical_value": "torpedo.classical_s",
    "torpedo.bounded_memory_ncf": "torpedo.pricing_s",
    "torpedo._master_lp": "torpedo.lp_s",
    "contextuality.incidence": "contextuality.incidence_s",
    "contextuality.linprog": "contextuality.lp_s",
    "contextuality.ncf": "contextuality.driver_s",
    "contextuality.bell_inequality": "contextuality.driver_s",
    "contextuality.bin_outcomes": "contextuality.model_s",
    "contextuality.EmpiricalModel": "contextuality.model_s",
    "cli.main": "cli.self_s",
}

# solvers whose return value says which of their conic solves were kept
POLICY_SOLVERS = {
    "witness.solve_lower",
    "witness.solve_upper",
    "multimode.solve_lower_multi",
    "multimode.solve_upper_multi",
}

# every per-layer metric, in the order they are printed
LAYER_METRICS = {
    "conic.solve_s": "s",
    "conic.solves": "count",
    "conic.iterations": "count",
    "conic.ms_per_iteration": "ms",
    "conic.double_s": "s",
    "conic.extended_s": "s",
    "conic.extended_iterations": "count",
    "conic.optimal_solves": "count",
    "conic.stalled_solves": "count",
    "conic.discarded_s": "s",
    "conic.kept_ratio": "ratio",
    "witness.build_s": "s",
    "witness.builds": "count",
    "witness.driver_s": "s",
    "multimode.build_s": "s",
    "multimode.driver_s": "s",
    "torpedo.classical_s": "s",
    "torpedo.pricing_s": "s",
    "torpedo.lp_s": "s",
    "torpedo.lp_calls": "count",
    "contextuality.incidence_s": "s",
    "contextuality.lp_s": "s",
    "contextuality.lp_calls": "count",
    "contextuality.model_s": "s",
    "contextuality.driver_s": "s",
    "cli.self_s": "s",
    "cli.invocations": "count",
    "trace.other_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _patch_targets():
    """(owner, attribute, span name) for every traced call."""
    from negwit import cli, conic, contextuality, multimode, torpedo, witness

    targets = [(conic, "solve", "conic.solve")]
    for name in (
        "build_lower", "build_lower_dual", "build_upper_compact",
        "solve_lower", "solve_upper", "threshold_bounds", "fock_bounds_table",
    ):
        targets.append((witness, name, f"witness.{name}"))
    for name in (
        "build_lower_multi", "build_upper_multi_compact",
        "solve_lower_multi", "solve_upper_multi",
    ):
        targets.append((multimode, name, f"multimode.{name}"))
    for name in ("classical_value", "bounded_memory_ncf", "_master_lp"):
        targets.append((torpedo, name, f"torpedo.{name}"))
    for name in ("incidence", "ncf", "bell_inequality", "bin_outcomes", "linprog"):
        targets.append((contextuality, name, f"contextuality.{name}"))
    # EmpiricalModel validates itself in __post_init__, which the dataclass
    # __init__ looks up on the class at every construction
    targets.append(
        (contextuality.EmpiricalModel, "__post_init__", "contextuality.EmpiricalModel")
    )
    targets.append((cli, "main", "cli.main"))
    return targets


def wrapper_cost():
    """Seconds one traced call adds to a bare one, timed on a no-op."""

    def noop():
        return None

    wrapped = Tracer()._wrap("pass", noop)
    t0 = time.perf_counter()
    for _ in range(PROBE_CALLS):
        noop()
    t1 = time.perf_counter()
    for _ in range(PROBE_CALLS):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / PROBE_CALLS)


def _plain(value):
    """A float for JSON: solver info holds np.longdouble after extended solves."""
    return None if value is None else float(value)


class Tracer:
    """Records the spans of one pass; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._solutions = {}
        self._saved = []

    def install(self):
        for owner, attr, name in _patch_targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _open(self, name):
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx):
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == "conic.solve":
                self._record_solve(idx, result)
            elif name in POLICY_SOLVERS:
                self._record_kept(idx, result)
            return result

        return traced

    def _record_solve(self, idx, sol):
        rec = self.spans[idx]
        rec["precision"] = sol.info.get("precision")
        rec["status"] = sol.status
        rec["iterations"] = int(sol.iterations)
        rec["comp"] = _plain(sol.info.get("comp"))
        rec["kept"] = True
        self._solutions[idx] = sol

    def _record_kept(self, idx, returned):
        for child, sol in list(self._solutions.items()):
            if self.spans[child]["parent"] == idx:
                self.spans[child]["kept"] = any(r is sol for r in returned)
                del self._solutions[child]

    def run_pass(self, fn):
        """Run fn() under a root span; returns (fn's result, traced wall s)."""
        self.spans, self._stack, self._solutions = [], [], {}
        idx = self._open("pass")
        try:
            result = fn()
        finally:
            self._close(idx)
            self._solutions.clear()
        root = self.spans[idx]
        return result, root["end"] - root["start"]

    def layer_metrics(self):
        """Per-layer metrics of the last pass (0 for a layer the pass skips)."""
        out = {key: 0.0 for key in LAYER_METRICS}
        child_s = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_s[rec["parent"]] += rec["end"] - rec["start"]
        kept = 0
        for i, rec in enumerate(self.spans):
            dur = rec["end"] - rec["start"]
            out[SELF_METRIC[rec["name"]]] += dur - child_s[i]
            name = rec["name"]
            if name == "conic.solve":
                out["conic.solves"] += 1
                iterations = rec.get("iterations", 0)
                out["conic.iterations"] += iterations
                if rec.get("precision") == "extended":
                    out["conic.extended_s"] += dur
                    out["conic.extended_iterations"] += iterations
                else:
                    out["conic.double_s"] += dur
                if rec.get("status") == "optimal":
                    out["conic.optimal_solves"] += 1
                elif rec.get("status") == "numerical_limit":
                    out["conic.stalled_solves"] += 1
                if rec.get("kept", False):
                    kept += 1
                else:
                    out["conic.discarded_s"] += dur
            elif name.startswith("witness.build_"):
                out["witness.builds"] += 1
            elif name == "torpedo._master_lp":
                out["torpedo.lp_calls"] += 1
            elif name == "contextuality.linprog":
                out["contextuality.lp_calls"] += 1
            elif name == "cli.main":
                out["cli.invocations"] += 1
        if out["conic.iterations"]:
            out["conic.ms_per_iteration"] = (
                1000.0 * out["conic.solve_s"] / out["conic.iterations"]
            )
        if out["conic.solves"]:
            out["conic.kept_ratio"] = kept / out["conic.solves"]
        return out

    def spans_json(self):
        """Spans with times in seconds from the start of the pass."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [
            {**rec, "start": rec["start"] - t0, "end": rec["end"] - t0}
            for rec in self.spans
        ]
