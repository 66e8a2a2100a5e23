"""Span tracer for the traced benchmark run, installed from outside mmdg.

It wraps module attributes where callers look them up (for example
`mmdg.scheme.moment_flux_divergence`, which `scheme.step` calls through
its own namespace) and class methods, records one span per call
(name, start, end, parent, run id) in memory, and writes them out at the
end.  Nothing in `src/` changes.  `layer_metrics` turns a written trace into
the per-layer metrics the benchmark reports.
"""

import json
import os
import time

# Everything the traced run derives, in print order: name -> unit.  Times
# are inclusive (".s", ".us_per_call") or self (".self_s") seconds.
LAYER_UNITS = {
    "advance.s": "s",
    "scheme.step.calls": "count",
    "scheme.step.self_s": "s",
    "scheme.step.us_per_call": "us",
    "scheme.energy.s": "s",
    "scheme.stable_dt.s": "s",
    "scheme.init_state.s": "s",
    "scheme.save_state.s": "s",
    "scheme.save_state.bytes": "B",
    "operators.moment_flux_divergence.calls": "count",
    "operators.moment_flux_divergence.s": "s",
    "operators.minus_gradient.calls": "count",
    "operators.minus_gradient.s": "s",
    "operators.streaming_fluctuation.calls": "count",
    "operators.streaming_fluctuation.s": "s",
    "operators.flux_divergence.calls": "count",
    "operators.flux_divergence.s": "s",
    "fields.monitors.calls": "count",
    "fields.monitors.s": "s",
    "fields.project.s": "s",
    "fields.l2_distance.s": "s",
    "velocity.bracket.calls": "count",
    "velocity.bracket.s": "s",
    "basis.inverse_constants.s": "s",
    "limit.step_limit.calls": "count",
    "limit.step_limit.s": "s",
    "harness.stencil_build.calls": "count",
    "harness.stencil_build.self_s": "s",
    "harness.stencil_build.probe_cells": "count",
    "harness.stencil_apply.calls": "count",
    "harness.stencil_apply.us_per_call": "us",
    "harness.stencil_apply.flops_computed": "flop",
    "harness.stencil_apply.bytes_computed": "B",
    "harness.propagate.calls": "count",
    "harness.propagate.s": "s",
    "harness.propagate.flops_computed": "flop",
    "harness.packed_norms.calls": "count",
    "harness.packed_norms.s": "s",
    "harness.energy_history.steps_run": "count",
    "harness.energy_history.steps_planned": "count",
    "harness.is_stable.calls": "count",
    "harness.write_csv.s": "s",
    "harness.write_csv.bytes": "B",
    "cli.main.s": "s",
    "trace.overhead_frac": "ratio",
}

# Times of layers that only some workloads run.  They read exactly 0 on the
# others, so they are printed and recorded but left out of the metrics the
# benchmark's JSON line carries; the counts of the same layers stay in it.
PARTIAL_TIMES = (
    "scheme.energy.s",
    "scheme.save_state.s",
    "operators.flux_divergence.s",
    "fields.monitors.s",
    "fields.l2_distance.s",
    "limit.step_limit.s",
    "harness.stencil_build.self_s",
    "harness.stencil_apply.us_per_call",
    "harness.propagate.s",
    "harness.packed_norms.s",
)
PER_LAYER = [name for name in LAYER_UNITS if name not in PARTIAL_TIMES]

# Spans whose inclusive time competes for "dominant layer" of a workload.
LAYER_SPANS = (
    "scheme.step",
    "scheme.energy",
    "scheme.save_state",
    "fields.monitors",
    "fields.l2_distance",
    "limit.step_limit",
    "harness.stencil_build",
    "harness.stencil_apply",
    "harness.propagate",
    "harness.packed_norms",
    "harness.write_csv",
)

DRIVER_SPAN = "harness.run"


def _add_file_bytes(key, path_arg):
    def after(counts, args, out):
        counts[key] = counts.get(key, 0) + os.path.getsize(args[path_arg])

    return after


def _energy_history_steps(counts, args, out):
    counts["harness.energy_history.steps_planned"] += args[2]
    counts["harness.energy_history.steps_run"] += len(out[0]) - 1


def _build_cells(counts, args, out):
    stepper, config = args[0], args[1]
    # one scheme.step on the full mesh per probed unknown of a cell
    counts["harness.stencil_build.probe_cells"] += stepper.block * config.mesh.n_cells


def _apply_work(counts, args, out):
    n, b = args[1].shape
    # 5 products (n x b) @ (b x b), 4 accumulations; each product reads an
    # np.roll copy it first wrote, and each accumulation reads and writes out
    counts["harness.stencil_apply.flops_computed"] += 5 * 2 * n * b * b + 4 * n * b
    counts["harness.stencil_apply.bytes_computed"] += 8 * (32 * n * b + 5 * b * b)


def _propagate_work(counts, args, out):
    stepper, packed, n_steps = args[0], args[1], args[2]
    if n_steps <= 8:  # stepped with apply, which counts itself
        return
    n, b = packed.shape
    freqs = n // 2 + 1
    products = (n_steps.bit_length() - 1) + bin(n_steps).count("1")
    # complex b x b matmul: 8 b^3 real flops; then one complex mat-vec per freq
    counts["harness.propagate.flops_computed"] += 8 * freqs * b**3 * products + 8 * freqs * b * b


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.run_id = os.getpid()  # one traced driver run per process
        self.names = []
        self.spans = []  # (name id, start, end, parent span index, run id)
        self.stack = []  # open spans: (span index, name id)
        self.counts = {
            "harness.stencil_build.probe_cells": 0,
            "harness.stencil_apply.flops_computed": 0,
            "harness.stencil_apply.bytes_computed": 0,
            "harness.propagate.flops_computed": 0,
            "harness.energy_history.steps_run": 0,
            "harness.energy_history.steps_planned": 0,
            "scheme.save_state.bytes": 0,
            "harness.write_csv.bytes": 0,
        }

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, after=None, only_under=None):
        """Return fn recording a span per call.

        after(counts, args, result) adds work counts.  With only_under, a
        span is recorded only when the innermost open span has that name;
        other calls pass straight through and stay in their caller's time.
        """
        nid = self._name_id(name)
        gate = None if only_under is None else self._name_id(only_under)
        spans, stack, counts, run_id = self.spans, self.stack, self.counts, self.run_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if gate is not None and (not stack or stack[-1][1] != gate):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append((idx, nid))
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, run_id)
            if after is not None:
                after(counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, name, **kw):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def install(self):
        """Wrap every layer entry point of mmdg where its callers look it up."""
        from mmdg import cli, fields, harness, limit, scheme, velocity

        p = self._patch
        p(cli, "run", DRIVER_SPAN)
        for attr in ("step", "energy", "stable_dt", "init_state"):
            p(scheme, attr, f"scheme.{attr}")
        p(scheme, "save_state", "scheme.save_state",
          after=_add_file_bytes("scheme.save_state.bytes", 2))
        for attr in ("moment_flux_divergence", "minus_gradient", "streaming_fluctuation"):
            p(scheme, attr, f"operators.{attr}")
        for attr in ("flux_divergence", "minus_gradient"):
            p(limit, attr, f"operators.{attr}")
        for owner, attr in ((scheme, "project"), (scheme, "project_kinetic"), (limit, "project")):
            p(owner, attr, "fields.project")
        p(scheme, "inverse_constants", "basis.inverse_constants")
        for attr in ("l2_distance", "l2_error"):
            p(harness, attr, f"fields.{attr}")
        p(harness, "step_limit", "limit.step_limit")
        stepper = harness.StencilStepper
        p(stepper, "__init__", "harness.stencil_build", after=_build_cells)
        p(stepper, "apply", "harness.stencil_apply", after=_apply_work)
        p(stepper, "propagate", "harness.propagate", after=_propagate_work)
        for attr in ("rho_norm_sq", "g_norm_sq"):
            p(stepper, attr, "harness.packed_norms")
        p(harness, "energy_history", "harness.energy_history", after=_energy_history_steps)
        p(harness, "is_stable", "harness.is_stable")
        p(harness, "write_csv", "harness.write_csv",
          after=_add_file_bytes("harness.write_csv.bytes", 0))
        # norms and integrals the drivers compute as monitors, not the ones
        # inside scheme.step or scheme.energy
        for owner, attr in (
            (fields.DGField, "norm"),
            (fields.DGField, "integral"),
            (fields.KineticField, "triple_norm"),
            (fields.KineticField, "bracket"),
        ):
            p(owner, attr, "fields.monitors", only_under=DRIVER_SPAN)
        p(velocity.VelocitySpace, "bracket", "velocity.bracket")

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": self.counts}, fh)


def span_totals(doc):
    """Per span name: [calls, inclusive seconds, self seconds].

    Self time is a span's duration minus the durations of its direct
    children, which lie inside it because calls nest.
    """
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for i, (nid, start, end, _, _) in enumerate(spans):
        entry = totals.setdefault(names[nid], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child[i]
    return totals


def advance_seconds(doc):
    """Time spent advancing solutions, whichever stepping path ran.

    Counts scheme.step calls outside stencil builds, stencil applies outside
    propagate, propagate, and limit steps; every workload spends most of its
    time here, so this one time is comparable across all of them.
    """
    names, spans = doc["names"], doc["spans"]
    skip_under = {"scheme.step": "harness.stencil_build", "harness.stencil_apply": "harness.propagate"}
    counted = {"scheme.step", "harness.stencil_apply", "harness.propagate", "limit.step_limit"}
    total = 0.0
    for nid, start, end, parent, _ in spans:
        name = names[nid]
        if name not in counted:
            continue
        if parent >= 0 and names[spans[parent][0]] == skip_under.get(name):
            continue
        total += end - start
    return total


def layer_metrics(doc, untraced_wall_s):
    """Per-layer metric values from a written trace.

    untraced_wall_s is the median wall time of the same invocation with
    tracing off; trace.overhead_frac compares the traced root span to it.
    """
    totals = span_totals(doc)

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    def us_per_call(name):
        return 1e6 * incl(name) / calls(name) if calls(name) else 0.0

    values = dict(doc["counts"])
    for key in LAYER_UNITS:
        if key in values:
            continue
        name, _, stat = key.rpartition(".")
        if stat == "calls":
            values[key] = calls(name)
        elif stat == "s":
            values[key] = incl(name)
        elif stat == "self_s":
            values[key] = self_s(name)
        elif stat == "us_per_call":
            values[key] = us_per_call(name)
    values["advance.s"] = advance_seconds(doc)
    values["trace.overhead_frac"] = incl("cli.main") / untraced_wall_s - 1.0
    return {key: values[key] for key in LAYER_UNITS}


def layer_shares(doc):
    """Inclusive time of each layer span as a share of the root span."""
    totals = span_totals(doc)
    root = totals["cli.main"][1]
    return {name: totals[name][1] / root for name in LAYER_SPANS if name in totals}
