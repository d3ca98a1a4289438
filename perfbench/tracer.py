"""Spans around the calls into each psqkd layer, for the traced run.

``install`` wraps the public functions listed in ``LAYERS`` and rebinds
every reference to them in the loaded ``psqkd`` modules, so the calls the
CLI makes, and the calls one layer makes into another, all pass through a
span.  The program's files are not changed; the wrappers live here.

A span records its name, start, end and parent.  Spans down to
``KEEP_DEPTH`` (the pass, each CLI invocation, and the layer calls the CLI
makes directly) are kept one by one; deeper calls, of which a sweep makes
about a million, are folded into one row per (name, kept ancestor) with
their call count, total and self time.  Every span also adds to its layer's
totals, from which ``layer_metrics`` derives the per-layer numbers.  A
span's self time is its duration minus the time its child spans cover.

This module imports nothing from psqkd at import time, so the parent
process can use ``layer_metrics`` without loading the program.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

KEEP_DEPTH = 2
PASS = "pass"


class Tracer:
    """In-memory spans of one workload pass, plus per-layer totals."""

    def __init__(self, workload: str):
        self.workload = workload
        self.origin = perf_counter()
        self.spans = []     # (id, name, start_s, end_s, parent id)
        self.folded = {}    # (name, kept ancestor id) -> [calls, total_s, self_s]
        self.layers = {}    # name -> {"calls", "total_s", "self_s", counters...}
        self._stack = []    # frames: [name, start, child_s, id or None, anchor id]
        self._next_id = 0

    def push(self, name: str) -> list:
        stack = self._stack
        if len(stack) <= KEEP_DEPTH:
            sid = self._next_id
            self._next_id += 1
            anchor = sid
        else:
            sid = None
            anchor = stack[-1][4]
        frame = [name, 0.0, 0.0, sid, anchor]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def pop(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child, sid, anchor = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        agg = self.layers.get(name)
        if agg is None:
            agg = self.layers[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        agg["calls"] += 1
        agg["total_s"] += duration
        agg["self_s"] += duration - child
        if sid is not None:
            parent = stack[-1][3] if stack else None
            self.spans.append((sid, name, start - self.origin, end - self.origin, parent))
        else:
            row = self.folded.get((name, anchor))
            if row is None:
                row = self.folded[(name, anchor)] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child

    def count(self, name: str, counters: dict) -> None:
        agg = self.layers[name]
        for key, value in counters.items():
            agg[key] = agg.get(key, 0) + value

    def export(self) -> dict:
        """JSON-ready spans, folded rows and layer totals."""
        wl = self.workload
        return {
            "spans": [{"id": s, "name": n, "start": a, "end": b, "parent": p,
                       "workload": wl} for s, n, a, b, p in self.spans],
            "folded": [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": x,
                        "workload": wl} for (n, p), (c, t, x) in self.folded.items()],
            "layers": self.layers,
        }


# ---------------------------------------------------------------------------
# the wrapped layers

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _cov_name(args, kwargs):
    src = _arg(args, kwargs, 0, "src")
    return "subtraction.cov_ideal" if src.eta_d == 1.0 else "subtraction.cov_lossy"


def _optimize_name(args, kwargs):
    bands = _arg(args, kwargs, 4, "with_bands", True)
    return "analysis.optimize_t_bands" if bands else "analysis.optimize_t"


def _sample_name(args, kwargs):
    keep = _arg(args, kwargs, 4, "keep_records", True)
    return "montecarlo.sample_records" if keep else "montecarlo.sample"


def _sampled(args, kwargs, result):
    return {"rounds": _arg(args, kwargs, 2, "n_samples"),
            "accepted": result.estimate.n_accepted}


def _decoded(args, kwargs, result):
    bits, iters = result
    return {"edge_iters": _arg(args, kwargs, 0, "code").n_edges * iters,
            "iters": iters, "converged": int(bits is not None)}


# (module, function, span name or a function of the call's arguments,
#  observer returning counters from (args, kwargs, result) or None)
LAYERS = (
    ("psqkd.gaussian", "apply_channel", "gaussian.apply_channel", None),
    ("psqkd.gaussian", "key_rate_homodyne", "gaussian.key_rate_homodyne", None),
    ("psqkd.subtraction", "covariance_subtracted", _cov_name, None),
    ("psqkd.subtraction", "filter_q", "subtraction.filter_q",
     lambda a, k, r: {"elements": getattr(_arg(a, k, 0, "x_a"), "size", 1)}),
    ("psqkd.analysis", "pipeline_key_rate", "analysis.pipeline_key_rate", None),
    ("psqkd.analysis", "optimize_t", _optimize_name, None),
    ("psqkd.analysis", "tolerable_excess_noise", "analysis.tolerable_excess_noise", None),
    ("psqkd.analysis", "landscape", "analysis.landscape", None),
    ("psqkd.fock", "suggested_cutoff", "fock.suggested_cutoff",
     lambda a, k, r: {"cutoff": r}),
    ("psqkd.fock", "build_split_tmsv", "fock.build_split_tmsv", None),
    ("psqkd.fock", "apply_detector_loss", "fock.apply_detector_loss", None),
    ("psqkd.fock", "condition_on_count", "fock.condition_on_count", None),
    ("psqkd.montecarlo", "run_experiment", _sample_name, _sampled),
    ("psqkd.montecarlo", "collect_accepted_pairs", "montecarlo.collect_accepted_pairs",
     lambda a, k, r: {"pairs": _arg(a, k, 2, "n_pairs")}),
    ("psqkd.montecarlo", "rescale_and_filter", "montecarlo.rescale_and_filter",
     lambda a, k, r: {"rows": len(_arg(a, k, 0, "records"))}),
    ("psqkd.montecarlo", "export_records", "montecarlo.export_records",
     lambda a, k, r: {"rows": len(_arg(a, k, 0, "records"))}),
    ("psqkd.montecarlo", "load_records", "montecarlo.load_records",
     lambda a, k, r: {"rows": len(r)}),
    ("psqkd.reconciliation.ldpc", "peg_construct", "ldpc.peg_construct",
     lambda a, k, r: {"edges": r.n_edges}),
    ("psqkd.reconciliation.bp", "decode_syndrome", "bp.decode_syndrome", _decoded),
    ("psqkd.reconciliation.multidim", "encode_side_info", "multidim.encode_side_info", None),
    ("psqkd.reconciliation.multidim", "decode", "multidim.decode", None),
    ("psqkd.reconciliation.multidim", "mu_of_snr", "multidim.mu_of_snr", None),
    ("psqkd.reconciliation.multidim", "snr_estimate", "multidim.snr_estimate", None),
    ("psqkd.reconciliation.rotation", "rotation_coefficients",
     "rotation.rotation_coefficients", None),
    ("psqkd.reconciliation.rotation", "apply_rotation", "rotation.apply_rotation",
     lambda a, k, r: {"symbols": getattr(_arg(a, k, 1, "w"), "size", 8)}),
    ("psqkd.reconciliation.bench", "bench", "bench.bench", None),
    ("psqkd.reconciliation.bench", "gaussian_pairs", "bench.gaussian_pairs", None),
    ("psqkd.reconciliation.bench", "accepted_pairs", "bench.accepted_pairs", None),
    ("psqkd.reconciliation.bench", "matched_channel", "bench.matched_channel", None),
)


def _wrap(tracer: Tracer, fn, name, observe):
    pick = name if callable(name) else None

    def traced(*args, **kwargs):
        frame = tracer.push(pick(args, kwargs) if pick else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop(frame)
        if observe is not None:
            tracer.count(frame[0], observe(args, kwargs, result))
        return result

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer):
    """Route every psqkd reference to a LAYERS function through a span.

    Returns a function that restores the original bindings.
    """
    restore = []
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "psqkd" or key.startswith("psqkd."))]
    for module_name, attr, name, observe in LAYERS:
        fn = getattr(importlib.import_module(module_name), attr)
        wrapper = _wrap(tracer, fn, name, observe)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
                    restore.append((module, key, fn))

    def uninstall():
        for module, key, fn in restore:
            setattr(module, key, fn)

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics derived from the layer totals

def _get(layers, name, key):
    return layers.get(name, {}).get(key, 0)


def per_call(name, scale):
    def value(layers):
        calls = _get(layers, name, "calls")
        return _get(layers, name, "total_s") * scale / calls if calls else 0.0
    return value


def per_unit(name, counter, scale):
    def value(layers):
        units = _get(layers, name, counter)
        return _get(layers, name, "total_s") * scale / units if units else 0.0
    return value


def mean(name, counter):
    def value(layers):
        calls = _get(layers, name, "calls")
        return _get(layers, name, counter) / calls if calls else 0.0
    return value


def calls(name):
    return lambda layers: _get(layers, name, "calls")


def accept_frac(layers):
    rounds = sum(_get(layers, n, "rounds") for n in ("montecarlo.sample",
                                                     "montecarlo.sample_records"))
    accepted = sum(_get(layers, n, "accepted") for n in ("montecarlo.sample",
                                                         "montecarlo.sample_records"))
    return accepted / rounds if rounds else 0.0


def self_by_module(layers) -> dict:
    """Self time of every psqkd module that ran, from the layer totals.

    The pass and the CLI invocation spans are not psqkd layers.
    """
    own = {}
    for name, agg in layers.items():
        if name != PASS and not name.startswith("cli."):
            module = name.split(".")[0]
            own[module] = own.get(module, 0.0) + agg["self_s"]
    return own


def oracle_ms(layers):
    """Time inside the fock module per oracle invocation."""
    runs = _get(layers, "cli.oracle", "calls")
    return self_by_module(layers).get("fock", 0.0) * 1e3 / runs if runs else 0.0


_RECONCILIATION = (
    ("ldpc.peg_us_per_edge", "us", per_unit("ldpc.peg_construct", "edges", 1e6)),
    ("ldpc.edges", "count", mean("ldpc.peg_construct", "edges")),
    ("bp.ns_per_edge_iter", "ns", per_unit("bp.decode_syndrome", "edge_iters", 1e9)),
    ("bp.iters_per_block", "count", mean("bp.decode_syndrome", "iters")),
    ("bp.converged_frac", "fraction", mean("bp.decode_syndrome", "converged")),
    ("multidim.encode_ms_per_block", "ms", per_call("multidim.encode_side_info", 1e3)),
    ("multidim.mu_of_snr_ms", "ms", per_call("multidim.mu_of_snr", 1e3)),
    ("multidim.snr_estimate_ms", "ms", per_call("multidim.snr_estimate", 1e3)),
    ("rotation.apply_ns_per_symbol", "ns",
     per_unit("rotation.apply_rotation", "symbols", 1e9)),
)

# Per workload: the modules whose self time is reported, and the unit costs
# of the layers the workload exercises (suffix, unit, value from layers).
WORKLOAD_LAYERS = {
    "sweep": (
        ("gaussian", "subtraction", "analysis", "fock"),
        (
            ("gaussian.key_rate_homodyne_us", "us",
             per_call("gaussian.key_rate_homodyne", 1e6)),
            ("gaussian.apply_channel_us", "us", per_call("gaussian.apply_channel", 1e6)),
            ("subtraction.cov_ideal_us", "us", per_call("subtraction.cov_ideal", 1e6)),
            ("subtraction.cov_lossy_us", "us", per_call("subtraction.cov_lossy", 1e6)),
            ("analysis.pipeline_key_rate_us", "us",
             per_call("analysis.pipeline_key_rate", 1e6)),
            ("analysis.pipeline_key_rate_calls", "count",
             calls("analysis.pipeline_key_rate")),
            ("analysis.optimize_t_ms", "ms", per_call("analysis.optimize_t", 1e3)),
            ("analysis.optimize_t_bands_ms", "ms",
             per_call("analysis.optimize_t_bands", 1e3)),
            ("analysis.tolerable_noise_ms", "ms",
             per_call("analysis.tolerable_excess_noise", 1e3)),
            ("fock.oracle_ms", "ms", oracle_ms),
            ("fock.cutoff", "count", mean("fock.suggested_cutoff", "cutoff")),
        ),
    ),
    "protocol": (
        ("gaussian", "subtraction", "montecarlo", "ldpc", "bp", "multidim", "rotation",
         "bench"),
        (
            ("subtraction.filter_q_ns", "ns",
             per_unit("subtraction.filter_q", "elements", 1e9)),
            ("montecarlo.sample_ns_per_round", "ns",
             per_unit("montecarlo.sample", "rounds", 1e9)),
            ("montecarlo.sample_records_ns_per_round", "ns",
             per_unit("montecarlo.sample_records", "rounds", 1e9)),
            ("montecarlo.accept_frac", "fraction", accept_frac),
            ("montecarlo.rescale_ns_per_row", "ns",
             per_unit("montecarlo.rescale_and_filter", "rows", 1e9)),
            ("montecarlo.export_us_per_row", "us",
             per_unit("montecarlo.export_records", "rows", 1e6)),
            ("montecarlo.load_us_per_row", "us",
             per_unit("montecarlo.load_records", "rows", 1e6)),
        ) + _RECONCILIATION,
    ),
    "reconcile": (
        ("subtraction", "montecarlo", "ldpc", "bp", "multidim", "rotation", "bench"),
        (
            ("montecarlo.collect_ns_per_pair", "ns",
             per_unit("montecarlo.collect_accepted_pairs", "pairs", 1e9)),
            ("subtraction.filter_q_ns", "ns",
             per_unit("subtraction.filter_q", "elements", 1e9)),
            ("bench.gaussian_pairs_ms", "ms", per_call("bench.gaussian_pairs", 1e3)),
        ) + _RECONCILIATION,
    ),
}


def layer_metrics(workload: str, layers: dict, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    cli.self_s is the traced wall time not covered by the self time of any
    psqkd layer: argument parsing, rendering and writing artifacts, plus
    the tracer's own cost.  The module self times and cli.self_s therefore
    add up to trace.wall_s.
    """
    wall = _get(layers, PASS, "total_s")
    own = self_by_module(layers)
    in_layers = sum(own.values())
    out = {
        f"{workload}.cli.self_s": (wall - in_layers, "s"),
        f"{workload}.trace.wall_s": (wall, "s"),
        f"{workload}.trace.overhead_s": (wall - untraced_wall_s, "s"),
    }
    modules, unit_costs = WORKLOAD_LAYERS[workload]
    for module in modules:
        out[f"{workload}.{module}.self_s"] = (own.get(module, 0.0), "s")
    for suffix, unit, value in unit_costs:
        out[f"{workload}.{suffix}"] = (value(layers), unit)
    return out
