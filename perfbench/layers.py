"""Per-layer metrics of a traced run.

A traced run measures untraced passes, then traced passes, and keeps the
least disturbed traced pass.  Timed metrics (``*_s``) are seconds of that
pass, taken from the spans of
:mod:`tracing` (``runtime.run_local_s``, the rank-local work, from the
program's per-category accounting).  Counts (terms, kernel calls, DHB
entries, overlap) come from the program's own ``PerfRecorder`` counters,
and communication volume per category from the update-phase statistics of
the engine results.

Each metric and the end-to-end metric it should move are listed in
``README.md``.
"""

from __future__ import annotations

import numpy as np

from drivers import COMM_CATEGORIES

#: categories the workloads charge in their update phase (alltoall, reduce,
#: gather and allgather stay 0 on all of them, so they are not reported)
REPORTED_CATEGORIES = ("redist_comm", "send_recv", "bcast", "scatter", "reduce_scatter",
                       "allreduce")
from tracing import LAYERS, Tracer

#: per-layer metric -> span whose inclusive seconds it reports
SPAN_SECONDS = {
    "scenarios.begin_s": "scenarios.begin",
    "scenarios.advance_s": "scenarios.advance",
    "service.flush_s": "service.flush",
    "service.query_s": "service.query",
    "apps.triangle_insert_s": "apps.triangle_insert",
    "apps.triangle_count_s": "apps.triangle_count",
    "apps.contract_s": "apps.contract",
    "core.apply_updates_s": "core.apply_updates",
    "core.dynamic_algebraic_s": "core.dynamic_algebraic",
    "core.sparse_reduce_s": "core.sparse_reduce",
    "core.dynamic_general_s": "core.dynamic_general",
    "core.bloom_reduce_s": "core.bloom_reduce",
    "core.compute_cstar_s": "core.compute_cstar",
    "core.summa_s": "core.summa",
    "distributed.build_update_s": "distributed.build_update",
    "distributed.redistribute_s": "distributed.redistribute",
    "distributed.operand_update_s": "distributed.operand_update",
    "distributed.construct_s": "distributed.construct",
    "sparse.layout_convert_s": "sparse.layout_convert",
    "sparse.spgemm_s": "sparse.spgemm",
    "sparse.spgemm_masked_s": "sparse.spgemm_masked",
    "sparse.bloom_or_s": "sparse.bloom_or",
    "sparse.dhb_insert_s": "sparse.dhb_insert",
}
#: per-layer metric -> span whose outermost calls it counts
SPAN_CALLS = {
    "sparse.layout_convert_calls": "sparse.layout_convert",
    "sparse.spgemm_calls": "sparse.spgemm",
}

UNITS = {name: "s" for name in SPAN_SECONDS}
UNITS.update({name: "count" for name in SPAN_CALLS})
UNITS.update({f"{layer}.self_s": "s" for layer in LAYERS})
UNITS.update({
    "runtime.run_local_s": "s", "service.flushes": "count", "service.steps_per_flush": "ratio",
    "service.requests_per_step": "ratio", "service.queue_wait_ms_p50": "ms",
    "service.log_steps": "count", "core.touched_per_update": "ratio",
    "sparse.spgemm_terms": "count", "sparse.terms_per_output": "ratio",
    "sparse.scipy_share": "ratio", "sparse.masked_terms": "count",
    "sparse.dhb_insert_entries": "count", "sparse.kernel_tier": "ratio",
    "runtime.modeled_comm_s": "s", "runtime.overlap_hidden_frac": "ratio",
    "trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio",
})
UNITS.update({f"runtime.comm_bytes.{cat}": "B" for cat in REPORTED_CATEGORIES})
UNITS.update({f"runtime.comm_msgs.{cat}": "count" for cat in REPORTED_CATEGORIES})


def traced_pass(workload):
    """One pass with spans recorded and the program's counters on.

    Returns ``(pass result, tracer, counters)``.
    """
    from repro.perf.recorder import PerfRecorder, use_recorder

    recorder = PerfRecorder()
    with Tracer() as tracer, use_recorder(recorder):
        out = workload.run_pass()
    return out, tracer, dict(recorder.counters)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer(workload, passes, traced, tracer: Tracer, counters: dict) -> dict[str, float]:
    """Every per-layer metric (0 where the layer does not run).

    ``passes`` are the untraced passes, ``traced`` the traced pass's result.
    """
    spans = tracer.summary()

    def seconds(name: str) -> float:
        return spans.get(name, {}).get("seconds", 0.0)

    metrics = {metric: seconds(span) for metric, span in SPAN_SECONDS.items()}
    metrics.update({metric: spans.get(span, {}).get("calls", 0)
                    for metric, span in SPAN_CALLS.items()})
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            entry["self_seconds"] for name, entry in spans.items()
            if name.split(".")[0] == layer)
    # the engine's own time on the update path: advance minus its child spans
    metrics["scenarios.self_s"] = spans.get("scenarios.advance", {}).get("self_seconds", 0.0)

    det = traced.det
    is_service = workload.kind == "service"
    metrics.update({
        "service.flushes": det["flushes"] if is_service else 0,
        "service.steps_per_flush": _ratio(det["update_steps"], det["flushes"])
        if is_service else 0.0,
        "service.requests_per_step": _ratio(det.get("requests_applied", 0),
                                            det["update_steps"]) if is_service else 0.0,
        "service.queue_wait_ms_p50": float(np.median(traced.queue_wait_s)) * 1e3
        if is_service else 0.0,
        "service.log_steps": det.get("log_steps", 0),
        "core.touched_per_update": _ratio(det["update_applied"], det["update_tuples"]),
    })
    for cat in REPORTED_CATEGORIES:
        metrics[f"runtime.comm_bytes.{cat}"] = det[f"bytes.{cat}"]
        metrics[f"runtime.comm_msgs.{cat}"] = det[f"messages.{cat}"]

    def count(name: str) -> float:
        return float(counters.get(name, 0))

    rowwise = count("spgemm.rowwise_calls")
    scipy_calls = count("spgemm.scipy_calls")
    hidden = count("overlap.hidden_seconds")
    metrics.update({
        "sparse.spgemm_terms": count("spgemm.terms"),
        # the scipy path counts no terms, so the ratio is only exact without it
        "sparse.terms_per_output": _ratio(count("spgemm.terms"), count("spgemm.output_nnz"))
        if scipy_calls == 0 else 0.0,
        "sparse.scipy_share": _ratio(scipy_calls, scipy_calls + rowwise),
        "sparse.masked_terms": count("spgemm.masked_terms"),
        "sparse.dhb_insert_entries": count("dhb.insert.entries"),
        "sparse.kernel_tier": _ratio(count("kernels.tier_compiled"),
                                     count("kernels.tier_compiled")
                                     + count("kernels.tier_python")),
        "runtime.overlap_hidden_frac": _ratio(hidden,
                                              hidden + count("overlap.exposed_seconds")),
        "runtime.modeled_comm_s": traced.comm_seconds,
        "runtime.run_local_s": traced.local_seconds,
    })
    # the least disturbed untraced pass against the least disturbed traced one
    untraced_p50 = float(np.median(min(passes, key=lambda p: sum(p.batch_s)).batch_s))
    traced_p50 = float(np.median(traced.batch_s))
    metrics["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    metrics["trace.unattributed_frac"] = _ratio(metrics["scenarios.self_s"],
                                                metrics["scenarios.advance_s"])
    return {name: float(value) for name, value in metrics.items()}
