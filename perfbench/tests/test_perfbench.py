"""Tests of the benchmark itself, at a tiny size per workload.

They check that every named metric is emitted with its unit, that a traced
run records spans for each layer the workload runs, that the output checks
fail loudly, and that inputs and deterministic counts follow the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import drivers  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "algebraic_stream": dict(drivers.WORKLOADS["algebraic_stream"], ranks=4,
                             scale_divisor=32768, batch_size=16, batches=4),
    "general_churn": dict(drivers.WORKLOADS["general_churn"], ranks=4,
                          scale_divisor=32768, batch_size=8, batches=3),
    "service_mixed": dict(drivers.WORKLOADS["service_mixed"], scale_divisor=32768,
                          n_ops=40, query_every=10, flush_size=4, tri_every=2),
}
#: layers each workload runs (spans expected in a traced pass)
LAYERS_RUN = {
    "algebraic_stream": {"scenarios", "core", "distributed", "sparse"},
    "general_churn": {"scenarios", "core", "distributed", "sparse"},
    "service_mixed": {"scenarios", "service", "apps", "core", "distributed", "sparse"},
}
DETERMINISTIC = ("comm_bytes_per_update", "comm_msgs_per_batch")


def bench(tmp_path, workload: str, *, seed: int = 3, trace: int = 0):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                         "--trace", str(trace), "--out", str(tmp_path)],
                        workloads=TINY, min_batches=1)
    lines = stdout.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), json.loads(lines[-2].split(" ", 1)[1])


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Per workload: the traced run's exit code, result and span names."""
    from repro.scenarios.engine import ScenarioEngine
    from repro.core import api

    advance, general = ScenarioEngine.advance, api.dynamic_spgemm_general
    runs = {}
    for workload in TINY:
        out = tmp_path_factory.mktemp(workload)
        code, result, _ = bench(out, workload, trace=1)
        spans = [json.loads(line) for line in
                 (out / f"{workload}-seed3-trace1.spans.jsonl").read_text().splitlines()]
        runs[workload] = code, result, spans
    # every wrapped binding is restored after the traced pass
    assert ScenarioEngine.advance is advance and api.dynamic_spgemm_general is general
    return runs


def benchmark_json() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(drivers.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics_emitted_and_checked(tmp_path, workload):
    code, result, detail = bench(tmp_path, workload)
    assert code == 0, detail["errors"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["error_rate"] == 0.0
    stamp = detail["stamp"]
    for key in ("git_sha", "seed", "nproc", "python", "numpy", "scipy", "numba",
                "mpi4py", "kernel_tier", "env", "trace_digest"):
        assert key in stamp
    assert set(stamp["env"]) == set(run.STAMPED_ENV)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_reports_layers(traced_runs, workload):
    code, result, spans = traced_runs[workload]
    assert code == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layers.UNITS
    assert "trace.overhead_frac" in result["metrics"]
    assert "trace.unattributed_frac" in result["metrics"]
    assert LAYERS_RUN[workload] <= {span["name"].split(".")[0] for span in spans}
    assert all(span["end"] >= span["start"] for span in spans)


def test_every_span_metric_is_recorded_on_some_workload(traced_runs):
    recorded = {span["name"] for _, _, spans in traced_runs.values() for span in spans}
    assert set(layers.SPAN_SECONDS.values()) <= recorded
    for workload, (_, result, spans) in traced_runs.items():
        names = {span["name"] for span in spans}
        for metric, span in layers.SPAN_SECONDS.items():
            if span in names:
                assert result["metrics"][metric]["value"] > 0, (workload, metric)


def test_unresolved_span_target_raises():
    from repro.scenarios.engine import ScenarioEngine

    advance = ScenarioEngine.advance
    targets = {"scenarios.advance": [("repro.scenarios.engine", "ScenarioEngine.advance")],
               "gone": [("repro.scenarios.engine", "ScenarioEngine.no_such_method")]}
    with pytest.raises(LookupError, match="no_such_method"):
        tracing.Tracer().install(targets)
    assert ScenarioEngine.advance is advance


def test_same_seed_same_inputs_and_counts(tmp_path, traced_runs):
    first = bench(tmp_path, "general_churn", seed=5)
    again = bench(tmp_path, "general_churn", seed=5)
    other = bench(tmp_path, "general_churn", seed=6)
    digest = lambda run_: run_[2]["stamp"]["trace_digest"]  # noqa: E731
    assert digest(first) == digest(again) != digest(other)
    for name in DETERMINISTIC:
        assert first[1]["metrics"][name] == again[1]["metrics"][name]
    traced = traced_runs["service_mixed"][1]["metrics"]
    traced_again = bench(tmp_path, "service_mixed", seed=3, trace=1)[1]["metrics"]
    for name in traced:
        if name.startswith(("runtime.comm_", "sparse.spgemm_terms", "service.steps_per")):
            assert traced[name] == traced_again[name], name


def test_input_generators_are_byte_identical_per_seed():
    cfg = TINY["service_mixed"]
    kwargs = {k: cfg[k] for k in ("scale_divisor", "n_ops", "tuples_per_request",
                                  "query_every", "tri_every", "n_clusters", "flush_size")}
    assert (inputs.service_mixed(1, **kwargs).digest()
            == inputs.service_mixed(1, **kwargs).digest()
            != inputs.service_mixed(2, **kwargs).digest())
    stream = dict(scale_divisor=32768, batches=3, batch_size=8)
    for generate in (inputs.algebraic_stream, inputs.general_churn):
        assert generate(1, **stream).digest() == generate(1, **stream).digest()
        assert generate(1, **stream).digest() != generate(2, **stream).digest()


def test_wrong_output_fails_the_run(tmp_path, monkeypatch):
    real = inputs.reference_product

    def off_by_one(*args, **kwargs):
        rows, cols, values = real(*args, **kwargs)
        return rows, cols, values + 1.0

    monkeypatch.setattr(inputs, "reference_product", off_by_one)
    code, result, detail = bench(tmp_path, "algebraic_stream")
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1 and result["metrics"] == {}
    assert any("from-scratch" in error for error in detail["errors"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebraic_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_factors_divide_each_pass_wall_times():
    import calibrate

    cal = calibrate.Calibrator()
    ref = calibrate.REFERENCE_CALL_S
    # window speeds 2, 1.5 (one stray slow call), 3: passes get 1.5 and 1.5
    cal.windows = [[2 * ref] * 5, [1.5 * ref] * 4 + [9 * ref], [3 * ref] * 5]
    assert cal.factors(2) == pytest.approx([1.5, 1.5])
    passes = [drivers.PassResult(setup_s=3.0, batch_s=[3.0, 6.0], batch_tuples=[1, 1],
                                 visible_s=[3.0], query_s=[3.0], modeled_s=3.0,
                                 det={"update_bytes": 6, "update_messages": 4,
                                      "update_tuples": 2, "flushes": 2})] * 2
    raw = run.end_to_end(passes, 1)
    out = run.end_to_end(passes, 1, [1.5, 1.5])
    for name in run.END_TO_END_UNITS:
        if name in ("comm_bytes_per_update", "comm_msgs_per_batch", "peak_rss_mb"):
            assert out[name] == raw[name], name
        elif name == "updates_per_s":
            assert out[name] == pytest.approx(raw[name] * 1.5)
        else:
            assert out[name] == pytest.approx(raw[name] / 1.5), name
