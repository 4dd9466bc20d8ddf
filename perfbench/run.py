#!/usr/bin/env python3
"""The repository benchmark: one workload per process, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload algebraic_stream --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs untraced passes, then traced passes (spans around every
layer boundary, see ``tracing.py``) and reports the per-layer metrics.
The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it carries the run's stamp, sample counts,
the host-speed factor and the raw timings (see ``calibrate.py``).  Spans
and the full result are written under ``perfbench/out/``.
The exit code is 0 only when every operation and output check succeeded.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402

#: the timing metrics pool at least this many batches, so that p90 has at
#: least ten samples beyond it; a run measures at least twice as many
MIN_BATCHES = 100
#: a run starts no new pass after this many seconds
HARD_STOP_S = 120.0
STAMPED_ENV = ("REPRO_OVERLAP", "REPRO_PARTITIONER", "REPRO_KERNEL_TIER")

END_TO_END_UNITS = {
    "setup_s": "s", "batch_p50_ms": "ms", "batch_p90_ms": "ms", "updates_per_s": "1/s",
    "comm_bytes_per_update": "B", "comm_msgs_per_batch": "count", "modeled_s": "s",
    "peak_rss_mb": "MB", "visible_p50_ms": "ms", "visible_p95_ms": "ms",
    "query_p50_ms": "ms",
}


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, digest: str, tier_counts: dict) -> dict:
    """What ran: inputs, code, platform, kernel tier and the REPRO_* knobs."""
    import scipy

    compiled = tier_counts.get("kernels.tier_compiled", 0)
    python = tier_counts.get("kernels.tier_python", 0)
    tier = ("mixed" if compiled and python else "compiled" if compiled
            else "python" if python else "none")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "trace_digest": digest, "git_sha": git_sha(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "mpi4py": importlib.util.find_spec("mpi4py") is not None,
        "kernel_tier": tier, "kernel_tier_counts": tier_counts,
        "env": {name: os.environ.get(name) for name in STAMPED_ENV},
    }


def run_passes(workload, deadline: float, min_batches: int, hard_stop: float,
               passes: list, errors: list[str], calibrator=None) -> None:
    """Run passes until ``min_batches`` are measured and the next pass would
    end nearer after ``deadline`` than before it.  With ``calibrator``, a
    calibration window is timed before each pass and after the last."""
    batches = 0
    durations = []
    while True:
        gc.collect()  # garbage of the previous pass is not this pass's cost
        if calibrator is not None:
            calibrator.window()
        start = time.perf_counter()
        try:
            out = workload.run_pass()
        except Exception as exc:  # a raised exception is a failed operation
            errors.append(f"pass raised {type(exc).__name__}: {exc}")
            return
        durations.append(time.perf_counter() - start)
        errors.extend(workload.check(out))
        out.final = {}  # kept, the checked outputs would grow RSS with the pass count
        if passes and out.det != passes[0].det:
            errors.append("deterministic counts differ between passes of one run")
        passes.append(out)
        batches += len(out.batch_s)
        now = time.perf_counter()
        done = now + statistics.median(durations) / 2 >= deadline
        if (done and batches >= min_batches) or now >= hard_stop:
            if calibrator is not None:
                gc.collect()
                calibrator.window()
            return


def repetitions_kept(passes: list, min_batches: int) -> int:
    """How many repetitions of each timed operation the metrics keep: the
    fastest third, and enough for ``min_batches`` batches."""
    per_pass = len(passes[0].batch_s)
    return min(len(passes), max(-(-len(passes) // 3), -(-min_batches // per_pass)))


def fastest(samples: list, keep: int) -> np.ndarray:
    """Per operation (one column per position in a pass), its ``keep``
    fastest repetitions across the passes, pooled.

    Every pass of a run applies the same inputs, so the repetitions of one
    operation differ only by what else ran on the host meanwhile.
    """
    return np.sort(np.array(samples, dtype=np.float64).reshape(len(samples), -1),
                   axis=0)[:keep].ravel()


def end_to_end(passes: list, min_batches: int, factors=None) -> dict[str, float]:
    """The end-to-end metrics over the kept repetitions (see README.md).

    ``factors`` holds each pass's host-speed factor (``calibrate.py``); the
    pass's wall times, and ``modeled_s``, which charges measured rank-local
    work, are divided by it.  Without ``factors`` the timings stay raw.
    """
    det = passes[0].det
    keep = repetitions_kept(passes, min_batches)
    if factors is None:
        factors = [1.0] * len(passes)

    def kept(samples) -> np.ndarray:
        return fastest([np.divide(s, f) for s, f in zip(samples, factors)], keep)

    batch = kept([p.batch_s for p in passes])
    visible = kept([p.visible_s for p in passes])
    queries = kept([p.query_s for p in passes])
    tuples = keep * sum(passes[0].batch_tuples)
    return {
        "setup_s": float(np.median(kept([p.setup_s for p in passes]))),
        "batch_p50_ms": float(np.percentile(batch, 50)) * 1e3,
        "batch_p90_ms": float(np.percentile(batch, 90)) * 1e3,
        "updates_per_s": tuples / float(batch.sum()),
        "comm_bytes_per_update": det["update_bytes"] / det["update_tuples"],
        "comm_msgs_per_batch": det["update_messages"] / det["flushes"],
        "modeled_s": float(np.median(kept([p.modeled_s for p in passes]))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "visible_p50_ms": float(np.percentile(visible, 50)) * 1e3,
        "visible_p95_ms": float(np.percentile(visible, 95)) * 1e3,
        "query_p50_ms": float(np.percentile(queries, 50)) * 1e3,
    }


@dataclass
class Measurement:
    """Everything one run measured; the traced fields stay empty without tracing."""

    passes: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    calibrator: object = None
    tier_counts: dict = field(default_factory=dict)
    traced_passes: list = field(default_factory=list)
    #: the fastest traced pass, its spans and the program's counters
    traced: object = None
    tracer: object = None
    counters: dict | None = None

    @property
    def every_pass(self) -> list:
        return self.passes + self.traced_passes


def measure(workload, layers, seconds: float, trace: bool, min_batches: int) -> Measurement:
    """Warm up, run the passes and, with ``trace``, the traced passes.

    With ``trace`` the untraced passes take the first half of ``seconds``
    and traced passes the second; the per-layer metrics come from the
    traced pass with the least summed batch time, the least disturbed one.
    """
    started = time.perf_counter()
    m = Measurement()
    try:
        m.tier_counts = workload.warm_up()
    except Exception as exc:  # the sim warm-up is an operation too
        m.errors.append(f"warm-up raised {type(exc).__name__}: {exc}")
        return m
    hard_stop = started + HARD_STOP_S
    measure_start = time.perf_counter()
    if not trace:
        m.calibrator = calibrate.Calibrator()
        m.calibrator.kernel()  # its first call pays for lazy imports
        run_passes(workload, measure_start + seconds, 2 * min_batches, hard_stop,
                   m.passes, m.errors, m.calibrator)
        return m
    run_passes(workload, measure_start + seconds / 2, 0, hard_stop, m.passes, m.errors)
    while not m.errors:
        gc.collect()
        try:
            traced, tracer, counters = layers.traced_pass(workload)
        except Exception as exc:  # a raised exception is a failed operation
            m.errors.append(f"traced pass raised {type(exc).__name__}: {exc}")
            return m
        m.traced_passes.append(traced)
        m.errors.extend(workload.check(traced))
        traced.final = {}
        if traced.det != m.passes[0].det:
            m.errors.append("deterministic counts differ between traced and untraced passes")
        if m.traced is None or sum(traced.batch_s) < sum(m.traced.batch_s):
            m.traced, m.tracer, m.counters = traced, tracer, counters
        now = time.perf_counter()
        if now >= measure_start + seconds or now >= hard_stop:
            break
    return m


def main(argv=None, *, workloads=None, min_batches: int = MIN_BATCHES) -> int:
    """Parse ``argv``, measure one workload, print the result; the exit code.

    ``workloads`` replaces the workload table (the tests use tiny sizes).
    """
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out"))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        import repro  # noqa: F401
        import drivers
        import layers
    except ImportError as exc:
        print(f"perfbench: cannot import the program ({exc}); run from a full checkout",
              file=sys.stderr)
        return 2
    table = drivers.WORKLOADS if workloads is None else workloads
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(use one of {sorted(table)})", file=sys.stderr)
        return 2

    started = time.perf_counter()
    workload = drivers.Workload(args.seed, table[args.workload])
    m = measure(workload, layers, args.seconds, bool(args.trace), min_batches)
    every = m.every_pass
    attempted = max(1, sum(p.attempted for p in every))
    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    units = layers.UNITS if args.trace else END_TO_END_UNITS
    if m.passes and not m.errors:
        if args.trace:
            metrics = layers.per_layer(workload, m.passes, m.traced, m.tracer, m.counters)
        else:
            raw = end_to_end(m.passes, min_batches)
            metrics = end_to_end(m.passes, min_batches,
                                 m.calibrator.factors(len(m.passes)))
    detail = {
        "stamp": stamp(args, workload.digest, m.tier_counts),
        "samples": {
            "passes": len(m.passes), "traced_passes": len(m.traced_passes),
            "batches": sum(len(p.batch_s) for p in every),
            "queries": sum(len(p.query_s) for p in every),
            "visible": sum(len(p.visible_s) for p in every),
            "repetitions_kept": repetitions_kept(m.passes, min_batches) if m.passes else 0,
        },
        "speed": ({"factors": m.calibrator.factors(len(m.passes)), "raw_metrics": raw}
                  if raw else None),
        "error_rate": len(m.errors) / attempted,
        "errors": m.errors[:20],
        "wall_s": time.perf_counter() - started,
    }
    result = {
        "correct": not m.errors and bool(metrics), "attempted": attempted,
        "failed": len(m.errors),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = [{"setup_s": p.setup_s, "batch_s": p.batch_s, "visible_s": p.visible_s,
                "query_s": p.query_s, "modeled_s": p.modeled_s} for p in m.passes]
    windows = m.calibrator.windows if m.calibrator is not None else []
    (out_dir / f"{stem}.json").write_text(
        json.dumps({**detail, **result, "passes": samples, "calibration_s": windows},
                   indent=1))
    if m.tracer is not None:
        m.tracer.dump(out_dir / f"{stem}.spans.jsonl")
    print("perfbench " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
