"""Workload drivers: set up, apply the seeded inputs, time, check.

A run repeats *passes*.  A pass builds a fresh world (the timed set-up),
applies one fixed trace batch by batch (each batch timed) with
snapshot queries (each timed), and is checked afterwards, outside every
timed region.  All passes of a run apply the same trace, so their
deterministic counts (communication volume) must agree exactly; a pass
that disagrees counts as a failed output check.

The program is driven only through its public entry points:
``ScenarioEngine.begin/advance/result`` on ``SimMPI`` for the stream
workloads and ``GraphService``/``GraphTenant`` for the service workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import inputs
from repro.scenarios import AppSpec, ReplayOptions, Scenario, ScenarioEngine, SpGEMMStep
from repro.runtime.simmpi import SimMPI
from repro.service import GraphService, ServiceConfig

#: communication categories reported per layer (bytes and messages)
COMM_CATEGORIES = ("redist_comm", "alltoall", "send_recv", "bcast", "scatter",
                   "reduce_scatter", "reduce", "gather", "allgather", "allreduce")
UPDATE_KINDS = ("insert", "update", "delete")
#: batches of the stream trace the untimed warm-up applies
WARM_UP_BATCHES = 5

WORKLOADS = {
    "algebraic_stream": dict(
        kind="stream", ranks=16, layout="dhb", scale_divisor=2048,
        batch_size=256, batches=20, generator="algebraic_stream"),
    "general_churn": dict(
        kind="stream", ranks=16, layout="dhb", scale_divisor=8192,
        batch_size=32, batches=20, generator="general_churn"),
    "service_mixed": dict(
        kind="service", ranks=4, layout="csr", scale_divisor=2000,
        n_ops=960, tuples_per_request=4, query_every=48, tri_every=4,
        n_clusters=16, flush_size=16),
}


@dataclass
class PassResult:
    """Samples and deterministic counts of one pass."""

    setup_s: float = 0.0
    batch_s: list[float] = field(default_factory=list)
    batch_tuples: list[int] = field(default_factory=list)
    visible_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    queue_wait_s: list[float] = field(default_factory=list)
    modeled_s: float = 0.0
    attempted: int = 0
    #: deterministic: update-step bytes/messages/tuples/applied, per-category
    #: update-phase volume, flush/step/request counts
    det: dict = field(default_factory=dict)
    #: modelled seconds charged to the communication categories after set-up
    comm_seconds: float = 0.0
    #: measured wall-clock seconds of rank-local work (``run_local``)
    local_seconds: float = 0.0
    final: dict = field(default_factory=dict)


def _det_from_results(results, flushes: int) -> dict:
    steps = [s for r in results for s in r.steps if s.kind in UPDATE_KINDS]
    det = {
        "update_bytes": sum(s.comm_bytes for s in steps),
        "update_messages": sum(s.comm_messages for s in steps),
        "update_tuples": sum(s.n_tuples for s in steps),
        "update_applied": sum(s.applied for s in steps),
        "update_steps": len(steps),
        "flushes": flushes,
    }
    for cat in COMM_CATEGORIES:
        det[f"bytes.{cat}"] = sum(int(r.update_stats.get(cat, {}).get("bytes", 0))
                                  for r in results)
        det[f"messages.{cat}"] = sum(int(r.update_stats.get(cat, {}).get("messages", 0))
                                     for r in results)
    return det


def _timing(results, out) -> None:
    """Communication and local-work seconds from the update-phase stats."""
    for r in results:
        for cat, totals in r.update_stats.items():
            if cat in COMM_CATEGORIES:
                out.comm_seconds += float(totals.get("modeled_seconds", 0.0))
            elif cat != "recovery":
                out.local_seconds += float(totals.get("measured_seconds", 0.0))


# ----------------------------------------------------------------------
# stream workloads
# ----------------------------------------------------------------------
def stream_scenario(trace: inputs.StreamTrace, seed: int, limit: int | None = None) -> Scenario:
    """The trace as a scenario of SpGEMM steps (the first ``limit`` only)."""
    steps = [SpGEMMStep(rows, cols, values, partition_seed=pseed, label=f"{kind}[{k}]",
                        mode=trace.mode, kind=kind)
             for k, (kind, rows, cols, values, pseed) in enumerate(trace.batches[:limit])]
    return Scenario(name=f"perfbench:{trace.mode}", shape=(trace.n, trace.n), steps=steps,
                    initial_tuples=trace.initial, b_tuples=trace.b,
                    semiring_name=trace.semiring, seed=seed)


def stream_pass(scenario: Scenario, cfg: dict) -> PassResult:
    """One pass on a fresh ``SimMPI`` world.

    Every step is timed; a batch's tuples are visible when its ``advance``
    returns, so the visibility samples are the batch times.  The one
    snapshot query is the final ``result()``, which the output check needs.
    """
    out = PassResult()
    start = time.perf_counter()
    comm = SimMPI(cfg["ranks"])
    engine = ScenarioEngine(scenario, comm, layout=cfg["layout"])
    engine.begin()
    out.setup_s = time.perf_counter() - start
    modeled0 = comm.elapsed()
    for index, step in enumerate(scenario.steps):
        start = time.perf_counter()
        engine.advance(index + 1)
        elapsed = time.perf_counter() - start
        out.batch_s.append(elapsed)
        out.visible_s.append(elapsed)
        out.batch_tuples.append(step.n_tuples)
        out.attempted += 1
    start = time.perf_counter()
    result = engine.result()
    out.query_s.append(time.perf_counter() - start)
    out.attempted += 1
    out.modeled_s = comm.elapsed() - modeled0
    out.det = _det_from_results([result], len(scenario.steps))
    _timing([result], out)
    out.final = {"a": result.final_a, "c": result.final_c}
    return out


def _same_tuples(got, want, *, exact: bool) -> bool:
    if got is None or want is None or got[0].size != want[0].size:
        return False
    if not (np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])):
        return False
    if exact:
        return np.array_equal(got[2], want[2])
    return bool(np.allclose(got[2], want[2], rtol=1e-9, atol=0.0))


def _drop_zero(tuples, semiring: str):
    zero = 0.0 if semiring == "plus_times" else np.inf
    keep = tuples[2] != zero
    return tuple(arr[keep] for arr in tuples)


class StreamChecker:
    """Output checks of a stream pass against the from-scratch references."""

    def __init__(self, trace: inputs.StreamTrace):
        self.trace = trace
        self.expected_c = inputs.reference_product(trace.expected_a, trace.b, trace.n,
                                                   trace.semiring)

    def check(self, out: PassResult) -> list[str]:
        errors = []
        final_a, final_c = out.final["a"], out.final["c"]
        if not _same_tuples(final_a, self.trace.expected_a, exact=False):
            errors.append("maintained A differs from the applied trace")
        if final_c is None or not _same_tuples(_drop_zero(final_c, self.trace.semiring),
                                               self.expected_c, exact=False):
            errors.append("maintained C differs from a from-scratch A·B")
        return errors


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
def service_pass(script: inputs.ServiceScript, cfg: dict, seed: int,
                 limit: int | None = None) -> PassResult:
    """One closed-loop client (no think time) against two fresh tenants.

    ``limit`` replays only the first operations (the warm-up); the end-of-pass
    nnz check then does not apply.
    """
    out = PassResult()
    config = ServiceConfig(replay=ReplayOptions(n_ranks=cfg["ranks"], layout=cfg["layout"]),
                           flush_max_requests=cfg["flush_size"])
    start = time.perf_counter()
    service = GraphService(backend="sim", config=config)
    tenants = {
        "tri": service.create_tenant("tri", (script.tri_n, script.tri_n), seed=seed,
                                     initial_tuples=script.tri_initial,
                                     app=AppSpec("triangle")),
        "churn": service.create_tenant("churn", (script.churn_n, script.churn_n),
                                       seed=seed + 1, initial_tuples=script.churn_initial),
    }
    out.setup_s = time.perf_counter() - start
    modeled0 = {name: t.comm.elapsed() for name, t in tenants.items()}
    pending: dict[str, list[tuple[float, int]]] = {name: [] for name in tenants}
    requests_applied = 0
    flushes = 0
    errors: list[str] = []
    expected = iter(script.expected)

    def applied(name: str, call_start: float, end: float) -> None:
        nonlocal requests_applied, flushes
        if pending[name]:
            flushes += 1
            requests_applied += len(pending[name])
            for submitted, _ in pending[name]:
                out.visible_s.append(end - submitted)
                out.queue_wait_s.append(call_start - submitted)
            pending[name].clear()

    for name, kind, rows, cols, values in script.ops[:limit]:
        tenant = tenants[name]
        out.attempted += 1
        if kind == "query":
            start = time.perf_counter()
            if name == "tri":
                answer = tenant.triangle_count()
            else:
                answer = tenant.contract(script.clusters, n_clusters=script.n_clusters)
            end = time.perf_counter()
            out.query_s.append(end - start)
            applied(name, start, end)
            want = next(expected)
            ok = answer == want if name == "tri" else _same_tuples(answer, want, exact=False)
            if not ok:
                errors.append(f"{name} query answer differs from the reference")
            continue
        start = time.perf_counter()
        pending[name].append((start, rows.size))
        flushed = tenant.submit(kind, rows, cols, values)
        end = time.perf_counter()
        if flushed:
            out.batch_s.append(end - start)
            out.batch_tuples.append(sum(n for _, n in pending[name]))
            applied(name, start, end)
    for name, tenant in tenants.items():
        if pending[name]:
            start = time.perf_counter()
            tenant.flush()
            end = time.perf_counter()
            out.batch_s.append(end - start)
            out.batch_tuples.append(sum(n for _, n in pending[name]))
            applied(name, start, end)
    out.modeled_s = sum(t.comm.elapsed() - modeled0[name] for name, t in tenants.items())
    if limit is None and tenants["churn"].nnz() != script.churn_final_nnz:
        errors.append("churn tenant nnz differs from the tracked set")
    results = [t.result(collect_final=False) for t in tenants.values()]
    out.det = _det_from_results(results, flushes)
    out.det["requests_applied"] = requests_applied
    out.det["log_steps"] = sum(t.n_steps for t in tenants.values())
    _timing(results, out)
    out.final = {"errors": errors}
    service.shutdown()
    return out


# ----------------------------------------------------------------------
# workload = inputs + pass runner + checks
# ----------------------------------------------------------------------
class Workload:
    """The seeded inputs, the pass runner and the checks of one workload."""

    def __init__(self, seed: int, cfg: dict):
        self.seed, self.cfg = seed, cfg
        self.kind = cfg["kind"]
        if self.kind == "service":
            self.script = inputs.service_mixed(
                seed, scale_divisor=cfg["scale_divisor"], n_ops=cfg["n_ops"],
                tuples_per_request=cfg["tuples_per_request"],
                query_every=cfg["query_every"], tri_every=cfg["tri_every"],
                n_clusters=cfg["n_clusters"], flush_size=cfg["flush_size"])
            self.digest = self.script.digest()
            self._run = lambda: service_pass(self.script, cfg, seed)
        else:
            generate = getattr(inputs, cfg["generator"])
            self.trace = generate(seed, scale_divisor=cfg["scale_divisor"],
                                  batches=cfg["batches"], batch_size=cfg["batch_size"])
            self.digest = self.trace.digest()
            self.scenario = stream_scenario(self.trace, seed)
            self.checker = StreamChecker(self.trace)
            self._run = lambda: stream_pass(self.scenario, cfg)

    def warm_up(self) -> dict:
        """An untimed pass over a prefix of the inputs, with the program's
        counters on.  It loads lazily imported code and reports the kernel
        tier that ran."""
        from repro.perf.recorder import PerfRecorder, use_recorder

        recorder = PerfRecorder()
        with use_recorder(recorder):
            if self.kind == "service":
                service_pass(self.script, self.cfg, self.seed, limit=2 * self.cfg["query_every"])
            else:
                stream_pass(stream_scenario(self.trace, self.seed, limit=WARM_UP_BATCHES),
                            self.cfg)
        return {k: v for k, v in recorder.counters.items() if k.startswith("kernels.tier_")
                and k.count(".") == 1}

    def run_pass(self):
        return self._run()

    def check(self, out) -> list[str]:
        if self.kind == "service":
            return list(out.final["errors"])
        return self.checker.check(out)
