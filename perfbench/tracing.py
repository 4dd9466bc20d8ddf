"""In-memory span tracing around the program's layer boundaries.

:class:`Tracer` wraps public functions and methods of the ``repro`` layers
and records one span per call: name, start, end, parent span and thread.
Each thread keeps its own span stack, so spans of concurrent threads
attribute correctly.  Spans stay in memory until :meth:`Tracer.dump`
writes them out.

Callers import functions by name (``from repro.core import
dynamic_spgemm_general``), so a function is patched in every ``repro``
module that binds it, not only where it is defined.  Methods are patched on
their class.  :meth:`Tracer.uninstall` restores every original.

Only boundaries called at most ~10^4 times per traced pass are wrapped, so
the tracing overhead stays a small, measured fraction
(``trace.overhead_frac``); the busiest, ``SimMPI.run_local``, is read from
the program's own per-category accounting instead.
Install the tracer only around traced passes: its wrappers cost a call
layer even when nothing reads the spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

#: span name -> [(module, qualified name), ...]; the layer is the prefix
SPAN_TARGETS: dict[str, list[tuple[str, str]]] = {
    "scenarios.begin": [("repro.scenarios.engine", "ScenarioEngine.begin")],
    "scenarios.advance": [("repro.scenarios.engine", "ScenarioEngine.advance")],
    "scenarios.result": [("repro.scenarios.engine", "ScenarioEngine.result")],
    "service.create_tenant": [("repro.service.service", "GraphService.create_tenant")],
    "service.flush": [("repro.service.service", "GraphTenant.flush")],
    "service.query": [
        ("repro.service.service", "GraphTenant.triangle_count"),
        ("repro.service.service", "GraphTenant.contract"),
    ],
    "apps.triangle_insert": [
        ("repro.apps.triangle_counting", "DynamicTriangleCounter.insert_edges")],
    "apps.triangle_count": [
        ("repro.apps.triangle_counting", "DynamicTriangleCounter.triangle_count")],
    "apps.contract": [("repro.apps.contraction", "contract_graph")],
    "core.apply_updates": [("repro.core.api", "DynamicProduct.apply_updates")],
    "core.dynamic_algebraic": [("repro.core.dynamic_algebraic", "dynamic_spgemm_algebraic")],
    "core.compute_cstar": [("repro.core.dynamic_algebraic", "compute_cstar")],
    "core.dynamic_general": [("repro.core.dynamic_general", "dynamic_spgemm_general")],
    "core.sparse_reduce": [("repro.core.collectives", "sparse_reduce_to_root")],
    "core.bloom_reduce": [("repro.core.collectives", "bloom_reduce_to_root")],
    "core.summa": [("repro.core.summa", "summa_spgemm")],
    "distributed.build_update": [("repro.distributed.updates", "build_update_matrix")],
    "distributed.redistribute": [
        ("repro.distributed.redistribution", "redistribute_tuples"),
        ("repro.distributed.redistribution", "redistribute_tuples_single_phase"),
    ],
    "distributed.operand_update": [
        ("repro.distributed.dist_matrix", "DynamicDistMatrix.add_update"),
        ("repro.distributed.dist_matrix", "DynamicDistMatrix.merge_update"),
        ("repro.distributed.dist_matrix", "DynamicDistMatrix.mask_update"),
    ],
    "distributed.construct": [
        ("repro.distributed.dist_matrix", "DynamicDistMatrix.from_tuples"),
        ("repro.distributed.dist_matrix", "StaticDistMatrix.from_tuples"),
    ],
    "sparse.layout_convert": [
        ("repro.sparse.dhb", "DHBMatrix.to_coo"),
        ("repro.sparse.dhb", "DHBMatrix.to_csr"),
        ("repro.sparse.dhb", "DHBMatrix.to_dcsr"),
    ],
    "sparse.spgemm": [("repro.sparse.spgemm_local", "spgemm_local")],
    "sparse.spgemm_masked": [("repro.sparse.spgemm_local", "spgemm_local_masked")],
    "sparse.bloom_or": [
        ("repro.sparse.bloom", "BloomFilterMatrix.or_inplace"),
        ("repro.sparse.bloom", "BloomFilterMatrix.or_with"),
    ],
    "sparse.dhb_insert": [("repro.sparse.dhb", "DHBMatrix.insert_batch")],
}

#: layers with spans; the runtime layer is read from the program's own
#: per-category accounting instead (see ``layers.py``)
LAYERS = ("scenarios", "service", "apps", "core", "distributed", "sparse")


class Tracer:
    """Records spans around the wrapped boundaries while installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: per thread: (thread name, [[name, start, end, parent], ...])
        self._threads: list[tuple[str, list[list]]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _thread_state(self) -> tuple[list[list], list[int]]:
        state = getattr(self._local, "state", None)
        if state is None:
            spans: list[list] = []
            state = (spans, [])
            self._local.state = state
            with self._lock:
                self._threads.append((threading.current_thread().name, spans))
        return state

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self._thread_state()
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    # -- patching ------------------------------------------------------
    def install(self, targets: dict[str, list[tuple[str, str]]] = SPAN_TARGETS) -> "Tracer":
        """Patch every target.

        A target that does not resolve raises ``LookupError`` (after
        restoring what was patched), so a renamed function cannot turn its
        metric into a silent 0.
        """
        try:
            for name, sites in targets.items():
                for module_name, qualname in sites:
                    module = importlib.import_module(module_name)
                    owner_name, _, attr = qualname.rpartition(".")
                    owner = getattr(module, owner_name, None) if owner_name else module
                    if owner is None or attr not in vars(owner):
                        raise LookupError(f"span {name!r}: {module_name}.{qualname} not found")
                    if owner_name:
                        self._patch_method(owner, attr, name)
                    else:
                        self._patch_function(vars(owner)[attr], attr, name)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch_method(self, cls: type, attr: str, name: str) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, name))
        else:
            wrapped = self._wrap(raw, name)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_function(self, fn, attr: str, name: str) -> None:
        wrapped = self._wrap(fn, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "repro" and vars(module).get(attr) is fn:
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------
    def spans(self) -> list[tuple[str, str, float, float, int]]:
        """All finished spans as ``(thread, name, start, end, parent)``."""
        with self._lock:
            threads = list(self._threads)
        return [(thread, *record) for thread, records in threads for record in records
                if record[2] > 0.0]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost ``calls``, inclusive ``seconds`` and
        ``self_seconds`` (the span minus the time its child spans cover)."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
        with self._lock:
            threads = [records for _, records in self._threads]
        for records in threads:
            child_time = [0.0] * len(records)
            for record in records:
                if record[3] >= 0 and record[2] > 0.0:
                    child_time[record[3]] += record[2] - record[1]
            for index, (name, start, end, parent) in enumerate(records):
                if end <= 0.0:
                    continue
                entry = out[name]
                entry["self_seconds"] += (end - start) - child_time[index]
                ancestor = parent
                while ancestor >= 0 and records[ancestor][0] != name:
                    ancestor = records[ancestor][3]
                if ancestor < 0:  # outermost span of this name
                    entry["calls"] += 1
                    entry["seconds"] += end - start
        return dict(out)

    def dump(self, path) -> None:
        """Write all spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for thread, name, start, end, parent in self.spans():
                fh.write(json.dumps({"thread": thread, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
