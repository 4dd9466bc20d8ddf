"""Seeded input generation for the benchmark workloads.

Everything here is plain NumPy/SciPy and independent of the ``repro``
package: the program under test receives only the arrays built here, and a
change to the program's own generators cannot move the benchmark's inputs.
The same seed yields byte-identical inputs (see :func:`digest`).

Graphs are R-MAT surrogates of the paper's LiveJournal instance: the vertex
and undirected edge counts are the paper's values divided by a scale
divisor, with the social-network skew ``(0.57, 0.19, 0.19, 0.05)``, read as
undirected (both directions stored) and randomly relabelled.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

#: the paper's LiveJournal instance (vertices, matrix non-zeros)
LIVEJOURNAL = (4_000_000, 86_000_000)
SOCIAL_SKEW = (0.57, 0.19, 0.19, 0.05)

Tuples = tuple[np.ndarray, np.ndarray, np.ndarray]


def surrogate(scale_divisor: int, rng: np.random.Generator) -> tuple[int, Tuples]:
    """The LiveJournal surrogate at ``scale_divisor``: ``(n, (rows, cols, values))``."""
    n = max(64, LIVEJOURNAL[0] // scale_divisor)
    n_edges = max(4 * n, LIVEJOURNAL[1] // scale_divisor // 2)
    scale = int(np.ceil(np.log2(n)))
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    a, b, c, _ = SOCIAL_SKEW
    for level in range(scale):
        r = rng.random(n_edges)
        bit = np.int64(1) << np.int64(scale - 1 - level)
        src += (r >= a + b) * bit
        dst += (((r >= a) & (r < a + b)) | (r >= a + b + c)) * bit
    src, dst = src % n, dst % n
    keep = src != dst
    src, dst = src[keep], dst[keep]
    relabel = rng.permutation(n)
    rows = relabel[np.concatenate([src, dst])]
    cols = relabel[np.concatenate([dst, src])]
    keys = np.unique(rows * n + cols)
    rows, cols = keys // n, keys % n
    values = rng.random(rows.size) * 0.999 + 0.001
    return n, (rows, cols, values)


def digest(*arrays: np.ndarray) -> str:
    """SHA-256 over the raw bytes, dtypes and shapes of ``arrays``."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _partition_seeds(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.integers(0, 2**31 - 1, size=k, dtype=np.int64)


class ChurnState:
    """The present and absent keys (``row * n + col``) of a churned matrix.

    Applies insert (absent keys), value-update and delete (present keys)
    requests in order, so ``present`` is exactly what the program must hold.
    Keys are drawn by index from insertion-ordered lists, so the same seed
    draws the same keys.
    """

    def __init__(self, keys: np.ndarray, values: np.ndarray, split: int) -> None:
        self.value_of = dict(zip(keys.tolist(), values.tolist()))
        self.present = dict(zip(keys[:split].tolist(), values[:split].tolist()))
        self._pools = {True: list(self.present), False: keys[split:].tolist()}
        self._index = {key: i for pool in self._pools.values() for i, key in enumerate(pool)}

    def _move(self, key: int, to_present: bool) -> None:
        source, target = self._pools[not to_present], self._pools[to_present]
        i, last = self._index[key], source[-1]
        source[i], self._index[last] = last, i
        source.pop()
        self._index[key] = len(target)
        target.append(key)

    def draw(self, kind: str, k: int, rng: np.random.Generator,
             blocked: frozenset = frozenset()) -> tuple[np.ndarray, np.ndarray]:
        """Apply one ``kind`` request on ``k`` distinct unblocked keys."""
        pool = self._pools[kind != "insert"]
        chosen: list[int] = []
        while len(chosen) < k:
            key = pool[int(rng.integers(len(pool)))]
            if key not in blocked and key not in chosen:
                chosen.append(key)
        if kind == "insert":
            values = [self.value_of[key] for key in chosen]
        else:
            values = (rng.random(k) * 0.999 + 0.001).tolist()
        for key, value in zip(chosen, values):
            if kind == "delete":
                del self.present[key]
                self._move(key, False)
            else:
                if key not in self.present:
                    self._move(key, True)
                self.present[key] = value
        return np.array(chosen, dtype=np.int64), np.array(values, dtype=np.float64)


# ----------------------------------------------------------------------
# stream workloads (a maintained product C = A·B)
# ----------------------------------------------------------------------
@dataclass
class StreamTrace:
    """One pass of a dynamic-SpGEMM stream, plus the expected final ``A``."""

    n: int
    mode: str  # "algebraic" (Algorithm 1) or "general" (Algorithm 2)
    semiring: str
    b: Tuples
    initial: Tuples | None
    #: per batch: (kind, rows, cols, values, partition_seed)
    batches: list[tuple[str, np.ndarray, np.ndarray, np.ndarray, int]]
    expected_a: Tuples

    def digest(self) -> str:
        arrays = list(self.b)
        if self.initial is not None:
            arrays += list(self.initial)
        for kind, rows, cols, values, seed in self.batches:
            arrays += [np.frombuffer(kind.encode(), np.uint8), rows, cols, values,
                       np.array([seed])]
        return digest(*arrays)


def _sorted_tuples(keys: np.ndarray, values: np.ndarray, n: int) -> Tuples:
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    return keys // n, keys % n, values[order]


def algebraic_stream(seed: int, *, scale_divisor: int, batches: int,
                     batch_size: int) -> StreamTrace:
    """``A`` grows from empty by insert batches drawn (with replacement)
    from the graph, against the static right operand ``B`` (the graph)."""
    rng = np.random.default_rng([seed, 1])
    n, graph = surrogate(scale_divisor, rng)
    steps = []
    seeds = _partition_seeds(rng, batches)
    for k in range(batches):
        idx = rng.integers(0, graph[0].size, batch_size)
        steps.append(("insert", graph[0][idx], graph[1][idx], graph[2][idx], int(seeds[k])))
    keys = np.concatenate([s[1] * n + s[2] for s in steps])
    vals = np.concatenate([s[3] for s in steps])
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(uniq.size)
    np.add.at(sums, inverse, vals)
    return StreamTrace(n, "algebraic", "plus_times", graph, None, steps,
                       _sorted_tuples(uniq, sums, n))


def general_churn(seed: int, *, scale_divisor: int, batches: int,
                  batch_size: int) -> StreamTrace:
    """Half the graph pre-loaded, then insert / value-update / delete
    batches in turn (each key at most once per batch), min-plus."""
    rng = np.random.default_rng([seed, 2])
    n, graph = surrogate(scale_divisor, rng)
    order = rng.permutation(graph[0].size)
    state = ChurnState(graph[0][order] * n + graph[1][order], graph[2][order], order.size // 2)
    half = order[: order.size // 2]
    initial = (graph[0][half], graph[1][half], graph[2][half])
    seeds = _partition_seeds(rng, batches)
    steps = []
    for k in range(batches):
        kind = ("insert", "update", "delete")[k % 3]
        keys, values = state.draw(kind, batch_size, rng)
        steps.append((kind, keys // n, keys % n, values, int(seeds[k])))
    keys = np.fromiter(state.present.keys(), dtype=np.int64, count=len(state.present))
    vals = np.fromiter(state.present.values(), dtype=np.float64, count=len(state.present))
    return StreamTrace(n, "general", "min_plus", graph, initial, steps,
                       _sorted_tuples(keys, vals, n))


def reference_product(a: Tuples, b: Tuples, n: int, semiring: str) -> Tuples:
    """``A·B`` from scratch (expand, sort, reduce), sorted by (row, col)."""
    a_rows, a_cols, a_vals = a
    b_csr = sp.csr_matrix((b[2], (b[0], b[1])), shape=(n, n))
    b_csr.sum_duplicates()
    if semiring == "plus_times":
        c = sp.csr_matrix((a_vals, (a_rows, a_cols)), shape=(n, n)) @ b_csr
        c = c.tocoo()
        return _sorted_tuples(c.row.astype(np.int64) * n + c.col, c.data, n)
    lengths = np.diff(b_csr.indptr)[a_cols]
    starts = np.repeat(b_csr.indptr[a_cols], lengths)
    offsets = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    pos = starts + offsets
    keys = np.repeat(a_rows, lengths) * n + b_csr.indices[pos]
    vals = np.repeat(a_vals, lengths) + b_csr.data[pos]
    order = np.lexsort((vals, keys))
    keys, vals = keys[order], vals[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first] // n, keys[first] % n, vals[first]


# ----------------------------------------------------------------------
# service workload (one closed-loop client, two tenants)
# ----------------------------------------------------------------------
@dataclass
class ServiceScript:
    """The client's operations for one pass, with expected query answers.

    ``ops`` entries are ``("tri" | "churn", kind, rows, cols, values)`` for
    requests (``kind`` in insert/update/delete) and ``(tenant, "query",
    None, None, None)`` for queries.  ``expected`` holds, per query in
    order, the triangle count or the contracted ``(rows, cols, values)``.
    """

    tri_n: int
    tri_initial: Tuples
    churn_n: int
    churn_initial: Tuples
    clusters: np.ndarray
    n_clusters: int
    ops: list[tuple] = field(default_factory=list)
    expected: list = field(default_factory=list)
    churn_final_nnz: int = 0

    def digest(self) -> str:
        arrays = [*self.tri_initial, *self.churn_initial, self.clusters]
        for tenant, kind, rows, cols, values in self.ops:
            arrays.append(np.frombuffer(f"{tenant}:{kind}".encode(), np.uint8))
            if rows is not None:
                arrays += [rows, cols, values]
        return digest(*arrays)


def triangle_count(n: int, rows: np.ndarray, cols: np.ndarray) -> int:
    """Triangles of the undirected simple graph on the given edges."""
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    adj = ((adj + adj.T) > 0).astype(np.float64)
    adj.setdiag(0)
    adj.eliminate_zeros()
    return int(round((adj @ adj).multiply(adj).sum() / 6.0))


def contraction(present: dict[int, float], n: int, clusters: np.ndarray,
                n_clusters: int) -> Tuples:
    """``Sᵀ·A·S`` of the tracked matrix: summed weights per cluster pair."""
    keys = np.fromiter(present.keys(), dtype=np.int64, count=len(present))
    vals = np.fromiter(present.values(), dtype=np.float64, count=len(present))
    ckeys = clusters[keys // n] * n_clusters + clusters[keys % n]
    uniq, inverse = np.unique(ckeys, return_inverse=True)
    sums = np.zeros(uniq.size)
    np.add.at(sums, inverse, vals)
    return uniq // n_clusters, uniq % n_clusters, sums


def service_mixed(seed: int, *, scale_divisor: int, n_ops: int, tuples_per_request: int,
                  query_every: int, tri_every: int, n_clusters: int,
                  flush_size: int) -> ServiceScript:
    """The mixed read/write request stream of one client over two tenants.

    Every ``query_every``-th operation is a query, one on the triangle tenant
    for two on the churn tenant (an even split would put the median query
    latency between the two kinds' latencies); of the requests, every ``tri_every``-th goes to the triangle
    tenant, the rest to the churn tenant.  The triangle tenant starts from
    half of one surrogate graph and receives the other half's edges as
    insert requests.  The churn tenant starts from half of another surrogate
    and receives insert (absent keys), value-update and delete (present
    keys) requests, two of each kind in turn: a fixed pattern, so the
    number of same-kind runs the service coalesces does not vary with the
    seed.  A key touched by one of the last ``flush_size`` churn
    requests is not touched again, so no key occurs twice within one
    micro-batch and the tracked state is exact.
    """
    rng = np.random.default_rng([seed, 3])
    tri_n, tri_graph = surrogate(scale_divisor, rng)
    upper = tri_graph[0] < tri_graph[1]
    edges = np.stack([tri_graph[0][upper], tri_graph[1][upper]], axis=1)
    edges = edges[rng.permutation(edges.shape[0])]
    split = edges.shape[0] // 2
    tri_initial = (edges[:split, 0], edges[:split, 1], np.ones(split))
    churn_n, churn_graph = surrogate(scale_divisor, rng)
    order = rng.permutation(churn_graph[0].size)
    half = order[: order.size // 2]
    state = ChurnState(churn_graph[0][order] * churn_n + churn_graph[1][order],
                       churn_graph[2][order], half.size)
    clusters = rng.integers(0, n_clusters, churn_n)
    script = ServiceScript(tri_n, tri_initial, churn_n,
                           (churn_graph[0][half], churn_graph[1][half], churn_graph[2][half]),
                           clusters, n_clusters)
    next_edge = split
    recent: list[np.ndarray] = []
    queries = requests = churn_requests = 0
    for op in range(n_ops):
        if op % query_every == query_every - 1:
            tenant = ("tri", "churn", "churn")[queries % 3]
            queries += 1
            script.ops.append((tenant, "query", None, None, None))
            if tenant == "tri":
                seen = edges[:next_edge]
                script.expected.append(triangle_count(tri_n, seen[:, 0], seen[:, 1]))
            else:
                script.expected.append(contraction(state.present, churn_n, clusters,
                                                   n_clusters))
            continue
        requests += 1
        if requests % tri_every == 0:
            chunk = edges[next_edge: next_edge + tuples_per_request]
            next_edge += tuples_per_request
            script.ops.append(("tri", "insert", chunk[:, 0].copy(), chunk[:, 1].copy(),
                               np.ones(len(chunk))))
            continue
        kind = ("insert", "update", "delete")[churn_requests // 2 % 3]
        churn_requests += 1
        blocked = frozenset(np.concatenate(recent).tolist()) if recent else frozenset()
        keys, values = state.draw(kind, tuples_per_request, rng, blocked)
        recent = (recent + [keys])[-flush_size:]
        script.ops.append(("churn", kind, keys // churn_n, keys % churn_n, values))
    script.churn_final_nnz = len(state.present)
    return script
