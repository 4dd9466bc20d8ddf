"""Tests for the DHB dynamic matrix (including property-based model checks)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semirings import MIN_PLUS, PLUS_TIMES
from repro.sparse import COOMatrix, CSRMatrix, DCSRMatrix, DHBMatrix, DHBRow

from tests.conftest import random_dense


class TestDHBRow:
    def test_insert_get_delete(self):
        row = DHBRow(np.dtype(np.float64))
        assert row.insert_or_assign(5, 1.0)
        assert not row.insert_or_assign(5, 2.0)  # overwrite
        assert row.get(5) == pytest.approx(2.0)
        assert row.contains(5)
        assert row.delete(5)
        assert not row.delete(5)
        assert not row.contains(5)
        assert len(row) == 0

    def test_combine_on_existing(self):
        row = DHBRow(np.dtype(np.float64))
        row.insert_or_assign(2, 1.0)
        row.insert_or_assign(2, 3.0, combine=np.add)
        assert row.get(2) == pytest.approx(4.0)

    def test_growth_keeps_entries(self):
        row = DHBRow(np.dtype(np.float64), capacity=2)
        for col in range(50):
            row.insert_or_assign(col, float(col))
        assert len(row) == 50
        assert row.grow_count >= 1
        cols, vals = row.as_arrays()
        assert set(cols.tolist()) == set(range(50))
        assert all(vals[i] == cols[i] for i in range(50))

    def test_swap_delete_keeps_index_consistent(self):
        row = DHBRow(np.dtype(np.float64))
        for col in (1, 2, 3, 4):
            row.insert_or_assign(col, float(col))
        row.delete(2)
        for col in (1, 3, 4):
            assert row.get(col) == pytest.approx(float(col))

    def test_from_arrays_lazy_index(self):
        row = DHBRow.from_arrays(np.array([3, 7, 9]), np.array([1.0, 2.0, 3.0]))
        assert row.index is None  # lazy until first point access
        assert row.get(7) == pytest.approx(2.0)
        assert row.index is not None
        assert row.get_slot(9) == 2


class TestDHBMatrix:
    def test_single_entry_operations(self):
        mat = DHBMatrix((5, 5))
        assert mat.insert(1, 2, 3.0)
        assert not mat.insert(1, 2, 4.0)  # overwrite, no new nnz
        assert mat.get(1, 2) == pytest.approx(4.0)
        assert mat.nnz == 1
        assert mat.contains(1, 2)
        assert mat.delete(1, 2)
        assert mat.nnz == 0
        assert not mat.delete(1, 2)
        assert mat.get(1, 2) == 0.0

    def test_out_of_bounds_raises(self):
        mat = DHBMatrix((3, 3))
        with pytest.raises(IndexError):
            mat.insert(3, 0, 1.0)
        with pytest.raises(IndexError):
            mat.get(0, 3)
        with pytest.raises(IndexError):
            mat.insert_batch([0], [7], [1.0])

    def test_bulk_build_matches_dense(self):
        dense = random_dense(20, 20, 0.3, seed=1)
        rows, cols = np.nonzero(dense)
        mat = DHBMatrix((20, 20))
        created = mat.insert_batch(rows, cols, dense[rows, cols], combine=PLUS_TIMES.plus)
        assert created == len(rows)
        assert np.allclose(mat.to_dense(), dense)

    def test_batch_additive_combination(self):
        mat = DHBMatrix((4, 4))
        mat.insert_batch([0, 0, 1], [1, 1, 2], [1.0, 2.0, 5.0], combine=PLUS_TIMES.plus)
        assert mat.get(0, 1) == pytest.approx(3.0)
        assert mat.get(1, 2) == pytest.approx(5.0)
        # second batch hits existing entries
        mat.insert_batch([0], [1], [4.0], combine=PLUS_TIMES.plus)
        assert mat.get(0, 1) == pytest.approx(7.0)

    def test_batch_overwrite_last_wins(self):
        mat = DHBMatrix((4, 4))
        mat.insert_batch([0, 0], [1, 1], [1.0, 9.0], combine=None)
        assert mat.get(0, 1) == pytest.approx(9.0)

    def test_add_merge_mask_updates(self):
        dense = random_dense(10, 10, 0.3, seed=3)
        mat = DHBMatrix.from_dense(dense)
        update = COOMatrix((10, 10), [0, 1], [0, 1], [5.0, 7.0])
        mat.add_update(update)
        expected = dense.copy()
        expected[0, 0] += 5.0
        expected[1, 1] += 7.0
        assert np.allclose(mat.to_dense(), expected)

        mat.merge_update(COOMatrix((10, 10), [0], [0], [-1.0]))
        expected[0, 0] = -1.0
        assert np.allclose(mat.to_dense(), expected)

        deleted = mat.mask_update(COOMatrix((10, 10), [0, 9], [0, 9], [1.0, 1.0]))
        expected[0, 0] = 0.0
        if dense[9, 9] != 0:
            expected[9, 9] = 0.0
        assert np.allclose(mat.to_dense(), expected)
        assert deleted >= 1

    def test_update_shape_mismatch_raises(self):
        mat = DHBMatrix((4, 4))
        with pytest.raises(ValueError, match="shape"):
            mat.add_update(COOMatrix.empty((5, 5)))

    def test_update_semiring_mismatch_raises(self):
        mat = DHBMatrix((4, 4))
        with pytest.raises(ValueError, match="semiring"):
            mat.add_update(COOMatrix.empty((4, 4), MIN_PLUS))

    def test_min_plus_add_update_takes_minimum(self):
        mat = DHBMatrix((3, 3), MIN_PLUS)
        mat.insert(0, 1, 5.0)
        mat.add_update(COOMatrix((3, 3), [0, 1], [1, 2], [9.0, 4.0], MIN_PLUS))
        assert mat.get(0, 1) == pytest.approx(5.0)  # min(5, 9)
        assert mat.get(1, 2) == pytest.approx(4.0)

    def test_conversions_round_trip(self):
        dense = random_dense(12, 9, 0.25, seed=5)
        mat = DHBMatrix.from_dense(dense)
        assert np.allclose(mat.to_csr().to_dense(), dense)
        assert np.allclose(mat.to_dcsr().to_dense(), dense)
        assert np.allclose(mat.copy().to_dense(), dense)
        assert np.allclose(DHBMatrix.from_csr(mat.to_csr()).to_dense(), dense)

    def test_row_arrays_and_iter_rows(self):
        dense = random_dense(7, 7, 0.4, seed=7)
        mat = DHBMatrix.from_dense(dense)
        cols, vals = mat.row_arrays(0)
        assert set(cols.tolist()) == set(np.nonzero(dense[0])[0].tolist())
        rows_seen = [i for i, _c, _v in mat.iter_rows()]
        assert rows_seen == sorted(rows_seen)
        empty_cols, empty_vals = DHBMatrix((3, 3)).row_arrays(1)
        assert empty_cols.size == 0 and empty_vals.size == 0

    def test_reserve_batch_counts_growth(self):
        mat = DHBMatrix((10, 10))
        mat.insert_batch(np.arange(10), np.arange(10), np.ones(10), combine=None)
        grows = mat.reserve_batch(np.zeros(50, dtype=np.int64))
        assert grows >= 0  # growth counting is best-effort but non-negative
        assert mat.nnz == 10

    def test_scattered_path_after_bulk_build(self):
        dense = random_dense(30, 30, 0.2, seed=11)
        rows, cols = np.nonzero(dense)
        mat = DHBMatrix((30, 30))
        mat.insert_batch(rows, cols, dense[rows, cols], combine=PLUS_TIMES.plus)
        # a scattered follow-up batch (one entry per row)
        extra_rows = np.arange(30, dtype=np.int64)
        extra_cols = np.full(30, 2, dtype=np.int64)
        extra_vals = np.ones(30)
        mat.insert_batch(extra_rows, extra_cols, extra_vals, combine=PLUS_TIMES.plus)
        expected = dense.copy()
        expected[:, 2] += 1.0
        assert np.allclose(mat.to_dense(), expected)

    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "overwrite"]),
                st.integers(0, 7),
                st.integers(0, 7),
                st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
            ),
            min_size=0,
            max_size=60,
        )
    )
    def test_property_matches_dict_model(self, ops):
        """Arbitrary interleavings of point operations match a dict model."""
        mat = DHBMatrix((8, 8))
        model: dict[tuple[int, int], float] = {}
        for op, i, j, v in ops:
            if op == "insert":
                mat.insert(i, j, v, combine=PLUS_TIMES.plus)
                model[(i, j)] = model.get((i, j), 0.0) + v
            elif op == "overwrite":
                mat.insert(i, j, v, combine=None)
                model[(i, j)] = v
            else:
                mat.delete(i, j)
                model.pop((i, j), None)
        assert mat.nnz == len(model)
        for (i, j), v in model.items():
            assert mat.get(i, j) == pytest.approx(v)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), density=st.floats(0.05, 0.5))
    def test_property_bulk_build_equals_scattered_build(self, seed, density):
        dense = random_dense(15, 15, density, seed=seed)
        rows, cols = np.nonzero(dense)
        vals = dense[rows, cols]
        bulk = DHBMatrix((15, 15))
        bulk.insert_batch(rows, cols, vals, combine=PLUS_TIMES.plus)
        scattered = DHBMatrix((15, 15))
        for r, c, v in zip(rows, cols, vals):
            scattered.insert(int(r), int(c), v, combine=PLUS_TIMES.plus)
        assert bulk.nnz == scattered.nnz
        assert np.allclose(bulk.to_dense(), scattered.to_dense())


class TestDuplicateCombineSemantics:
    """The vectorised path must reproduce the per-element baseline for
    arbitrary combiners over duplicate (row, col) keys (it used to
    pre-fold duplicate groups, which computes ``combine(existing,
    fold(v1..vk))`` instead of ``fold(combine(existing, v1)..vk)``)."""

    @staticmethod
    def _run(strategy, combine):
        mat = DHBMatrix((4, 4))
        mat.insert_batch([1, 2], [1, 2], [10.0, 20.0])
        # three duplicates of (1, 1) plus a duplicate pair on a new key
        created = mat.insert_batch(
            [1, 1, 3, 1, 3],
            [1, 1, 0, 1, 0],
            [1.0, 2.0, 5.0, 3.0, 7.0],
            lambda a, b: a - 2.0 * b,
            strategy=strategy,
        )
        return mat, created

    def test_vectorized_matches_per_element_for_noncommutative_combine(self):
        ref, created_ref = self._run("per_element", lambda a, b: a - 2.0 * b)
        got, created_got = self._run("vectorized", lambda a, b: a - 2.0 * b)
        assert created_ref == created_got
        assert np.array_equal(ref.to_dense(), got.to_dense())
        # sequential fold: ((((10-2·1)-2·2)-2·3) = -2, (5-2·7) = -9
        assert ref.get(1, 1) == -2.0
        assert got.get(1, 1) == -2.0
        assert got.get(3, 0) == -9.0

    def test_arbitrary_combine_reroutes_to_per_element_loop(self):
        from repro.perf import PerfRecorder, use_recorder

        mat = DHBMatrix((4, 4))
        mat.insert_batch([0], [0], [1.0])
        rec = PerfRecorder()
        with use_recorder(rec):
            mat.insert_batch(
                [0, 0], [0, 0], [1.0, 2.0], lambda a, b: a - b, strategy="vectorized"
            )
        assert rec.counters.get("dhb.insert.path_combine_fallback") == 1


# ----------------------------------------------------------------------
# cached conversion views
# ----------------------------------------------------------------------
_VIEW_FIELDS = {
    "coo": ("rows", "cols", "values"),
    "csr": ("indptr", "indices", "values"),
    "dcsr": ("nz_rows", "indptr", "indices", "values"),
    "scipy": ("indptr", "indices", "data"),
}


def _reference_views(mat: DHBMatrix) -> dict:
    """From-scratch conversions of ``mat`` (the per-row loop, no cache)."""
    pieces = [
        (np.full(cols.size, i, dtype=np.int64), cols.copy(), vals.copy())
        for i, cols, vals in mat.iter_rows()
    ]
    if mat.nnz == 0:
        coo = COOMatrix.empty(mat.shape, mat.semiring)
    else:
        coo = COOMatrix(
            mat.shape,
            *(np.concatenate(part) for part in zip(*pieces)),
            semiring=mat.semiring,
        ).sort()
    csr = CSRMatrix.from_coo(coo, dedup=False)
    return {
        "coo": coo,
        "csr": csr,
        "dcsr": DCSRMatrix.from_coo(coo, dedup=False),
        "scipy": csr.to_scipy(),
    }


def _cached_views(mat: DHBMatrix) -> dict:
    return {
        "coo": mat.to_coo(),
        "csr": mat.to_csr(),
        "dcsr": mat.to_dcsr(),
        "scipy": mat.to_scipy(),
    }


def _assert_views_fresh(mat: DHBMatrix) -> None:
    want = _reference_views(mat)
    for _ in range(2):  # the second round is served from the cache
        got = _cached_views(mat)
        for kind, fields in _VIEW_FIELDS.items():
            for name in fields:
                x, y = getattr(got[kind], name), getattr(want[kind], name)
                assert x.dtype == y.dtype, (kind, name)
                assert x.tobytes() == y.tobytes(), (kind, name)


def _halve_then_add(a, b):
    return 0.5 * a + b


_COMBINERS = {"none": None, "plus": PLUS_TIMES.plus, "custom": _halve_then_add}
_N = 8
_entries = st.lists(
    st.tuples(
        st.integers(0, _N - 1),
        st.integers(0, _N - 1),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    ),
    max_size=12,
)
_view_ops = st.one_of(
    st.tuples(
        st.just("insert"),
        st.integers(0, _N - 1),
        st.integers(0, _N - 1),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.sampled_from(["none", "plus"]),
    ),
    st.tuples(st.just("delete"), st.integers(0, _N - 1), st.integers(0, _N - 1)),
    st.tuples(
        st.just("insert_batch"),
        _entries,
        st.sampled_from(["auto", "vectorized", "per_element"]),
        st.sampled_from(sorted(_COMBINERS)),
    ),
    st.tuples(st.sampled_from(["add_update", "merge_update", "mask_update"]), _entries),
    st.tuples(st.just("reserve_batch"), st.lists(st.integers(0, _N - 1), max_size=6)),
)


def _triplets(entries):
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    vals = np.array([e[2] for e in entries], dtype=np.float64)
    return rows, cols, vals


class TestConversionViews:
    """``to_coo``/``to_csr``/``to_dcsr``/``to_scipy`` are cached until the
    next mutation and must never be served stale."""

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(_view_ops, max_size=25))
    def test_property_views_match_rebuild_after_every_step(self, ops):
        mat = DHBMatrix((_N, _N))
        _assert_views_fresh(mat)
        for op in ops:
            kind = op[0]
            if kind == "insert":
                _, i, j, v, combine = op
                mat.insert(i, j, v, combine=_COMBINERS[combine])
            elif kind == "delete":
                mat.delete(op[1], op[2])
            elif kind == "insert_batch":
                _, entries, strategy, combine = op
                mat.insert_batch(
                    *_triplets(entries), _COMBINERS[combine], strategy=strategy
                )
            elif kind == "reserve_batch":
                mat.reserve_batch(np.array(op[1], dtype=np.int64))
            else:
                update = COOMatrix((_N, _N), *_triplets(op[1]))
                getattr(mat, kind)(update)
            _assert_views_fresh(mat)

    def test_writing_into_a_view_raises(self):
        mat = DHBMatrix.from_dense(random_dense(6, 6, 0.5, seed=3))
        views = _cached_views(mat)
        for kind, fields in _VIEW_FIELDS.items():
            for name in fields:
                arr = getattr(views[kind], name)
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[0]
        _assert_views_fresh(mat)

    def test_rows_never_alias_view_storage(self):
        mat = DHBMatrix.from_dense(random_dense(10, 10, 0.4, seed=5))
        views = _cached_views(mat)
        frozen = [
            getattr(views[kind], name)
            for kind, fields in _VIEW_FIELDS.items()
            for name in fields
        ]
        copies = [
            mat,
            mat.copy(),
            DHBMatrix.from_coo(mat.to_coo(), combine_duplicates=False),
            DHBMatrix.from_csr(mat.to_csr()),
        ]
        for m in copies:
            for row in m._rows.values():
                for arr in frozen:
                    assert not np.shares_memory(row.cols, arr)
                    assert not np.shares_memory(row.vals, arr)
        # rows built from a view stay writable
        i, j = int(mat.to_coo().rows[0]), int(mat.to_coo().cols[0])
        for m in copies[1:]:
            m.insert(i, j, 99.0)
            assert m.get(i, j) == 99.0
        assert mat.get(i, j) != 99.0
        _assert_views_fresh(mat)

    def test_pickled_matrix_ships_no_views(self):
        import pickle

        mat = DHBMatrix.from_dense(random_dense(6, 6, 0.5, seed=2))
        _cached_views(mat)
        clone = pickle.loads(pickle.dumps(mat))
        assert clone._views == {}
        assert not clone.to_coo().values.flags.writeable
        _assert_views_fresh(clone)

    def test_counters_separate_builds_from_hits(self):
        from repro.perf import PerfRecorder, use_recorder

        mat = DHBMatrix.from_dense(random_dense(6, 6, 0.5, seed=1))
        rec = PerfRecorder()
        with use_recorder(rec):
            mat.to_csr()  # builds csr on top of a coo build
            mat.to_csr()
            mat.to_coo()
            mat.insert(0, 0, 1.0)
            mat.to_csr()
        assert rec.counters["dhb.view_builds"] == 4
        assert rec.counters["dhb.view_hits"] == 2

    def test_static_operand_views_built_once_per_stream(self):
        """With a static ``B`` (Algorithm 1), the ``B'`` blocks are converted
        once, however many update batches the stream runs."""
        from repro.perf import PerfRecorder, use_recorder
        from repro.runtime import SimMPI
        from repro.scenarios import Scenario, ScenarioEngine, SpGEMMStep

        def view_counters(n_steps: int) -> tuple[float, float]:
            n = 64
            rng = np.random.default_rng(7)
            b = (rng.integers(0, n, 400), rng.integers(0, n, 400), rng.random(400) + 0.5)
            steps = [
                SpGEMMStep(
                    rng.integers(0, n, 32), rng.integers(0, n, 32), rng.random(32) + 0.5
                )
                for _ in range(n_steps)
            ]
            scenario = Scenario(name="views", shape=(n, n), steps=steps, b_tuples=b, seed=7)
            rec = PerfRecorder()
            with use_recorder(rec):
                engine = ScenarioEngine(scenario, SimMPI(4), layout="dhb")
                engine.begin()
                engine.advance(n_steps)
            return rec.counters.get("dhb.view_builds", 0), rec.counters.get(
                "dhb.view_hits", 0
            )

        builds_2, hits_2 = view_counters(2)
        builds_6, hits_6 = view_counters(6)
        assert builds_2 > 0
        assert builds_6 == builds_2
        assert hits_6 > hits_2
