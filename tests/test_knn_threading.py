"""The dense KNN's row blocks on the block pool: same bits, fork- and thread-safe.

``_dense_knn`` runs the 256-row Gram blocks of a large input on a
process-wide thread pool, each thread writing the keys into a buffer it
reuses.  Each block makes the same numpy calls as a serial loop over the
blocks would, so the neighbour lists must match that loop bit for bit,
including the tie repair of rows whose ``k``-th key is shared with rows of
other blocks.  One-block inputs never reach the pool.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from repro.graph import knn
from repro.graph.batching import batched_knn_graph
from repro.nn.dtype import WIDE_DTYPE

BLOCK = knn._BLOCK_ROWS
#: Seconds any thread or child process of a test may take.
TIMEOUT_S = 60.0


@pytest.fixture
def block_pool(monkeypatch):
    """A fresh block pool for the test, shut down after it."""
    monkeypatch.setattr(knn, "_pool", None)
    yield
    if knn._pool is not None:
        knn._pool.shutdown()


def _serial_blocks(points: np.ndarray, k: int, include_self: bool) -> np.ndarray:
    """The per-block serial reference: ``_smallest_k`` over the same 256-row blocks."""
    x = np.asarray(points, dtype=WIDE_DTYPE)
    n = x.shape[0]
    sq_norms = np.einsum("ij,ij->i", x, x)
    out = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        keys = (-2.0 * x[start:stop]) @ x.T
        keys += sq_norms
        if not include_self:
            np.fill_diagonal(keys[:, start:stop], np.inf)
        out[start:stop] = knn._smallest_k(keys, k)
    return out


def _cross_block_ties(rng: np.random.Generator, n: int, dims: int, dtype) -> np.ndarray:
    """Features whose exact ties straddle block boundaries.

    Small integers keep every float64 Gram entry exact.  All-zero rows sit
    every ``n // 40`` rows, so each block holds some and a zero row's 20
    nearest are tied at key 0 with zero rows of other blocks.  Rows of the
    first block are copied into the middle and the last block.
    """
    points = rng.integers(-2, 3, size=(n, dims)).astype(dtype)
    points[:: max(1, n // 40)] = 0.0
    copies = rng.integers(1, 30, size=12)
    points[n // 2 : n // 2 + 6] = points[copies[:6]]
    points[n - 6 :] = points[copies[6:]]
    return points


class TestBlockBitIdentity:
    @pytest.mark.parametrize("n", [257, 512, 1000, 1024, 1025])
    @pytest.mark.parametrize("include_self", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ties", [True, False])
    def test_matches_serial_blocks(self, block_pool, n, include_self, dtype, ties):
        rng = np.random.default_rng(n)
        if ties:
            points = _cross_block_ties(rng, n, 32, dtype)
        else:
            points = rng.standard_normal((n, 32)).astype(dtype)
        got = knn._dense_knn(points, 20, include_self)
        np.testing.assert_array_equal(got, _serial_blocks(points, 20, include_self))
        np.testing.assert_array_equal(knn.knn_indices(points, 20, include_self=include_self), got)
        assert knn._pool is not None

    def test_zero_rows_tie_across_blocks(self, block_pool):
        # The lowest 20 indices of all zero rows win, wherever the row sits.
        points = _cross_block_ties(np.random.default_rng(0), 1025, 32, np.float32)
        zero_rows = np.flatnonzero(~points.any(axis=1))
        assert zero_rows.size > 21 and zero_rows[-1] >= 3 * BLOCK
        idx = knn._dense_knn(points, 20, False)
        for row in (zero_rows[0], zero_rows[-1]):
            np.testing.assert_array_equal(idx[row], zero_rows[zero_rows != row][:20])


class TestBlockPool:
    @staticmethod
    def _refuse_pool():
        raise AssertionError("a one-block input reached the block pool")

    def test_one_block_inputs_never_create_the_pool(self, block_pool, monkeypatch):
        monkeypatch.setattr(knn, "_block_pool", self._refuse_pool)
        rng = np.random.default_rng(1)
        knn.knn_indices(rng.standard_normal((BLOCK, 64)), 20)  # serve_hot_tcp's cloud size
        knn.knn_indices(rng.standard_normal((64, 3)), 20, include_self=True)  # the search's
        knn.stacked_knn_indices(rng.standard_normal((4, 64, 16)), 6)
        batched_knn_graph(rng.standard_normal((3 * 100, 8)), np.repeat(np.arange(3), 100), 10)
        assert knn._pool is None

    def test_pool_is_created_once_per_usable_cpu(self, block_pool):
        points = np.random.default_rng(2).standard_normal((BLOCK + 1, 16))
        knn.knn_indices(points, 4)
        pool = knn._pool
        assert pool is not None
        knn.knn_indices(points, 4)
        assert knn._pool is pool
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert pool._max_workers == usable

    def test_reused_key_blocks_hold_no_stale_keys(self, block_pool):
        # Each thread's buffer grows to the largest block; a smaller search
        # afterwards reuses a prefix of it.
        rng = np.random.default_rng(6)
        for n, include_self in [(1025, False), (300, True), (2 * BLOCK, False), (BLOCK, True), (1024, True)]:
            points = rng.standard_normal((n, 24)).astype(np.float32)
            np.testing.assert_array_equal(
                knn._dense_knn(points, 20, include_self), _serial_blocks(points, 20, include_self)
            )


def _search_in_child(points: np.ndarray, conn) -> None:
    conn.send((knn._pool is None, knn.knn_indices(points, 20)))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method")
def test_forked_child_searches_with_a_fresh_pool(block_pool):
    points = np.random.default_rng(3).standard_normal((1024, 64)).astype(np.float32)
    expected = knn.knn_indices(points, 20)
    assert knn._pool is not None  # the child inherits a pool object whose threads are gone
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_search_in_child, args=(points, sender))
    child.start()
    sender.close()
    try:
        assert receiver.poll(TIMEOUT_S), "the forked child's search did not finish"
        pool_was_reset, got = receiver.recv()
    finally:
        child.join(TIMEOUT_S)
        if child.is_alive():
            child.kill()
            child.join()
    assert not child.is_alive() and child.exitcode == 0
    assert pool_was_reset
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("callers", [2, 4])
def test_concurrent_callers_get_single_caller_results(block_pool, callers):
    rng = np.random.default_rng(4)
    cases = [
        (rng.standard_normal((1024, 64 if i % 2 else 256)).astype(np.float32), i % 3 == 0)
        for i in range(callers)
    ]
    expected = [knn.knn_indices(points, 20, include_self=include_self) for points, include_self in cases]
    barrier = threading.Barrier(callers)
    mismatches: list[int] = []
    errors: list[Exception] = []

    def call(i: int) -> None:
        points, include_self = cases[i]
        try:
            barrier.wait(TIMEOUT_S)
            for _ in range(5):
                if not np.array_equal(knn.knn_indices(points, 20, include_self=include_self), expected[i]):
                    mismatches.append(i)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT_S)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert not mismatches
