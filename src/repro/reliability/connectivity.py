"""Batch connectivity over sampled possible worlds.

Given the ``(N, |E|)`` world-mask matrix produced by
:mod:`repro.ugraph.worlds`, these routines compute, per world, the
connected-component labeling and the number of connected vertex pairs.
They are the inner loop of every reliability estimator, so they run on
one engine:

* In process, labeling dispatches through the :mod:`repro.kernels`
  registry: with the compiled backend active a ``nogil`` union-find
  kernel labels every world directly; the fallback stacks all ``N``
  worlds into ONE block-diagonal sparse adjacency (node ids offset by
  ``world_index * n_nodes``) and labels every world with a single
  compiled ``connected_components`` call.  Both produce the registry's
  canonical labeling (per-row consecutive ids in first-appearance
  order), so the choice is invisible bit for bit.
* Workloads of at least :data:`AUTO_PROCESS_CELLS` mask cells
  (``N * |E|``) fan out over a lazily created, *persistent*
  :class:`~concurrent.futures.ProcessPoolExecutor` when more than one
  worker is available.  The worker count comes from an explicit
  ``n_workers`` argument, the ``REPRO_NUM_WORKERS`` environment
  variable, or ``os.cpu_count()``; one worker keeps labeling in
  process.  The mask matrix crosses the process boundary through a
  :mod:`repro._segments` segment -- workers receive only a
  ``(segment name, shape, row slice)`` descriptor, never a pickled
  mask array -- and each worker runs the same kernel on its row slice.

Both paths return the same canonical labels.  The per-world scipy and
union-find loops this engine replaced live on as test oracles in the
package's private oracle module.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .. import _segments, kernels
from ..exceptions import ConfigurationError
from ..ugraph.graph import UncertainGraph

__all__ = [
    "NUM_WORKERS_ENV",
    "resolve_worker_count",
    "component_labels_for_edges",
    "batch_component_labels",
    "batch_pair_counts",
    "pair_counts_from_labels",
    "shutdown_worker_pools",
]

#: Environment variable that sets the labeling pool's worker count.
NUM_WORKERS_ENV = "REPRO_NUM_WORKERS"

#: ``N * |E|`` workload size from which labeling fans out to the process
#: pool.  The threshold is not measured: on the 2-CPU host of
#: benchmarks/results/bench_connectivity_backends.txt a forced 2-worker
#: pool already beats the in-process kernel 1.65x at N=1000, |E|=2073
#: (~2.1M cells, 0.060 s vs 0.099 s), and no recorded workload reaches
#: 8M cells.  It is kept high so small batches never pay pool start-up.
AUTO_PROCESS_CELLS = 8_000_000

#: Soft cap on the temporary ``(rows, n_nodes)`` bincount matrix used by
#: the vectorized pair-count accumulation.
_PAIR_COUNT_BLOCK_ELEMENTS = 8_000_000


def resolve_worker_count(n_workers: int | None = None) -> int:
    """Worker count for the labeling pool and the pooled trial engines.

    Resolution order: explicit ``n_workers`` argument, then the
    ``REPRO_NUM_WORKERS`` environment variable, then ``os.cpu_count()``.
    """
    if n_workers is None:
        env = os.environ.get(NUM_WORKERS_ENV)
        if env is not None and env.strip():
            try:
                n_workers = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"{NUM_WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            n_workers = os.cpu_count() or 1
    n_workers = int(n_workers)
    if n_workers < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {n_workers}")
    return n_workers


def _validate_masks(graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
    """Check the world matrix against the graph's edge universe."""
    masks = np.asarray(masks)
    if masks.ndim != 2:
        raise ValueError(
            f"world-mask matrix must be 2-D (N, |E|), got shape {masks.shape}"
        )
    if masks.shape[1] != graph.n_edges:
        raise ValueError(
            f"world-mask matrix has {masks.shape[1]} edge columns but the "
            f"graph has {graph.n_edges} edges; masks must come from the "
            "same graph (edge indexing is positional)"
        )
    if masks.dtype != np.bool_:
        masks = masks.astype(bool)
    return masks


#: Lazily created, reused process pools keyed by worker count.  Spawning
#: a pool costs tens of milliseconds; the Monte-Carlo loops call
#: ``_process_labels`` hundreds of times per run, so the pool persists
#: until interpreter exit (or an explicit :func:`shutdown_worker_pools`).
_WORKER_POOLS: dict[int, ProcessPoolExecutor] = {}


def _get_pool(n_workers: int) -> ProcessPoolExecutor:
    pool = _WORKER_POOLS.get(n_workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=n_workers)
        _WORKER_POOLS[n_workers] = pool
    return pool


def shutdown_worker_pools() -> None:
    """Shut down every persistent labeling pool."""
    for pool in _WORKER_POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _WORKER_POOLS.clear()


atexit.register(shutdown_worker_pools)


def _create_shared_masks(masks: np.ndarray) -> "_segments.Segment":
    """Copy a boolean world matrix into a fresh out-of-heap segment.

    The kind follows ``REPRO_SEGMENT_KIND``: POSIX shared memory by
    default, file-backed memmap segments where ``/dev/shm`` is scarce.

    The segment comes from the :mod:`repro._segments` registry, so an
    interpreter killed between creation and the ``finally`` unlink in
    :func:`_process_labels` is swept at exit instead of leaking.
    """
    shm = _segments.create_segment(
        masks.nbytes, kind=_segments.publish_kind()
    )
    view = np.ndarray(masks.shape, dtype=np.bool_, buffer=shm.buf)
    view[:] = masks
    # ``view`` goes out of scope here; only the segment's own buffer
    # stays exported, so close()/unlink() remain legal for the caller.
    return shm


def _shared_mask_payloads(
    n_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    shm_name: str,
    shape: tuple[int, int],
    n_chunks: int,
) -> list[tuple]:
    """Descriptor tuples handed to the pool: name + shape + row slice.

    The mask matrix itself never crosses the process boundary -- workers
    attach to the named segment and read their ``[start, stop)`` rows
    in place.  Only the (small) endpoint arrays are pickled.
    """
    n_samples = shape[0]
    bounds = np.linspace(0, n_samples, n_chunks + 1, dtype=np.int64)
    return [
        (n_nodes, src, dst, shm_name, shape, int(start), int(stop))
        for start, stop in zip(bounds[:-1], bounds[1:])
        if stop > start
    ]


def _labels_shm_worker(payload) -> np.ndarray:
    """Module-level worker (picklable) for the labeling pool.

    Attaches to the parent's shared-memory segment, copies its assigned
    row slice out (the kernel reorders rows via fancy indexing anyway),
    and detaches before doing any labeling work so the parent can unlink
    the segment as soon as every worker has read its slice.
    """
    n_nodes, src, dst, shm_name, shape, start, stop = payload
    shm = _segments.attach_segment(shm_name)
    try:
        view = np.ndarray(shape, dtype=np.bool_, buffer=shm.buf)
        chunk = np.array(view[start:stop], copy=True)
        del view
    finally:
        shm.close()
    return kernels.masked_component_labels(n_nodes, src, dst, chunk)


def _process_labels(
    n_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    masks: np.ndarray,
    n_workers: int,
) -> np.ndarray:
    """Fan the world batch out over the persistent pool, one chunk per worker.

    Masks travel through shared memory (created here, unlinked in the
    ``finally`` even when a worker raises); workers receive descriptors
    only -- see :func:`_shared_mask_payloads`.
    """
    n_samples = masks.shape[0]
    n_workers = min(n_workers, max(1, n_samples))
    if n_workers <= 1:
        return kernels.masked_component_labels(n_nodes, src, dst, masks)
    masks = np.ascontiguousarray(masks)
    shm = _create_shared_masks(masks)
    try:
        payloads = _shared_mask_payloads(
            n_nodes, src, dst, shm.name, masks.shape, n_workers
        )
        try:
            parts = list(_get_pool(n_workers).map(_labels_shm_worker, payloads))
        except BrokenProcessPool:
            # A worker died (OOM, signal): discard the broken pool so the
            # next call starts a healthy one, then surface the failure.
            _WORKER_POOLS.pop(n_workers, None)
            raise
        return np.concatenate(parts, axis=0)
    finally:
        _segments.release_segment(shm)


def component_labels_for_edges(
    n_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    masks: np.ndarray,
    n_workers: int | None = None,
) -> np.ndarray:
    """Component labels for a world batch over an explicit edge universe.

    Same contract as :func:`batch_component_labels` but parameterized by
    raw endpoint arrays instead of an :class:`UncertainGraph`, so callers
    whose edge universe outgrew the base graph (the world store's derived
    candidates) share the engine.  ``masks`` must be ``(N, len(src))``.
    """
    masks = np.asarray(masks)
    if masks.ndim != 2 or masks.shape[1] != src.shape[0]:
        raise ValueError(
            f"world-mask matrix must be (N, {src.shape[0]}), got {masks.shape}"
        )
    if masks.dtype != np.bool_:
        masks = masks.astype(bool)
    if masks.shape[0] * max(1, masks.shape[1]) >= AUTO_PROCESS_CELLS:
        workers = resolve_worker_count(n_workers)
        if workers > 1:
            return _process_labels(n_nodes, src, dst, masks, workers)
    return kernels.masked_component_labels(n_nodes, src, dst, masks)


def batch_component_labels(
    graph: UncertainGraph,
    masks: np.ndarray,
    n_workers: int | None = None,
) -> np.ndarray:
    """Component labels for every sampled world.

    Returns an ``(N, n_nodes)`` int32 matrix; row ``i`` labels world ``i``
    with consecutive component ids starting at 0, in first-appearance
    order.  ``n_workers`` sizes the process pool that batches of at least
    :data:`AUTO_PROCESS_CELLS` cells fan out to (see
    :func:`resolve_worker_count`); it never changes the labels.
    """
    masks = _validate_masks(graph, masks)
    return component_labels_for_edges(
        graph.n_nodes, graph.edge_src, graph.edge_dst, masks,
        n_workers=n_workers,
    )


def pair_counts_from_labels(labels: np.ndarray) -> np.ndarray:
    """Connected-pair count per world from a batch labeling.

    ``labels`` is ``(N, n_nodes)`` with consecutive component ids per
    row.  Vectorized: rows are offset into disjoint label ranges so one
    ``np.bincount`` yields every world's component sizes at once
    (block-processed to bound the temporary size matrix).
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"labels must be 2-D (N, n_nodes), got {labels.shape}")
    n_samples, n_nodes = labels.shape
    counts = np.empty(n_samples, dtype=np.float64)
    if n_samples == 0:
        return counts
    if n_nodes == 0:
        counts.fill(0.0)
        return counts
    block = max(1, _PAIR_COUNT_BLOCK_ELEMENTS // n_nodes)
    for start in range(0, n_samples, block):
        chunk = labels[start:start + block].astype(np.int64, copy=False)
        rows = chunk.shape[0]
        offset = np.arange(rows, dtype=np.int64)[:, None] * n_nodes
        sizes = np.bincount(
            (chunk + offset).ravel(), minlength=rows * n_nodes
        ).reshape(rows, n_nodes)
        counts[start:start + rows] = (sizes * (sizes - 1) // 2).sum(axis=1)
    return counts


def batch_pair_counts(
    graph: UncertainGraph,
    masks: np.ndarray,
    n_workers: int | None = None,
) -> np.ndarray:
    """Connected-pair count of every sampled world (``cc(G)`` in Alg. 2)."""
    return pair_counts_from_labels(
        batch_component_labels(graph, masks, n_workers=n_workers)
    )
