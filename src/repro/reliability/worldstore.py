"""Persistent common-random-number world store with dirty-world derivation.

The GenObf/Chameleon evaluation loop compares many candidate graphs
against one base graph, and `reliability_discrepancy` already seeds both
sides identically (common random numbers, CRN) so that shared edges
realize identically.  :class:`WorldStore` turns that pairing from a
variance trick into a *structural* speedup:

* the uniform matrix ``U`` of shape ``(N, |edge universe|)`` is drawn
  once per run (columns grow on demand when candidates introduce new
  edges) and the base graph's world masks are derived as ``U < p``;
* base component labels, per-world connected-pair counts, and the
  pairwise equality accumulator are computed once and cached;
* a candidate described as a delta ``[(u, v, p_old, p_new), ...]``
  re-thresholds only the changed columns.  A world's realization of edge
  ``e`` flips iff ``U[i, e]`` lands in ``[min(p_old, p_new),
  max(p_old, p_new))`` -- probability ``|p_new - p_old|`` -- so the
  expected **dirty-world** count is ``N * (1 - prod_e (1 - |dp_e|))``,
  a small fraction of ``N`` for GenObf-sized perturbations.  Only dirty
  worlds are relabeled (with the batched kernel); clean worlds reuse the
  cached base labels.

Sharded storage (the scale-out path)
------------------------------------
The uniform/mask/label matrices are partitioned into **world-chunks**:
contiguous row blocks of at most ``chunk_worlds`` worlds, each block
either an in-RAM array or an ``np.memmap``-style view over a file-backed
segment from the :mod:`repro._segments` registry (pid-stamped names,
atexit/signal sweep, orphan reaper).  Chunking is invisible to callers:

* uniforms are drawn chunk-by-chunk in row order, which consumes the
  generator's stream exactly as one monolithic ``rng.random((N, C))``
  call would (``Generator.random`` fills C-contiguous output in order),
  so base masks stay bitwise equal to ``sample_edge_masks`` at *every*
  chunk size -- antithetic mode forces even chunk sizes so pair rows
  never straddle a draw;
* ``derive`` re-thresholds dirty columns chunk-by-chunk and relabels
  only the dirty worlds within touched chunks;
* pair counts, pair equality and the pairwise accumulator stream
  per-chunk partial sums through the existing exact int64 reducers, so
  no query materializes more than one chunk (plus ``memory_budget``-
  gated caches) at a time.

Resolution of the knobs (first match wins): explicit ``chunk_worlds`` >
``REPRO_WORLD_CHUNK`` > derived from ``memory_budget`` (bytes per world:
9 per edge column + 4 per vertex label) > one chunk of all ``N`` worlds.
Whatever the source, the chunk size is raised until the store fits in at
most ``_MAX_CHUNKS`` chunks -- each memmap chunk block pins an open file
descriptor, so an unbounded chunk count would hit ``RLIMIT_NOFILE``.
Storage backend: explicit ``store_backend`` > ``REPRO_WORLD_BACKEND`` >
``"ram"``.  The single-chunk RAM configuration is the exact layout of
the original monolithic store.

Every query answered by a :class:`DerivedWorlds` view is **bit-identical**
to a fresh full recompute over the same materialized masks: per-row
component label values depend only on the row's realized edges, and all
aggregations run through exact integer accumulators (int64 counts)
divided by ``N`` at the end -- the same ``count / N`` float the direct
estimator produces.  Integer partial sums over chunks are associative,
so the chunked reductions are bit-identical too (property-tested in
``tests/test_chunked_store.py``).
"""

from __future__ import annotations

import copy
import os

import numpy as np

from .. import _segments, kernels
from .._rng import as_generator
from ..exceptions import EstimationError
from ..ugraph.graph import UncertainGraph
from .connectivity import component_labels_for_edges, pair_counts_from_labels

__all__ = [
    "WorldStore",
    "DerivedWorlds",
    "graph_delta",
    "sample_vertex_pairs",
    "WORLD_STORE_BACKENDS",
]

#: Largest vertex count for which full ``n x n`` pairwise matrices are
#: materialized (shared with :class:`repro.reliability.ReliabilityEstimator`).
FULL_MATRIX_LIMIT = 1500
#: Element budget for one ``(block, n, n)`` equality tensor.
PAIRWISE_BLOCK_ELEMENTS = 16_000_000
#: Vertex pairs sampled when a graph is too large for the full matrix.
DEFAULT_PAIR_SAMPLE = 20_000
#: Tolerance when validating a delta's claimed ``p_old`` against the store.
_P_OLD_TOLERANCE = 1e-9

#: Storage backends for the world-chunk blocks.
WORLD_STORE_BACKENDS = ("ram", "memmap")

#: Hard ceiling on world-chunks per store.  Each memmap chunk block keeps
#: one file descriptor open, so requested chunk sizes are raised until the
#: store fits in at most this many chunks (<= 3 * _MAX_CHUNKS fds).
_MAX_CHUNKS = 64


def sample_vertex_pairs(
    n_nodes: int, n_pairs: int, seed=None
) -> np.ndarray:
    """Uniformly sample ``n_pairs`` distinct-endpoint vertex pairs.

    Pairs are sampled with replacement from the set of unordered pairs;
    duplicates are acceptable for estimation (they do not bias the mean).
    """
    if n_nodes < 2:
        raise EstimationError("need at least two vertices to form pairs")
    rng = as_generator(seed)
    u = rng.integers(0, n_nodes, size=n_pairs)
    shift = rng.integers(1, n_nodes, size=n_pairs)
    v = (u + shift) % n_nodes
    return np.stack([u, v], axis=1)


def graph_delta(
    base: UncertainGraph, other: UncertainGraph
) -> list[tuple[int, int, float, float]]:
    """Describe ``other`` as a probability delta against ``base``.

    Returns ``[(u, v, p_old, p_new), ...]`` covering every pair whose
    probability differs between the two graphs (edges absent from a
    graph count as probability 0), i.e. ``overlay(base, deltas)`` and
    ``other`` agree on every pair probability.
    """
    if base.n_nodes != other.n_nodes:
        raise EstimationError("graphs must share the vertex set")
    delta: list[tuple[int, int, float, float]] = []
    base_p = base.pair_probabilities(other.edge_src, other.edge_dst)
    for u, v, p_new, p_old in zip(
        other.edge_src.tolist(), other.edge_dst.tolist(),
        other.edge_probabilities.tolist(), base_p.tolist(),
    ):
        if p_new != p_old:
            delta.append((u, v, p_old, p_new))
    for u, v, p_old in zip(
        base.edge_src.tolist(), base.edge_dst.tolist(),
        base.edge_probabilities.tolist(),
    ):
        if p_old != 0.0 and not other.has_edge(u, v):
            delta.append((u, v, p_old, 0.0))
    return delta


def _pairwise_equal_acc(labels: np.ndarray, n_nodes: int) -> np.ndarray:
    """Exact int64 ``n x n`` accumulator of per-world label equalities."""
    acc = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    block = max(1, PAIRWISE_BLOCK_ELEMENTS // max(1, n_nodes * n_nodes))
    for start in range(0, labels.shape[0], block):
        chunk = labels[start:start + block]
        acc += (chunk[:, :, None] == chunk[:, None, :]).sum(axis=0)
    return acc


#: Pair-count block width: keeps the two gathered ``(N, block)`` label
#: slabs cache-resident instead of materializing ``(N, M)`` at once.
_PAIR_COUNT_BLOCK = 2048


def _pair_equal_counts(labels: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Exact int64 per-pair connected-world counts, blocked over pairs."""
    counts = np.empty(pairs.shape[0], dtype=np.int64)
    for start in range(0, pairs.shape[0], _PAIR_COUNT_BLOCK):
        block = pairs[start:start + _PAIR_COUNT_BLOCK]
        equal = (
            labels.take(block[:, 0], axis=1)
            == labels.take(block[:, 1], axis=1)
        )
        counts[start:start + _PAIR_COUNT_BLOCK] = equal.sum(
            axis=0, dtype=np.int64
        )
    return counts


def _validate_pairs(pairs) -> np.ndarray:
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise EstimationError(f"pairs must be (M, 2), got {pairs.shape}")
    return pairs


def _resolve_store_backend(store_backend: str | None) -> str:
    if store_backend is None:
        store_backend = os.environ.get("REPRO_WORLD_BACKEND") or "ram"
    if store_backend not in WORLD_STORE_BACKENDS:
        raise EstimationError(
            f"store backend must be one of {WORLD_STORE_BACKENDS}, "
            f"got {store_backend!r}"
        )
    return store_backend


class WorldStore:
    """Cached CRN worlds of one base graph, derivable to candidate graphs.

    Parameters
    ----------
    graph:
        The base graph; its edge set seeds the column universe.
    n_samples:
        Number of possible worlds (rows of ``U``).
    seed:
        Seed / generator.  With the same seed, the store's base masks are
        bitwise equal to ``sample_edge_masks(graph, n_samples, seed)`` --
        uniforms are drawn with identical generator consumption.
    n_workers:
        Labeling-pool size (see :mod:`repro.reliability.connectivity`):
        a large full-batch labeling may go multiprocess while a small
        dirty set stays on the in-process kernel.
    antithetic:
        Draw uniforms in antithetic pairs (row ``2i+1`` uses ``1 - U`` of
        row ``2i``), matching ``sample_edge_masks(..., antithetic=True)``
        bitwise.  Requires an even ``n_samples``.
    chunk_worlds:
        Rows per world-chunk (default: ``REPRO_WORLD_CHUNK``, else
        derived from ``memory_budget``, else all ``n_samples`` in one
        chunk); raised as needed so the store never exceeds
        ``_MAX_CHUNKS`` chunks.  Query results are bit-identical at
        every chunk size.
    store_backend:
        ``"ram"`` (default) or ``"memmap"`` -- where chunk blocks live
        (``REPRO_WORLD_BACKEND`` overrides the default).  Memmap blocks
        are file segments in the :mod:`repro._segments` registry.
    memory_budget:
        Soft cap, in bytes, on world-state the store materializes at
        once: it sizes ``chunk_worlds`` when that is not given and
        disables the ``(N, M)`` pair-equality cache when the cache alone
        would exceed it.  Values are unchanged either way.

    Use :meth:`from_masks` to wrap an already-sampled mask matrix; such a
    store has no uniforms and therefore only supports forced-present /
    forced-absent deltas (``p_new`` in ``{0, 1}``) -- exactly what the
    relevance estimator's degenerate-edge passes need.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        n_samples: int = 1000,
        seed=None,
        n_workers: int | None = None,
        antithetic: bool = False,
        chunk_worlds: int | None = None,
        store_backend: str | None = None,
        memory_budget: int | None = None,
    ):
        if n_samples <= 0:
            raise EstimationError(f"n_samples must be positive, got {n_samples}")
        if antithetic and n_samples % 2 != 0:
            raise EstimationError(
                f"antithetic sampling needs an even n_samples, got {n_samples}"
            )
        if memory_budget is not None and int(memory_budget) <= 0:
            raise EstimationError(
                f"memory_budget must be positive, got {memory_budget}"
            )
        self._graph = graph
        self._n_samples = int(n_samples)
        self._rng = as_generator(seed)
        # Entropy keying grown columns' uniforms by *pair* rather than by
        # arrival order.  Drawn from a deep copy so the real stream is
        # untouched (base masks stay bitwise ``sample_edge_masks``) and
        # two same-seeded stores agree on it -- hence on every grown
        # column -- no matter how their universes grew.
        self._growth_entropy = int(
            copy.deepcopy(self._rng).integers(0, 2**63)
        )
        self._n_workers = n_workers
        self._antithetic = bool(antithetic)
        self._memory_budget = (
            None if memory_budget is None else int(memory_budget)
        )
        self._store_backend = _resolve_store_backend(store_backend)
        chunk = self._resolve_chunk_size(chunk_worlds)
        self._chunks: tuple[tuple[int, int], ...] = tuple(
            (start, min(start + chunk, self._n_samples))
            for start in range(0, self._n_samples, chunk)
        )
        # Growable edge universe: base edges first, candidate-introduced
        # columns appended (base probability 0 => base mask all-False).
        self._src = graph.edge_src.copy()
        self._dst = graph.edge_dst.copy()
        self._prob = graph.edge_probabilities.copy()
        self._col_index: dict[tuple[int, int], int] = {
            (int(u), int(v)): i
            for i, (u, v) in enumerate(zip(self._src, self._dst))
        }
        self._has_uniforms = True
        # Chunked storage: one row-block per chunk.  Uniform blocks may
        # hold spare column capacity (geometric growth); ``_u_cols`` is
        # the logical width.  Mutations rebind the block lists (or write
        # only spare columns), never patch shared blocks in place, so
        # clones can share blocks copy-on-write.
        self._u_blocks: list[np.ndarray] | None = None
        self._u_cols = 0
        self._u_capacity = 0
        self._m_blocks: list[np.ndarray] | None = None
        self._l_blocks: list[np.ndarray] | None = None
        self._segments_owned: list[_segments.Segment] = []
        #: id(block) -> backing segment, for blocks THIS store allocated.
        #: Lets ``rebase`` release a replaced block's file immediately
        #: instead of holding it until ``close``.
        self._block_segments: dict[int, _segments.Segment] = {}
        self._storage_shared = False
        self._pair_counts: np.ndarray | None = None
        self._pair_acc: np.ndarray | None = None
        self._pairwise: np.ndarray | None = None
        self._pair_equal_cache: tuple[tuple, np.ndarray] | None = None

    def _resolve_chunk_size(self, chunk_worlds: int | None) -> int:
        if chunk_worlds is None:
            env = os.environ.get("REPRO_WORLD_CHUNK")
            if env:
                chunk_worlds = int(env)
        if chunk_worlds is not None and int(chunk_worlds) <= 0:
            raise EstimationError(
                f"chunk_worlds must be positive, got {chunk_worlds}"
            )
        if chunk_worlds is None and self._memory_budget is not None:
            per_world = (
                9 * max(1, self._graph.n_edges) + 4 * self._graph.n_nodes
            )
            chunk_worlds = max(1, self._memory_budget // per_world)
        if chunk_worlds is None:
            chunk_worlds = self._n_samples
        chunk = max(1, min(int(chunk_worlds), self._n_samples))
        # Every memmap chunk block pins an open file descriptor (CPython's
        # mmap dups the fd for the mapping's lifetime), so bound the chunk
        # count: a tiny explicit chunk on a huge store would otherwise
        # exhaust RLIMIT_NOFILE long before it exhausted memory.
        min_chunk = -(-self._n_samples // _MAX_CHUNKS)
        chunk = min(max(chunk, min_chunk), self._n_samples)
        if self._antithetic and chunk % 2 != 0:
            # Antithetic rows come in (2i, 2i+1) pairs drawn together; an
            # even chunk size keeps every pair inside one chunk, which is
            # what makes the per-chunk draws consume the generator stream
            # exactly like the monolithic draw.
            chunk = max(2, chunk - 1)
        return chunk

    @classmethod
    def from_masks(
        cls,
        graph: UncertainGraph,
        masks: np.ndarray,
        n_workers: int | None = None,
        labels: np.ndarray | None = None,
        memory_budget: int | None = None,
    ) -> "WorldStore":
        """Wrap an existing ``(N, |E|)`` mask matrix (no uniforms kept).

        The resulting store answers base queries and forced-present /
        forced-absent derivations (``p_new`` in ``{0, 1}``); general
        re-thresholding raises because the uniforms behind ``masks`` are
        unknown.  ``labels`` optionally seeds the base-label cache.
        Chunking wraps zero-copy row views of the given arrays.
        """
        masks = np.asarray(masks)
        if masks.ndim != 2 or masks.shape[1] != graph.n_edges:
            raise EstimationError(
                f"mask matrix must be (N, {graph.n_edges}), got {masks.shape}"
            )
        store = cls(
            graph, n_samples=masks.shape[0],
            n_workers=n_workers, memory_budget=memory_budget,
        )
        store._has_uniforms = False
        masks = masks.astype(bool, copy=False)
        store._m_blocks = [
            masks[start:stop] for start, stop in store._chunks
        ]
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape != (masks.shape[0], graph.n_nodes):
                raise EstimationError(
                    f"labels must be {(masks.shape[0], graph.n_nodes)}, "
                    f"got {labels.shape}"
                )
            store._l_blocks = [
                labels[start:stop] for start, stop in store._chunks
            ]
        return store

    def clone(self) -> "WorldStore":
        """An independent store, bitwise-indistinguishable from this one.

        ``derive`` mutates the store: column growth appends to the edge
        universe (with pair-keyed uniform draws), so two runs that
        derive different candidates leave the store with different
        universes.  A long-lived service
        therefore never derives on its warm store directly -- it hands
        each job a clone, so the expensive base state (uniform draws,
        world labels, pair accumulators) is paid once while per-job
        growth never leaks back.  A clone of a pristine store behaves
        exactly like a freshly built store with the same
        ``(graph, n_samples, seed)``: the generator state is deep-copied,
        so subsequent draws consume the same stream.

        Chunk blocks are shared **copy-on-write**: every base cache
        (uniform, mask and label blocks, counts) is shared by reference
        -- mutations rebind lists or write only spare uniform capacity --
        and the one in-place path (column growth writing new draws into
        spare uniform columns) re-allocates the clone's uniform blocks
        first.  Clones are therefore O(1) in world-state memory until
        they grow the universe.
        """
        twin = object.__new__(WorldStore)
        twin._graph = self._graph
        twin._n_samples = self._n_samples
        twin._rng = copy.deepcopy(self._rng)
        twin._growth_entropy = self._growth_entropy
        twin._n_workers = self._n_workers
        twin._antithetic = self._antithetic
        twin._memory_budget = self._memory_budget
        twin._store_backend = self._store_backend
        twin._chunks = self._chunks
        twin._src = self._src
        twin._dst = self._dst
        twin._prob = self._prob
        twin._col_index = dict(self._col_index)
        twin._has_uniforms = self._has_uniforms
        twin._u_blocks = self._u_blocks
        twin._u_cols = self._u_cols
        twin._u_capacity = self._u_capacity
        twin._m_blocks = self._m_blocks
        twin._l_blocks = self._l_blocks
        twin._segments_owned = []
        twin._block_segments = {}
        twin._storage_shared = self._u_blocks is not None
        twin._pair_counts = self._pair_counts
        twin._pair_acc = self._pair_acc
        twin._pairwise = self._pairwise
        twin._pair_equal_cache = self._pair_equal_cache
        return twin

    def close(self) -> None:
        """Release the store's file segments (memmap backend).

        Live clones sharing the blocks keep working: unlinking a mapped
        file leaves the mapping readable until the last view dies.
        Idempotent; the :mod:`repro._segments` exit sweep is the
        backstop when this is never called.
        """
        owned, self._segments_owned = self._segments_owned, []
        self._block_segments = {}
        for segment in owned:
            _segments.release_segment(segment)

    def __del__(self):  # best-effort backstop; close() is the contract
        try:
            if getattr(self, "_segments_owned", None):
                self.close()
        except (OSError, ValueError, RuntimeError):
            pass  # interpreter teardown: the atexit sweep covers it

    # -- chunked storage -------------------------------------------------- #

    @property
    def n_chunks(self) -> int:
        """Number of world-chunks the store is partitioned into."""
        return len(self._chunks)

    @property
    def chunk_bounds(self) -> tuple[tuple[int, int], ...]:
        """``(start, stop)`` row range of every world-chunk."""
        return self._chunks

    @property
    def store_backend(self) -> str:
        """Where chunk blocks live: ``"ram"`` or ``"memmap"``."""
        return self._store_backend

    @property
    def memory_budget(self) -> int | None:
        return self._memory_budget

    def segment_names(self) -> tuple[str, ...]:
        """Names of the file segments this store owns (memmap backend)."""
        return tuple(seg.name for seg in self._segments_owned)

    def _alloc_block(self, shape: tuple, dtype) -> np.ndarray:
        """One chunk block: plain array, or a view over a file segment."""
        count = int(np.prod(shape))
        if self._store_backend != "memmap" or count == 0:
            return np.empty(shape, dtype=dtype)
        nbytes = count * np.dtype(dtype).itemsize
        # Pinned: the store releases its own segments in close()/__del__,
        # so leak accounting and in-process sweeps must not count them.
        segment = _segments.create_segment(nbytes, kind="file", pinned=True)
        self._segments_owned.append(segment)
        block = np.frombuffer(
            segment.buf, dtype=dtype, count=count
        ).reshape(shape)
        self._block_segments[id(block)] = segment
        return block

    def _draw_uniform_rows(self, rows: int, n_cols: int) -> np.ndarray:
        """Draw ``(rows, n_cols)`` uniforms, mirroring the sampler's stream.

        ``Generator.random`` fills C-contiguous output in draw order, so
        consuming the same total rows chunk-by-chunk in row order yields
        bitwise the values of one monolithic call.  Under antithetic
        pairing ``rows`` is always even (chunk sizes are forced even),
        so each chunk draws whole antithetic pairs.
        """
        if not self._antithetic:
            return self._rng.random((rows, n_cols))
        half = self._rng.random((rows // 2, n_cols))
        out = np.empty((rows, n_cols), dtype=np.float64)
        out[0::2] = half
        out[1::2] = 1.0 - half
        return out

    def _growth_uniform_column(self, u: int, v: int) -> np.ndarray:
        """The ``(n_samples,)`` uniforms behind grown column ``(u, v)``.

        Keyed by the pair through :attr:`_growth_entropy`, not by the
        main stream: the same store seed assigns the same uniforms to a
        pair whether its column appears in one big delta, over several
        chained ``rebase`` calls, or interleaved with no-ops -- which is
        what keeps incremental update paths bitwise-comparable to a
        single-shot derivation.
        """
        rng = np.random.default_rng((self._growth_entropy, u, v))
        if not self._antithetic:
            return rng.random(self._n_samples)
        half = rng.random(self._n_samples // 2)
        out = np.empty(self._n_samples, dtype=np.float64)
        out[0::2] = half
        out[1::2] = 1.0 - half
        return out

    def _ensure_uniforms(self) -> None:
        """Draw the base uniform blocks (chunk order == row order)."""
        if not self._has_uniforms:
            raise EstimationError(
                "store was built from masks; its uniforms are unknown"
            )
        if self._u_blocks is not None:
            return
        # The first draw covers exactly the base graph's columns so base
        # masks reproduce sample_edge_masks(graph, N, seed) bitwise;
        # grown columns consume the stream afterwards.
        n_cols = self._graph.n_edges
        blocks = []
        for start, stop in self._chunks:
            block = self._alloc_block((stop - start, n_cols), np.float64)
            if n_cols:
                block[:] = self._draw_uniform_rows(stop - start, n_cols)
            blocks.append(block)
        self._u_blocks = blocks
        self._u_cols = n_cols
        self._u_capacity = n_cols
        self._storage_shared = False  # freshly drawn: nobody shares these

    def _ensure_masks(self) -> None:
        if self._m_blocks is not None:
            return
        self._ensure_uniforms()
        width = self._prob.shape[0]
        blocks = []
        for (start, stop), u_block in zip(self._chunks, self._u_blocks):
            block = self._alloc_block((stop - start, width), np.bool_)
            np.less(u_block[:, :width], self._prob, out=block)
            blocks.append(block)
        self._m_blocks = blocks

    def _ensure_labels(self) -> None:
        if self._l_blocks is not None:
            return
        self._ensure_masks()
        n = self._graph.n_nodes
        blocks = []
        for (start, stop), m_block in zip(self._chunks, self._m_blocks):
            labels = component_labels_for_edges(
                n, self._src, self._dst, m_block,
                n_workers=self._n_workers,
            )
            if self._store_backend == "memmap":
                block = self._alloc_block(labels.shape, labels.dtype)
                block[:] = labels
                labels = block
            blocks.append(labels)
        self._l_blocks = blocks

    def _label_rows(self, rows: np.ndarray) -> np.ndarray:
        """Gather base-label rows across chunks (order-preserving)."""
        self._ensure_labels()
        rows = np.asarray(rows, dtype=np.int64)
        first = self._l_blocks[0]
        out = np.empty((rows.shape[0], first.shape[1]), dtype=first.dtype)
        for (start, stop), block in zip(self._chunks, self._l_blocks):
            sel = (rows >= start) & (rows < stop)
            if np.any(sel):
                out[sel] = block[rows[sel] - start]
        return out

    def base_label_rows(self, rows: np.ndarray) -> np.ndarray:
        """Public streaming gather of base-label rows (see `_label_rows`)."""
        return self._label_rows(rows)

    def base_mask_column(self, col: int) -> np.ndarray:
        """One base-mask column ``(N,)`` without materializing the matrix."""
        self._ensure_masks()
        col = int(col)
        if len(self._m_blocks) == 1:
            return self._m_blocks[0][:, col]
        out = np.empty(self._n_samples, dtype=bool)
        for (start, stop), block in zip(self._chunks, self._m_blocks):
            out[start:stop] = block[:, col]
        return out

    def warm(self) -> None:
        """Force the expensive base state (uniforms, masks, labels) now.

        A warm registry calls this before handing out clones so the
        chunk blocks are shared by every clone instead of recomputed
        per job.
        """
        self._ensure_labels()

    # -- base-world caches --------------------------------------------- #

    @property
    def graph(self) -> UncertainGraph:
        return self._graph

    @property
    def n_samples(self) -> int:
        return self._n_samples

    @property
    def n_columns(self) -> int:
        """Current edge-universe width (base edges + grown columns)."""
        return self._prob.shape[0]

    @property
    def uniforms(self) -> np.ndarray:
        """The ``(N, n_columns)`` uniform matrix ``U``.

        With more than one chunk this *materializes* the concatenation
        (an audit/compat accessor); chunk-local code paths never call it.
        """
        self._ensure_uniforms()
        width = self._prob.shape[0]
        if len(self._u_blocks) == 1:
            return self._u_blocks[0][:, :width]
        return np.concatenate(
            [block[:, :width] for block in self._u_blocks], axis=0
        )

    @property
    def base_masks(self) -> np.ndarray:
        """Boolean ``(N, n_columns)`` base-world matrix (``U < p``).

        Materializes the chunk concatenation when chunked (audit/compat
        accessor; the chunked query paths stream blocks instead).
        """
        self._ensure_masks()
        if len(self._m_blocks) == 1:
            return self._m_blocks[0]
        return np.concatenate(self._m_blocks, axis=0)

    @property
    def base_labels(self) -> np.ndarray:
        """Int ``(N, n)`` base component labels.

        Materializes the chunk concatenation when chunked (audit/compat
        accessor; the chunked query paths stream blocks instead).
        """
        self._ensure_labels()
        if len(self._l_blocks) == 1:
            return self._l_blocks[0]
        return np.concatenate(self._l_blocks, axis=0)

    @property
    def base_pair_counts(self) -> np.ndarray:
        """Connected-pair count per base world (cached, chunk-streamed)."""
        if self._pair_counts is None:
            self._ensure_labels()
            parts = [
                pair_counts_from_labels(block) for block in self._l_blocks
            ]
            self._pair_counts = (
                parts[0] if len(parts) == 1 else np.concatenate(parts)
            )
        return self._pair_counts

    @property
    def base_pair_acc(self) -> np.ndarray:
        """Int64 ``n x n`` pairwise equality accumulator (cached)."""
        if self._pair_acc is None:
            n = self._graph.n_nodes
            if n > FULL_MATRIX_LIMIT:
                raise EstimationError(
                    f"full reliability matrix limited to {FULL_MATRIX_LIMIT} "
                    f"vertices, graph has {n}; use reliability_of_pairs"
                )
            self._ensure_labels()
            acc = np.zeros((n, n), dtype=np.int64)
            for block in self._l_blocks:
                acc += _pairwise_equal_acc(block, n)
            self._pair_acc = acc
        return self._pair_acc

    @staticmethod
    def _pair_cache_key(pairs: np.ndarray) -> tuple:
        return (pairs.shape[0], hash(pairs.tobytes()))

    def _pair_cache_allowed(self, n_pairs: int) -> bool:
        """Whether the ``(N, M)`` bool pair-equality cache fits the budget.

        Skipping the cache changes memory use only: the streaming count
        path below produces the identical int64 sums.
        """
        if self._memory_budget is None:
            return True
        return self._n_samples * n_pairs <= self._memory_budget

    def _base_pair_equal(self, pairs: np.ndarray) -> np.ndarray:
        """Boolean ``(N, M)`` base connectivity per pair, cached.

        The sigma search evaluates every candidate against one fixed
        pair set; caching this matrix lets each derived view reduce its
        dirty-world correction to a row gather + sum instead of a fresh
        label comparison.  Only the most recent pair set is kept.
        """
        key = self._pair_cache_key(pairs)
        if self._pair_equal_cache is not None and \
                self._pair_equal_cache[0] == key:
            return self._pair_equal_cache[1]
        self._ensure_labels()
        equal = np.empty((self._n_samples, pairs.shape[0]), dtype=bool)
        for (c_start, c_stop), labels in zip(self._chunks, self._l_blocks):
            for start in range(0, pairs.shape[0], _PAIR_COUNT_BLOCK):
                block = pairs[start:start + _PAIR_COUNT_BLOCK]
                equal[c_start:c_stop, start:start + block.shape[0]] = (
                    labels.take(block[:, 0], axis=1)
                    == labels.take(block[:, 1], axis=1)
                )
        self._pair_equal_cache = (key, equal)
        return equal

    def _cached_pair_equal(self, pairs: np.ndarray) -> np.ndarray | None:
        """The cached base pair-equality matrix, or None on a key miss."""
        if self._pair_equal_cache is not None and \
                self._pair_equal_cache[0] == self._pair_cache_key(pairs):
            return self._pair_equal_cache[1]
        return None

    def base_pair_equal_counts(self, pairs: np.ndarray) -> np.ndarray:
        """Int64 connected-world counts for an ``(M, 2)`` pair array.

        Streams per-chunk partial sums when the boolean cache would
        blow the memory budget; the int64 sums are bit-identical.
        """
        pairs = _validate_pairs(pairs)
        if self._pair_cache_allowed(pairs.shape[0]):
            return self._base_pair_equal(pairs).sum(axis=0, dtype=np.int64)
        self._ensure_labels()
        counts = np.zeros(pairs.shape[0], dtype=np.int64)
        for block in self._l_blocks:
            counts += _pair_equal_counts(block, pairs)
        return counts

    def base_reliability_of_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Base-graph ``R_{u,v}`` for an ``(M, 2)`` pair array."""
        return self.base_pair_equal_counts(pairs) / self._n_samples

    def base_pairwise_reliability(self) -> np.ndarray:
        """Base-graph ``n x n`` reliability matrix (cached float)."""
        if self._pairwise is None:
            result = self.base_pair_acc / self._n_samples
            np.fill_diagonal(result, 1.0)
            self._pairwise = result
        return self._pairwise

    def base_view(self) -> "DerivedWorlds":
        """The base graph itself as a (clean) derived view."""
        return self.derive([])

    # -- column growth -------------------------------------------------- #

    def _ensure_columns(self, pairs: list[tuple[int, int]]) -> None:
        """Grow the universe by ``pairs`` (canonical, currently absent).

        New columns carry base probability 0, so the base masks gain
        all-False columns and every cached base aggregate stays valid.
        """
        if not pairs:
            return
        k = len(pairs)
        old_cols = self._prob.shape[0]
        src = np.fromiter((u for u, __ in pairs), dtype=np.int64, count=k)
        dst = np.fromiter((v for __, v in pairs), dtype=np.int64, count=k)
        for offset, (u, v) in enumerate(pairs):
            self._col_index[(u, v)] = old_cols + offset
        self._src = np.concatenate([self._src, src])
        self._dst = np.concatenate([self._dst, dst])
        self._prob = np.concatenate([self._prob, np.zeros(k)])
        if self._has_uniforms:
            # Blocks grow geometrically; each growth draw lands in spare
            # capacity.  Grown columns are pair-keyed draws (below), so
            # when the base draw happens is irrelevant to their values.
            self._ensure_uniforms()
            if self._storage_shared or self._u_capacity < old_cols + k:
                # Copy-on-write (a clone shares these blocks), or out of
                # spare columns: re-allocate before the in-place write.
                capacity = max(
                    self._u_capacity, old_cols + k, old_cols + old_cols // 2
                )
                grown = []
                for (start, stop), block in zip(self._chunks, self._u_blocks):
                    fresh = self._alloc_block(
                        (stop - start, capacity), np.float64
                    )
                    fresh[:, :old_cols] = block[:, :old_cols]
                    grown.append(fresh)
                self._u_blocks = grown
                self._u_capacity = capacity
                self._storage_shared = False
            grown = np.empty((self._n_samples, k), dtype=np.float64)
            for offset, (u, v) in enumerate(pairs):
                grown[:, offset] = self._growth_uniform_column(u, v)
            for (start, stop), block in zip(self._chunks, self._u_blocks):
                block[:, old_cols:old_cols + k] = grown[start:stop]
            self._u_cols = old_cols + k
        if self._m_blocks is not None:
            padded = []
            for (start, stop), block in zip(self._chunks, self._m_blocks):
                fresh = self._alloc_block((stop - start, old_cols + k),
                                          np.bool_)
                fresh[:, :old_cols] = block
                fresh[:, old_cols:] = False
                padded.append(fresh)
            self._m_blocks = padded  # rebind: shared lists stay untouched

    # -- derivation ------------------------------------------------------ #

    def _merge_delta(
        self, delta
    ) -> tuple[list[int], list[float], list[tuple[int, int]], int]:
        """Shared delta canonicalization of :meth:`derive` / :meth:`rebase`.

        Merges duplicate pairs (last entry wins), grows the column
        universe for unseen pairs, validates ``p_old`` against the
        store's base probability and drops no-ops.  Returns
        ``(cols, new_ps, pairs, n_new_columns)`` where ``pairs`` lists
        the canonical endpoints of the changed columns.
        """
        n = self._graph.n_nodes
        merged: dict[tuple[int, int], tuple[float, float]] = {}
        for u, v, p_old, p_new in delta:
            u, v = int(u), int(v)
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise EstimationError(
                    f"delta pair ({u}, {v}) is not a valid vertex pair"
                )
            key = (u, v) if u < v else (v, u)
            merged[key] = (float(p_old), float(p_new))

        # A no-op on an absent pair (p_new == 0) must not allocate a
        # column: untracked zero-probability pairs are all-False anyway,
        # and a spurious column would shift every later fresh column's
        # uniform draws -- diverging from a store that never saw the
        # no-op (e.g. the full-recompute oracle fed a graph_delta).
        missing = [
            key for key, (__, p_new) in merged.items()
            if key not in self._col_index and p_new != 0.0
        ]
        self._ensure_columns(missing)

        cols: list[int] = []
        new_ps: list[float] = []
        pairs: list[tuple[int, int]] = []
        for key, (p_old, p_new) in merged.items():
            col = self._col_index.get(key)
            stored = float(self._prob[col]) if col is not None else 0.0
            if abs(p_old - stored) > _P_OLD_TOLERANCE:
                raise EstimationError(
                    f"delta claims p_old={p_old!r} for pair {key}, but the "
                    f"store's base probability is {stored!r}"
                )
            if not np.isfinite(p_new) or p_new < 0.0 or p_new > 1.0:
                raise EstimationError(
                    f"delta pair {key} has p_new={p_new!r}, expected [0, 1]"
                )
            if p_new == stored:
                continue
            cols.append(col)
            new_ps.append(p_new)
            pairs.append(key)
        return cols, new_ps, pairs, len(missing)

    def derive(
        self, delta: list[tuple[int, int, float, float]]
    ) -> "DerivedWorlds":
        """A candidate's worlds as a dirty-world view over the base cache.

        ``delta`` lists ``(u, v, p_old, p_new)``; duplicate pairs keep the
        last entry, ``p_old`` is validated against the store's base
        probability, no-op entries (``p_new`` equal to the stored value)
        are dropped.  Changed columns are re-thresholded against the
        cached uniforms chunk by chunk; worlds where any changed edge
        flipped are relabeled per chunk, clean worlds reuse the base
        labels.
        """
        n = self._graph.n_nodes
        cols, new_ps, __, __ = self._merge_delta(delta)

        if not cols:
            return DerivedWorlds(self, np.empty(0, dtype=np.int64),
                                 np.empty((self._n_samples, 0), dtype=bool),
                                 np.empty(0, dtype=np.int64), None)

        col_arr = np.asarray(cols, dtype=np.int64)
        p_arr = np.asarray(new_ps, dtype=np.float64)
        self._ensure_masks()
        new_parts: list[np.ndarray] = []
        local_dirty: list[np.ndarray] = []
        if self._has_uniforms:
            # One fused kernel pass per chunk: re-threshold the changed
            # columns and find the rows where any of them flipped.
            for (start, stop), u_block, m_block in zip(
                self._chunks, self._u_blocks, self._m_blocks
            ):
                nc, d = kernels.rethreshold_masks(
                    u_block[:, :self._u_cols], m_block, col_arr, p_arr
                )
                new_parts.append(nc)
                local_dirty.append(d)
        else:
            nontrivial = (p_arr != 0.0) & (p_arr != 1.0)
            if np.any(nontrivial):
                raise EstimationError(
                    "store was built from masks: only forced-present/absent "
                    "deltas (p_new in {0, 1}) can be derived"
                )
            forced = p_arr == 1.0
            for (start, stop), m_block in zip(self._chunks, self._m_blocks):
                nc = np.broadcast_to(
                    forced, (stop - start, col_arr.size)
                ).copy()
                flipped = nc != m_block[:, col_arr]
                new_parts.append(nc)
                local_dirty.append(np.flatnonzero(flipped.any(axis=1)))
        new_cols = (
            new_parts[0] if len(new_parts) == 1
            else np.concatenate(new_parts, axis=0)
        )
        dirty = np.concatenate([
            start + d
            for (start, __), d in zip(self._chunks, local_dirty)
        ]) if len(local_dirty) > 1 else local_dirty[0]

        dirty_labels: np.ndarray | None = None
        if dirty.size:
            # Relabel only the dirty rows, chunk by chunk: the gathered
            # mask block is bounded by the chunk size, and canonical
            # per-row labels make the concatenation bit-identical to one
            # monolithic relabeling of all dirty rows.
            label_parts = []
            for (start, __), m_block, nc, d in zip(
                self._chunks, self._m_blocks, new_parts, local_dirty
            ):
                if d.size == 0:
                    continue
                dirty_masks = m_block[d]
                dirty_masks[:, col_arr] = nc[d]
                label_parts.append(component_labels_for_edges(
                    n, self._src, self._dst, dirty_masks,
                    n_workers=self._n_workers,
                ))
            dirty_labels = (
                label_parts[0] if len(label_parts) == 1
                else np.concatenate(label_parts, axis=0)
            )
        return DerivedWorlds(self, col_arr, new_cols, dirty, dirty_labels)

    # -- rebasing (permanent adoption of a delta) ------------------------ #

    def _release_block(self, block: np.ndarray) -> None:
        """Release the file segment behind a block this store allocated.

        Blocks inherited from a parent store (clone sharing) have no
        entry and are left alone; RAM blocks have no segment at all.
        Releasing with live views elsewhere is safe: the unlink reclaims
        the name and the mapping dies with its last view.
        """
        segment = self._block_segments.pop(id(block), None)
        if segment is None:
            return
        try:
            self._segments_owned.remove(segment)
        except ValueError:
            return  # already released (e.g. by close)
        _segments.release_segment(segment)

    def rebase(
        self,
        delta: list[tuple[int, int, float, float]],
        graph: UncertainGraph | None = None,
    ) -> dict:
        """Permanently adopt ``delta`` as the store's new base state.

        Where :meth:`derive` answers "what if" with an overlay view,
        ``rebase`` mutates the store in place: the uniforms ``U`` are
        kept verbatim (the rebased store is a *CRN continuation* -- its
        worlds stay pairwise-coupled with the pre-update state, which is
        exactly what makes repeated update batches cheap and their
        discrepancies low-variance; it is deliberately NOT the state a
        fresh ``WorldStore(patched_graph, N, seed)`` would draw), the
        changed columns are re-thresholded chunk by chunk, and only the
        chunks containing flipped worlds replace their mask/label blocks
        -- untouched chunks keep sharing blocks with any clones, and the
        replaced blocks' file segments are released immediately, so peak
        storage stays within one extra chunk of the existing budget.

        The cached pair counts and the pairwise accumulator are patched
        with the same exact int64 arithmetic the derived views use, so
        every post-rebase base query is bit-identical to
        ``derive(delta)`` evaluated before the rebase -- and hence to a
        full recompute over the patched masks.

        ``graph`` optionally supplies the already-materialized patched
        graph (the degree-cache pipeline has it anyway); otherwise it is
        built here with :func:`~repro.ugraph.operations.apply_edge_updates`.

        Returns ``{"n_dirty_worlds", "n_changed_columns",
        "n_new_columns"}``; ``n_dirty_worlds`` is None when the store's
        masks were never materialized (nothing to patch -- the lazy
        thresholding against the updated probabilities is already the
        rebased state).
        """
        if not self._has_uniforms:
            raise EstimationError(
                "store was built from masks; rebase needs the uniforms"
            )
        n = self._graph.n_nodes
        if graph is not None and graph.n_nodes != n:
            raise EstimationError(
                f"rebase graph has {graph.n_nodes} vertices, store has {n}"
            )
        cols, new_ps, changed_pairs, n_new = self._merge_delta(delta)
        stats = {
            "n_dirty_worlds": 0,
            "n_changed_columns": len(cols),
            "n_new_columns": n_new,
        }
        if not cols:
            if graph is not None:
                self._graph = graph
            return stats
        col_arr = np.asarray(cols, dtype=np.int64)
        p_arr = np.asarray(new_ps, dtype=np.float64)

        if graph is None:
            from ..ugraph.operations import apply_edge_updates

            us = np.fromiter((u for u, __ in changed_pairs), dtype=np.int64,
                             count=len(changed_pairs))
            vs = np.fromiter((v for __, v in changed_pairs), dtype=np.int64,
                             count=len(changed_pairs))
            graph = apply_edge_updates(self._graph, us, vs, p_arr)

        # Clones share ``_prob`` by reference: rebind a patched copy so
        # their p_old validation keeps seeing the pre-update state.
        prob = self._prob.copy()
        prob[col_arr] = p_arr
        self._prob = prob
        self._graph = graph

        if self._m_blocks is None:
            # Masks were never materialized: the future ``U < p`` pass
            # over the updated probabilities IS the rebased state.
            stats["n_dirty_worlds"] = None
            return stats

        patch_labels = self._l_blocks is not None
        patch_counts = patch_labels and self._pair_counts is not None
        patch_acc = patch_labels and self._pair_acc is not None
        counts = self._pair_counts.copy() if patch_counts else None
        acc = self._pair_acc.copy() if patch_acc else None
        m_new = list(self._m_blocks)
        l_new = list(self._l_blocks) if patch_labels else None
        replaced: list[np.ndarray] = []
        total_dirty = 0
        for ci, ((start, stop), u_block, m_block) in enumerate(
            zip(self._chunks, self._u_blocks, self._m_blocks)
        ):
            nc, d = kernels.rethreshold_masks(
                u_block[:, :self._u_cols], m_block, col_arr, p_arr
            )
            if d.size == 0:
                continue  # no world flipped here: block values unchanged
            total_dirty += int(d.size)
            fresh_m = self._alloc_block(m_block.shape, np.bool_)
            fresh_m[:] = m_block
            fresh_m[:, col_arr] = nc
            m_new[ci] = fresh_m
            replaced.append(m_block)
            if patch_labels:
                old_l = self._l_blocks[ci]
                dirty_masks = m_block[d]
                dirty_masks[:, col_arr] = nc[d]
                labels = component_labels_for_edges(
                    n, self._src, self._dst, dirty_masks,
                    n_workers=self._n_workers,
                )
                fresh_l = self._alloc_block(old_l.shape, old_l.dtype)
                fresh_l[:] = old_l
                fresh_l[d] = labels
                l_new[ci] = fresh_l
                replaced.append(old_l)
                if patch_counts:
                    counts[start + d] = pair_counts_from_labels(labels)
                if patch_acc:
                    # Same exact int64 swap DerivedWorlds performs.
                    acc -= _pairwise_equal_acc(old_l[d], n)
                    acc += _pairwise_equal_acc(labels, n)
        self._m_blocks = m_new
        if patch_labels:
            self._l_blocks = l_new
        self._pair_counts = counts if patch_counts else None
        self._pair_acc = acc if patch_acc else None
        self._pairwise = None
        self._pair_equal_cache = None
        for block in replaced:
            self._release_block(block)
        stats["n_dirty_worlds"] = total_dirty
        return stats

    # -- discrepancy ----------------------------------------------------- #

    def discrepancy(
        self,
        view: "DerivedWorlds",
        n_pairs: int | None = None,
        pairs: np.ndarray | None = None,
        seed=None,
        per_pair: bool = True,
        base_counts: np.ndarray | None = None,
    ) -> float:
        """Reliability discrepancy between the base graph and ``view``.

        Mirrors :func:`repro.reliability.reliability_discrepancy`'s pair
        policy: all pairs when the graph is small enough and neither
        ``n_pairs`` nor ``pairs`` is given, a sampled pair set otherwise.
        Passing an explicit ``pairs`` array (with optional precomputed
        ``base_counts``) lets repeated callers -- the sigma search --
        evaluate every candidate on one fixed pair set.
        """
        n = self._graph.n_nodes
        total_pairs = n * (n - 1) / 2
        use_all = pairs is None and n_pairs is None and n <= FULL_MATRIX_LIMIT
        if use_all:
            diff = np.abs(
                self.base_pairwise_reliability() - view.pairwise_reliability()
            )
            total = float(np.triu(diff, k=1).sum())
            evaluated = total_pairs
        else:
            if pairs is None:
                m = int(n_pairs) if n_pairs is not None else DEFAULT_PAIR_SAMPLE
                pairs = sample_vertex_pairs(n, m, seed=seed)
            else:
                pairs = _validate_pairs(pairs)
            if base_counts is None:
                base_counts = self.base_pair_equal_counts(pairs)
            base_r = base_counts / self._n_samples
            view_r = view.reliability_of_pairs(pairs, base_counts=base_counts)
            diff = np.abs(base_r - view_r)
            total = float(diff.sum())
            evaluated = pairs.shape[0]

        if per_pair:
            return total / evaluated
        if use_all:
            return total
        return total / evaluated * total_pairs


class DerivedWorlds:
    """One candidate graph's worlds, derived from a :class:`WorldStore`.

    Clean worlds alias the store's caches; only the dirty rows (worlds
    where a changed edge flipped) carry fresh labels.  All queries match
    a full recompute over :meth:`materialize` bit for bit.
    """

    def __init__(
        self,
        store: WorldStore,
        cols: np.ndarray,
        new_cols: np.ndarray,
        dirty: np.ndarray,
        dirty_labels: np.ndarray | None,
    ):
        self._store = store
        self._cols = cols
        self._new_cols = new_cols
        self._dirty = dirty
        self._dirty_labels = dirty_labels
        self._labels: np.ndarray | None = None
        self._pair_counts: np.ndarray | None = None

    @property
    def store(self) -> WorldStore:
        return self._store

    @property
    def n_samples(self) -> int:
        return self._store.n_samples

    @property
    def n_dirty(self) -> int:
        """Worlds whose realization changed (and were relabeled)."""
        return int(self._dirty.size)

    @property
    def dirty_worlds(self) -> np.ndarray:
        """Row indices of the relabeled worlds."""
        return self._dirty

    @property
    def dirty_labels(self) -> np.ndarray:
        """Fresh labels of the dirty worlds, ``(n_dirty, n)``."""
        if self._dirty_labels is None:
            return np.empty((0, self._store.graph.n_nodes), dtype=np.int32)
        return self._dirty_labels

    def materialize(self) -> np.ndarray:
        """The full ``(N, n_columns)`` mask matrix of this candidate.

        Intended for audits: a fresh labeling of this matrix must agree
        with every incremental answer bit for bit.
        """
        masks = np.array(self._store.base_masks, copy=True)
        if self._cols.size:
            masks[:, self._cols] = self._new_cols
        return masks

    @property
    def labels(self) -> np.ndarray:
        """Int ``(N, n)`` component labels of the candidate's worlds."""
        if self._labels is None:
            base = self._store.base_labels
            if self._dirty.size == 0:
                self._labels = base
            else:
                out = np.array(base, copy=True)
                out[self._dirty] = self._dirty_labels
                self._labels = out
        return self._labels

    @property
    def pair_counts(self) -> np.ndarray:
        """Connected-pair count per world (int64, dirty rows patched)."""
        if self._pair_counts is None:
            base = self._store.base_pair_counts
            if self._dirty.size == 0:
                self._pair_counts = base
            else:
                out = base.copy()
                out[self._dirty] = pair_counts_from_labels(self._dirty_labels)
                self._pair_counts = out
        return self._pair_counts

    # -- queries (mirroring ReliabilityEstimator) ------------------------ #

    def two_terminal(self, u: int, v: int) -> float:
        n = self._store.graph.n_nodes
        if not (0 <= u < n and 0 <= v < n):
            raise EstimationError(f"vertex pair ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            return 1.0
        return float(self.reliability_of_pairs([[u, v]])[0])

    def reliability_of_pairs(
        self, pairs: np.ndarray, base_counts: np.ndarray | None = None
    ) -> np.ndarray:
        """Vectorized ``R_{u,v}`` for an ``(M, 2)`` pair array.

        ``base_counts`` may carry the store's precomputed
        :meth:`WorldStore.base_pair_equal_counts` for the same pairs.
        """
        pairs = _validate_pairs(pairs)
        if base_counts is None:
            base_counts = self._store.base_pair_equal_counts(pairs)
        if self._dirty.size == 0:
            counts = base_counts
        else:
            cached = self._store._cached_pair_equal(pairs)
            if cached is not None:
                dirty_base = cached.take(self._dirty, axis=0).sum(
                    axis=0, dtype=np.int64
                )
            else:
                dirty_base = _pair_equal_counts(
                    self._store._label_rows(self._dirty), pairs
                )
            counts = (
                base_counts
                - dirty_base
                + _pair_equal_counts(self._dirty_labels, pairs)
            )
        return counts / self._store.n_samples

    def expected_connected_pairs(self) -> float:
        return float(self.pair_counts.mean())

    def average_all_pairs_reliability(self) -> float:
        n = self._store.graph.n_nodes
        total_pairs = n * (n - 1) / 2
        if total_pairs == 0:
            return 0.0
        return self.expected_connected_pairs() / total_pairs

    def pairwise_reliability(self) -> np.ndarray:
        """Full ``n x n`` reliability matrix of the candidate.

        Derived as ``base accumulator - dirty-row base contribution +
        dirty-row candidate contribution`` -- exact integer arithmetic,
        hence bit-identical to a full recompute.
        """
        n = self._store.graph.n_nodes
        if n > FULL_MATRIX_LIMIT:
            raise EstimationError(
                f"full reliability matrix limited to {FULL_MATRIX_LIMIT} "
                f"vertices, graph has {n}; use reliability_of_pairs"
            )
        acc = self._store.base_pair_acc
        if self._dirty.size:
            base_rows = self._store._label_rows(self._dirty)
            acc = (
                acc
                - _pairwise_equal_acc(base_rows, n)
                + _pairwise_equal_acc(self._dirty_labels, n)
            )
        result = acc / self._store.n_samples
        np.fill_diagonal(result, 1.0)
        return result
