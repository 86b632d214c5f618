"""Monte-Carlo estimation of reliability quantities (Definitions 1 and 2).

The central object is :class:`ReliabilityEstimator`: it samples ``N``
possible worlds of one uncertain graph once, labels their connected
components once, and then answers any number of reliability queries
(two-terminal, per-pair batches, expected connected pairs) from the cached
labels.  This sharing is what makes the paper's evaluation loop and
Algorithm 2 tractable.

Since PR 4 the estimator is backed by a
:class:`repro.reliability.worldstore.WorldStore`: the uniforms behind its
worlds persist, so candidate graphs described as probability deltas can
be evaluated incrementally via :meth:`ReliabilityEstimator.derive` --
only the worlds where a changed edge actually flipped are relabeled.
Sampling is bit-compatible with the previous direct path (the store
consumes the generator exactly like ``sample_edge_masks``).

:func:`reliability_discrepancy` estimates the utility-loss metric
``Delta`` of Definition 2 between an original and an anonymized graph.
For large graphs the exact sum over all ``n(n-1)/2`` pairs is replaced by
a uniform sample of vertex pairs, reported as the *average* discrepancy
per pair (the quantity Figure 4 of the paper plots), optionally rescaled
to the full-sum estimate.  It evaluates the anonymized graph as a delta
against the original's world store; the two-estimator computation it
replaced (two independently built estimators over common random
numbers) is kept as a test oracle in the package's private oracle
module.
"""

from __future__ import annotations

import numpy as np

from .._rng import as_generator
from ..exceptions import EstimationError
from ..ugraph.graph import UncertainGraph
from .worldstore import (
    DerivedWorlds,
    WorldStore,
    graph_delta,
    sample_vertex_pairs,
)

__all__ = [
    "ReliabilityEstimator",
    "reliability_discrepancy",
    "sample_vertex_pairs",
]

DEFAULT_SAMPLES = 1000


class ReliabilityEstimator:
    """Shared-sample reliability estimator for one uncertain graph.

    Parameters
    ----------
    graph:
        The uncertain graph to analyze.
    n_samples:
        Number of possible worlds; the paper uses 1000 as the accuracy
        sweet spot (citing Potamias et al.).
    seed:
        Reproducibility seed / generator.
    n_workers:
        Labeling-pool size for large world batches (see
        :mod:`repro.reliability.connectivity`); ``None`` defers to the
        ``REPRO_NUM_WORKERS`` environment variable / CPU count.
    antithetic:
        Sample worlds in antithetic (negatively correlated) pairs --
        unbiased, lower variance for monotone statistics; requires an
        even ``n_samples``.

    Sampling and labeling happen lazily on first query and are then
    reused by every method.  The backing :class:`WorldStore` is exposed
    via :attr:`store`, and :meth:`derive` evaluates candidate graphs
    incrementally as probability deltas.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        n_samples: int = DEFAULT_SAMPLES,
        seed=None,
        antithetic: bool = False,
        n_workers: int | None = None,
        memory_budget: int | None = None,
    ):
        if n_samples <= 0:
            raise EstimationError(f"n_samples must be positive, got {n_samples}")
        if antithetic and n_samples % 2 != 0:
            raise EstimationError(
                f"antithetic sampling needs an even n_samples, got {n_samples}"
            )
        self._graph = graph
        self._n_samples = int(n_samples)
        self._store = WorldStore(
            graph, n_samples, seed=seed,
            n_workers=n_workers, antithetic=antithetic,
            memory_budget=memory_budget,
        )

    # -- cached world machinery ---------------------------------------- #

    @property
    def graph(self) -> UncertainGraph:
        return self._graph

    @property
    def n_samples(self) -> int:
        return self._n_samples

    @property
    def store(self) -> WorldStore:
        """The persistent CRN world store backing this estimator."""
        return self._store

    @property
    def masks(self) -> np.ndarray:
        """Boolean ``(N, |E|)`` world matrix (sampled once, cached)."""
        return self._store.base_masks[:, : self._graph.n_edges]

    @property
    def labels(self) -> np.ndarray:
        """Int ``(N, n)`` component labels per world (cached)."""
        return self._store.base_labels

    @property
    def pair_counts(self) -> np.ndarray:
        """Connected-pair count per sampled world (cached)."""
        return self._store.base_pair_counts

    def derive(self, delta) -> DerivedWorlds:
        """Incremental view of a candidate described as a delta.

        ``delta`` lists ``(u, v, p_old, p_new)``; see
        :meth:`WorldStore.derive`.  Only worlds where a changed edge's
        realization flipped are relabeled.
        """
        return self._store.derive(delta)

    # -- queries --------------------------------------------------------- #

    def two_terminal(self, u: int, v: int) -> float:
        """Estimate of ``R_{u,v}`` (Definition 1)."""
        n = self._graph.n_nodes
        if not (0 <= u < n and 0 <= v < n):
            raise EstimationError(f"vertex pair ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            return 1.0
        labels = self.labels
        return float(np.mean(labels[:, u] == labels[:, v]))

    def reliability_of_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Vectorized ``R_{u,v}`` for an ``(M, 2)`` array of vertex pairs."""
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise EstimationError(f"pairs must be (M, 2), got {pairs.shape}")
        labels = self.labels
        equal = labels[:, pairs[:, 0]] == labels[:, pairs[:, 1]]
        return equal.mean(axis=0)

    def expected_connected_pairs(self) -> float:
        """Estimate of the expected number of connected vertex pairs."""
        return float(self.pair_counts.mean())

    def average_all_pairs_reliability(self) -> float:
        """Expected connected pairs normalized by ``n(n-1)/2``."""
        n = self._graph.n_nodes
        total_pairs = n * (n - 1) / 2
        if total_pairs == 0:
            return 0.0
        return self.expected_connected_pairs() / total_pairs

    def pairwise_reliability(self) -> np.ndarray:
        """Full ``n x n`` reliability matrix estimate (small graphs only).

        Memory/time grow as ``N * n^2``; graphs above 1500 vertices must
        use :meth:`reliability_of_pairs` on a pair sample instead.  The
        matrix is cached inside the store; callers get a copy.
        """
        return self._store.base_pairwise_reliability().copy()


def reliability_discrepancy(
    original: UncertainGraph,
    anonymized: UncertainGraph,
    n_samples: int = DEFAULT_SAMPLES,
    n_pairs: int | None = None,
    seed=None,
    per_pair: bool = True,
    n_workers: int | None = None,
    antithetic: bool = False,
    memory_budget: int | None = None,
) -> float:
    """Estimate the reliability discrepancy ``Delta`` (Definition 2).

    Parameters
    ----------
    original, anonymized:
        Graphs over the same vertex set (edge sets may differ).
    n_samples:
        Worlds sampled from the original graph.
    n_pairs:
        If ``None``, all unordered pairs are evaluated when the graph is
        small enough, otherwise 20,000 pairs are sampled.  An explicit int
        forces pair sampling with that many pairs.
    per_pair:
        If True (default) return the *average* discrepancy per evaluated
        pair -- the scale-free quantity the paper's figures report.  If
        False, return the (estimated) total sum over all pairs.
    n_workers:
        Labeling-pool size (see :mod:`repro.reliability.connectivity`).
    antithetic:
        Sample worlds in antithetic pairs.
    memory_budget:
        Byte cap on the world state materialized at once (see
        :class:`WorldStore`); results are unchanged, only peak memory.

    One :class:`WorldStore` is sampled from the original and the
    anonymized graph is derived from it as a delta: the common random
    numbers are structural, so ``Delta(G, G)`` is exactly 0, shared
    edges realize identically in both graphs, and only flipped worlds
    are relabeled.  The same sampled pair set scores both graphs, so the
    comparison is paired, which dramatically reduces estimator variance.
    """
    if original.n_nodes != anonymized.n_nodes:
        raise EstimationError("graphs must share the vertex set")
    rng = as_generator(seed)
    store = WorldStore(
        original, n_samples, seed=int(rng.integers(0, 2**63 - 1)),
        n_workers=n_workers, antithetic=antithetic,
        memory_budget=memory_budget,
    )
    view = store.derive(graph_delta(original, anonymized))
    return store.discrepancy(
        view, n_pairs=n_pairs, seed=rng, per_pair=per_pair
    )
