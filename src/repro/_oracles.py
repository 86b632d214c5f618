"""Reference implementations the production paths are tested against.

Each production concept has one implementation; the slower, simpler
versions they replaced live here so tests and benchmarks can check the
fast paths bit for bit.  Production code never imports this module.

* :func:`per_world_component_labels` -- one ``connected_components``
  call (``method="scipy"``) or one union-find pass
  (``method="union-find"``) per world, the oracle of the batched
  labeling in :mod:`repro.reliability.connectivity`.
* :class:`FullRecomputeChecker` -- the (k, epsilon) check of
  Definition 3 by materializing each candidate and rebuilding its whole
  degree-uncertainty matrix, the oracle of
  :class:`repro.privacy.DegreeUncertaintyCache`.  It is duck-typed to
  the cache's trial interface, so it is injected through the existing
  ``cache=`` / ``degree_cache=`` parameters.
* :func:`fresh_reliability_discrepancy` -- Definition 2 from two
  independently built estimators over common random numbers, the oracle
  of the world-store derivation behind
  :func:`repro.reliability.reliability_discrepancy`.
* :func:`merge_gain_accumulate_loop` -- the per-world merge-gain sums,
  the oracle of the vectorized relevance accumulation.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ._rng import as_generator
from .exceptions import EstimationError
from .privacy.obfuscation import ObfuscationReport, check_obfuscation
from .reliability.estimator import DEFAULT_SAMPLES, ReliabilityEstimator
from .reliability.union_find import component_labels as union_find_labels
from .reliability.worldstore import (
    DEFAULT_PAIR_SAMPLE,
    FULL_MATRIX_LIMIT,
    sample_vertex_pairs,
)
from .ugraph.graph import UncertainGraph
from .ugraph.operations import apply_edge_updates

__all__ = [
    "LABEL_METHODS",
    "per_world_component_labels",
    "FullRecomputeChecker",
    "fresh_reliability_discrepancy",
    "merge_gain_accumulate_loop",
]

#: Per-world labeling methods of :func:`per_world_component_labels`.
LABEL_METHODS = ("scipy", "union-find")


def _world_labels(
    n_nodes: int, src: np.ndarray, dst: np.ndarray, method: str
) -> np.ndarray:
    """Consecutive component labels of one deterministic world."""
    if method == "union-find":
        __, labels = np.unique(
            union_find_labels(n_nodes, src, dst), return_inverse=True
        )
        return labels.astype(np.int32)
    if src.size == 0:
        return np.arange(n_nodes, dtype=np.int32)
    data = np.ones(src.shape[0], dtype=np.int8)
    adjacency = coo_matrix((data, (src, dst)), shape=(n_nodes, n_nodes))
    __, labels = connected_components(adjacency, directed=False)
    return labels.astype(np.int32)


def per_world_component_labels(
    n_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    masks: np.ndarray,
    method: str = "scipy",
) -> np.ndarray:
    """Label each world of an ``(N, len(src))`` mask batch on its own.

    Row ``i`` holds consecutive component ids of world ``i``.  The
    partition matches the batched engine's; the id order is the
    method's own, so compare partitions, not raw labels.
    """
    if method not in LABEL_METHODS:
        raise ValueError(
            f"unknown labeling method {method!r}; expected one of "
            f"{LABEL_METHODS}"
        )
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2 or masks.shape[1] != src.shape[0]:
        raise ValueError(
            f"world-mask matrix must be (N, {src.shape[0]}), got {masks.shape}"
        )
    out = np.empty((masks.shape[0], n_nodes), dtype=np.int32)
    for i, keep in enumerate(masks):
        out[i] = _world_labels(n_nodes, src[keep], dst[keep], method)
    return out


class FullRecomputeChecker:
    """Per-trial full rebuild of the degree-uncertainty matrix.

    Answers :meth:`check_edge_arrays` like
    :class:`repro.privacy.DegreeUncertaintyCache` does, but by applying
    the delta to a copy of the graph and running
    :func:`repro.privacy.check_obfuscation` on it -- no cached rows, no
    patching.  ``graph`` and ``knowledge`` are exposed so
    :meth:`repro.core.Chameleon.anonymize` accepts it as its
    ``degree_cache``.
    """

    def __init__(self, graph: UncertainGraph, knowledge: np.ndarray):
        self.graph = graph
        self.knowledge = np.asarray(knowledge, dtype=np.int64)

    def check_edge_arrays(
        self,
        us: np.ndarray,
        vs: np.ndarray,
        p_old: np.ndarray,
        p_new: np.ndarray,
        k: int,
        epsilon: float,
        knowledge: np.ndarray | None = None,
    ) -> ObfuscationReport:
        candidate = apply_edge_updates(self.graph, us, vs, p_new)
        return check_obfuscation(
            candidate, k, epsilon,
            knowledge=self.knowledge if knowledge is None else knowledge,
        )


def fresh_reliability_discrepancy(
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
    """Definition 2 from two independently sampled estimators.

    Consumes ``seed`` exactly like
    :func:`repro.reliability.reliability_discrepancy`: one draw seeds
    both estimators (common random numbers), then the pair sample.  When
    the anonymized graph reuses the original's edge universe the two
    agree bit for bit.
    """
    if original.n_nodes != anonymized.n_nodes:
        raise EstimationError("graphs must share the vertex set")
    n = original.n_nodes
    rng = as_generator(seed)
    shared_seed = int(rng.integers(0, 2**63 - 1))
    est_a = ReliabilityEstimator(
        original, n_samples, seed=shared_seed, n_workers=n_workers,
        antithetic=antithetic, memory_budget=memory_budget,
    )
    est_b = ReliabilityEstimator(
        anonymized, n_samples, seed=shared_seed, n_workers=n_workers,
        antithetic=antithetic, memory_budget=memory_budget,
    )
    total_pairs = n * (n - 1) / 2
    use_all = n_pairs is None and n <= FULL_MATRIX_LIMIT
    if use_all:
        diff = np.abs(est_a.pairwise_reliability() - est_b.pairwise_reliability())
        total = float(np.triu(diff, k=1).sum())
        evaluated = total_pairs
    else:
        m = int(n_pairs) if n_pairs is not None else DEFAULT_PAIR_SAMPLE
        pairs = sample_vertex_pairs(n, m, seed=rng)
        diff = np.abs(
            est_a.reliability_of_pairs(pairs) - est_b.reliability_of_pairs(pairs)
        )
        total = float(diff.sum())
        evaluated = m
    if per_pair:
        return total / evaluated
    if use_all:
        return total
    return total / evaluated * total_pairs


def merge_gain_accumulate_loop(
    graph: UncertainGraph, masks: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-world reference for ``relevance._merge_gain_accumulate``.

    Returns ``(gain_sums, absent_counts)`` indexed by edge: the summed
    pair-count gain of adding each edge over the worlds where it is
    absent, and the number of such worlds.
    """
    n_samples = masks.shape[0]
    src, dst = graph.edge_src, graph.edge_dst
    gain_sums = np.zeros(graph.n_edges, dtype=np.float64)
    absent_counts = np.zeros(graph.n_edges, dtype=np.int64)
    for i in range(n_samples):
        row = labels[i]
        sizes = np.bincount(row)
        lu, lv = row[src], row[dst]
        gains = np.where(lu != lv, sizes[lu].astype(np.float64) * sizes[lv], 0.0)
        absent = ~masks[i]
        gain_sums[absent] += gains[absent]
        absent_counts += absent
    return gain_sums, absent_counts
