"""Reliability machinery: connectivity under possible-world semantics.

* :class:`ReliabilityEstimator` -- shared-sample Monte-Carlo estimates of
  two-terminal reliability, expected connected pairs, and the full
  pairwise reliability matrix.
* :func:`reliability_discrepancy` -- the paper's utility-loss metric
  (Definition 2).
* :func:`edge_reliability_relevance` / :func:`vertex_reliability_relevance`
  -- Algorithm 2 and its aggregation (Section V-D).
* :mod:`repro.reliability.exact` -- enumeration oracle for small graphs.
"""

from .connectivity import (
    NUM_WORKERS_ENV,
    batch_component_labels,
    batch_pair_counts,
    component_labels_for_edges,
    pair_counts_from_labels,
    resolve_worker_count,
    shutdown_worker_pools,
)
from .estimator import (
    ReliabilityEstimator,
    reliability_discrepancy,
    sample_vertex_pairs,
)
from .worldstore import (
    DerivedWorlds,
    WorldStore,
    graph_delta,
)
from .exact import (
    enumerate_worlds,
    exact_edge_reliability_relevance,
    exact_expected_connected_pairs,
    exact_pairwise_reliability,
    exact_reliability_discrepancy,
    exact_two_terminal,
)
from .relevance import (
    RelevanceResult,
    compute_relevance,
    edge_reliability_relevance,
    vertex_reliability_relevance,
)
from .bounds import (
    reliability_bounds,
    reliability_lower_bound,
    reliability_upper_bound,
)
from .queries import (
    expected_reachable_set_size,
    most_reliable_pairs,
    reliability_histogram,
    reliable_knn,
    set_reliability,
)
from .union_find import UnionFind, component_labels, connected_pair_count

__all__ = [
    "UnionFind",
    "component_labels",
    "connected_pair_count",
    "NUM_WORKERS_ENV",
    "resolve_worker_count",
    "shutdown_worker_pools",
    "batch_component_labels",
    "batch_pair_counts",
    "component_labels_for_edges",
    "pair_counts_from_labels",
    "ReliabilityEstimator",
    "reliability_discrepancy",
    "sample_vertex_pairs",
    "WorldStore",
    "DerivedWorlds",
    "graph_delta",
    "enumerate_worlds",
    "exact_two_terminal",
    "exact_pairwise_reliability",
    "exact_expected_connected_pairs",
    "exact_reliability_discrepancy",
    "exact_edge_reliability_relevance",
    "RelevanceResult",
    "compute_relevance",
    "edge_reliability_relevance",
    "vertex_reliability_relevance",
    "reliable_knn",
    "set_reliability",
    "expected_reachable_set_size",
    "reliability_histogram",
    "most_reliable_pairs",
    "reliability_bounds",
    "reliability_lower_bound",
    "reliability_upper_bound",
]
