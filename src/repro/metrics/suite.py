"""The utility-preservation comparison suite (Section VI).

:func:`compare_graphs` evaluates an anonymized uncertain graph against
its original on the paper's metric groups and reports, per metric, the
original value, the anonymized value, and the **relative error** ("the
ratio of absolute difference against the original one") that every
figure in Section VI plots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import as_generator
from ..exceptions import EstimationError
from ..ugraph.graph import UncertainGraph
from .clustering import expected_clustering_coefficient
from .degree import expected_average_degree, expected_max_degree
from .distance import distance_statistics

__all__ = [
    "MetricComparison",
    "compare_graphs",
    "DEFAULT_METRICS",
    "EXTENDED_METRICS",
]

DEFAULT_METRICS = (
    "average_degree",
    "max_degree",
    "average_distance",
    "effective_diameter",
    "clustering_coefficient",
    "reliability",
)

#: Extra yardsticks from the related-work literature, available on
#: request via ``compare_graphs(..., metrics=DEFAULT_METRICS +
#: EXTENDED_METRICS)``.
EXTENDED_METRICS = (
    "degree_distribution",
    "spectral",
    "largest_component",
)


@dataclass(frozen=True)
class MetricComparison:
    """One metric's original vs. anonymized values and relative error."""

    metric: str
    original: float
    anonymized: float
    relative_error: float

    def row(self) -> tuple[str, float, float, float]:
        return (self.metric, self.original, self.anonymized, self.relative_error)


def _relative_error(original: float, anonymized: float) -> float:
    if not np.isfinite(original) or not np.isfinite(anonymized):
        return float("nan")
    if original == 0.0:
        return 0.0 if anonymized == 0.0 else float("inf")
    return abs(anonymized - original) / abs(original)


def compare_graphs(
    original: UncertainGraph,
    anonymized: UncertainGraph,
    metrics: tuple[str, ...] = DEFAULT_METRICS,
    n_samples: int = 200,
    distance_method: str = "anf",
    seed=None,
    n_workers: int | None = None,
    antithetic: bool = False,
    memory_budget: int | None = None,
) -> dict[str, MetricComparison]:
    """Evaluate utility preservation across the paper's metric groups.

    Parameters
    ----------
    metrics:
        Subset of :data:`DEFAULT_METRICS` to evaluate.
    n_samples:
        Monte-Carlo worlds per sampled metric.
    distance_method:
        ``"anf"`` or ``"bfs"`` for the node-separation group.
    n_workers:
        Labeling-pool size for the reliability metric group (see
        :mod:`repro.reliability.connectivity`).
    antithetic:
        Antithetic world pairing for the reliability group (requires an
        even ``n_samples``).
    memory_budget:
        Byte cap on the reliability group's world state (see
        :class:`repro.reliability.WorldStore`); values are unchanged,
        only peak memory.

    Returns a dict keyed by metric name.  The ``"reliability"`` entry is
    special: its *relative_error* is the average per-pair reliability
    discrepancy itself (the original/anonymized columns hold the two
    graphs' mean all-pairs reliability for context).  The whole group is
    served from one :class:`repro.reliability.WorldStore` of the
    original: the anonymized graph is derived as a delta (common random
    numbers, dirty-world relabeling only), so identical graphs score
    exactly 0.
    """
    rng = as_generator(seed)
    known = set(DEFAULT_METRICS) | set(EXTENDED_METRICS)
    unknown = set(metrics) - known
    if unknown:
        raise EstimationError(f"unknown metrics: {sorted(unknown)}")

    results: dict[str, MetricComparison] = {}

    if "average_degree" in metrics:
        a = expected_average_degree(original)
        b = expected_average_degree(anonymized)
        results["average_degree"] = MetricComparison(
            "average_degree", a, b, _relative_error(a, b)
        )
    if "max_degree" in metrics:
        a = expected_max_degree(original, n_samples=n_samples, seed=rng)
        b = expected_max_degree(anonymized, n_samples=n_samples, seed=rng)
        results["max_degree"] = MetricComparison(
            "max_degree", a, b, _relative_error(a, b)
        )
    needs_distance = {"average_distance", "effective_diameter"} & set(metrics)
    if needs_distance:
        stats_a = distance_statistics(
            original, n_samples=n_samples, method=distance_method, seed=rng
        )
        stats_b = distance_statistics(
            anonymized, n_samples=n_samples, method=distance_method, seed=rng
        )
        if "average_distance" in metrics:
            results["average_distance"] = MetricComparison(
                "average_distance",
                stats_a.average_distance,
                stats_b.average_distance,
                _relative_error(stats_a.average_distance, stats_b.average_distance),
            )
        if "effective_diameter" in metrics:
            results["effective_diameter"] = MetricComparison(
                "effective_diameter",
                stats_a.effective_diameter,
                stats_b.effective_diameter,
                _relative_error(
                    stats_a.effective_diameter, stats_b.effective_diameter
                ),
            )
    if "clustering_coefficient" in metrics:
        a = expected_clustering_coefficient(original, n_samples=n_samples, seed=rng)
        b = expected_clustering_coefficient(anonymized, n_samples=n_samples, seed=rng)
        results["clustering_coefficient"] = MetricComparison(
            "clustering_coefficient", a, b, _relative_error(a, b)
        )
    if "reliability" in metrics:
        from ..reliability.worldstore import WorldStore, graph_delta

        # One store serves the whole group: the original's value from
        # the base worlds, the anonymized's from the derived view (only
        # flipped worlds relabeled), and the discrepancy from the paired
        # comparison -- Delta(G, G) is structurally 0.
        store = WorldStore(
            original, n_samples=n_samples, seed=rng,
            n_workers=n_workers, antithetic=antithetic,
            memory_budget=memory_budget,
        )
        view = store.derive(graph_delta(original, anonymized))
        results["reliability"] = MetricComparison(
            "reliability",
            store.base_view().average_all_pairs_reliability(),
            view.average_all_pairs_reliability(),
            store.discrepancy(view, seed=rng),
        )
    if "degree_distribution" in metrics:
        from .degree import degree_distribution_l1_error

        # The error column IS the normalized L1 histogram distance; the
        # value columns carry the graphs' expected mean degrees.
        results["degree_distribution"] = MetricComparison(
            "degree_distribution",
            expected_average_degree(original),
            expected_average_degree(anonymized),
            degree_distribution_l1_error(original, anonymized),
        )
    if "spectral" in metrics:
        from .spectral import expected_adjacency_spectrum, spectral_distance

        top_a = float(expected_adjacency_spectrum(original, k=1)[0])
        top_b = float(expected_adjacency_spectrum(anonymized, k=1)[0])
        results["spectral"] = MetricComparison(
            "spectral", top_a, top_b,
            spectral_distance(original, anonymized),
        )
    if "largest_component" in metrics:
        from .components import largest_component_statistics

        # Common random numbers: identical graphs must compare equal.
        shared_seed = int(rng.integers(0, 2**63 - 1))
        a = largest_component_statistics(
            original, n_samples=n_samples, seed=shared_seed
        )["mean"]
        b = largest_component_statistics(
            anonymized, n_samples=n_samples, seed=shared_seed
        )["mean"]
        results["largest_component"] = MetricComparison(
            "largest_component", a, b, _relative_error(a, b)
        )
    return results
