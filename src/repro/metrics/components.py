"""Expected component-structure metrics.

Fragmentation texture of an uncertain graph: how many components a world
has, how big the largest one is, and how likely each vertex is to be
isolated.  These complement reliability as publication-utility signals
(a release that preserves pairwise reliabilities but shatters the giant
component is still damaged) and have cheap closed forms where
independence allows.
"""

from __future__ import annotations

import numpy as np

from .._rng import as_generator
from ..reliability.connectivity import batch_component_labels
from ..ugraph.graph import UncertainGraph
from ..ugraph.worlds import sample_edge_masks

__all__ = [
    "isolation_probabilities",
    "expected_component_count",
    "largest_component_statistics",
]


def isolation_probabilities(graph: UncertainGraph) -> np.ndarray:
    """Closed-form ``Pr[vertex v is isolated] = prod (1 - p(e))``.

    Independence gives an exact product over each vertex's incident
    edges; log-space accumulation keeps tiny values accurate.
    """
    with np.errstate(divide="ignore"):
        log_absent = np.log1p(-graph.edge_probabilities)
    totals = np.zeros(graph.n_nodes, dtype=np.float64)
    np.add.at(totals, graph.edge_src, log_absent)
    np.add.at(totals, graph.edge_dst, log_absent)
    return np.exp(totals)


def expected_component_count(
    graph: UncertainGraph, n_samples: int = 500, seed=None,
    n_workers: int | None = None,
) -> float:
    """Monte-Carlo estimate of the expected number of components."""
    rng = as_generator(seed)
    masks = sample_edge_masks(graph, n_samples, seed=rng)
    labels = batch_component_labels(graph, masks, n_workers=n_workers)
    # Labels are consecutive per row, so the count is the row max + 1.
    return float((labels.max(axis=1) + 1.0).mean())


def largest_component_statistics(
    graph: UncertainGraph, n_samples: int = 500, seed=None,
    n_workers: int | None = None,
) -> dict:
    """Distribution summary of the largest component's size.

    Returns ``{"mean", "std", "min", "max"}`` of the largest component
    size (vertex count) across sampled worlds, plus ``"fraction"`` --
    its mean share of the vertex set.
    """
    rng = as_generator(seed)
    masks = sample_edge_masks(graph, n_samples, seed=rng)
    labels = batch_component_labels(graph, masks, n_workers=n_workers)
    sizes = np.empty(n_samples, dtype=np.float64)
    for i in range(n_samples):
        sizes[i] = float(np.bincount(labels[i]).max())
    return {
        "mean": float(sizes.mean()),
        "std": float(sizes.std()),
        "min": float(sizes.min()),
        "max": float(sizes.max()),
        "fraction": float(sizes.mean() / max(graph.n_nodes, 1)),
    }
