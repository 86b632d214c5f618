"""Reliability metrics packaged for the evaluation harness.

Thin wrappers around :mod:`repro.reliability` exposing the quantities the
paper's figures plot: the average (per-pair) reliability discrepancy and
the expected connected-pair reliability of a single graph.
"""

from __future__ import annotations

from ..reliability.estimator import (
    ReliabilityEstimator,
    reliability_discrepancy,
)
from ..ugraph.graph import UncertainGraph

__all__ = [
    "average_reliability_discrepancy",
    "expected_reliability",
]


def average_reliability_discrepancy(
    original: UncertainGraph,
    anonymized: UncertainGraph,
    n_samples: int = 500,
    n_pairs: int | None = None,
    seed=None,
    n_workers: int | None = None,
    antithetic: bool = False,
) -> float:
    """Average per-pair reliability discrepancy (the Figure 4/8 y-axis).

    See :func:`repro.reliability.reliability_discrepancy`; this wrapper
    fixes ``per_pair=True`` which is the scale-free quantity the paper
    reports.  ``antithetic`` selects antithetic world pairing.
    """
    return reliability_discrepancy(
        original,
        anonymized,
        n_samples=n_samples,
        n_pairs=n_pairs,
        seed=seed,
        per_pair=True,
        n_workers=n_workers,
        antithetic=antithetic,
    )


def expected_reliability(
    graph: UncertainGraph, n_samples: int = 500, seed=None,
    n_workers: int | None = None, antithetic: bool = False,
) -> float:
    """Average all-pairs reliability of one graph (connectivity level)."""
    estimator = ReliabilityEstimator(
        graph, n_samples=n_samples, seed=seed,
        n_workers=n_workers, antithetic=antithetic,
    )
    return estimator.average_all_pairs_reliability()
