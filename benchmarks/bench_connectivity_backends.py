"""Connectivity benchmark: the engine against its per-world oracles.

Times :func:`repro.reliability.batch_component_labels` -- in process and
fanned out to its process pool -- against the two per-world oracles of
``repro._oracles.per_world_component_labels`` (one scipy
``connected_components`` call per world, one union-find pass per world)
on the Brightkite-like profile, and verifies that every strategy
produces identical component *partitions* (labels may differ up to
per-world renaming; the partition is what every estimator consumes).

The engine fans out to the pool only from
``connectivity.AUTO_PROCESS_CELLS`` mask cells on; the ``engine-pool``
row lowers that threshold to zero for the timed call so the pool path is
measured at this size too.

Scaling knobs (environment variables):

* ``REPRO_BENCH_CONN_SCALE``   -- profile size multiplier (default 1.0)
* ``REPRO_BENCH_CONN_SAMPLES`` -- Monte-Carlo worlds (default 1000)

The module is also importable at tiny scale as the tier-1
``benchmark_smoke`` test (see ``tests/test_benchmark_smoke.py``), so the
perf-path code is exercised -- not timed -- in every test run.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro._oracles import per_world_component_labels
from repro.datasets import load_profile
from repro.reliability import (
    batch_component_labels,
    connectivity,
    pair_counts_from_labels,
)
from repro.ugraph import sample_edge_masks

CONN_SCALE = float(os.environ.get("REPRO_BENCH_CONN_SCALE", "1.0"))
CONN_SAMPLES = int(os.environ.get("REPRO_BENCH_CONN_SAMPLES", "1000"))
CONN_SEED = 2018


def canonical_partition(labels: np.ndarray) -> np.ndarray:
    """Relabel every row by order of first appearance.

    Two labelings describe the same per-world partitions iff their
    canonical forms are identical, regardless of which concrete label
    each backend assigned to a component.
    """
    out = np.empty_like(labels)
    for i, row in enumerate(labels):
        uniq, first, inverse = np.unique(
            row, return_index=True, return_inverse=True
        )
        rank = np.empty(uniq.size, dtype=labels.dtype)
        rank[np.argsort(first, kind="stable")] = np.arange(
            uniq.size, dtype=labels.dtype
        )
        out[i] = rank[inverse]
    return out


#: Timed labeling strategies, the per-world oracle baseline first.
STRATEGIES = ("oracle-scipy", "oracle-union-find", "engine", "engine-pool")


def _labeler(strategy: str, n_workers: int | None):
    """``labels(graph, masks)`` for one strategy."""
    if strategy.startswith("oracle-"):
        method = strategy[len("oracle-"):]
        return lambda graph, masks: per_world_component_labels(
            graph.n_nodes, graph.edge_src, graph.edge_dst, masks,
            method=method,
        )
    if strategy == "engine":
        return lambda graph, masks: batch_component_labels(
            graph, masks, n_workers=1
        )

    def pooled(graph, masks):
        threshold = connectivity.AUTO_PROCESS_CELLS
        connectivity.AUTO_PROCESS_CELLS = 0
        try:
            return batch_component_labels(graph, masks, n_workers=n_workers)
        finally:
            connectivity.AUTO_PROCESS_CELLS = threshold

    return pooled


def run_backend_comparison(
    n_samples: int = CONN_SAMPLES,
    scale: float = CONN_SCALE,
    seed: int = CONN_SEED,
    strategies: tuple[str, ...] = STRATEGIES,
    repeats: int = 3,
    n_workers: int | None = None,
) -> dict:
    """Time every strategy on one shared world batch; verify partitions.

    Returns ``{"rows": [[strategy, seconds, speedup_vs_first,
    n_components, partitions_match], ...], "graph": (n_nodes, n_edges),
    "n_samples": N}``.  ``seconds`` is the best of ``repeats`` timed runs
    after one untimed warm-up call per strategy.  ``n_workers`` sizes
    the ``engine-pool`` row's pool (default: ``REPRO_NUM_WORKERS`` or
    the CPU count).
    """
    graph = load_profile("brightkite", scale=scale, seed=seed)
    masks = sample_edge_masks(graph, n_samples, seed=seed)

    timings: dict[str, float] = {}
    labelings: dict[str, np.ndarray] = {}
    for strategy in strategies:
        label = _labeler(strategy, n_workers)
        # Warm-up: imports, allocator, worker pool fork costs.
        label(graph, masks[: min(16, n_samples)])
        best = float("inf")
        for __ in range(repeats):
            started = time.perf_counter()
            labels = label(graph, masks)
            best = min(best, time.perf_counter() - started)
        timings[strategy] = best
        labelings[strategy] = labels

    reference_strategy = strategies[0]
    reference = canonical_partition(labelings[reference_strategy])
    reference_counts = pair_counts_from_labels(labelings[reference_strategy])
    rows = []
    for strategy in strategies:
        matches = bool(
            np.array_equal(reference, canonical_partition(labelings[strategy]))
            and np.array_equal(
                reference_counts, pair_counts_from_labels(labelings[strategy])
            )
        )
        rows.append([
            strategy,
            timings[strategy],
            timings[reference_strategy] / timings[strategy],
            int(labelings[strategy].max(initial=-1) + 1),
            matches,
        ])
    return {
        "rows": rows,
        "graph": (graph.n_nodes, graph.n_edges),
        "n_samples": n_samples,
    }


def test_bench_connectivity_backends():
    """Full-scale engine-vs-oracle comparison (the recorded benchmark)."""
    import _harness

    result = run_backend_comparison()
    n_nodes, n_edges = result["graph"]
    columns = [
        "strategy", "seconds", "speedup", "max components/world",
        "partition ok",
    ]
    table = _harness.format_table(columns, result["rows"])
    header = (
        f"brightkite-like profile: n={n_nodes} |E|={n_edges} "
        f"N={result['n_samples']} worlds\n"
    )
    identical = all(row[4] for row in result["rows"])
    _harness.emit(
        "bench_connectivity_backends", header + table,
        data={
            "graph": {"n_nodes": n_nodes, "n_edges": n_edges},
            "n_samples": result["n_samples"],
            "identical": identical,
            **_harness.table_data(columns, result["rows"]),
        },
    )
    assert identical, "partitions diverged"
