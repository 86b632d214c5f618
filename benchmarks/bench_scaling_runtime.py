"""Efficiency: runtime scaling of the Chameleon building blocks.

The paper claims Chameleon is efficient thanks to the near-linear reused-
sampling estimators (Lemma 3).  This bench measures wall-clock scaling of
the three dominant kernels as the graph grows:

* reliability-relevance evaluation (Algorithm 2),
* the (k, epsilon)-obfuscation check (Poisson-binomial DP + entropies),
* one full GenObf trial.

Shape expectation: all three grow roughly linearly in |E| -- the ratio
time/|E| stays within a small band across sizes (no quadratic blow-up).

``test_scaling_default_config`` runs end-to-end ``anonymize`` in the
paper's default RSME configuration (c = 1.3, 5 trials, 400 relevance
samples) at two sizes a decade apart, times three layers inside it --
reliability relevance, candidate selection and the (k, epsilon) check --
and records the log-log slope of each against |E|: the default path
must stay near-linear.
Every published graph is re-certified by the full checker.

``test_large_world_budget`` (marked ``large_scale``) is the memory-budget
acceptance run: a synthetic 10^5-node / >=10^6-edge graph anonymized
end-to-end with the sharded memmap world store capped well below the
full ``N_worlds x |E|`` uniform matrix.  Peak RSS is recorded in the
results file so the budget claim is auditable.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from _harness import SEED, emit, format_table, table_data
from repro.core import ChameleonConfig, build_selection_context, gen_obf
from repro.datasets import load_profile
from repro.core import genobf, parallel
from repro.privacy import (
    DegreeUncertaintyCache,
    check_obfuscation,
    expected_degree_knowledge,
)
from repro.reliability import edge_reliability_relevance

_SCALES = (0.25, 0.5, 1.0, 2.0)
_SAMPLES = 200


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _build_rows():
    rows = []
    for scale in _SCALES:
        graph = load_profile("brightkite", scale=scale, seed=SEED)
        know = expected_degree_knowledge(graph)

        t_err = _time(lambda: edge_reliability_relevance(
            graph, n_samples=_SAMPLES, seed=SEED
        ))
        t_check = _time(lambda: check_obfuscation(
            graph, 10, 0.05, knowledge=know
        ))
        config = ChameleonConfig(
            k=10, epsilon=0.05, n_trials=1, relevance_samples=_SAMPLES,
            size_multiplier=2.0,
        )
        context = build_selection_context(graph, config, know, seed=SEED)
        t_genobf = _time(lambda: gen_obf(
            graph, config, 0.05, context, seed=SEED
        ))
        rows.append([
            graph.n_nodes, graph.n_edges,
            t_err, t_check, t_genobf,
            t_err / graph.n_edges * 1e3,
        ])
    return rows


def test_scaling_runtime(benchmark):
    rows = benchmark.pedantic(_build_rows, rounds=1, iterations=1)
    headers = ["nodes", "edges", "ERR (s)", "obf check (s)", "GenObf (s)",
               "ERR ms/edge"]
    emit(
        "scaling_runtime",
        format_table(headers, rows, precision=3),
        data=table_data(headers, rows),
    )
    # Near-linear: per-edge cost of the largest graph is within 8x of the
    # smallest (a quadratic kernel would be ~64x here).
    per_edge = [r[5] for r in rows]
    assert max(per_edge) < 8 * min(per_edge)
    # Absolute sanity: the biggest graph's ERR pass stays interactive.
    assert rows[-1][2] < 30.0


# --------------------------------------------------------------------- #
# Default-configuration anonymize at two sizes
# --------------------------------------------------------------------- #

_DEFAULT_SCALES = (2.0, 20.0)  # brightkite-like: 1.2k and 12k nodes
_DEFAULT_K, _DEFAULT_EPSILON = 10, 0.05
#: Layers timed inside the run: (label, owner, attribute), patched where
#: the anonymizer looks them up.
_LAYERS = (
    ("relevance", genobf, "compute_relevance"),
    ("selection", parallel, "select_candidate_edges"),
    ("check", DegreeUncertaintyCache, "check_edge_arrays"),
)


def test_scaling_default_config(benchmark, monkeypatch):
    """End-to-end default-config anonymize at 1.2k and 12k nodes."""
    import repro
    from repro.core import peak_rss_bytes

    totals: dict[str, float] = {}

    def timed(label, method):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                totals[label] += time.perf_counter() - start
        return wrapper

    for label, owner, name in _LAYERS:
        monkeypatch.setattr(owner, name, timed(label, getattr(owner, name)))

    def run_all():
        rows = []
        for scale in _DEFAULT_SCALES:
            graph = load_profile("brightkite", scale=scale, seed=SEED)
            totals.update((label, 0.0) for label, *__ in _LAYERS)
            start = time.perf_counter()
            result = repro.anonymize(
                graph, _DEFAULT_K, _DEFAULT_EPSILON, seed=SEED
            )
            seconds = time.perf_counter() - start
            oracle = check_obfuscation(
                result.graph, _DEFAULT_K, _DEFAULT_EPSILON,
                knowledge=expected_degree_knowledge(graph),
            )
            rows.append([
                graph.n_nodes, graph.n_edges, seconds, totals["relevance"],
                totals["selection"], totals["check"], result.sigma,
                result.n_genobf_calls,
                peak_rss_bytes() / 1024**2, result.success,
                bool(oracle.satisfied
                     and oracle.epsilon_achieved == result.epsilon_achieved),
            ])
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    headers = ["nodes", "edges", "anonymize (s)", "relevance (s)",
               "selection (s)", "check (s)", "sigma", "genobf calls",
               "peak RSS MiB", "success", "identical"]
    (__, e1, *t1), (__, e2, *t2) = rows
    slopes = {
        name: float(np.log(t2[i] / t1[i]) / np.log(e2 / e1))
        for i, name in enumerate(
            ("anonymize", "relevance", "selection", "check")
        )
    }
    data = table_data(headers, rows)
    data["slopes_vs_edges"] = slopes
    data["config"] = {"k": _DEFAULT_K, "epsilon": _DEFAULT_EPSILON,
                      "method": "rsme", "size_multiplier": 1.3,
                      "n_trials": 5, "relevance_samples": 400}
    emit(
        "scaling_default_config",
        format_table(headers, rows, precision=3)
        + "\nlog-log slope vs |E|: "
        + ", ".join(f"{name} {slope:.2f}" for name, slope in slopes.items()),
        data=data,
    )
    assert all(row[-2] and row[-1] for row in rows)
    # A quadratic layer would show a slope near 2 over a decade of |E|.
    assert slopes["check"] < 1.6, slopes


# --------------------------------------------------------------------- #
# Memory-budget acceptance: 10^5 nodes, >=10^6 edges, capped world state
# --------------------------------------------------------------------- #

_LARGE_NODES = 100_000
_LARGE_EDGES = 1_050_000
_LARGE_WORLDS = 48
_LARGE_BUDGET = 192 * 1024 * 1024  # world-state cap, bytes


def _synthetic_uncertain_graph(n_nodes: int, n_edges: int, seed: int):
    """A random uncertain graph built directly from arrays.

    The dataset profiles top out far below publication scale, so the
    large-scale bench draws its own edge universe: canonical (u < v)
    pairs deduplicated by encoded key, probabilities in [0.05, 0.95].
    """
    from repro.ugraph import UncertainGraph

    rng = np.random.default_rng(seed)
    want = n_edges
    draw = int(want * 1.3)
    pairs = rng.integers(0, n_nodes, size=(draw, 2), dtype=np.int64)
    u = np.minimum(pairs[:, 0], pairs[:, 1])
    v = np.maximum(pairs[:, 0], pairs[:, 1])
    keep = u != v
    u, v = u[keep], v[keep]
    _, first = np.unique(u * n_nodes + v, return_index=True)
    u, v = u[first], v[first]
    if u.shape[0] < want:
        raise AssertionError(
            f"synthetic draw produced only {u.shape[0]} unique edges"
        )
    u, v = u[:want], v[:want]
    prob = rng.uniform(0.05, 0.95, size=want)
    return UncertainGraph(n_nodes, zip(u.tolist(), v.tolist(), prob.tolist()))


@pytest.mark.large_scale
def test_large_world_budget(benchmark, monkeypatch):
    """Anonymize 10^5 nodes / >=10^6 edges under a sharded world budget.

    The full ``N_worlds x |E|`` uniform matrix would need ~400 MiB; the
    run caps world state at 192 MiB, forcing the store into multiple
    memmap-backed chunks, and must still complete end-to-end.
    """
    import repro
    from repro.reliability import WorldStore

    monkeypatch.setenv("REPRO_WORLD_BACKEND", "memmap")
    monkeypatch.delenv("REPRO_WORLD_CHUNK", raising=False)

    build_start = time.perf_counter()
    graph = _synthetic_uncertain_graph(_LARGE_NODES, _LARGE_EDGES, SEED)
    build_seconds = time.perf_counter() - build_start

    full_matrix_bytes = _LARGE_WORLDS * graph.n_edges * 8
    assert _LARGE_BUDGET < full_matrix_bytes

    # Chunk geometry audit: construction is lazy, so probing the layout
    # costs nothing.
    probe = WorldStore(
        graph, _LARGE_WORLDS, seed=SEED, memory_budget=_LARGE_BUDGET
    )
    n_chunks, backend = probe.n_chunks, probe.store_backend
    probe.close()
    assert n_chunks > 1, "budget did not force multiple chunks"
    assert backend == "memmap"

    def run():
        return repro.anonymize(
            graph, 10, 0.2, method="me", seed=SEED,
            n_trials=1, sigma_tolerance=0.1, size_multiplier=1.0,
            utility_samples=_LARGE_WORLDS,
            world_memory_budget=_LARGE_BUDGET,
        )

    start = time.perf_counter()
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    seconds = time.perf_counter() - start

    headers = ["nodes", "edges", "worlds", "chunks", "budget MiB",
               "full matrix MiB", "anonymize (s)", "success"]
    rows = [[
        graph.n_nodes, graph.n_edges, _LARGE_WORLDS, n_chunks,
        _LARGE_BUDGET / 1024**2, full_matrix_bytes / 1024**2,
        seconds, result.success,
    ]]
    data = table_data(headers, rows)
    data["store_backend"] = backend
    data["sigma"] = result.sigma
    data["graph_build_seconds"] = build_seconds
    emit(
        "scaling_large_world",
        format_table(headers, rows, precision=2),
        data=data,
    )
    assert result.graph is not None or not result.success
