"""Obfuscation-checker benchmark: full rebuild vs incremental delta cache.

Times the (k, epsilon)-obfuscation check for a GenObf-shaped workload --
many candidate graphs, each differing from the base graph only on a small
perturbed edge set -- under both selectable checkers:

* ``full``        -- overlay the delta onto the base graph and rebuild
                     the whole degree-uncertainty matrix
                     (:func:`repro.privacy.check_obfuscation`);
* ``incremental`` -- :meth:`repro.privacy.DegreeUncertaintyCache.check_delta`,
                     recomputing degree pmfs only for the touched
                     endpoints in one batched DP and re-deriving column
                     entropies on a patched copy of the matrix.

Every timed delta is also cross-checked for bit-identical reports, so the
benchmark doubles as an end-to-end equivalence audit at realistic scale.

Two delta shapes are timed.  The fixed-size one perturbs
``REPRO_BENCH_OBF_EDGES`` edges per candidate.  The GenObf-shaped one
draws each candidate set the way a default-configuration trial does
(``select_candidate_edges`` at ``c = 1.3`` over the run's selection
weights), so about ``1.3 |E|`` pairs change, about a third of them new,
and nearly every vertex is touched -- the case that decides the cost of
a sigma search.

A second table isolates the kernel layer: the full checker's dominant
inner work -- one Poisson-binomial degree-pmf kernel call per vertex --
timed under each available ``repro.kernels`` backend (compiled numba vs
pure-NumPy fallback), with a bit-equality audit between them.  When
numba is absent the results file says so instead of recording a
fictitious speedup.

Scaling knobs (environment variables):

* ``REPRO_BENCH_OBF_SCALE``  -- profile size multiplier of the
                                fixed-size case (default 2.0, i.e.
                                n=1200 / |E| ~ 4200)
* ``REPRO_BENCH_OBF_DELTAS`` -- candidate checks timed (default 60)
* ``REPRO_BENCH_OBF_EDGES``  -- perturbed edges per candidate (default 40)

The module is also importable at tiny scale as the tier-1
``benchmark_smoke`` test (see ``tests/test_benchmark_smoke.py``), so both
checker paths are exercised -- not timed -- in every test run.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import ChameleonConfig, build_selection_context
from repro.core.selection import select_candidate_edges
from repro.datasets import load_profile
from repro.privacy import DegreeUncertaintyCache, check_obfuscation
from repro.privacy.degree_distribution import degree_uncertainty_matrix
from repro.ugraph import apply_edge_updates, overlay

OBF_SCALE = float(os.environ.get("REPRO_BENCH_OBF_SCALE", "2.0"))
OBF_DELTAS = int(os.environ.get("REPRO_BENCH_OBF_DELTAS", "60"))
OBF_EDGES = int(os.environ.get("REPRO_BENCH_OBF_EDGES", "40"))
#: Profile size multiplier of the GenObf-shaped case: n=330, |E| ~ 1150.
OBF_GENOBF_SCALE = 0.55
OBF_SEED = 2018
OBF_K = 10
OBF_EPSILON = 0.05


def _sample_delta(graph, n_edges: int, rng) -> list[tuple[int, int, float, float]]:
    """One GenObf-like candidate delta against ``graph``.

    Mixes tweaks of existing edges (the common case: candidate selection
    is biased toward the realized edge set) with a few brand-new pairs,
    mirroring what ``select_candidate_edges`` + perturbation produce.
    """
    n = graph.n_nodes
    seen: set[tuple[int, int]] = set()
    delta: list[tuple[int, int, float, float]] = []

    n_existing = min(graph.n_edges, max(1, (3 * n_edges) // 4))
    for e in rng.choice(graph.n_edges, size=n_existing, replace=False):
        u = int(graph.edge_src[e])
        v = int(graph.edge_dst[e])
        seen.add((u, v))
        delta.append((u, v, float(graph.edge_probabilities[e]),
                      float(rng.uniform())))

    while len(delta) < n_edges:
        u, v = rng.integers(0, n, size=2)
        u, v = int(min(u, v)), int(max(u, v))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        delta.append((u, v, float(graph.probability(u, v)),
                      float(rng.uniform())))
    return delta


def _time_checkers(deltas, full_check, incremental_check) -> dict:
    """Time both checkers over the same deltas; verify bit-equality.

    The first delta warms both paths (imports, allocator) untimed.
    """
    full_check(deltas[0])
    incremental_check(deltas[0])

    started = time.perf_counter()
    full_reports = [full_check(delta) for delta in deltas]
    full_seconds = time.perf_counter() - started

    started = time.perf_counter()
    incremental_reports = [incremental_check(delta) for delta in deltas]
    incremental_seconds = time.perf_counter() - started

    identical = all(
        np.array_equal(f.entropies, i.entropies)
        and np.array_equal(f.obfuscated, i.obfuscated)
        and f.epsilon_achieved == i.epsilon_achieved
        and f.satisfied == i.satisfied
        for f, i in zip(full_reports, incremental_reports)
    )
    n_deltas = len(deltas)
    rows = [
        ["full", full_seconds, 1000.0 * full_seconds / n_deltas, 1.0],
        ["incremental", incremental_seconds,
         1000.0 * incremental_seconds / n_deltas,
         full_seconds / incremental_seconds],
    ]
    return {
        "rows": rows,
        "n_deltas": n_deltas,
        "identical": identical,
        "speedup": full_seconds / incremental_seconds,
    }


def run_check_comparison(
    scale: float = OBF_SCALE,
    n_deltas: int = OBF_DELTAS,
    delta_edges: int = OBF_EDGES,
    seed: int = OBF_SEED,
    k: int = OBF_K,
    epsilon: float = OBF_EPSILON,
) -> dict:
    """Both checkers over a stream of fixed-size deltas.

    Returns ``{"rows": [[checker, seconds, per_check_ms, speedup], ...],
    "graph": (n_nodes, n_edges), "n_deltas": D, "delta_edges": B,
    "identical": bool}``.  Checker timings cover the *steady state* of the
    trial loop (cache construction is one-off per anonymization run and
    excluded, exactly as in :meth:`Chameleon.anonymize`).
    """
    graph = load_profile("brightkite", scale=scale, seed=seed)
    rng = np.random.default_rng(seed)
    deltas = [_sample_delta(graph, delta_edges, rng) for __ in range(n_deltas)]
    cache = DegreeUncertaintyCache(graph)
    knowledge = cache.knowledge
    result = _time_checkers(
        deltas,
        lambda delta: check_obfuscation(
            overlay(graph, ((u, v, p_new) for u, v, __, p_new in delta)),
            k, epsilon, knowledge=knowledge,
        ),
        lambda delta: cache.check_delta(
            delta, k, epsilon, knowledge=knowledge
        ),
    )
    return {
        **result,
        "graph": (graph.n_nodes, graph.n_edges),
        "delta_edges": delta_edges,
    }


def _genobf_deltas(graph, n_deltas: int, seed: int, k: int, epsilon: float):
    """Candidate deltas as a default-configuration GenObf trial draws them.

    The candidate pairs come from ``select_candidate_edges`` at the
    default ``c = 1.3`` over the run's selection weights; each pair gets
    a uniform new probability (the perturbation's distribution does not
    change the check's cost).
    """
    config = ChameleonConfig(k=k, epsilon=epsilon)
    knowledge = DegreeUncertaintyCache(graph).knowledge
    context = build_selection_context(graph, config, knowledge, seed=seed)
    rng = np.random.default_rng(seed)
    deltas = []
    for __ in range(n_deltas):
        pairs = select_candidate_edges(
            graph, context.weights, config.size_multiplier, seed=rng
        )
        us, vs = np.asarray(pairs, dtype=np.int64).T
        p_old = graph.pair_probabilities(us, vs)
        deltas.append((us, vs, p_old, rng.uniform(size=us.size)))
    return deltas


def run_genobf_check_comparison(
    scale: float = OBF_GENOBF_SCALE,
    n_deltas: int = OBF_DELTAS,
    seed: int = OBF_SEED,
    k: int = OBF_K,
    epsilon: float = OBF_EPSILON,
) -> dict:
    """Both checkers over GenObf-shaped deltas, on the trial path's
    array API (``check_edge_arrays`` / ``apply_edge_updates``).

    Returns the :func:`run_check_comparison` keys, with ``delta_edges``
    the mean number of pairs per delta.
    """
    graph = load_profile("brightkite", scale=scale, seed=seed)
    deltas = _genobf_deltas(graph, n_deltas, seed, k, epsilon)
    cache = DegreeUncertaintyCache(graph)
    knowledge = cache.knowledge
    result = _time_checkers(
        deltas,
        lambda delta: check_obfuscation(
            apply_edge_updates(graph, delta[0], delta[1], delta[3]),
            k, epsilon, knowledge=knowledge,
        ),
        lambda delta: cache.check_edge_arrays(
            *delta, k, epsilon, knowledge=knowledge
        ),
    )
    return {
        **result,
        "graph": (graph.n_nodes, graph.n_edges),
        "delta_edges": float(np.mean([delta[0].size for delta in deltas])),
    }


def run_kernel_comparison(scale: float = OBF_SCALE, seed: int = OBF_SEED):
    """Degree-pmf DP (the full checker's kernel-bound core) per backend.

    Builds the full checker's degree-uncertainty matrix -- one
    Poisson-binomial kernel call per vertex -- under each available
    backend and audits the matrices for bit-equality.  (The cache's
    batched DP is plain NumPy on every backend.)
    """
    import _harness

    graph = load_profile("brightkite", scale=scale, seed=seed)
    rows, note, outputs = _harness.kernel_comparison(
        lambda: degree_uncertainty_matrix(graph)
    )
    matrices = list(outputs.values())
    identical = all(
        np.array_equal(matrices[0], matrix) for matrix in matrices[1:]
    )
    return rows, note, identical


def test_bench_obfuscation_check():
    """Full-scale checker comparison (the recorded benchmark)."""
    import _harness

    fixed = run_check_comparison()
    genobf = run_genobf_check_comparison()
    headers = ["delta", "n", "edges", "checker", "seconds", "ms/check",
               "speedup"]
    rows = [
        [label, *result["graph"], *row]
        for label, result in (
            (f"{OBF_EDGES} edges", fixed),
            (f"GenObf c=1.3 (~{genobf['delta_edges']:.0f} pairs)", genobf),
        )
        for row in result["rows"]
    ]
    header = (
        f"brightkite-like profiles, D={OBF_DELTAS} candidate checks per "
        f"delta shape (k={OBF_K}, eps={OBF_EPSILON})\n"
        f"reports bit-identical: "
        f"{fixed['identical'] and genobf['identical']}\n"
    )
    kernel_rows, kernel_note, kernel_identical = run_kernel_comparison()
    kernel_table = _harness.format_table(
        ["kernel backend", "seconds/build", "speedup"], kernel_rows,
    )
    n_nodes, n_edges = fixed["graph"]
    _harness.emit(
        "bench_obfuscation_check",
        header + _harness.format_table(headers, rows)
        + "\n\ndegree-pmf DP (full-checker matrix build, "
        f"n={n_nodes}) per kernel backend:\n"
        + kernel_table
        + f"\nbackends bit-identical: {kernel_identical}\n" + kernel_note,
        data={
            "graph": {"n_nodes": n_nodes, "n_edges": n_edges},
            "n_deltas": fixed["n_deltas"],
            "delta_edges": fixed["delta_edges"],
            "k": OBF_K,
            "epsilon": OBF_EPSILON,
            "identical": bool(
                fixed["identical"] and genobf["identical"]
                and kernel_identical
            ),
            "speedup": fixed["speedup"],
            "genobf": {
                "graph": dict(zip(("n_nodes", "n_edges"), genobf["graph"])),
                "mean_delta_edges": genobf["delta_edges"],
                "speedup": genobf["speedup"],
            },
            **_harness.table_data(headers, rows),
            "kernel": _harness.table_data(
                ["kernel backend", "seconds/build", "speedup"],
                kernel_rows,
            ),
        },
    )
    assert fixed["identical"], "incremental and full reports diverged"
    assert genobf["identical"], "GenObf-shaped reports diverged"
    assert kernel_identical, "kernel backends diverged on the base matrix"
    for result in (fixed, genobf):
        assert result["speedup"] >= 5.0, (
            f"expected >= 5x speedup, got {result['speedup']:.2f}x"
        )
