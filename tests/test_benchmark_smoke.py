"""Tier-1 smoke runs of the perf benchmarks (tiny scale).

Executes the comparison routines of the perf benchmarks
(``benchmarks/bench_connectivity_backends.py``,
``benchmarks/bench_obfuscation_check.py`` and the other twins) and one
evaluation of each ablation bench at sizes where timing is meaningless
but every engine / oracle code path -- including the multiprocess pool
and the incremental delta cache -- is exercised on each test run.
Marked ``benchmark_smoke`` so they can be selected or skipped with
``-m``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCHMARKS_DIR = str(Path(__file__).resolve().parent.parent / "benchmarks")
if BENCHMARKS_DIR not in sys.path:
    sys.path.insert(0, BENCHMARKS_DIR)

import bench_ablation_perturbation as bench_abl_pert  # noqa: E402
import bench_ablation_selection as bench_abl_sel  # noqa: E402
import bench_connectivity_backends as bench  # noqa: E402
import bench_incremental_update as bench_upd  # noqa: E402
import bench_obfuscation_check as bench_obf  # noqa: E402
import bench_parallel_trials as bench_pt  # noqa: E402
import bench_world_store as bench_ws  # noqa: E402


@pytest.mark.benchmark_smoke
def test_backend_comparison_smoke():
    result = bench.run_backend_comparison(
        n_samples=12, scale=0.15, repeats=1, n_workers=2
    )
    assert result["n_samples"] == 12
    strategies = [row[0] for row in result["rows"]]
    assert strategies == [
        "oracle-scipy", "oracle-union-find", "engine", "engine-pool"
    ]
    assert all(row[4] for row in result["rows"]), "partitions diverged"
    assert all(row[1] >= 0.0 for row in result["rows"])


@pytest.mark.benchmark_smoke
def test_obfuscation_check_comparison_smoke():
    """Both checker paths at tiny scale; reports must stay bit-identical."""
    result = bench_obf.run_check_comparison(
        scale=0.15, n_deltas=4, delta_edges=6
    )
    assert result["n_deltas"] == 4
    assert result["identical"], "incremental and full reports diverged"
    checkers = [row[0] for row in result["rows"]]
    assert checkers == ["full", "incremental"]
    assert all(row[1] >= 0.0 for row in result["rows"])


@pytest.mark.benchmark_smoke
def test_genobf_check_comparison_smoke():
    """GenObf-shaped deltas (c = 1.3 selection) on the array path."""
    result = bench_obf.run_genobf_check_comparison(scale=0.1, n_deltas=3)
    assert result["n_deltas"] == 3
    assert result["identical"], "incremental and full reports diverged"
    assert result["delta_edges"] > result["graph"][1]
    assert [row[0] for row in result["rows"]] == ["full", "incremental"]


@pytest.mark.benchmark_smoke
def test_incremental_update_comparison_smoke():
    """The streaming update pipeline at tiny scale: chained batches,
    certificate and store equivalence audits -- speedup not asserted
    (timing is meaningless here)."""
    result = bench_upd.run_update_comparison(
        scale=0.15, n_batches=2, fractions=(0.01, 0.05),
        n_samples=16,
    )
    assert result["identical"], "incremental certificate diverged"
    assert result["store_identical"], "rebased store diverged"
    assert len(result["rows"]) == 2
    assert all(row[2] >= 0.0 and row[3] >= 0.0 for row in result["rows"])


@pytest.mark.benchmark_smoke
def test_world_store_comparison_smoke():
    """Both evaluation strategies at tiny scale; bit-identity must hold."""
    result = bench_ws.run_store_comparison(
        scale=0.15, n_samples=16, n_deltas=3, delta_edges=6, n_pairs=200
    )
    assert result["n_deltas"] == 3
    assert result["identical"], "store and fresh-oracle queries diverged"
    strategies = [row[0] for row in result["rows"]]
    assert strategies == ["fresh", "store"]
    assert all(row[1] >= 0.0 for row in result["rows"])
    assert 0.0 <= result["dirty_fraction"] <= 1.0


@pytest.mark.benchmark_smoke
def test_world_store_engine_smoke():
    """Public reliability_discrepancy entry point against the
    two-estimator oracle."""
    result = bench_ws.run_engine_comparison(
        scale=0.15, n_samples=16, n_pairs=200, repeats=1
    )
    engines = [row[0] for row in result["rows"]]
    assert engines == ["fresh", "store"]
    # Different candidate streams: agreement is statistical, both finite.
    assert all(np.isfinite(row[2]) for row in result["rows"])


@pytest.mark.benchmark_smoke
def test_parallel_trials_comparison_smoke():
    """Serial, thread and process trial engines at tiny scale; the audit
    asserts bit-equality only -- speedup is a host property, never a
    test."""
    result = bench_pt.run_trial_backend_comparison(
        scale=0.25, n_trials=2, worker_counts=(2,),
        relevance_samples=40, sigma_tolerance=0.2,
    )
    assert result["identical"], "pooled backends diverged from serial"
    backends = [(row[0], row[1]) for row in result["rows"]]
    assert backends == [("serial", 1), ("thread", 2), ("process", 2)]
    assert all(row[2] >= 0.0 and row[3] >= 0.0 for row in result["rows"])
    assert all(row[6] for row in result["rows"])
    assert result["host_cpus"] >= 1


@pytest.mark.benchmark_smoke
def test_canonical_partition_invariant_to_renaming():
    import numpy as np

    labels = np.array([[0, 0, 1, 2], [1, 0, 0, 1]], dtype=np.int32)
    renamed = np.array([[2, 2, 0, 1], [0, 1, 1, 0]], dtype=np.int32)
    np.testing.assert_array_equal(
        bench.canonical_partition(labels), bench.canonical_partition(renamed)
    )


@pytest.mark.benchmark_smoke
def test_ablation_perturbation_evaluate_smoke():
    """One guided-perturbation evaluation runs end to end."""
    entropy, eps_hat = bench_abl_pert._evaluate("max-entropy", 0.1)
    assert np.isfinite(entropy)
    assert 0.0 <= eps_hat <= 1.0


@pytest.mark.benchmark_smoke
def test_ablation_selection_loss_smoke():
    """One selection-ablation loss runs end to end."""
    loss = bench_abl_sel._loss_under("reliability-sensitive", 0.1)
    assert np.isfinite(loss) and loss >= 0.0
