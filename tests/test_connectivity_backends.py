"""The connectivity engine against its per-world oracles.

The contract under test: :func:`batch_component_labels` -- in process or
fanned out to the process pool -- produces the same component
*partitions* as both per-world oracles (one ``connected_components``
call per world, one union-find pass per world), with canonical
consecutive labels, so every seeded estimator result is a function of
the partition alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._oracles import (
    LABEL_METHODS,
    fresh_reliability_discrepancy,
    per_world_component_labels,
)
from repro.exceptions import ConfigurationError
from repro.reliability import (
    NUM_WORKERS_ENV,
    ReliabilityEstimator,
    batch_component_labels,
    batch_pair_counts,
    connectivity,
    pair_counts_from_labels,
    reliability_discrepancy,
    resolve_worker_count,
    sample_vertex_pairs,
)
from repro.ugraph import UncertainGraph, sample_edge_masks

#: Where labeling runs: in process, or on a two-worker pool forced by
#: dropping the size threshold to zero.
PLACEMENTS = ("in-process", "pool")


def equality_matrices(labels: np.ndarray) -> np.ndarray:
    """Label-invariant partition encoding: per-world co-membership."""
    return labels[:, :, None] == labels[:, None, :]


def engine_labels(graph, masks, placement):
    """Engine labels with the pool forced on or left to the threshold."""
    if placement == "in-process":
        return batch_component_labels(graph, masks, n_workers=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(connectivity, "AUTO_PROCESS_CELLS", 0)
        return batch_component_labels(graph, masks, n_workers=2)


def oracle_labels(graph, masks, method):
    return per_world_component_labels(
        graph.n_nodes, graph.edge_src, graph.edge_dst, masks, method=method
    )


def canonical(labels: np.ndarray) -> np.ndarray:
    """Relabel each row in first-appearance order (the engine's form)."""
    out = np.empty_like(labels)
    for i, row in enumerate(labels):
        __, first, inverse = np.unique(
            row, return_index=True, return_inverse=True
        )
        rank = np.empty(first.size, dtype=labels.dtype)
        rank[np.argsort(first, kind="stable")] = np.arange(first.size)
        out[i] = rank[inverse]
    return out


@st.composite
def uncertain_graphs(draw) -> UncertainGraph:
    """Random small uncertain graphs with arbitrary probabilities."""
    n = draw(st.integers(min_value=2, max_value=18))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
    )
    probs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return UncertainGraph(n, [(u, v, p) for (u, v), p in zip(chosen, probs)])


class TestCrossBackendPartitions:
    @settings(max_examples=40, deadline=None)
    @given(graph=uncertain_graphs(), seed=st.integers(0, 2**31 - 1))
    def test_all_backends_identical_partitions(self, graph, seed):
        masks = sample_edge_masks(graph, 12, seed=seed)
        references = [oracle_labels(graph, masks, m) for m in LABEL_METHODS]
        for placement in PLACEMENTS:
            labels = engine_labels(graph, masks, placement)
            assert labels.shape == (12, graph.n_nodes)
            assert labels.dtype == np.int32
            # Canonical: consecutive ids in first-appearance order per row.
            np.testing.assert_array_equal(labels, canonical(labels))
            for reference in references:
                np.testing.assert_array_equal(
                    equality_matrices(labels), equality_matrices(reference)
                )
                np.testing.assert_array_equal(labels, canonical(reference))

    @settings(max_examples=25, deadline=None)
    @given(graph=uncertain_graphs(), seed=st.integers(0, 2**31 - 1))
    def test_pair_counts_agree_across_backends(self, graph, seed):
        masks = sample_edge_masks(graph, 8, seed=seed)
        expected = batch_pair_counts(graph, masks, n_workers=1)
        for method in LABEL_METHODS:
            np.testing.assert_array_equal(
                expected,
                pair_counts_from_labels(oracle_labels(graph, masks, method)),
            )
        for placement in PLACEMENTS:
            counts = pair_counts_from_labels(
                engine_labels(graph, masks, placement)
            )
            np.testing.assert_array_equal(counts, expected)


class TestEstimatorDeterminism:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_backend_does_not_change_seeded_results(
        self, small_profile_graph, placement, monkeypatch
    ):
        """The pool placement answers every query exactly like the
        in-process engine."""
        reference = ReliabilityEstimator(
            small_profile_graph, n_samples=60, seed=11, n_workers=1
        )
        if placement == "pool":
            monkeypatch.setattr(connectivity, "AUTO_PROCESS_CELLS", 0)
        estimator = ReliabilityEstimator(
            small_profile_graph, n_samples=60, seed=11, n_workers=2
        )
        pairs = sample_vertex_pairs(small_profile_graph.n_nodes, 50, seed=5)
        assert estimator.two_terminal(0, 1) == reference.two_terminal(0, 1)
        assert (
            estimator.expected_connected_pairs()
            == reference.expected_connected_pairs()
        )
        np.testing.assert_array_equal(
            estimator.reliability_of_pairs(pairs),
            reference.reliability_of_pairs(pairs),
        )
        np.testing.assert_array_equal(
            estimator.pairwise_reliability(),
            reference.pairwise_reliability(),
        )

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_discrepancy_deterministic_across_backends(
        self, bridge_graph, placement, monkeypatch
    ):
        perturbed = bridge_graph.with_probabilities(
            np.clip(bridge_graph.edge_probabilities - 0.2, 0.0, 1.0)
        )
        reference = fresh_reliability_discrepancy(
            bridge_graph, perturbed, n_samples=80, seed=3, n_workers=1
        )
        if placement == "pool":
            monkeypatch.setattr(connectivity, "AUTO_PROCESS_CELLS", 0)
        value = reliability_discrepancy(
            bridge_graph, perturbed, n_samples=80, seed=3, n_workers=2
        )
        assert value == reference


class TestBatchedEdgeCases:
    def test_empty_world_batch(self, triangle):
        masks = np.zeros((0, triangle.n_edges), dtype=bool)
        for placement in PLACEMENTS:
            assert engine_labels(triangle, masks, placement).shape == (0, 3)
        for method in LABEL_METHODS:
            assert oracle_labels(triangle, masks, method).shape == (0, 3)

    def test_all_edges_absent_worlds(self, triangle):
        masks = np.zeros((5, triangle.n_edges), dtype=bool)
        labels = batch_component_labels(triangle, masks)
        # Every vertex isolated: partitions are all-singletons.
        for row in labels:
            assert len(set(row.tolist())) == 3

    def test_edgeless_graph(self):
        graph = UncertainGraph(4, [])
        masks = np.zeros((3, 0), dtype=bool)
        for placement in PLACEMENTS:
            labels = engine_labels(graph, masks, placement)
            np.testing.assert_array_equal(labels, np.tile(np.arange(4), (3, 1)))
        for method in LABEL_METHODS:
            assert oracle_labels(graph, masks, method).shape == (3, 4)

    def test_integer_masks_accepted(self, triangle):
        masks = sample_edge_masks(triangle, 6, seed=0).astype(np.int8)
        a = batch_component_labels(triangle, masks)
        b = batch_component_labels(triangle, masks.astype(bool))
        np.testing.assert_array_equal(a, b)


class TestValidation:
    def test_wrong_width_masks_rejected(self, triangle):
        masks = np.zeros((4, triangle.n_edges + 2), dtype=bool)
        with pytest.raises(ValueError, match="edge columns"):
            batch_component_labels(triangle, masks)

    def test_one_dimensional_masks_rejected(self, triangle):
        with pytest.raises(ValueError, match="2-D"):
            batch_component_labels(
                triangle, np.zeros(triangle.n_edges, dtype=bool)
            )

    def test_unknown_backend_rejected(self, triangle):
        """There is one engine: a ``backend`` argument is not accepted."""
        masks = sample_edge_masks(triangle, 2, seed=0)
        with pytest.raises(TypeError):
            batch_component_labels(triangle, masks, backend="scipy")
        with pytest.raises(TypeError):
            batch_pair_counts(triangle, masks, backend="process")

    def test_pair_counts_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            pair_counts_from_labels(np.zeros(5, dtype=np.int32))


class TestWorkerResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "7")
        assert resolve_worker_count(3) == 3

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "5")
        assert resolve_worker_count() == 5

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(NUM_WORKERS_ENV, raising=False)
        assert resolve_worker_count() >= 1

    def test_rejects_non_integer_env(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "many")
        with pytest.raises(ConfigurationError, match=NUM_WORKERS_ENV):
            resolve_worker_count()

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            resolve_worker_count(0)

    def test_process_backend_reads_env(self, triangle, monkeypatch):
        """Above the threshold the worker count comes from the
        environment; one worker keeps labeling in process."""
        calls = []
        monkeypatch.setattr(
            connectivity, "_process_labels", lambda *args: calls.append(args)
        )
        monkeypatch.setattr(connectivity, "AUTO_PROCESS_CELLS", 0)
        monkeypatch.setenv(NUM_WORKERS_ENV, "1")
        masks = sample_edge_masks(triangle, 4, seed=2)
        labels = batch_component_labels(triangle, masks)
        assert labels.shape == (4, 3)
        assert calls == []
        monkeypatch.setenv(NUM_WORKERS_ENV, "3")
        batch_component_labels(triangle, masks)
        assert len(calls) == 1 and calls[0][-1] == 3

    def test_process_backend_multiworker(self, triangle, monkeypatch):
        masks = sample_edge_masks(triangle, 9, seed=4)
        monkeypatch.setattr(connectivity, "AUTO_PROCESS_CELLS", 0)
        a = batch_component_labels(triangle, masks, n_workers=2)
        b = oracle_labels(triangle, masks, "scipy")
        np.testing.assert_array_equal(
            equality_matrices(a), equality_matrices(b)
        )


class TestDefaultsMatchPerWorldOracle:
    """The library defaults that used to run the per-world scipy loop
    now run the engine; every value they return must be unchanged."""

    @pytest.mark.parametrize("method", LABEL_METHODS)
    def test_defaults_bit_identical(self, small_profile_graph, method):
        from repro import kernels
        from repro.metrics import (
            average_reliability_discrepancy,
            expected_component_count,
        )
        from repro.reliability import compute_relevance

        graph = small_profile_graph
        perturbed = graph.with_probabilities(
            np.clip(graph.edge_probabilities * 0.7 + 0.1, 0.0, 1.0)
        )

        def run():
            relevance = compute_relevance(graph, n_samples=80, seed=4)
            return (
                average_reliability_discrepancy(
                    graph, perturbed, n_samples=60, seed=2018
                ),
                relevance.edge_relevance,
                relevance.vertex_relevance,
                expected_component_count(graph, n_samples=70, seed=9),
            )

        engine = run()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                kernels, "masked_component_labels",
                lambda n, src, dst, masks: per_world_component_labels(
                    n, src, dst, masks, method=method
                ),
            )
            oracle = run()
        assert engine[0] == oracle[0]
        np.testing.assert_array_equal(engine[1], oracle[1])
        np.testing.assert_array_equal(engine[2], oracle[2])
        assert engine[3] == oracle[3]
