"""Reliability relevance (Algorithm 2) vs. the exact oracle."""

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.reliability import (
    compute_relevance,
    edge_reliability_relevance,
    exact_edge_reliability_relevance,
    vertex_reliability_relevance,
)
from repro.ugraph import UncertainGraph


@pytest.mark.parametrize("method", ["grouped", "merge-gain"])
class TestAgainstOracle:
    def test_triangle_converges(self, triangle, method):
        exact = exact_edge_reliability_relevance(triangle)
        estimated = edge_reliability_relevance(
            triangle, n_samples=20_000, seed=0, method=method
        )
        np.testing.assert_allclose(estimated, exact, atol=0.05)

    def test_bridge_graph_ranking(self, bridge_graph, method):
        """The bridge edge must rank first, as in Figure 5(a)."""
        estimated = edge_reliability_relevance(
            bridge_graph, n_samples=5000, seed=1, method=method
        )
        bridge_idx = bridge_graph.edge_id(2, 3)
        assert np.argmax(estimated) == bridge_idx

    def test_path_converges(self, path4, method):
        exact = exact_edge_reliability_relevance(path4)
        estimated = edge_reliability_relevance(
            path4, n_samples=20_000, seed=2, method=method
        )
        np.testing.assert_allclose(estimated, exact, atol=0.06)


class TestDegenerateProbabilities:
    def test_certain_edge_handled(self):
        """An edge with p == 1 has no absent samples; fallback must fire."""
        g = UncertainGraph(3, [(0, 1, 1.0), (1, 2, 0.5)])
        exact = exact_edge_reliability_relevance(g)
        estimated = edge_reliability_relevance(g, n_samples=4000, seed=3)
        np.testing.assert_allclose(estimated, exact, atol=0.06)

    def test_impossible_edge_handled(self):
        g = UncertainGraph(3, [(0, 1, 0.0), (1, 2, 0.5)])
        exact = exact_edge_reliability_relevance(g)
        estimated = edge_reliability_relevance(
            g, n_samples=4000, seed=4, method="grouped"
        )
        np.testing.assert_allclose(estimated, exact, atol=0.06)

    @pytest.mark.parametrize("method", ["grouped", "merge-gain"])
    def test_many_degenerate_edges_batch_fallback(self, method):
        """A graph dominated by p in {0, 1} edges: the batched fallback
        must stay accurate for *every* degenerate edge.  (The old
        per-edge fallback resampled dedicated worlds per edge -- an
        O(#degenerate * N * |E|) blowup this graph shape triggers.)"""
        edges = []
        for i in range(9):
            p = (1.0, 0.0, 1.0)[i % 3] if i % 4 != 3 else 0.5
            edges.append((i, i + 1, p))
        g = UncertainGraph(10, edges)
        exact = exact_edge_reliability_relevance(g)
        estimated = edge_reliability_relevance(
            g, n_samples=6000, seed=5, method=method
        )
        np.testing.assert_allclose(estimated, exact, atol=0.06)

    def test_all_edges_degenerate(self):
        """Every edge certain or impossible: the shared batch is fully
        deterministic and the fallback result must be exact."""
        g = UncertainGraph(
            5, [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0), (3, 4, 1.0)]
        )
        exact = exact_edge_reliability_relevance(g)
        estimated = edge_reliability_relevance(g, n_samples=64, seed=6)
        np.testing.assert_allclose(estimated, exact, atol=1e-12)


class TestProperties:
    def test_non_negative(self, small_profile_graph):
        err = edge_reliability_relevance(
            small_profile_graph, n_samples=300, seed=5
        )
        assert (err >= 0).all()

    def test_empty_graph(self):
        err = edge_reliability_relevance(UncertainGraph(4), n_samples=10)
        assert err.shape == (0,)

    def test_unknown_method_rejected(self, triangle):
        with pytest.raises(EstimationError):
            edge_reliability_relevance(triangle, method="magic")

    def test_seeded_reproducibility(self, triangle):
        a = edge_reliability_relevance(triangle, n_samples=500, seed=9)
        b = edge_reliability_relevance(triangle, n_samples=500, seed=9)
        np.testing.assert_array_equal(a, b)


class TestVertexRelevance:
    def test_weighted_aggregation(self, triangle):
        err = np.array([1.0, 2.0, 4.0])  # edges (0,1), (1,2)?, (0,2)
        vrr = vertex_reliability_relevance(triangle, err)
        p = triangle.edge_probabilities
        # vertex 0 touches edges (0,1) and (0,2)
        e01 = triangle.edge_id(0, 1)
        e02 = triangle.edge_id(0, 2)
        e12 = triangle.edge_id(1, 2)
        assert vrr[0] == pytest.approx(p[e01] * err[e01] + p[e02] * err[e02])
        assert vrr[1] == pytest.approx(p[e01] * err[e01] + p[e12] * err[e12])

    def test_shape_checked(self, triangle):
        with pytest.raises(EstimationError):
            vertex_reliability_relevance(triangle, np.array([1.0]))

    def test_bridge_endpoints_score_high(self, bridge_graph):
        result = compute_relevance(bridge_graph, n_samples=4000, seed=6)
        vrr = result.vertex_relevance
        # The bridge endpoints (2 and 3) carry the bridge's large ERR.
        assert vrr[2] > vrr[0]
        assert vrr[3] > vrr[5]

    def test_normalized_relevance_in_unit_interval(self, bridge_graph):
        result = compute_relevance(bridge_graph, n_samples=1000, seed=7)
        normalized = result.normalized_vertex_relevance()
        assert normalized.min() >= 0.0
        assert normalized.max() == pytest.approx(1.0)

    def test_normalized_relevance_all_zero(self):
        result = compute_relevance(
            UncertainGraph(3, [(0, 1, 0.0)]), n_samples=100, seed=8
        )
        assert (result.normalized_vertex_relevance() == 0).all()


class TestMergeGainVectorization:
    """The chunked label-block accumulator must match the per-world loop
    bit-for-bit (gains are exact integers, so summation order is free)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_bit_identical_to_loop(self, seed):
        from repro.reliability.connectivity import batch_component_labels
        from repro._oracles import merge_gain_accumulate_loop
        from repro.reliability.relevance import _merge_gain_accumulate
        from repro.ugraph.worlds import sample_edge_masks

        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        m = int(rng.integers(1, len(pairs) + 1))
        triples = [
            (u, v, float(p))
            for (u, v), p in zip(pairs[:m], rng.random(m))
        ]
        graph = UncertainGraph(n, triples)
        n_samples = int(rng.integers(1, 64))
        masks = sample_edge_masks(graph, n_samples, seed=rng)
        labels = batch_component_labels(graph, masks)
        fast = _merge_gain_accumulate(graph, masks, labels)
        slow = merge_gain_accumulate_loop(graph, masks, labels)
        np.testing.assert_array_equal(fast[0], slow[0])
        np.testing.assert_array_equal(fast[1], slow[1])
        assert fast[1].dtype == slow[1].dtype

    def test_partial_blocks_compose(self, bridge_graph):
        """Accumulating 2-world slices must reproduce the one-shot call:
        the chunked path is a pure sum over world blocks."""
        from repro.reliability import relevance as rel
        from repro.reliability.connectivity import batch_component_labels
        from repro.ugraph.worlds import sample_edge_masks

        masks = sample_edge_masks(bridge_graph, 33, seed=9)
        labels = batch_component_labels(bridge_graph, masks)
        whole = rel._merge_gain_accumulate(bridge_graph, masks, labels)
        parts_gain = np.zeros_like(whole[0])
        parts_count = np.zeros_like(whole[1])
        for start in range(0, 33, 2):
            g, c = rel._merge_gain_accumulate(
                bridge_graph, masks[start:start + 2], labels[start:start + 2]
            )
            parts_gain += g
            parts_count += c
        np.testing.assert_array_equal(parts_gain, whole[0])
        np.testing.assert_array_equal(parts_count, whole[1])
