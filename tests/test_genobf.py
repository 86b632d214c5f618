"""GenObf (Algorithm 3) behavior tests."""

import numpy as np
import pytest

from repro.core import ChameleonConfig, build_selection_context, gen_obf
from repro._oracles import FullRecomputeChecker
from repro.core.parallel import _edge_noise_scales
from repro.privacy import check_obfuscation, expected_degree_knowledge
from repro.ugraph import UncertainGraph


@pytest.fixture
def graph(small_profile_graph):
    return small_profile_graph


@pytest.fixture
def config():
    return ChameleonConfig(
        k=5, epsilon=0.05, n_trials=3, relevance_samples=150, seed=0
    )


@pytest.fixture
def context(graph, config):
    knowledge = expected_degree_knowledge(graph)
    return build_selection_context(graph, config, knowledge, seed=1)


class TestSelectionContext:
    def test_shapes(self, graph, context):
        n = graph.n_nodes
        assert context.uniqueness.shape == (n,)
        assert context.vertex_relevance.shape == (n,)
        assert context.weights.shape == (n,)
        assert context.knowledge.shape == (n,)

    def test_weights_are_distribution(self, context):
        assert context.weights.min() >= 0.0
        assert context.weights.sum() == pytest.approx(1.0)

    def test_exclusion_budget(self, graph, config, context):
        budget = int(np.ceil(config.epsilon / 2 * graph.n_nodes))
        assert context.excluded.shape[0] == budget

    def test_excluded_have_zero_weight(self, context):
        assert (context.weights[context.excluded] == 0.0).all()

    def test_vrr_normalized_over_remaining_vertices(self):
        """Algorithm 3 line 5: an extreme excluded vertex must not
        compress the damping of the vertices that stay in play."""
        from repro.ugraph import UncertainGraph

        # Two strong triangles bridged twice; epsilon excludes one vertex.
        p = 0.9
        g = UncertainGraph(
            8,
            [
                (0, 1, p), (1, 2, p), (0, 2, p),
                (3, 4, p), (4, 5, p), (3, 5, p),
                (2, 3, 0.5), (5, 6, 0.5), (6, 7, 0.5),
            ],
        )
        cfg = ChameleonConfig(
            k=2, epsilon=0.25, n_trials=1, relevance_samples=400, seed=0
        )
        ctx = build_selection_context(
            g, cfg, expected_degree_knowledge(g), seed=1
        )
        remaining = np.setdiff1d(np.arange(8), ctx.excluded)
        # The normalization ceiling lives inside V \ H: the remaining
        # vertex with maximal VRR is fully damped (selection weight 0),
        # regardless of how large the excluded vertices' VRR was.
        top_remaining = remaining[np.argmax(ctx.vertex_relevance[remaining])]
        assert ctx.weights[top_remaining] == 0.0

    def test_uniqueness_only_mode_has_zero_relevance(self, graph):
        cfg = ChameleonConfig(
            k=5, epsilon=0.05, selection_mode="uniqueness-only", n_trials=2
        )
        ctx = build_selection_context(
            graph, cfg, expected_degree_knowledge(graph), seed=2
        )
        assert (ctx.vertex_relevance == 0.0).all()


class TestEdgeNoiseScales:
    def test_mean_is_sigma(self):
        scores = np.array([0.1, 0.4, 0.9, 0.2])
        us = np.array([0, 1, 2], dtype=np.int64)
        vs = np.array([1, 2, 3], dtype=np.int64)
        scales = _edge_noise_scales(us, vs, scores, sigma=0.3)
        assert scales.mean() == pytest.approx(0.3)

    def test_proportional_to_endpoint_scores(self):
        scores = np.array([0.0, 1.0, 3.0])
        us = np.array([0, 1], dtype=np.int64)
        vs = np.array([1, 2], dtype=np.int64)
        scales = _edge_noise_scales(us, vs, scores, sigma=0.5)
        # Q^e values: 0.5 and 2.0 -> ratio 4.
        assert scales[1] == pytest.approx(4 * scales[0])

    def test_zero_scores_fall_back_to_uniform(self):
        scales = _edge_noise_scales(
            np.array([0], dtype=np.int64), np.array([1], dtype=np.int64),
            np.zeros(2), sigma=0.2,
        )
        np.testing.assert_allclose(scales, 0.2)

    def test_empty_pairs(self):
        empty = np.zeros(0, dtype=np.int64)
        assert _edge_noise_scales(empty, empty, np.zeros(2), 0.5).shape == (0,)


class TestGenObf:
    def test_failure_sentinel_at_tiny_sigma(self, graph, config, context):
        """Essentially zero noise cannot reach k=5 on this graph's hubs."""
        outcome = gen_obf(graph, config, sigma=1e-9, context=context, seed=3)
        if not outcome.success:
            assert outcome.epsilon_achieved == 1.0
            assert outcome.graph is None

    def test_success_at_large_sigma(self, graph, config, context):
        outcome = gen_obf(graph, config, sigma=0.5, context=context, seed=4)
        assert outcome.success
        assert outcome.epsilon_achieved <= config.epsilon
        assert outcome.graph.n_nodes == graph.n_nodes

    def test_successful_output_passes_independent_check(
        self, graph, config, context
    ):
        outcome = gen_obf(graph, config, sigma=0.5, context=context, seed=5)
        assert outcome.success
        report = check_obfuscation(
            outcome.graph, config.k, config.epsilon,
            knowledge=context.knowledge,
        )
        assert report.satisfied

    def test_output_preserves_vertex_set(self, graph, config, context):
        outcome = gen_obf(graph, config, sigma=0.4, context=context, seed=6)
        assert outcome.success
        assert outcome.graph.n_nodes == graph.n_nodes

    def test_probabilities_stay_valid(self, graph, config, context):
        outcome = gen_obf(graph, config, sigma=0.8, context=context, seed=7)
        assert outcome.success
        p = outcome.graph.edge_probabilities
        assert p.min() >= 0.0 and p.max() <= 1.0

    def test_reproducible(self, graph, config, context):
        a = gen_obf(graph, config, sigma=0.5, context=context, seed=8)
        b = gen_obf(graph, config, sigma=0.5, context=context, seed=8)
        assert a.epsilon_achieved == b.epsilon_achieved
        if a.success:
            assert a.graph == b.graph


class TestCheckerEquivalence:
    """The incremental cache must be observationally identical to the
    full per-trial matrix rebuild: both consume the rng the same way
    (selection + perturbation draws only), so a shared seed yields the
    same trial stream and must yield bit-identical outcomes."""

    @pytest.mark.parametrize("sigma", [1e-9, 0.1, 0.5])
    def test_seeded_gen_obf_outcomes_match(self, graph, context, sigma):
        config = ChameleonConfig(
            k=5, epsilon=0.05, n_trials=3, relevance_samples=150, seed=0
        )
        oracle = FullRecomputeChecker(graph, context.knowledge)
        a = gen_obf(graph, config, sigma=sigma, context=context, seed=11)
        b = gen_obf(graph, config, sigma=sigma, context=context, seed=11,
                    cache=oracle)
        assert a.epsilon_achieved == b.epsilon_achieved
        assert a.success == b.success
        if a.success:
            assert a.graph == b.graph
            np.testing.assert_array_equal(
                a.report.entropies, b.report.entropies
            )
            np.testing.assert_array_equal(
                a.report.obfuscated, b.report.obfuscated
            )

    def test_explicit_cache_matches_implicit(self, graph, config, context):
        from repro.privacy import DegreeUncertaintyCache

        cache = DegreeUncertaintyCache(graph, knowledge=context.knowledge)
        a = gen_obf(graph, config, sigma=0.5, context=context, seed=12,
                    cache=cache)
        b = gen_obf(graph, config, sigma=0.5, context=context, seed=12)
        assert a.epsilon_achieved == b.epsilon_achieved
        if a.success:
            assert a.graph == b.graph
