"""Property tests for the persistent CRN world store (PR 4).

Two contracts are under test:

1. **Bit-identity** -- every query answered by a delta-derived
   :class:`DerivedWorlds` view (labels, pair counts, pair reliabilities,
   the pairwise matrix) equals a fresh full relabeling of the view's
   materialized masks bit for bit, across edge tweaks, p -> 0 removals,
   brand-new edge insertions, and the empty delta.  When the candidate
   shares the base graph's edge universe, the store path is additionally
   bit-identical to a fresh ``ReliabilityEstimator`` built with the same
   CRN seed.
2. **Shared-memory process backend** -- mask matrices reach workers as
   ``(name, shape, slice)`` descriptors, never as pickled arrays, and
   the parent unlinks the segment even when a worker raises.
"""

from __future__ import annotations

import dataclasses
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _segments, kernels
from repro._oracles import fresh_reliability_discrepancy
from repro.core import ChameleonConfig, anonymize
from repro.exceptions import EstimationError
from repro.metrics import compare_graphs
from repro.reliability import (
    DerivedWorlds,
    ReliabilityEstimator,
    WorldStore,
    component_labels_for_edges,
    graph_delta,
    pair_counts_from_labels,
    reliability_discrepancy,
    sample_vertex_pairs,
)
from repro.reliability import connectivity
from repro.ugraph import UncertainGraph, WorldSampler, overlay, sample_edge_masks


def oracle_labels(store: WorldStore, view: DerivedWorlds) -> np.ndarray:
    """Fresh full relabeling of the view's materialized mask matrix."""
    return component_labels_for_edges(
        store.graph.n_nodes, store._src, store._dst, view.materialize(),
    )


def oracle_pairwise(labels: np.ndarray, n: int) -> np.ndarray:
    acc = np.zeros((n, n), dtype=np.int64)
    for start in range(0, labels.shape[0], 37):
        chunk = labels[start:start + 37]
        acc += (chunk[:, :, None] == chunk[:, None, :]).sum(axis=0)
    result = acc / labels.shape[0]
    np.fill_diagonal(result, 1.0)
    return result


@st.composite
def graphs_and_deltas(draw):
    """A random graph plus a delta mixing tweaks, removals, insertions."""
    n = draw(st.integers(min_value=3, max_value=14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                 max_size=len(pairs))
    )
    probs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=len(chosen), max_size=len(chosen),
        )
    )
    graph = UncertainGraph(n, [(u, v, p) for (u, v), p in zip(chosen, probs)])

    delta = []
    edge_set = set(chosen)
    touched = draw(
        st.lists(st.sampled_from(chosen), unique=True, max_size=len(chosen))
    )
    for u, v in touched:
        kind = draw(st.sampled_from(["tweak", "remove"]))
        p_new = (
            0.0 if kind == "remove"
            else draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        )
        delta.append((u, v, graph.probability(u, v), p_new))
    fresh_pairs = [p for p in pairs if p not in edge_set]
    inserted = draw(
        st.lists(st.sampled_from(fresh_pairs), unique=True, max_size=4)
        if fresh_pairs else st.just([])
    )
    for u, v in inserted:
        p_new = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        delta.append((u, v, 0.0, p_new))
    return graph, delta


class TestBaseReproduction:
    def test_base_masks_match_sampler(self, small_profile_graph):
        store = WorldStore(small_profile_graph, n_samples=64, seed=11)
        np.testing.assert_array_equal(
            store.base_masks, sample_edge_masks(small_profile_graph, 64, seed=11)
        )

    def test_base_masks_match_sampler_antithetic(self, small_profile_graph):
        store = WorldStore(
            small_profile_graph, n_samples=64, seed=11, antithetic=True
        )
        np.testing.assert_array_equal(
            store.base_masks,
            sample_edge_masks(small_profile_graph, 64, seed=11, antithetic=True),
        )

    def test_estimator_is_store_backed(self, small_profile_graph):
        est = ReliabilityEstimator(
            small_profile_graph, n_samples=48, seed=5
        )
        assert est.store.n_samples == 48
        np.testing.assert_array_equal(est.masks, est.store.base_masks)
        np.testing.assert_array_equal(est.labels, est.store.base_labels)

    def test_antithetic_requires_even(self, triangle):
        with pytest.raises(EstimationError, match="even"):
            WorldStore(triangle, n_samples=5, antithetic=True)


class TestDeriveBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(case=graphs_and_deltas(), seed=st.integers(0, 2**31 - 1))
    def test_derived_queries_match_full_relabel(self, case, seed):
        graph, delta = case
        store = WorldStore(
            graph, n_samples=24, seed=seed
        )
        view = store.derive(delta)
        ora = oracle_labels(store, view)
        np.testing.assert_array_equal(view.labels, ora)
        np.testing.assert_array_equal(
            view.pair_counts, pair_counts_from_labels(ora)
        )
        pairs = sample_vertex_pairs(graph.n_nodes, 40, seed=seed)
        np.testing.assert_array_equal(
            view.reliability_of_pairs(pairs),
            (ora[:, pairs[:, 0]] == ora[:, pairs[:, 1]]).mean(axis=0),
        )
        np.testing.assert_array_equal(
            view.pairwise_reliability(),
            oracle_pairwise(ora, graph.n_nodes),
        )

    @settings(max_examples=25, deadline=None)
    @given(case=graphs_and_deltas(), seed=st.integers(0, 2**31 - 1))
    def test_same_universe_delta_matches_fresh_crn_estimator(self, case, seed):
        # When the candidate only re-weights existing columns the store
        # view must match a from-scratch estimator with the same seed.
        graph, delta = case
        delta = [d for d in delta if graph.has_edge(d[0], d[1])]
        overlaid = overlay(graph, [(u, v, p_new) for u, v, __, p_new in delta])
        store = WorldStore(
            graph, n_samples=24, seed=seed
        )
        view = store.derive(delta)
        est = ReliabilityEstimator(
            overlaid, n_samples=24, seed=seed
        )
        np.testing.assert_array_equal(view.labels, est.labels)
        np.testing.assert_array_equal(view.pair_counts, est.pair_counts)
        np.testing.assert_array_equal(
            view.pairwise_reliability(), est.pairwise_reliability()
        )

    def test_empty_delta_is_base(self, bridge_graph):
        store = WorldStore(bridge_graph, n_samples=30, seed=2)
        view = store.derive([])
        assert view.n_dirty == 0
        np.testing.assert_array_equal(view.labels, store.base_labels)
        assert store.discrepancy(view) == 0.0

    def test_removal_to_zero(self, bridge_graph):
        store = WorldStore(
            bridge_graph, n_samples=40, seed=9
        )
        view = store.derive([(2, 3, 0.5, 0.0)])
        ora = oracle_labels(store, view)
        np.testing.assert_array_equal(view.labels, ora)
        # Forcing the bridge absent disconnects the clusters in every
        # dirty world -- relabeled rows are exactly those with (2,3) on.
        assert view.n_dirty == int(store.base_masks[:, 6].sum())

    def test_insertion_grows_universe(self, triangle):
        store = WorldStore(triangle, n_samples=20, seed=4)
        assert store.n_columns == 3
        view = store.derive([(0, 1, 0.5, 0.9), (1, 2, 0.8, 0.8)])
        assert store.n_columns == 3  # no growth for existing pairs
        view = store.derive([(0, 1, 0.5, 0.2)])
        ora = oracle_labels(store, view)
        np.testing.assert_array_equal(view.labels, ora)


class TestDeriveValidation:
    def test_p_old_mismatch_rejected(self, triangle):
        store = WorldStore(triangle, n_samples=8, seed=0)
        with pytest.raises(EstimationError, match="base probability"):
            store.derive([(0, 1, 0.9, 0.2)])

    def test_bad_p_new_rejected(self, triangle):
        store = WorldStore(triangle, n_samples=8, seed=0)
        with pytest.raises(EstimationError, match="p_new"):
            store.derive([(0, 1, 0.5, 1.5)])

    def test_self_loop_rejected(self, triangle):
        store = WorldStore(triangle, n_samples=8, seed=0)
        with pytest.raises(EstimationError, match="vertex pair"):
            store.derive([(1, 1, 0.0, 0.5)])

    def test_duplicate_pairs_last_wins(self, triangle):
        store = WorldStore(triangle, n_samples=16, seed=3)
        a = store.derive([(0, 1, 0.5, 0.9), (0, 1, 0.5, 0.1)])
        b = store.derive([(0, 1, 0.5, 0.1)])
        np.testing.assert_array_equal(a.labels, b.labels)


class TestMasksOnlyStore:
    def test_forced_absent_matches_overlay(self, bridge_graph):
        masks = sample_edge_masks(bridge_graph, 32, seed=21)
        store = WorldStore.from_masks(
            bridge_graph, masks
        )
        view = store.derive([(2, 3, 0.5, 0.0)])
        ora = oracle_labels(store, view)
        np.testing.assert_array_equal(view.labels, ora)

    def test_forced_present_matches_overlay(self, bridge_graph):
        masks = sample_edge_masks(bridge_graph, 32, seed=21)
        store = WorldStore.from_masks(bridge_graph, masks)
        view = store.derive([(2, 3, 0.5, 1.0)])
        ora = oracle_labels(store, view)
        np.testing.assert_array_equal(view.labels, ora)
        assert view.n_dirty == int((~masks[:, 6]).sum())

    def test_general_rethreshold_rejected(self, bridge_graph):
        masks = sample_edge_masks(bridge_graph, 16, seed=21)
        store = WorldStore.from_masks(bridge_graph, masks)
        with pytest.raises(EstimationError, match="forced-present/absent"):
            store.derive([(2, 3, 0.5, 0.4)])
        with pytest.raises(EstimationError, match="uniforms are unknown"):
            __ = store.uniforms


class TestGraphDelta:
    def test_round_trip(self, bridge_graph):
        probs = bridge_graph.edge_probabilities.copy()
        probs[0] = 0.15
        other = overlay(
            bridge_graph.with_probabilities(probs), [(0, 4, 0.6), (2, 3, 0.0)]
        )
        delta = graph_delta(bridge_graph, other)
        rebuilt = overlay(bridge_graph, [(u, v, p) for u, v, __, p in delta])
        for u in range(bridge_graph.n_nodes):
            for v in range(u + 1, bridge_graph.n_nodes):
                assert rebuilt.probability(u, v) == other.probability(u, v)

    def test_vertex_set_mismatch(self, triangle, path4):
        with pytest.raises(EstimationError, match="vertex set"):
            graph_delta(triangle, path4)


class TestDiscrepancyEngines:
    def test_store_matches_fresh_on_shared_universe(self, small_profile_graph):
        g = small_profile_graph
        probs = g.edge_probabilities.copy()
        probs[:25] = np.linspace(0.05, 0.95, 25)
        other = g.with_probabilities(probs)
        for kwargs in ({}, {"n_pairs": 300}, {"per_pair": False}):
            a = reliability_discrepancy(
                g, other, n_samples=40, seed=17, **kwargs,
            )
            b = fresh_reliability_discrepancy(
                g, other, n_samples=40, seed=17, **kwargs,
            )
            assert a == b

    def test_identity_is_structural_zero(self, small_profile_graph):
        value = reliability_discrepancy(
            small_profile_graph, small_profile_graph, n_samples=30, seed=1
        )
        assert value == 0.0

    def test_unknown_engine_rejected(self, triangle):
        """The world store is the only engine: no ``engine`` argument."""
        with pytest.raises(TypeError):
            reliability_discrepancy(triangle, triangle, engine="fresh")

    def test_antithetic_plumbed(self, small_profile_graph):
        value = reliability_discrepancy(
            small_profile_graph, small_profile_graph, n_samples=40, seed=3,
            antithetic=True,
        )
        assert value == 0.0


class TestWorldSamplerAntithetic:
    def test_masks_antithetic_matches_function(self, bridge_graph):
        sampler = WorldSampler(bridge_graph, seed=13, antithetic=True)
        np.testing.assert_array_equal(
            sampler.masks(20),
            sample_edge_masks(bridge_graph, 20, seed=13, antithetic=True),
        )

    def test_per_call_override(self, bridge_graph):
        sampler = WorldSampler(bridge_graph, seed=13)
        assert not sampler.antithetic
        np.testing.assert_array_equal(
            sampler.masks(20, antithetic=True),
            sample_edge_masks(bridge_graph, 20, seed=13, antithetic=True),
        )

    def test_iter_worlds_antithetic(self, triangle):
        sampler = WorldSampler(triangle, seed=7, antithetic=True)
        worlds = list(sampler.iter_worlds(8))
        assert len(worlds) == 8


class TestSuiteAndSigmaSearchWiring:
    def test_compare_graphs_identity_store(self, bridge_graph):
        result = compare_graphs(
            bridge_graph, bridge_graph, metrics=("reliability",),
            n_samples=24, seed=5,
        )
        assert result["reliability"].relative_error == 0.0
        assert result["reliability"].original == result["reliability"].anonymized

    def test_compare_graphs_rejects_unknown_engine(self, bridge_graph):
        with pytest.raises(TypeError):
            compare_graphs(
                bridge_graph, bridge_graph, reliability_engine="fresh"
            )

    def test_anonymize_scores_utility(self, small_profile_graph):
        result = anonymize(
            small_profile_graph, k=3, epsilon=0.3, seed=8,
            n_trials=2, relevance_samples=30, utility_samples=40,
            sigma_tolerance=0.5,
        )
        assert result.success
        assert result.utility_discrepancy is not None
        assert result.utility_discrepancy >= 0.0
        assert len(result.utility_history) >= 1
        assert result.summary()["utility_discrepancy"] == (
            result.utility_discrepancy
        )

    def test_utility_samples_validated(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="utility_samples"):
            ChameleonConfig(utility_samples=-1)


class TestAutoBackend:
    """The one labeling rule: fan out to the pool only from
    ``AUTO_PROCESS_CELLS`` mask cells on, and only with > 1 worker."""

    @staticmethod
    def _placements(monkeypatch, graph, n_samples, n_workers):
        calls = []
        real = connectivity._process_labels

        def spy(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(connectivity, "_process_labels", spy)
        masks = sample_edge_masks(graph, n_samples, seed=2)
        component_labels_for_edges(
            graph.n_nodes, graph.edge_src, graph.edge_dst, masks,
            n_workers=n_workers,
        )
        return calls

    def test_resolution_thresholds(self, small_profile_graph, monkeypatch):
        cells = 10 * small_profile_graph.n_edges
        monkeypatch.setattr(connectivity, "AUTO_PROCESS_CELLS", cells)
        assert self._placements(
            monkeypatch, small_profile_graph, 9, n_workers=2
        ) == []
        assert self._placements(
            monkeypatch, small_profile_graph, 10, n_workers=2
        ) == [2]
        assert self._placements(
            monkeypatch, small_profile_graph, 10, n_workers=1
        ) == []

    def test_unknown_backend_rejected(self, triangle):
        """No store or estimator takes a ``backend`` argument."""
        with pytest.raises(TypeError):
            WorldStore(triangle, n_samples=4, backend="process")
        with pytest.raises(TypeError):
            ReliabilityEstimator(triangle, n_samples=4, backend="scipy")

    def test_auto_default_in_config(self):
        fields = {f.name for f in dataclasses.fields(ChameleonConfig)}
        assert "connectivity_backend" not in fields
        assert ChameleonConfig().n_workers is None


class TestSharedMemoryProcessBackend:
    def test_payloads_are_descriptors_not_arrays(self, small_profile_graph):
        masks = sample_edge_masks(small_profile_graph, 16, seed=6)
        payloads = connectivity._shared_mask_payloads(
            small_profile_graph.n_nodes,
            small_profile_graph.edge_src,
            small_profile_graph.edge_dst,
            "shm-test-name", masks.shape, 4,
        )
        assert payloads, "expected at least one worker payload"
        covered = []
        for n_nodes, src, dst, name, shape, start, stop in payloads:
            assert isinstance(name, str) and name == "shm-test-name"
            assert shape == masks.shape
            assert isinstance(start, int) and isinstance(stop, int)
            # The world matrix itself must NOT cross the pool boundary:
            # the only ndarrays in a payload are the 1-D endpoint arrays.
            for item in (n_nodes, src, dst, name, shape, start, stop):
                if isinstance(item, np.ndarray):
                    assert item.ndim == 1
                    assert item.shape[0] == small_profile_graph.n_edges
            covered.append((start, stop))
        assert covered[0][0] == 0 and covered[-1][1] == masks.shape[0]
        for (__, prev_stop), (next_start, __) in zip(covered, covered[1:]):
            assert prev_stop == next_start

    def test_worker_reads_shared_segment(self, small_profile_graph):
        masks = sample_edge_masks(small_profile_graph, 10, seed=8)
        shm = connectivity._create_shared_masks(masks)
        try:
            labels = connectivity._labels_shm_worker(
                (small_profile_graph.n_nodes,
                 small_profile_graph.edge_src,
                 small_profile_graph.edge_dst,
                 shm.name, masks.shape, 2, 7)
            )
        finally:
            _segments.release_segment(shm)
        expected = kernels.masked_component_labels(
            small_profile_graph.n_nodes,
            small_profile_graph.edge_src,
            small_profile_graph.edge_dst,
            masks[2:7],
        )
        np.testing.assert_array_equal(labels, expected)

    def test_segment_unlinked_after_success(self, small_profile_graph,
                                            monkeypatch):
        names = []
        original = connectivity._create_shared_masks

        def recording(masks):
            shm = original(masks)
            names.append(shm.name)
            return shm

        monkeypatch.setattr(connectivity, "_create_shared_masks", recording)
        masks = sample_edge_masks(small_profile_graph, 12, seed=3)
        labels = connectivity._process_labels(
            small_profile_graph.n_nodes,
            small_profile_graph.edge_src,
            small_profile_graph.edge_dst,
            masks, n_workers=2,
        )
        assert labels.shape == (12, small_profile_graph.n_nodes)
        assert len(names) == 1
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=names[0])

    def test_segment_unlinked_when_worker_raises(self, small_profile_graph,
                                                 monkeypatch):
        names = []
        original = connectivity._create_shared_masks

        def recording(masks):
            shm = original(masks)
            names.append(shm.name)
            return shm

        class ExplodingPool:
            def map(self, *args, **kwargs):
                raise RuntimeError("worker crashed")

        monkeypatch.setattr(connectivity, "_create_shared_masks", recording)
        monkeypatch.setattr(
            connectivity, "_get_pool", lambda n: ExplodingPool()
        )
        masks = sample_edge_masks(small_profile_graph, 12, seed=3)
        with pytest.raises(RuntimeError, match="worker crashed"):
            connectivity._process_labels(
                small_profile_graph.n_nodes,
                small_profile_graph.edge_src,
                small_profile_graph.edge_dst,
                masks, n_workers=2,
            )
        assert len(names) == 1
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=names[0])

    def test_broken_pool_discarded(self, small_profile_graph, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        class BrokenPool:
            def map(self, *args, **kwargs):
                raise BrokenProcessPool("simulated death")

        sentinel = BrokenPool()
        monkeypatch.setitem(connectivity._WORKER_POOLS, 2, sentinel)
        masks = sample_edge_masks(small_profile_graph, 12, seed=3)
        with pytest.raises(BrokenProcessPool):
            connectivity._process_labels(
                small_profile_graph.n_nodes,
                small_profile_graph.edge_src,
                small_profile_graph.edge_dst,
                masks, n_workers=2,
            )
        assert 2 not in connectivity._WORKER_POOLS

    def test_pool_is_reused_across_calls(self, small_profile_graph):
        connectivity.shutdown_worker_pools()
        masks = sample_edge_masks(small_profile_graph, 8, seed=1)
        args = (
            small_profile_graph.n_nodes,
            small_profile_graph.edge_src,
            small_profile_graph.edge_dst,
        )
        connectivity._process_labels(*args, masks, n_workers=2)
        pool = connectivity._WORKER_POOLS.get(2)
        assert pool is not None
        connectivity._process_labels(*args, masks, n_workers=2)
        assert connectivity._WORKER_POOLS.get(2) is pool
        connectivity.shutdown_worker_pools()
        assert not connectivity._WORKER_POOLS
