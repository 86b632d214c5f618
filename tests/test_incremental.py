"""DegreeUncertaintyCache: bit-identical equivalence with the full checker.

The incremental checker's whole contract is *observational equality*: for
any delta, ``cache.check_delta(delta, ...)`` must return exactly the
report ``check_obfuscation(overlay(base, delta), ...)`` would -- same
entropy floats bit for bit, same obfuscated mask, same epsilon-hat.
These tests drive that contract with randomized graphs and deltas
(seeded numpy sweeps plus a hypothesis property), and pin down the cache
mechanics: rollback between calls, monotone width growth, and delta
validation errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._oracles import FullRecomputeChecker
from repro.exceptions import ObfuscationError
from repro.privacy import (
    DegreeUncertaintyCache,
    check_obfuscation,
    expected_degree_knowledge,
)
from repro.ugraph import UncertainGraph, overlay


def random_graph(rng, n_nodes=None, density=0.25):
    n = int(n_nodes if n_nodes is not None else rng.integers(3, 16))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.uniform() < density:
                edges.append((u, v, float(rng.uniform())))
    return UncertainGraph(n, edges)


def random_delta(graph, rng, max_edges=8):
    """A GenObf-like delta: existing-edge tweaks plus brand-new pairs."""
    n = graph.n_nodes
    n_pairs = n * (n - 1) // 2
    size = min(int(rng.integers(0, max_edges + 1)), n_pairs)
    seen = set()
    delta = []
    while len(delta) < size:
        u, v = rng.integers(0, n, size=2)
        u, v = int(min(u, v)), int(max(u, v))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        p_new = float(rng.choice([0.0, 1.0, rng.uniform()]))
        delta.append((u, v, float(graph.probability(u, v)), p_new))
    return delta


def assert_reports_identical(full, incremental):
    np.testing.assert_array_equal(full.entropies, incremental.entropies)
    np.testing.assert_array_equal(full.obfuscated, incremental.obfuscated)
    assert full.epsilon_achieved == incremental.epsilon_achieved
    assert full.satisfied == incremental.satisfied
    assert full.k == incremental.k and full.epsilon == incremental.epsilon


class TestBitIdenticalEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_and_deltas(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng)
        knowledge = expected_degree_knowledge(graph)
        cache = DegreeUncertaintyCache(graph, knowledge=knowledge)
        for __ in range(6):
            delta = random_delta(graph, rng)
            candidate = overlay(
                graph, ((u, v, p_new) for u, v, __, p_new in delta)
            )
            full = check_obfuscation(
                candidate, 3, 0.2, knowledge=knowledge
            )
            incremental = cache.check_delta(delta, 3, 0.2)
            assert_reports_identical(full, incremental)

    def test_empty_delta_equals_base_check(self, bridge_graph):
        knowledge = expected_degree_knowledge(bridge_graph)
        cache = DegreeUncertaintyCache(bridge_graph)
        full = check_obfuscation(bridge_graph, 2, 0.1, knowledge=knowledge)
        assert_reports_identical(full, cache.check_base(2, 0.1))
        assert_reports_identical(full, cache.check_delta((), 2, 0.1))

    def test_zeroing_and_certifying_edges(self, bridge_graph):
        """Deltas that push probabilities to the 0 / 1 extremes change the
        pmf support length -- the trickiest path for the in-place rows."""
        knowledge = expected_degree_knowledge(bridge_graph)
        cache = DegreeUncertaintyCache(bridge_graph)
        delta = [
            (0, 1, 0.95, 0.0),
            (2, 3, 0.5, 1.0),
            (0, 5, 0.0, 0.4),  # brand-new edge
        ]
        candidate = overlay(
            bridge_graph, ((u, v, p) for u, v, __, p in delta)
        )
        full = check_obfuscation(candidate, 2, 0.1, knowledge=knowledge)
        assert_reports_identical(full, cache.check_delta(delta, 2, 0.1))

    def test_width_growth_on_new_edges(self, path4):
        """Adding edges to the max-degree vertex widens the matrix; the
        widened cache must still match the full checker afterwards."""
        knowledge = expected_degree_knowledge(path4)
        cache = DegreeUncertaintyCache(path4, knowledge=knowledge)
        grow = [(0, 2, 0.0, 0.9), (0, 3, 0.0, 0.8)]
        candidate = overlay(path4, ((u, v, p) for u, v, __, p in grow))
        full = check_obfuscation(candidate, 2, 0.2, knowledge=knowledge)
        assert_reports_identical(full, cache.check_delta(grow, 2, 0.2))
        # ... and the next (smaller) delta still matches: rollback plus
        # the now-wider matrix must stay report-neutral.
        small = [(1, 2, 0.5, 0.1)]
        candidate2 = overlay(path4, ((u, v, p) for u, v, __, p in small))
        full2 = check_obfuscation(candidate2, 2, 0.2, knowledge=knowledge)
        assert_reports_identical(full2, cache.check_delta(small, 2, 0.2))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_property_randomized(self, data):
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, n_nodes=data.draw(st.integers(2, 10)))
        knowledge = expected_degree_knowledge(graph)
        cache = DegreeUncertaintyCache(graph, knowledge=knowledge)
        delta = random_delta(graph, rng, max_edges=5)
        k = data.draw(st.integers(1, 6), label="k")
        epsilon = data.draw(
            st.floats(0.0, 0.5, allow_nan=False), label="epsilon"
        )
        candidate = overlay(
            graph, ((u, v, p_new) for u, v, __, p_new in delta)
        )
        full = check_obfuscation(candidate, k, epsilon, knowledge=knowledge)
        incremental = cache.check_delta(delta, k, epsilon)
        assert_reports_identical(full, incremental)


class TestCacheMechanics:
    def test_rollback_between_calls(self, bridge_graph):
        """A delta check must not leak state into the next check."""
        cache = DegreeUncertaintyCache(bridge_graph)
        base_before = cache.check_base(2, 0.1)
        cache.check_delta([(2, 3, 0.5, 0.0)], 2, 0.1)
        base_after = cache.check_base(2, 0.1)
        assert_reports_identical(base_before, base_after)

    def test_rollback_on_error_mid_sequence(self, bridge_graph):
        cache = DegreeUncertaintyCache(bridge_graph)
        base_before = cache.check_base(2, 0.1)
        with pytest.raises(ObfuscationError):
            cache.check_delta([(0, 1, 0.95, 0.5)], 0, 0.1)  # invalid k
        assert_reports_identical(base_before, cache.check_base(2, 0.1))

    def test_noop_entries_are_dropped(self, triangle):
        cache = DegreeUncertaintyCache(triangle)
        report = cache.check_delta([(0, 1, 0.5, 0.5)], 2, 0.3)
        assert_reports_identical(cache.check_base(2, 0.3), report)

    def test_default_knowledge_is_base_graph(self, triangle):
        cache = DegreeUncertaintyCache(triangle)
        np.testing.assert_array_equal(
            cache.knowledge, expected_degree_knowledge(triangle)
        )
        assert cache.graph is triangle

    def test_checker_registry(self):
        """The full-recompute oracle answers the cache's trial interface
        with the same report."""
        rng = np.random.default_rng(17)
        graph = random_graph(rng, n_nodes=12, density=0.4)
        knowledge = expected_degree_knowledge(graph)
        delta = []
        while not delta:
            delta = random_delta(graph, rng)
        us, vs, p_old, p_new = (np.array(column) for column in zip(*delta))
        cache = DegreeUncertaintyCache(graph, knowledge=knowledge)
        oracle = FullRecomputeChecker(graph, knowledge)
        assert oracle.graph is cache.graph
        np.testing.assert_array_equal(oracle.knowledge, cache.knowledge)
        assert_reports_identical(
            oracle.check_edge_arrays(us, vs, p_old, p_new, 2, 0.3),
            cache.check_edge_arrays(us, vs, p_old, p_new, 2, 0.3),
        )


class TestDeltaValidation:
    @pytest.fixture
    def cache(self, triangle):
        return DegreeUncertaintyCache(triangle)

    def test_self_loop_rejected(self, cache):
        with pytest.raises(ObfuscationError, match="self-loop"):
            cache.check_delta([(1, 1, 0.0, 0.5)], 2, 0.1)

    def test_out_of_range_vertex_rejected(self, cache):
        with pytest.raises(ObfuscationError, match="outside"):
            cache.check_delta([(0, 7, 0.0, 0.5)], 2, 0.1)

    def test_duplicate_pair_rejected(self, cache):
        with pytest.raises(ObfuscationError, match="duplicate"):
            cache.check_delta(
                [(0, 1, 0.5, 0.6), (1, 0, 0.5, 0.7)], 2, 0.1
            )

    def test_stale_p_old_rejected(self, cache):
        with pytest.raises(ObfuscationError, match="stale"):
            cache.check_delta([(0, 1, 0.4, 0.6)], 2, 0.1)

    def test_invalid_p_new_rejected(self, cache):
        with pytest.raises(ObfuscationError, match="finite value"):
            cache.check_delta([(0, 1, 0.5, 1.5)], 2, 0.1)
        with pytest.raises(ObfuscationError, match="finite value"):
            cache.check_delta([(0, 1, 0.5, float("nan"))], 2, 0.1)

    def test_bad_knowledge_shape_rejected(self, triangle):
        with pytest.raises(ObfuscationError, match="shape"):
            DegreeUncertaintyCache(triangle, knowledge=np.array([1, 2]))


def legacy_first_error(graph, delta):
    """The message of the per-entry validation loop the vectorized
    parser replaced, or None when the delta is valid."""
    n = graph.n_nodes
    seen = set()
    for u, v, p_old, p_new in delta:
        if u == v:
            return f"delta contains self-loop on vertex {u}"
        if not (0 <= u < n and 0 <= v < n):
            return (
                f"delta edge ({u}, {v}) references a vertex outside "
                f"0..{n - 1}"
            )
        pair = (min(u, v), max(u, v))
        if pair in seen:
            return f"duplicate delta entry for edge {pair}"
        seen.add(pair)
        if not np.isfinite(p_new) or p_new < 0.0 or p_new > 1.0:
            return (
                f"delta edge {pair} has probability {p_new!r}, expected "
                "a finite value in [0, 1]"
            )
        stored = graph.probability(*pair)
        if p_old != stored:
            return (
                f"stale delta: edge {pair} has base probability "
                f"{stored!r}, delta claims {p_old!r}"
            )
    return None


def brute_force_incidence(graph):
    """Each vertex's incident edge ids in dense order, by a full scan."""
    return [
        [e for e in range(graph.n_edges)
         if w in (int(graph.edge_src[e]), int(graph.edge_dst[e]))]
        for w in range(graph.n_nodes)
    ]


def assert_csr_matches(cache):
    expected = brute_force_incidence(cache.graph)
    indptr, indices = cache._indptr, cache._indices
    assert indptr.dtype == indices.dtype == np.int64
    for w, ids in enumerate(expected):
        assert indices[indptr[w]:indptr[w + 1]].tolist() == ids


def assert_cache_matches_fresh(cache, k=2, epsilon=0.2):
    fresh = DegreeUncertaintyCache(cache.graph, knowledge=cache.knowledge)
    assert_reports_identical(
        fresh.check_base(k, epsilon), cache.check_base(k, epsilon)
    )
    width = fresh.base_matrix.shape[1]
    np.testing.assert_array_equal(
        fresh.base_matrix, cache.base_matrix[:, :width]
    )
    assert not cache.base_matrix[:, width:].any()


def as_arrays(delta):
    columns = tuple(zip(*delta)) or ((), (), (), ())
    return tuple(np.asarray(c) for c in columns)


class TestVectorizedParser:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_error_precedence_matches_entry_loop(self, data):
        """With several invalid entries, the first offending entry in
        delta order raises; within it the checks fire as self-loop, out
        of range, duplicate, bad p_new, stale p_old."""
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        graph = random_graph(np.random.default_rng(seed), n_nodes=5,
                             density=0.5)
        n = graph.n_nodes
        vertex = st.integers(-1, n)
        delta = []
        for __ in range(data.draw(st.integers(1, 7), label="size")):
            u, v = data.draw(vertex), data.draw(vertex)
            stored = graph.probability(u, v) if 0 <= min(u, v) and \
                max(u, v) < n and u != v else 0.0
            p_old = data.draw(st.sampled_from(
                [stored, stored, 0.25, float("nan")]))
            p_new = data.draw(st.sampled_from(
                [p_old, 0.0, 0.5, 1.0, -0.5, 1.5, float("nan"),
                 float("inf")]))
            delta.append((u, v, p_old, p_new))
        expected = legacy_first_error(graph, delta)
        cache = DegreeUncertaintyCache(graph)
        if expected is None:
            candidate = overlay(graph, ((u, v, p) for u, v, __, p in delta))
            full = check_obfuscation(candidate, 2, 0.2,
                                     knowledge=cache.knowledge)
            assert_reports_identical(full, cache.check_delta(delta, 2, 0.2))
            return
        with pytest.raises(ObfuscationError) as info:
            cache.check_delta(delta, 2, 0.2)
        assert str(info.value) == expected
        with pytest.raises(ObfuscationError) as info:
            cache.check_edge_arrays(*as_arrays(delta), 2, 0.2)
        assert str(info.value) == expected
        with pytest.raises(ObfuscationError) as info:
            cache.apply_edge_arrays(*as_arrays(delta))
        assert str(info.value) == expected
        assert cache.graph is graph, "a rejected apply must not rebind"

    def test_all_noop_delta_touches_no_rows(self, bridge_graph):
        cache = DegreeUncertaintyCache(bridge_graph)
        noop = [(0, 1, 0.95, 0.95), (2, 3, 0.5, 0.5), (0, 5, 0.0, 0.0)]
        assert_reports_identical(
            cache.check_base(2, 0.1), cache.check_delta(noop, 2, 0.1)
        )
        before = cache.base_matrix
        cache.apply_edge_arrays(*as_arrays(noop))
        assert cache.base_matrix is before
        # the no-op fresh pair is still a (zero-probability) edge
        assert cache.graph.has_edge(0, 5)
        assert_csr_matches(cache)
        assert_cache_matches_fresh(cache)

    def test_zero_probability_edges(self, bridge_graph):
        """Zero-probability edges stay in the index but never enter a
        pmf, on the check path and after an apply."""
        knowledge = expected_degree_knowledge(bridge_graph)
        cache = DegreeUncertaintyCache(bridge_graph, knowledge=knowledge)
        cache.apply_edge_arrays(*as_arrays(
            [(0, 4, 0.0, 0.0), (1, 2, 0.95, 0.0)]
        ))
        assert_csr_matches(cache)
        assert_cache_matches_fresh(cache)
        published = cache.graph
        delta = [(0, 4, 0.0, 0.6), (1, 2, 0.0, 0.3), (1, 4, 0.0, 0.0)]
        candidate = overlay(published, ((u, v, p) for u, v, __, p in delta))
        full = check_obfuscation(candidate, 2, 0.1, knowledge=knowledge)
        assert_reports_identical(full, cache.check_delta(delta, 2, 0.1))

    def test_apply_width_growth(self, path4):
        cache = DegreeUncertaintyCache(path4)
        width = cache.base_matrix.shape[1]
        cache.apply_edge_arrays(*as_arrays(
            [(0, 2, 0.0, 0.9), (0, 3, 0.0, 0.8)]
        ))
        assert cache.base_matrix.shape[1] > width
        assert_csr_matches(cache)
        assert_cache_matches_fresh(cache)
        # shrinking again keeps the wider matrix, still report-neutral
        cache.apply_edge_arrays(*as_arrays([(0, 2, 0.9, 0.0)]))
        assert_cache_matches_fresh(cache)

    @pytest.mark.parametrize("seed", range(6))
    def test_csr_after_chained_applies(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, n_nodes=9)
        cache = DegreeUncertaintyCache(graph)
        assert_csr_matches(cache)
        for __ in range(4):
            delta = random_delta(cache.graph, rng, max_edges=6)
            cache.apply_edge_arrays(*as_arrays(delta))
            assert_csr_matches(cache)
            assert_cache_matches_fresh(cache)
            probe = random_delta(cache.graph, rng, max_edges=4)
            fresh = DegreeUncertaintyCache(cache.graph,
                                           knowledge=cache.knowledge)
            assert_reports_identical(fresh.check_delta(probe, 2, 0.2),
                                     cache.check_delta(probe, 2, 0.2))


class TestCloneIsolation:
    def test_clone_apply_leaves_original_pristine(self):
        """A clone that applies fresh pairs must not reach the cache it
        was cloned from (the warm server's pristine cache)."""
        path5 = UncertainGraph(
            5, [(0, 1, 0.5), (1, 2, 0.6), (2, 3, 0.7), (3, 4, 0.8)]
        )
        pristine = DegreeUncertaintyCache(path5)
        clone = pristine.clone()
        clone.apply_edge_arrays(*as_arrays([(0, 4, 0.0, 0.9)]))
        fresh = DegreeUncertaintyCache(path5)
        for delta in ([(0, 1, 0.5, 0.1)], [(0, 4, 0.0, 0.3)],
                      [(3, 4, 0.8, 1.0), (0, 2, 0.0, 0.4)]):
            assert_reports_identical(
                fresh.check_edge_arrays(*as_arrays(delta), 2, 0.3),
                pristine.check_edge_arrays(*as_arrays(delta), 2, 0.3),
            )
        np.testing.assert_array_equal(fresh.base_matrix,
                                      pristine.base_matrix)
        assert pristine.graph is path5
        assert_csr_matches(pristine)

    def test_concurrent_checks_share_one_cache(self):
        """Checks never mutate the cache, so threads may share one (the
        thread trial engine does): answers match serial ones."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(11)
        graph = random_graph(rng, n_nodes=14, density=0.4)
        cache = DegreeUncertaintyCache(graph)
        deltas = [random_delta(graph, rng, max_edges=10) for __ in range(48)]
        expected = [cache.check_delta(d, 2, 0.2) for d in deltas]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(cache.check_delta, d, 2, 0.2)
                           for d in deltas * 4]
                reports = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(expected * 4, reports):
            assert_reports_identical(want, got)
