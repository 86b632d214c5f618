"""Kernel registry: bit-compatibility contract across backends.

The registry's promise is absolute: switching ``REPRO_KERNELS`` between
``numba`` and ``numpy`` never changes a single output bit anywhere in
the library.  These tests pin the pure-NumPy fallback against
independent references (brute-force enumeration, the dependency-free
union-find oracle), exercise the edge cases where drift would hide
(empty edge sets, p in {0, 1}, single-vertex graphs, tail folding at
the last bucket), and -- when numba is installed -- assert bitwise
equality of the compiled kernels against the fallback.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.exceptions import ConfigurationError
from repro.kernels import (
    KERNEL_BACKENDS,
    KERNEL_NAMES,
    fold_pmf_tail,
    truncated_normal_draws,
)
from repro.kernels._numpy import _batched_labels_chunked
from repro.reliability.union_find import canonical_component_labels

probabilities = st.floats(min_value=0.0, max_value=1.0)


@pytest.fixture
def numpy_backend():
    """Pin the numpy fallback for the duration of one test."""
    previous = kernels.use("numpy")
    yield
    kernels.use(previous)


def _brute_force_pmf(p):
    """Poisson-binomial pmf by exhaustive enumeration (n <= 10)."""
    out = np.zeros(len(p) + 1, dtype=np.float64)
    for bits in itertools.product([0, 1], repeat=len(p)):
        weight = 1.0
        for b, pi in zip(bits, p):
            weight *= pi if b else (1.0 - pi)
        out[sum(bits)] += weight
    return out


class TestPoissonBinomialPmf:
    def test_empty(self, numpy_backend):
        np.testing.assert_array_equal(
            kernels.poisson_binomial_pmf(np.zeros(0)), [1.0]
        )

    @pytest.mark.parametrize("value,index", [(0.0, 0), (1.0, 4)])
    def test_degenerate_probabilities(self, numpy_backend, value, index):
        pmf = kernels.poisson_binomial_pmf(np.full(4, value))
        expected = np.zeros(5)
        expected[index] = 1.0
        np.testing.assert_array_equal(pmf, expected)

    @settings(max_examples=50, deadline=None)
    @given(p=st.lists(probabilities, min_size=0, max_size=8))
    def test_close_to_brute_force(self, p):
        previous = kernels.use("numpy")
        try:
            pmf = kernels.poisson_binomial_pmf(np.asarray(p))
        finally:
            kernels.use(previous)
        assert pmf.shape == (len(p) + 1,)
        np.testing.assert_allclose(pmf, _brute_force_pmf(p), atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(p=st.lists(probabilities, min_size=0, max_size=32))
    def test_matches_convolution_reference_bitwise(self, p):
        previous = kernels.use("numpy")
        try:
            pmf = kernels.poisson_binomial_pmf(np.asarray(p))
        finally:
            kernels.use(previous)
        reference = np.ones(1, dtype=np.float64)
        for pi in p:
            reference = np.convolve(reference, (1.0 - pi, pi))
        np.testing.assert_array_equal(pmf, reference)


class TestFoldPmfTail:
    @settings(max_examples=50, deadline=None)
    @given(
        p=st.lists(probabilities, min_size=0, max_size=16),
        width=st.integers(min_value=1, max_value=20),
    )
    def test_reference_semantics(self, p, width):
        pmf = kernels.poisson_binomial_pmf(np.asarray(p))
        out = fold_pmf_tail(pmf, width)
        assert out.shape == (width,)
        if pmf.shape[0] > width:
            # Head copied verbatim; tail folded with np.sum's pairwise
            # order -- the pinned reference.
            np.testing.assert_array_equal(out[: width - 1], pmf[: width - 1])
            assert out[width - 1] == pmf[width - 1:].sum()
        else:
            np.testing.assert_array_equal(out[: pmf.shape[0]], pmf)
            assert not out[pmf.shape[0]:].any()

    def test_fold_at_last_bucket(self):
        pmf = np.array([0.1, 0.2, 0.3, 0.4])
        out = fold_pmf_tail(pmf, 2)
        np.testing.assert_array_equal(
            out, [0.1, np.array([0.2, 0.3, 0.4]).sum()]
        )

    def test_width_one_folds_everything(self):
        pmf = np.array([0.25, 0.5, 0.25])
        np.testing.assert_array_equal(fold_pmf_tail(pmf, 1), [pmf.sum()])


class TestTruncatedNormal:
    def test_transform_bounds_and_monotonicity(self):
        u = np.linspace(0.0, 1.0, 101)
        sigma = np.full_like(u, 0.3)
        x = kernels.truncnorm_transform(u, sigma)
        assert x[0] == 0.0
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert np.all(np.diff(x) >= 0.0)
        assert np.isfinite(x).all()  # u -> 1 saturation clipped, not inf

    def test_draw_ordering_contract(self):
        """One uniform block, then the transform -- on every backend."""
        sigma = np.array([0.1, 0.5, 1.0, 2.0])
        draws = truncated_normal_draws(np.random.default_rng(5), sigma)
        u = np.random.default_rng(5).random(4)
        np.testing.assert_array_equal(
            draws, kernels.truncnorm_transform(u, sigma)
        )

    def test_noise_module_consumes_shared_draws(self):
        from repro.core.noise import truncated_normal_noise

        sigma = np.array([0.2, 0.0, 0.7])
        got = truncated_normal_noise(sigma, seed=9)
        rng = np.random.default_rng(9)
        expected = np.zeros(3)
        expected[[0, 2]] = truncated_normal_draws(rng, sigma[[0, 2]])
        np.testing.assert_array_equal(got, expected)


class TestRethresholdMasks:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_worlds=st.integers(min_value=1, max_value=12),
        n_edges=st.integers(min_value=1, max_value=10),
    )
    def test_matches_direct_recompute(self, seed, n_worlds, n_edges):
        rng = np.random.default_rng(seed)
        uniforms = rng.random((n_worlds, n_edges))
        base_p = rng.random(n_edges)
        base_masks = uniforms < base_p
        n_changed = int(rng.integers(1, n_edges + 1))
        cols = rng.choice(n_edges, size=n_changed, replace=False)
        new_p = rng.random(n_changed)

        previous = kernels.use("numpy")
        try:
            new_cols, dirty = kernels.rethreshold_masks(
                uniforms, base_masks, cols, new_p
            )
        finally:
            kernels.use(previous)
        expected_cols = uniforms[:, cols] < new_p
        np.testing.assert_array_equal(new_cols, expected_cols)
        flipped = expected_cols != base_masks[:, cols]
        np.testing.assert_array_equal(dirty, np.flatnonzero(flipped.any(axis=1)))

    def test_boundary_probabilities(self, numpy_backend):
        uniforms = np.array([[0.0, 0.5], [0.9, 0.2]])
        base_masks = uniforms < np.array([0.5, 0.5])
        cols = np.array([0, 1])
        # p = 0 never realizes (strict <); p = 1 always does.
        new_cols, dirty = kernels.rethreshold_masks(
            uniforms, base_masks, cols, np.array([0.0, 1.0])
        )
        np.testing.assert_array_equal(
            new_cols, [[False, True], [False, True]]
        )
        # Row 0 flips both columns; row 1's realizations happen to agree
        # with the base, so only row 0 is dirty.
        np.testing.assert_array_equal(dirty, [0])


class TestMaskedComponentLabels:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_nodes=st.integers(min_value=1, max_value=12),
        n_worlds=st.integers(min_value=1, max_value=6),
    )
    def test_matches_union_find_oracle(self, seed, n_nodes, n_worlds):
        rng = np.random.default_rng(seed)
        n_edges = int(rng.integers(0, max(1, n_nodes * 2)))
        src = rng.integers(0, n_nodes, n_edges)
        dst = rng.integers(0, n_nodes, n_edges)
        masks = rng.random((n_worlds, n_edges)) < 0.5

        previous = kernels.use("numpy")
        try:
            labels = kernels.masked_component_labels(n_nodes, src, dst, masks)
        finally:
            kernels.use(previous)
        assert labels.shape == (n_worlds, n_nodes)
        for w in range(n_worlds):
            row = masks[w]
            np.testing.assert_array_equal(
                labels[w],
                canonical_component_labels(n_nodes, src[row], dst[row]),
                err_msg=f"world {w}",
            )

    def test_single_vertex_and_empty_edges(self, numpy_backend):
        labels = kernels.masked_component_labels(
            1, np.zeros(0, np.int64), np.zeros(0, np.int64),
            np.zeros((3, 0), dtype=bool),
        )
        np.testing.assert_array_equal(labels, np.zeros((3, 1)))

    def test_delegates_to_batched_scipy_bitwise(self, numpy_backend):
        rng = np.random.default_rng(11)
        n_nodes, n_edges, n_worlds = 20, 40, 8
        src = rng.integers(0, n_nodes, n_edges)
        dst = rng.integers(0, n_nodes, n_edges)
        masks = rng.random((n_worlds, n_edges)) < 0.4
        np.testing.assert_array_equal(
            kernels.masked_component_labels(n_nodes, src, dst, masks),
            _batched_labels_chunked(n_nodes, src, dst, masks),
        )


class TestRegistry:
    def test_backend_listing(self):
        assert KERNEL_BACKENDS == ("numba", "numpy")
        assert kernels.active_backend() in KERNEL_BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="kernel backend"):
            kernels.use("cuda")

    @pytest.mark.skipif(kernels.numba_available(),
                        reason="numba installed; unavailability path moot")
    def test_explicit_numba_request_raises_without_numba(self):
        with pytest.raises(ConfigurationError, match="unavailable"):
            kernels.use("numba")

    def test_use_returns_previous_and_round_trips(self):
        previous = kernels.use("numpy")
        try:
            assert kernels.active_backend() == "numpy"
        finally:
            assert kernels.use(previous) == "numpy"
        assert kernels.active_backend() == previous

    def test_capabilities_shape(self):
        caps = kernels.kernel_capabilities()
        assert caps["backend"] == kernels.active_backend()
        assert caps["numba_available"] == kernels.numba_available()
        assert set(caps["kernels"]) == set(KERNEL_NAMES)
        assert caps["kernels"]["truncnorm_transform"] == "shared"
        assert caps["usable_cpus"] >= 1
        assert caps["cpu_count"] >= 1

    def test_execution_environment_is_json_serializable(self):
        import json

        from repro.core import execution_environment

        env = execution_environment()
        decoded = json.loads(json.dumps(env))
        assert decoded["kernels"]["backend"] == kernels.active_backend()


@pytest.mark.skipif(not kernels.numba_available(),
                    reason="numba not installed; compiled leg runs in CI")
class TestNumbaBitEquality:
    """With numba installed: the compiled kernels must equal the
    fallback bit for bit, on the same adversarial inputs."""

    def _both(self, name, *args):
        previous = kernels.use("numpy")
        try:
            expected = getattr(kernels, name)(*args)
            kernels.use("numba")
            got = getattr(kernels, name)(*args)
        finally:
            kernels.use(previous)
        return got, expected

    @settings(max_examples=50, deadline=None)
    @given(p=st.lists(probabilities, min_size=0, max_size=64))
    def test_poisson_binomial_pmf(self, p):
        got, expected = self._both("poisson_binomial_pmf", np.asarray(p))
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_rethreshold_masks(self, seed):
        rng = np.random.default_rng(seed)
        n_worlds, n_edges = int(rng.integers(1, 16)), int(rng.integers(1, 12))
        uniforms = rng.random((n_worlds, n_edges))
        base_p = rng.random(n_edges)
        cols = rng.choice(n_edges, size=int(rng.integers(1, n_edges + 1)),
                          replace=False)
        new_p = rng.random(cols.size)
        args = (uniforms, uniforms < base_p, cols, new_p)
        (cols_a, dirty_a), (cols_b, dirty_b) = self._both(
            "rethreshold_masks", *args
        )
        np.testing.assert_array_equal(cols_a, cols_b)
        np.testing.assert_array_equal(dirty_a, dirty_b)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_masked_component_labels(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(1, 24))
        n_edges = int(rng.integers(0, n_nodes * 2 + 1))
        src = rng.integers(0, n_nodes, n_edges)
        dst = rng.integers(0, n_nodes, n_edges)
        masks = rng.random((int(rng.integers(1, 8)), n_edges)) < 0.5
        got, expected = self._both(
            "masked_component_labels", n_nodes, src, dst, masks
        )
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
