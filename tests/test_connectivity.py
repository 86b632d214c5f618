"""Unit tests for batch connectivity over sampled worlds."""

import numpy as np
import pytest

from repro._oracles import per_world_component_labels
from repro.reliability import (
    batch_component_labels,
    batch_pair_counts,
    connectivity,
    pair_counts_from_labels,
    resolve_worker_count,
)
from repro.ugraph import UncertainGraph, sample_edge_masks


def _one_world(n, src, dst, method="scipy"):
    everything = np.ones((1, len(src)), dtype=bool)
    return per_world_component_labels(
        n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
        everything, method=method,
    )[0]


def test_world_labels_empty_edge_set():
    for method in ("scipy", "union-find"):
        labels = _one_world(4, [], [], method)
        assert sorted(labels.tolist()) == [0, 1, 2, 3]


def test_world_labels_path():
    for method in ("scipy", "union-find"):
        labels = _one_world(4, [0, 1], [1, 2], method)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] != labels[0]


def test_backends_agree():
    """Both per-world oracles and the batched engine: one partition."""
    rng = np.random.default_rng(5)
    n = 30
    src, dst = [], []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.08:
                src.append(u)
                dst.append(v)
    a = _one_world(n, src, dst, "scipy")
    b = _one_world(n, src, dst, "union-find")
    graph = UncertainGraph(n, [(u, v, 1.0) for u, v in zip(src, dst)])
    c = batch_component_labels(graph, np.ones((1, len(src)), dtype=bool))[0]
    # Labelings must induce the same partition.
    for labels in (b, c):
        np.testing.assert_array_equal(
            a[:, None] == a[None, :], labels[:, None] == labels[None, :]
        )


def test_unknown_backend_rejected(triangle):
    """The engine takes no backend knob; the oracle validates its method."""
    masks = sample_edge_masks(triangle, 2, seed=0)
    with pytest.raises(TypeError):
        batch_component_labels(triangle, masks, backend="scipy")
    with pytest.raises(ValueError, match="unknown labeling method"):
        per_world_component_labels(
            3, triangle.edge_src, triangle.edge_dst, masks, method="gpu"
        )


def test_batch_labels_shape(triangle):
    masks = sample_edge_masks(triangle, 20, seed=0)
    labels = batch_component_labels(triangle, masks)
    assert labels.shape == (20, 3)


def test_pair_counts_from_labels():
    labels = np.array([[0, 0, 1, 1], [0, 0, 0, 0], [0, 1, 2, 3]])
    counts = pair_counts_from_labels(labels)
    np.testing.assert_array_equal(counts, [2.0, 6.0, 0.0])


def test_batch_pair_counts_certain_graph(certain_square):
    masks = sample_edge_masks(certain_square, 10, seed=1)
    counts = batch_pair_counts(certain_square, masks)
    # The square is deterministic and connected: always C(4,2) = 6 pairs.
    np.testing.assert_array_equal(counts, np.full(10, 6.0))


def test_batch_labels_shape_mismatch_rejected(triangle):
    masks = np.zeros((5, triangle.n_edges + 1), dtype=bool)
    with pytest.raises(ValueError):
        batch_component_labels(triangle, masks)


def test_batched_backend_matches_loop(triangle):
    masks = sample_edge_masks(triangle, 25, seed=9)
    loop = per_world_component_labels(
        3, triangle.edge_src, triangle.edge_dst, masks
    )
    batched = batch_component_labels(triangle, masks)
    for i in range(masks.shape[0]):
        a, b = loop[i], batched[i]
        np.testing.assert_array_equal(
            a[:, None] == a[None, :], b[:, None] == b[None, :]
        )


def test_pair_counts_vectorized_matches_per_world_bincount():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=(17, 9)).astype(np.int32)
    # Renumber rows to the documented consecutive-ids contract.
    labels = np.stack([np.unique(row, return_inverse=True)[1] for row in labels])
    expected = np.array([
        float((np.bincount(row) * (np.bincount(row) - 1) // 2).sum())
        for row in labels
    ])
    np.testing.assert_array_equal(pair_counts_from_labels(labels), expected)


def test_pair_counts_empty_batch():
    assert pair_counts_from_labels(np.zeros((0, 5), dtype=np.int32)).shape == (0,)


def test_pool_follows_worker_setting(small_profile_graph, monkeypatch):
    """Above the threshold, ``REPRO_NUM_WORKERS`` (or the CPU count)
    decides: more than one worker fans out to the pool, whose labels
    equal the in-process ones bit for bit; one worker stays in process."""
    masks = sample_edge_masks(small_profile_graph, 12, seed=4)
    expected = batch_component_labels(small_profile_graph, masks)
    calls = []
    real = connectivity._process_labels

    def spy(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(connectivity, "_process_labels", spy)
    monkeypatch.setattr(connectivity, "AUTO_PROCESS_CELLS", 0)
    labels = batch_component_labels(small_profile_graph, masks)
    workers = resolve_worker_count()
    assert calls == ([workers] if workers > 1 else [])
    np.testing.assert_array_equal(labels, expected)
    calls.clear()
    batch_component_labels(small_profile_graph, masks, n_workers=1)
    assert calls == []

