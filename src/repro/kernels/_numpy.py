"""Pure-NumPy kernel implementations (the always-available fallback).

These are the bit-compatibility references: the numba backend must
reproduce every function here exactly (asserted by
``tests/test_kernels.py``).  Where bit-parity cannot be engineered --
transcendental-heavy math -- the implementation lives in
:mod:`repro.kernels._shared` and is registered under both backends
instead of being duplicated.

Argument validation happens in the public call sites
(``repro.privacy.degree_distribution`` etc.), never here: kernels assume
clean inputs so both backends run the same unguarded hot path.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ._shared import truncnorm_transform

__all__ = [
    "poisson_binomial_pmf",
    "rethreshold_masks",
    "masked_component_labels",
    "truncnorm_transform",
]

#: Soft cap on block-diagonal size: the batched labeling splits the world
#: batch so one stacked adjacency never exceeds this many virtual nodes.
_BATCH_NODE_LIMIT = 4_000_000


def poisson_binomial_pmf(p: np.ndarray) -> np.ndarray:
    """Exact Poisson-binomial pmf by the ``O(d^2)`` convolution DP.

    Each step convolves with the two-tap kernel ``[1 - p_i, p_i]``; a
    two-term IEEE sum is order-independent, which is what lets the numba
    backend's in-place loop match this bitwise.
    """
    pmf = np.ones(1, dtype=np.float64)
    for pi in p:
        pmf = np.convolve(pmf, (1.0 - pi, pi))
    return pmf


def rethreshold_masks(
    uniforms: np.ndarray,
    base_masks: np.ndarray,
    cols: np.ndarray,
    new_p: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Re-threshold changed columns and find the dirty worlds.

    Returns ``(new_cols, dirty)``: the ``(N, len(cols))`` boolean
    realization of the changed columns under their new probabilities,
    and the int64 row indices where any changed edge flipped relative to
    ``base_masks``.  Pure comparisons -- exact on every backend.
    """
    new_cols = uniforms[:, cols] < new_p
    flipped = new_cols != base_masks[:, cols]
    return new_cols, np.flatnonzero(flipped.any(axis=1))


def _renumber_rows(labels: np.ndarray, n_components: int) -> np.ndarray:
    """Map global block-diagonal component ids to per-row consecutive ids.

    ``labels`` is ``(N, n_nodes)`` holding globally unique component ids
    (components never span worlds); each row is relabeled to
    ``0 .. c_row - 1`` in ascending global-id order, fully vectorized.
    """
    n_samples, n_nodes = labels.shape
    comp_row = np.empty(n_components, dtype=np.int64)
    comp_row[labels.ravel()] = np.repeat(
        np.arange(n_samples, dtype=np.int64), n_nodes
    )
    per_row = np.bincount(comp_row, minlength=n_samples)
    order = np.argsort(comp_row, kind="stable")
    row_starts = np.repeat(np.cumsum(per_row) - per_row, per_row)
    renumbered = np.empty(n_components, dtype=np.int32)
    renumbered[order] = (np.arange(n_components) - row_starts).astype(np.int32)
    return renumbered[labels]


def _batched_labels(
    n_nodes: int, src: np.ndarray, dst: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Label a world batch with ONE block-diagonal ``connected_components``.

    World ``i``'s vertex ``v`` becomes virtual node ``i * n_nodes + v``;
    stacking every realized edge with that offset yields a single sparse
    graph whose components are exactly the per-world components.
    """
    n_samples = masks.shape[0]
    if n_samples == 0:
        return np.empty((0, n_nodes), dtype=np.int32)
    if n_nodes == 0:
        return np.empty((n_samples, 0), dtype=np.int32)
    world_idx, edge_idx = np.nonzero(masks)
    offsets = world_idx * n_nodes
    total = n_samples * n_nodes
    # csgraph works on int32 indices internally; building the CSR with
    # them up front avoids a 2x index-copy inside connected_components.
    index_dtype = np.int32 if total < np.iinfo(np.int32).max else np.int64
    rows = (src[edge_idx] + offsets).astype(index_dtype, copy=False)
    cols = (dst[edge_idx] + offsets).astype(index_dtype, copy=False)
    data = np.ones(rows.shape[0], dtype=np.int8)
    adjacency = csr_matrix((data, (rows, cols)), shape=(total, total))
    n_components, flat = connected_components(adjacency, directed=False)
    return _renumber_rows(flat.reshape(n_samples, n_nodes), n_components)


def _batched_labels_chunked(
    n_nodes: int, src: np.ndarray, dst: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Batched labeling, split so the stacked graph stays memory-bounded."""
    n_samples = masks.shape[0]
    if n_nodes == 0 or n_samples == 0:
        return np.empty((n_samples, n_nodes), dtype=np.int32)
    worlds_per_chunk = max(1, _BATCH_NODE_LIMIT // n_nodes)
    if n_samples <= worlds_per_chunk:
        return _batched_labels(n_nodes, src, dst, masks)
    parts = [
        _batched_labels(n_nodes, src, dst, masks[start:start + worlds_per_chunk])
        for start in range(0, n_samples, worlds_per_chunk)
    ]
    return np.concatenate(parts, axis=0)


def masked_component_labels(
    n_nodes: int, src: np.ndarray, dst: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Canonical per-world component labels for a mask batch.

    Canonical means: scanning vertices ``0 .. n-1``, a component receives
    the next consecutive id the first time one of its vertices appears.
    That is exactly what the block-diagonal scipy labeling produces
    (global component ids ascend with first appearance, and
    :func:`_renumber_rows` maps them to per-row consecutive ids in
    ascending order).
    """
    return _batched_labels_chunked(n_nodes, src, dst, masks)
