"""Incremental (k, epsilon)-obfuscation checking for trial loops.

GenObf (Algorithm 3) evaluates the obfuscation criterion once per trial,
and the sigma search of Algorithm 1 runs GenObf dozens of times -- yet a
single trial perturbs only the candidate edge set ``E_C``, so only the
*endpoints* of perturbed edges change their degree pmfs.

:class:`DegreeUncertaintyCache` holds two structures for its base
graph: a CSR incident index (``indptr`` / ``indices``, int64, each
vertex's incident edge ids in ascending -- dense -- order) and the
degree-uncertainty matrix ``M[w, d] = Pr[deg(w) = d]``.  Every cache
path runs on the same arrays:

* **Delta parsing.**  A candidate is a delta of parallel arrays
  ``(u, v, p_old, p_new)``.  One vectorized pass canonicalizes the
  pairs, looks up their edge ids with one ``pair_edge_ids`` search,
  validates every entry (the first offending entry in delta order
  raises), writes the overrides of existing edges into one patched copy
  of the probability vector and keeps the delta-introduced pairs in
  delta order.
* **Row assembly.**  Each touched vertex's factor list -- its CSR
  gather of patched probabilities, then its new edges in delta order,
  zeros dropped -- is laid into one zero-padded matrix for all touched
  rows at once.
* **One DP.**  :func:`_pmf_rows` advances every row's Poisson-binomial
  DP together.  It builds the base matrix (every vertex, empty delta),
  answers :meth:`DegreeUncertaintyCache.check_edge_arrays` (touched
  rows, written into a copy of the matrix before the column entropies
  are re-derived) and patches the matrix in
  :meth:`DegreeUncertaintyCache.apply_edge_arrays`.

A check mutates nothing (it patches a copy of the matrix), so threads
may share one cache.  An apply rebinds the graph and the CSR index and
patches its own matrix rows in place; :meth:`DegreeUncertaintyCache.
clone` therefore copies the matrix and shares everything else, so a
clone's apply can never leak into the cache it came from.

Bit-identical guarantee
-----------------------
The cache reproduces exactly what the full pipeline would compute for
``overlay(base, delta)``:

* A touched vertex's factors are laid out in the order the candidate
  graph stores them (original edges in dense order, then new edges in
  delta order, zero probabilities filtered), so its DP multiplies the
  same float sequence as the per-row kernel.
* Zero padding is an exact IEEE no-op: a ``p = 0.0`` factor convolves
  with the kernel ``[1.0, 0.0]``, and multiplying by ``1.0``/``0.0``
  and adding ``0.0`` are exact, so a padded row equals the per-row pmf
  in its leading entries and is exactly ``0.0`` beyond.  Each DP step
  is the scalar kernel's two-term multiply-add, run across rows.
* Untouched rows are reused verbatim.
* The matrix may be *wider* than the candidate's; extra trailing
  all-zero columns have entropy ``+inf``, exactly the value
  :func:`~repro.privacy.obfuscation.report_from_entropy_profile` pads
  out-of-support knowledge with, so reports are unaffected.
* The final report is assembled by that same shared function.

Property tests in ``tests/test_incremental.py`` assert report equality
(entropies, mask, epsilon-hat -- all bitwise) against the full checker
across randomized graphs and deltas, and
``benchmarks/bench_obfuscation_check.py`` records the speedup on
GenObf-shaped workloads.  The full recompute is kept as a test oracle
in the package's private oracle module.
"""

from __future__ import annotations

import copy

import numpy as np

from ..exceptions import ObfuscationError
from ..ugraph.graph import UncertainGraph
from ..ugraph.operations import apply_edge_updates
from .degree_distribution import expected_degree_knowledge
from .entropy import column_entropies
from .obfuscation import ObfuscationReport, report_from_entropy_profile

__all__ = ["DegreeUncertaintyCache"]

_NO_IDS = np.zeros(0, dtype=np.int64)
_NO_PROBS = np.zeros(0, dtype=np.float64)


def _extend_incidence(
    indptr: np.ndarray,
    indices: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    first_id: int,
) -> tuple[np.ndarray, np.ndarray]:
    """A new CSR incident index with edges ``first_id, first_id + 1, ...``
    (endpoints ``src`` / ``dst``) appended.

    The new ids exceed every indexed id, so appending them at the end of
    their endpoints' segments keeps each segment ascending.  Building
    from an empty index gives the full index of a graph.
    """
    ends = np.column_stack([src, dst]).ravel()
    ids = np.repeat(np.arange(first_id, first_id + src.size), 2)
    order = np.argsort(ends, kind="stable")
    ends, ids = ends[order], ids[order]
    added = np.bincount(ends, minlength=indptr.size - 1)
    return (
        indptr + np.concatenate([[0], np.cumsum(added)]),
        np.insert(indices, indptr[ends + 1], ids),
    )


def _pmf_rows(factors: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Poisson-binomial pmfs of every row of a zero-padded factor matrix.

    Row ``i`` holds its ``sizes[i]`` factors in its leading entries and
    ``0.0`` beyond.  Returns ``(m, width + 1)`` rows, each equal to
    ``poisson_binomial_pmf(factors[i, :sizes[i]])`` in its leading
    ``sizes[i] + 1`` entries and exactly ``0.0`` after them (see the
    module docstring for why the padding is bitwise-exact).
    """
    m, width = factors.shape
    order = np.argsort(sizes, kind="stable")
    factors = factors[order]
    # Rows whose factor list is exhausted would only convolve with the
    # exact no-op kernel [1.0, 0.0]; ascending-size order makes the rows
    # still active at step j the suffix from active[j], so each step
    # touches exactly the work the per-row scalar DP would.
    active = np.searchsorted(sizes[order], np.arange(width), side="right")
    out = np.zeros((m, width + 1), dtype=np.float64)
    out[:, 0] = 1.0
    for j in range(width):
        # pmf[d] <- pmf[d] * q + pmf[d - 1] * p for d = 0..j + 1: the
        # two products and one sum of the two-tap convolution (the sum
        # commutes exactly, and 0.0 + pmf[j] * p is exact for d = j + 1).
        a = slice(int(active[j]), m)
        pj = factors[a, j : j + 1]
        shifted = out[a, : j + 1] * pj
        out[a, : j + 1] *= 1.0 - pj
        out[a, 1 : j + 2] += shifted
    unsorted = np.empty_like(out)
    unsorted[order] = out
    return unsorted


def _delta_arrays(us, vs, p_old, p_new):
    """The four delta columns as validated parallel 1-D arrays."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    p_old = np.asarray(p_old, dtype=np.float64)
    p_new = np.asarray(p_new, dtype=np.float64)
    if not (us.shape == vs.shape == p_old.shape == p_new.shape) \
            or us.ndim != 1:
        raise ObfuscationError(
            "delta arrays must be 1-D and parallel, got shapes "
            f"{us.shape} / {vs.shape} / {p_old.shape} / {p_new.shape}"
        )
    return us, vs, p_old, p_new


class DegreeUncertaintyCache:
    """Per-run cache answering delta-based (k, epsilon)-obfuscation checks.

    Parameters
    ----------
    graph:
        The base uncertain graph every delta is applied against (for
        GenObf: the graph being anonymized -- all trials at all sigma
        levels perturb this one graph).
    knowledge:
        Default adversary degree knowledge for :meth:`check_delta`.
        Defaults to the *base* graph's expected-degree knowledge, which
        is what anonymization checks against (note the difference from
        :func:`~repro.privacy.obfuscation.check_obfuscation`, whose
        default is extracted from the published candidate).
    """

    def __init__(
        self, graph: UncertainGraph, knowledge: np.ndarray | None = None
    ):
        self._bind(graph, knowledge)
        rows = np.arange(self._n, dtype=np.int64)
        self._matrix = self._pmfs(rows, graph.edge_probabilities)

    @classmethod
    def from_base_matrix(
        cls,
        graph: UncertainGraph,
        matrix: np.ndarray,
        knowledge: np.ndarray | None = None,
    ) -> "DegreeUncertaintyCache":
        """Rebuild a cache from an already-computed base pmf matrix.

        The Poisson-binomial DP over every vertex is the expensive part
        of construction; parallel trial workers skip it by receiving the
        parent cache's :attr:`base_matrix` through shared memory and
        re-deriving only the (cheap) CSR incident index.  ``matrix`` is
        copied, so the caller may release its buffer afterwards.
        """
        self = cls.__new__(cls)
        self._bind(graph, knowledge)
        matrix = np.array(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != self._n:
            raise ObfuscationError(
                f"base matrix has shape {matrix.shape}, expected "
                f"({self._n}, width)"
            )
        self._matrix = matrix
        return self

    def _bind(self, graph: UncertainGraph, knowledge) -> None:
        """Set the graph, the validated knowledge and the CSR index."""
        self._graph = graph
        self._n = graph.n_nodes
        if knowledge is None:
            knowledge = expected_degree_knowledge(graph)
        self._knowledge = np.asarray(knowledge, dtype=np.int64)
        if self._knowledge.shape != (self._n,):
            raise ObfuscationError(
                f"knowledge has shape {self._knowledge.shape}, expected "
                f"({self._n},)"
            )
        self._indptr, self._indices = _extend_incidence(
            np.zeros(self._n + 1, dtype=np.int64), _NO_IDS,
            graph.edge_src, graph.edge_dst, 0,
        )

    def clone(self) -> "DegreeUncertaintyCache":
        """An independent cache answering identical checks.

        :meth:`apply_edge_arrays` moves the cache to the patched graph,
        so the server's warm registry hands each job a clone.  The pmf
        matrix -- the one array an apply writes in place -- is copied;
        the graph, knowledge and CSR index are never mutated (an apply
        rebinds them) and are shared.
        """
        clone = copy.copy(self)
        clone._matrix = self._matrix.copy()
        return clone

    @property
    def graph(self) -> UncertainGraph:
        return self._graph

    @property
    def knowledge(self) -> np.ndarray:
        return self._knowledge

    @property
    def base_matrix(self) -> np.ndarray:
        """The base graph's degree-pmf matrix (treat as read-only).

        Publishing this to :meth:`from_base_matrix` reproduces the cache
        without rerunning the per-vertex DP -- both caches then answer
        every :meth:`check_delta` bit-identically.
        """
        return self._matrix

    def _parse_delta(self, us, vs, p_old, p_new):
        """Validate a delta and split it into its effect on the base graph.

        Returns ``(prob, new_lo, new_hi, new_p, touched)``: a copy of the
        base probabilities with existing-edge overrides applied, the
        delta-introduced pairs (canonical endpoints and probabilities)
        in delta order, and the sorted vertices whose pmf changes.
        No-op entries (``p_new == p_old``) are dropped.  The first
        offending entry in delta order raises; within one entry the
        checks fire as self-loop, out of range, duplicate, bad
        ``p_new``, stale ``p_old``.
        """
        n = self._n
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        ids = self._graph.pair_edge_ids(lo, hi)
        hit = ids >= 0
        base = self._graph.edge_probabilities
        stored = np.zeros(us.shape, dtype=np.float64)
        stored[hit] = base[ids[hit]]
        __, first, inverse = np.unique(
            lo * n + hi, return_index=True, return_inverse=True
        )
        checks = (
            us == vs,
            (lo < 0) | (hi >= n),
            first[inverse] != np.arange(us.size),
            ~((p_new >= 0.0) & (p_new <= 1.0)),
            p_old != stored,
        )
        bad = np.logical_or.reduce(checks)
        if bad.any():
            i = int(np.argmax(bad))
            u, v = int(us[i]), int(vs[i])
            pair = (int(lo[i]), int(hi[i]))
            messages = (
                f"delta contains self-loop on vertex {u}",
                f"delta edge ({u}, {v}) references a vertex outside "
                f"0..{n - 1}",
                f"duplicate delta entry for edge {pair}",
                f"delta edge {pair} has probability {float(p_new[i])!r}, "
                "expected a finite value in [0, 1]",
                f"stale delta: edge {pair} has base probability "
                f"{float(stored[i])!r}, delta claims {float(p_old[i])!r}",
            )
            raise ObfuscationError(
                next(m for check, m in zip(checks, messages) if check[i])
            )
        change = p_new != p_old
        prob = base.copy()
        prob[ids[change & hit]] = p_new[change & hit]
        fresh = change & ~hit
        touched = np.unique(np.concatenate([lo[change], hi[change]]))
        return prob, lo[fresh], hi[fresh], p_new[fresh], touched

    def _pmfs(
        self,
        rows: np.ndarray,
        prob: np.ndarray,
        new_lo: np.ndarray = _NO_IDS,
        new_hi: np.ndarray = _NO_IDS,
        new_p: np.ndarray = _NO_PROBS,
    ) -> np.ndarray:
        """Degree pmfs of the sorted vertices ``rows`` under ``prob`` plus
        the delta-introduced edges, through one padded DP.

        Row ``i``'s factors are ``prob`` over the incident edges of
        ``rows[i]`` in CSR (dense) order, then its new edges in delta
        order, zeros dropped -- the sequence
        ``incident_probability_lists`` yields for the candidate graph.
        """
        starts = self._indptr[rows]
        counts = self._indptr[rows + 1] - starts
        offsets = np.cumsum(counts) - counts
        flat = np.arange(int(counts.sum())) + np.repeat(
            starts - offsets, counts
        )
        # Each new edge feeds both endpoints; interleaving the endpoints
        # keeps delta order within a row through the stable sort below.
        ends = np.column_stack([new_lo, new_hi]).ravel()
        owner = np.concatenate([
            np.repeat(np.arange(rows.size), counts),
            np.searchsorted(rows, ends),
        ])
        vals = np.concatenate(
            [prob[self._indices[flat]], np.repeat(new_p, 2)]
        )
        keep = vals > 0.0
        order = np.argsort(owner[keep], kind="stable")
        owner, vals = owner[keep][order], vals[keep][order]
        sizes = np.bincount(owner, minlength=rows.size)
        position = np.arange(owner.size) - np.repeat(
            np.cumsum(sizes) - sizes, sizes
        )
        factors = np.zeros((rows.size, int(sizes.max(initial=0))))
        factors[owner, position] = vals
        return _pmf_rows(factors, sizes)

    def _patched(
        self, rows: np.ndarray, pmfs: np.ndarray, in_place: bool = False
    ) -> np.ndarray:
        """The matrix with ``rows`` replaced by ``pmfs``: a copy, widened
        if ``pmfs`` needs it, unless ``in_place`` and the width fits."""
        if rows.size == 0:
            return self._matrix
        n, width = self._matrix.shape
        if in_place and pmfs.shape[1] <= width:
            matrix = self._matrix
        else:
            matrix = np.zeros((n, max(width, pmfs.shape[1])))
            matrix[:, :width] = self._matrix
        matrix[rows, pmfs.shape[1]:] = 0.0
        matrix[rows, : pmfs.shape[1]] = pmfs
        return matrix

    def _check(self, us, vs, p_old, p_new, k, epsilon, knowledge):
        prob, new_lo, new_hi, new_p, touched = self._parse_delta(
            us, vs, p_old, p_new
        )
        matrix = self._patched(
            touched, self._pmfs(touched, prob, new_lo, new_hi, new_p)
        )
        return self._report(matrix, k, epsilon, knowledge)

    def _report(self, matrix, k, epsilon, knowledge) -> ObfuscationReport:
        if knowledge is None:
            knowledge = self._knowledge
        return report_from_entropy_profile(
            column_entropies(matrix), knowledge, k, epsilon, n_nodes=self._n
        )

    def check_delta(
        self,
        delta,
        k: int,
        epsilon: float,
        knowledge: np.ndarray | None = None,
    ) -> ObfuscationReport:
        """Evaluate Definition 3 for ``overlay(base, delta)``.

        ``delta`` is an iterable of ``(u, v, p_old, p_new)`` tuples;
        ``p_old`` must match the base graph (a mismatch means the caller
        holds a stale view and raises).  The returned report is
        bit-identical to ``check_obfuscation`` on the materialized
        candidate.  The cache is left unchanged, so consecutive calls
        are independent.
        """
        columns = tuple(zip(*delta)) or ((), (), (), ())
        return self._check(*_delta_arrays(*columns), k, epsilon, knowledge)

    def check_edge_arrays(
        self,
        us: np.ndarray,
        vs: np.ndarray,
        p_old: np.ndarray,
        p_new: np.ndarray,
        k: int,
        epsilon: float,
        knowledge: np.ndarray | None = None,
    ) -> ObfuscationReport:
        """:meth:`check_delta` over parallel delta arrays.

        The GenObf trial path describes a candidate as four parallel
        arrays (endpoints, base probabilities, perturbed probabilities);
        the same arrays drive both the obfuscation check and -- through
        :func:`repro.ugraph.operations.apply_edge_updates` -- the
        materialization of a winning candidate, with no per-pair
        generator overlays in between.
        """
        return self._check(
            *_delta_arrays(us, vs, p_old, p_new), k, epsilon, knowledge
        )

    def check_base(
        self, k: int, epsilon: float, knowledge: np.ndarray | None = None
    ) -> ObfuscationReport:
        """The empty-delta check: the base graph itself."""
        return self._report(self._matrix, k, epsilon, knowledge)

    def apply_edge_arrays(
        self,
        us: np.ndarray,
        vs: np.ndarray,
        p_old: np.ndarray,
        p_new: np.ndarray,
    ) -> UncertainGraph:
        """*Permanently* apply a delta: the cache now answers for the
        patched graph.

        The streaming re-certification pipeline accepts an update batch
        as its new published truth, so unlike :meth:`check_delta` the
        touched pmf rows are kept and the cache's base graph is rebound
        to ``apply_edge_updates(graph, us, vs, p_new)``.  Returns the
        patched graph.

        Bit-identical guarantee: after the apply, every answer equals a
        freshly built ``DegreeUncertaintyCache(patched, knowledge)``.
        ``apply_edge_updates`` keeps existing edges at their dense ids
        and appends fresh pairs, so the CSR index grows by appending the
        new ids to their endpoints' segments; a touched vertex's pmf is
        then recomputed over the exact incident float sequence the
        patched graph stores; untouched rows keep their floats; the
        matrix may only be *wider*.  The knowledge vector is
        deliberately kept: the adversary's degree observations predate
        the update.
        """
        us, vs, p_old, p_new = _delta_arrays(us, vs, p_old, p_new)
        *__, touched = self._parse_delta(us, vs, p_old, p_new)
        before = self._graph.n_edges
        patched = apply_edge_updates(self._graph, us, vs, p_new)
        self._indptr, self._indices = _extend_incidence(
            self._indptr, self._indices,
            patched.edge_src[before:], patched.edge_dst[before:], before,
        )
        self._graph = patched
        self._matrix = self._patched(
            touched, self._pmfs(touched, patched.edge_probabilities),
            in_place=True,
        )
        return patched
