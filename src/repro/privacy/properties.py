"""Generic vertex-property framework for (k, epsilon)-obfuscation.

Definition 3 is stated for an arbitrary vertex property ``P``; the paper
instantiates it with vertex degree (the standard adversary assumption
[24]).  This module makes the property pluggable so the same obfuscation
machinery covers stronger adversaries:

* :class:`DegreeProperty` -- the paper's property.  Exact: the degree of
  a vertex is Poisson-binomial with a closed-form pmf.
* :class:`NeighborhoodDegreeProperty` -- the adversary knows the total
  degree of the target's neighborhood (a 2-hop signal, strictly more
  identifying).  Estimated by world sampling.
* :class:`ComponentSizeProperty` -- the adversary knows the size of the
  target's connected component (a global signal).  Estimated by world
  sampling.

A property must provide (a) the adversary's knowledge value per vertex
on the *original* graph and (b) the per-vertex distribution of the
property on a *published* graph -- the generalized degree-uncertainty
matrix whose normalized columns are the ``Y_w`` of Definition 3.

:func:`check_obfuscation_for_property` is the generalized Definition 3;
``check_obfuscation`` in :mod:`repro.privacy.obfuscation` remains the
fast degree-specialized path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels
from .._rng import as_generator
from ..exceptions import ObfuscationError
from ..ugraph.graph import UncertainGraph
from ..ugraph.worlds import sample_edge_masks
from .entropy import column_entropies
from .degree_distribution import degree_uncertainty_matrix, expected_degree_knowledge
from .obfuscation import ObfuscationReport

__all__ = [
    "VertexProperty",
    "DegreeProperty",
    "NeighborhoodDegreeProperty",
    "ComponentSizeProperty",
    "check_obfuscation_for_property",
]


class VertexProperty:
    """Interface for adversary-observable vertex properties.

    Subclasses implement :meth:`knowledge` (what the adversary reads off
    the original graph) and :meth:`distribution_matrix` (the probability
    of each property value per vertex in a published graph).  Property
    values are non-negative integers (continuous properties should be
    discretized by the subclass).
    """

    name = "abstract"

    def knowledge(self, graph: UncertainGraph) -> np.ndarray:
        """Per-vertex property values the adversary knows, ``(n,)`` ints."""
        raise NotImplementedError

    def distribution_matrix(self, graph: UncertainGraph) -> np.ndarray:
        """Matrix ``M[u, w] = Pr[P(u) = w]`` over the published graph."""
        raise NotImplementedError


class DegreeProperty(VertexProperty):
    """The paper's property: vertex degree (exact Poisson-binomial)."""

    name = "degree"

    def knowledge(self, graph: UncertainGraph) -> np.ndarray:
        return expected_degree_knowledge(graph)

    def distribution_matrix(self, graph: UncertainGraph) -> np.ndarray:
        return degree_uncertainty_matrix(graph)


@dataclass
class _SampledProperty(VertexProperty):
    """Base for properties whose distribution is estimated by sampling."""

    n_samples: int = 500
    seed: "int | None" = None

    def _per_world_values(
        self, graph: UncertainGraph, src: np.ndarray, dst: np.ndarray
    ) -> np.ndarray:
        """Integer property value per vertex for one realized world."""
        raise NotImplementedError

    def knowledge(self, graph: UncertainGraph) -> np.ndarray:
        matrix = self.distribution_matrix(graph)
        # The adversary's point knowledge: the modal property value.
        return matrix.argmax(axis=1).astype(np.int64)

    def distribution_matrix(self, graph: UncertainGraph) -> np.ndarray:
        rng = as_generator(self.seed)
        masks = sample_edge_masks(graph, self.n_samples, seed=rng)
        src_all, dst_all = graph.edge_src, graph.edge_dst
        per_world = np.empty((self.n_samples, graph.n_nodes), dtype=np.int64)
        for i in range(self.n_samples):
            keep = masks[i]
            per_world[i] = self._per_world_values(
                graph, src_all[keep], dst_all[keep]
            )
        width = int(per_world.max(initial=0)) + 1
        matrix = np.zeros((graph.n_nodes, width), dtype=np.float64)
        for v in range(graph.n_nodes):
            counts = np.bincount(per_world[:, v], minlength=width)
            matrix[v] = counts / self.n_samples
        return matrix


class NeighborhoodDegreeProperty(_SampledProperty):
    """Sum of realized degrees over the closed neighborhood of a vertex.

    A strictly more identifying adversary signal than plain degree: two
    vertices of equal degree are distinguished by how connected their
    neighbors are.
    """

    name = "neighborhood-degree"

    def _per_world_values(self, graph, src, dst) -> np.ndarray:
        n = graph.n_nodes
        degree = np.zeros(n, dtype=np.int64)
        np.add.at(degree, src, 1)
        np.add.at(degree, dst, 1)
        total = degree.copy()
        np.add.at(total, src, degree[dst])
        np.add.at(total, dst, degree[src])
        return total


class ComponentSizeProperty(_SampledProperty):
    """Size of the vertex's connected component in the realized world."""

    name = "component-size"

    def _per_world_values(self, graph, src, dst) -> np.ndarray:
        everything = np.ones((1, src.shape[0]), dtype=bool)
        labels = kernels.masked_component_labels(
            graph.n_nodes, src, dst, everything
        )[0]
        sizes = np.bincount(labels)
        return sizes[labels].astype(np.int64)


def check_obfuscation_for_property(
    published: UncertainGraph,
    k: int,
    epsilon: float,
    vertex_property: VertexProperty,
    knowledge: np.ndarray | None = None,
) -> ObfuscationReport:
    """Definition 3 generalized to any :class:`VertexProperty`.

    ``knowledge`` defaults to the property values extracted from the
    published graph itself; pass values extracted from the *original*
    graph when evaluating an anonymization.
    """
    if k < 1:
        raise ObfuscationError(f"k must be >= 1, got {k}")
    if not 0.0 <= epsilon < 1.0:
        raise ObfuscationError(f"epsilon must be in [0, 1), got {epsilon}")
    if knowledge is None:
        knowledge = vertex_property.knowledge(published)
    knowledge = np.asarray(knowledge, dtype=np.int64)
    if knowledge.shape != (published.n_nodes,):
        raise ObfuscationError(
            f"knowledge has shape {knowledge.shape}, expected "
            f"({published.n_nodes},)"
        )
    if knowledge.size and knowledge.min() < 0:
        raise ObfuscationError("property knowledge must be non-negative")

    matrix = vertex_property.distribution_matrix(published)
    profile = column_entropies(matrix)
    width = int(knowledge.max(initial=0))
    padded = np.full(max(width + 1, profile.shape[0]), np.inf)
    padded[: profile.shape[0]] = profile

    entropies = padded[knowledge]
    obfuscated = entropies >= np.log2(k)
    n = obfuscated.size
    epsilon_achieved = float((n - obfuscated.sum()) / n) if n else 0.0
    return ObfuscationReport(
        k=int(k),
        epsilon=float(epsilon),
        entropies=entropies,
        obfuscated=obfuscated,
        epsilon_achieved=epsilon_achieved,
    )
