"""Syntactic privacy machinery for uncertain graphs.

* :mod:`repro.privacy.degree_distribution` -- Poisson-binomial degree
  pmfs and the degree-uncertainty matrix.
* :func:`check_obfuscation` -- the (k, epsilon)-obfuscation criterion
  (Definition 3).
* :class:`DegreeUncertaintyCache` -- the incremental, delta-based
  obfuscation checker GenObf's trial loop runs on.
* :func:`degree_uniqueness` -- kernel-density uniqueness scores
  (Definition 4).
* :mod:`repro.privacy.attack` -- Bayesian degree-adversary simulation.
"""

from .attack import (
    attack_success_probabilities,
    expected_reidentification_rate,
    reidentification_posterior,
    top_candidate_hit_rate,
)
from .degree_distribution import (
    degree_entropy_per_vertex,
    degree_uncertainty_matrix,
    expected_degree_knowledge,
    incident_probability_lists,
    poisson_binomial_moments,
    poisson_binomial_pmf,
)
from .entropy import (
    column_entropies,
    effective_anonymity,
    normal_differential_entropy,
    shannon_entropy,
)
from .incremental import DegreeUncertaintyCache
from .obfuscation import (
    ObfuscationReport,
    check_obfuscation,
    column_entropy_profile,
    report_from_entropy_profile,
)
from .properties import (
    ComponentSizeProperty,
    DegreeProperty,
    NeighborhoodDegreeProperty,
    VertexProperty,
    check_obfuscation_for_property,
)
from .link_privacy import (
    LinkPrivacyReport,
    link_disclosure_confidence,
    link_privacy_report,
)
from .sequential import (
    composed_attack_success,
    composed_entropy,
    composed_posterior,
    composition_report,
)
from .uniqueness import (
    commonness_scores,
    default_bandwidth,
    degree_uniqueness,
    uniqueness_scores,
)

__all__ = [
    "poisson_binomial_pmf",
    "poisson_binomial_moments",
    "incident_probability_lists",
    "degree_uncertainty_matrix",
    "degree_entropy_per_vertex",
    "expected_degree_knowledge",
    "shannon_entropy",
    "column_entropies",
    "normal_differential_entropy",
    "effective_anonymity",
    "ObfuscationReport",
    "check_obfuscation",
    "column_entropy_profile",
    "report_from_entropy_profile",
    "DegreeUncertaintyCache",
    "commonness_scores",
    "uniqueness_scores",
    "degree_uniqueness",
    "default_bandwidth",
    "reidentification_posterior",
    "attack_success_probabilities",
    "expected_reidentification_rate",
    "top_candidate_hit_rate",
    "VertexProperty",
    "DegreeProperty",
    "NeighborhoodDegreeProperty",
    "ComponentSizeProperty",
    "check_obfuscation_for_property",
    "composed_posterior",
    "composed_attack_success",
    "composed_entropy",
    "composition_report",
    "link_disclosure_confidence",
    "link_privacy_report",
    "LinkPrivacyReport",
]
