"""Workload definitions and seeded input generation for the benchmark.

Every workload runs the default RSME ``ChameleonConfig`` (c = 1.3, 5
trials, 400 relevance samples, serial trial backend) against inputs that
are generated here from the ``--seed`` argument, written as edge-list
files, and read back by the program with ``repro.ugraph.read_edge_list``.
Generation happens once per (workload, seed) and never inside a timed
region; see NOTES.md for why each workload exists.

``repro`` is imported lazily so the orchestrator can fail cleanly when
the checkout holds no program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Where generated inputs and trace files live, relative to the checkout.
STATE_DIR = ".perfbench"


@dataclass(frozen=True)
class AnonymizeWorkload:
    """One ``anonymize()`` call per operation on a dataset stand-in.

    Each call takes the next of the ``inputs`` graphs drawn from the seed
    (cycling when a run gets through all of them), so the run's median
    averages over many inputs' sigma searches instead of following one.
    A run makes at least ``min_calls`` untraced calls.
    """

    name: str
    profile: str
    n_nodes: int
    k: int
    epsilon: float
    utility_samples: int
    inputs: int
    min_calls: int


@dataclass(frozen=True)
class StreamWorkload:
    """Chained ``UpdateBatch``es applied by an ``IncrementalRecertifier``.

    ``min_batches`` keeps at least ten latency samples beyond p90;
    ``verify_every`` sets how often a certificate is re-derived from a
    fresh degree cache (the last batch is always verified).
    """

    name: str
    profile: str
    n_nodes: int
    k: int
    epsilon: float
    worlds: int
    batch_fraction: float
    min_batches: int
    verify_every: int
    inputs = 1


WORKLOADS = {
    spec.name: spec
    for spec in (
        # A target most unperturbed inputs fail, so the sigma search has
        # real work to do, and that the search meets on every input tried
        # (NOTES.md).  Graphs are small enough for a dozen or more calls
        # in a run (2-4 s each).
        AnonymizeWorkload("anon-dense-utility", "ppi", 320, 40, 0.04, 400,
                          inputs=24, min_calls=8),
        # A target the published graph meets, so drift batches never
        # trigger the repair ladder (which fails on this input; NOTES.md).
        StreamWorkload("update-stream", "brightkite", 12000, 10, 0.05,
                       worlds=100, batch_fraction=0.005, min_batches=100,
                       verify_every=50),
    )
}


def stand_in(profile_name: str, n_nodes: int, seed):
    """A dataset stand-in with the named profile's degree and probability
    model, built in O(|V| + |E|).

    ``repro.datasets`` draws a Chung-Lu graph pair by pair, which is
    O(|V|^2) (about 16 s at 30k vertices).  Here the expected-degree
    weights are the profile's power law taken at evenly spaced quantiles
    -- so every seed has the same degree profile and the (k, epsilon)
    check, whose cost follows the degree sequence, does comparable work
    across seeds -- and edges are drawn as ``Poisson(sum w / 2)`` endpoint
    pairs proportional to weight (the Norros-Reittu form of Chung-Lu),
    then deduplicated.  The seed picks the vertex order, the edges and
    their probabilities.
    """
    from repro.datasets.probability_models import probability_model
    from repro.datasets.profiles import PROFILES
    from repro.ugraph import UncertainGraph

    profile = PROFILES[profile_name]
    rng = np.random.default_rng(seed)
    a = 1.0 - profile.degree_exponent
    low = profile.mean_degree / 2.0
    high = low * np.sqrt(n_nodes)
    quantiles = (np.arange(n_nodes) + 0.5) / n_nodes
    weights = (low**a + quantiles * (high**a - low**a)) ** (1.0 / a)
    weights *= profile.mean_degree / weights.mean()
    weights = weights[rng.permutation(n_nodes)]

    cdf = np.cumsum(weights) / weights.sum()
    draws = rng.poisson(weights.sum() / 2.0)
    us = np.minimum(np.searchsorted(cdf, rng.random(draws), side="right"),
                    n_nodes - 1)
    vs = np.minimum(np.searchsorted(cdf, rng.random(draws), side="right"),
                    n_nodes - 1)
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    keys = np.unique(lo[lo != hi].astype(np.int64) * n_nodes + hi[lo != hi])
    keys = keys[rng.permutation(keys.size)]
    probabilities = probability_model(
        profile.probability_model, keys.size, seed=rng
    )
    return UncertainGraph(
        n_nodes,
        list(zip((keys // n_nodes).tolist(), (keys % n_nodes).tolist(),
                 probabilities.tolist())),
    )


def ensure_inputs(root: Path, workload: str, seed: int) -> list[Path]:
    """Write the (workload, seed) input files unless they already exist."""
    from repro.ugraph import write_edge_list

    spec = WORKLOADS[workload]
    paths = []
    for i in range(spec.inputs):
        path = (root / STATE_DIR / "inputs"
                / f"{workload}-{spec.n_nodes}-{seed}-{i}.edges")
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            partial = path.with_suffix(f".{os.getpid()}.partial")
            graph = stand_in(spec.profile, spec.n_nodes, [seed, i])
            write_edge_list(graph, partial)
            os.replace(partial, path)
        paths.append(path)
    return paths


class UpdateClient:
    """The closed-loop client of ``update-stream``.

    It keeps its own copy of every pair's probability, so each batch's
    ``p_old`` column and the expected published probabilities come from
    the client, not from the program under test.  A batch is mostly
    Gaussian drift on existing pairs plus a quarter of new pairs, as in
    ``benchmarks/bench_incremental_update.py``.
    """

    def __init__(self, graph, seed: int):
        self._rng = np.random.default_rng([seed, 1])
        self._n = graph.n_nodes
        self.us = graph.edge_src.astype(np.int64)
        self.vs = graph.edge_dst.astype(np.int64)
        self.probs = graph.edge_probabilities.astype(np.float64)
        self._index = {
            (u, v): i for i, (u, v) in
            enumerate(zip(self.us.tolist(), self.vs.tolist()))
        }

    def next_batch(self, n_updates: int):
        """Delta arrays ``(us, vs, p_old, p_new)`` for the next batch."""
        rng = self._rng
        n_drift = (3 * n_updates) // 4
        ids = rng.choice(self.us.size, size=n_drift, replace=False)
        us = self.us[ids].tolist()
        vs = self.vs[ids].tolist()
        p_old = self.probs[ids].tolist()
        p_new = np.clip(
            self.probs[ids] + rng.normal(0.0, 0.15, size=n_drift), 0.0, 1.0
        ).tolist()
        fresh: set[tuple[int, int]] = set()
        while len(us) < n_updates:
            u, v = sorted(int(x) for x in rng.integers(0, self._n, size=2))
            if u == v or (u, v) in self._index or (u, v) in fresh:
                continue
            fresh.add((u, v))
            us.append(u)
            vs.append(v)
            p_old.append(0.0)
            p_new.append(float(rng.uniform(0.05, 0.5)))
        return us, vs, p_old, p_new

    def view(self):
        """A copy of the client's ``(us, vs, probs)``."""
        return self.us.copy(), self.vs.copy(), self.probs.copy()

    def commit(self, us, vs, p_new) -> None:
        """Record an applied batch as the client's view of the graph."""
        grown_u, grown_v, grown_p = [], [], []
        for u, v, p in zip(us, vs, p_new):
            i = self._index.get((u, v))
            if i is None:
                self._index[(u, v)] = self.us.size + len(grown_u)
                grown_u.append(u)
                grown_v.append(v)
                grown_p.append(p)
            else:
                self.probs[i] = p
        if grown_u:
            self.us = np.concatenate([self.us, grown_u])
            self.vs = np.concatenate([self.vs, grown_v])
            self.probs = np.concatenate([self.probs, grown_p])
