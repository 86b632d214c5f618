"""Incremental re-certification pipeline tests.

The load-bearing property (the ISSUE's oracle): after any sequence of
update batches -- and any adopted repair -- the incremental path's
``(k, epsilon)`` verdict and per-vertex entropy columns are
bit-identical to rebuilding every cache from the patched graph, across
{ram, memmap} x chunked x antithetic world-store configurations.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphFormatError, ObfuscationError
from repro.privacy import check_obfuscation
from repro.privacy.incremental import DegreeUncertaintyCache
from repro.reliability.worldstore import WorldStore, graph_delta
from repro.stream import (
    IncrementalRecertifier,
    RepairPolicy,
    UpdateBatch,
    read_update_file,
    repair_violations,
    write_update_file,
)
from repro.ugraph import UncertainGraph, read_edge_list, write_edge_list


def random_graph(seed: int, n: int = 40, n_edges: int = 120) -> UncertainGraph:
    rng = np.random.default_rng(seed)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < n_edges:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    ordered = sorted(pairs)
    ps = rng.uniform(0.1, 0.9, len(ordered))
    return UncertainGraph(
        n, [(u, v, float(p)) for (u, v), p in zip(ordered, ps)]
    )


def random_batch(
    graph: UncertainGraph, rng: np.random.Generator, size: int
) -> UpdateBatch:
    """``size`` updates: mostly existing edges, sometimes a fresh pair."""
    deltas = []
    seen: set[tuple[int, int]] = set()
    pairs = list(graph.endpoint_pairs())
    while len(deltas) < size:
        if pairs and rng.random() < 0.8:
            u, v = pairs[int(rng.integers(0, len(pairs)))]
        else:
            u, v = (int(x) for x in rng.integers(0, graph.n_nodes, 2))
            if u == v:
                continue
            u, v = min(u, v), max(u, v)
        if (u, v) in seen:
            continue
        seen.add((u, v))
        old = graph.probability(u, v)
        new = float(np.clip(old + rng.normal(0.0, 0.25), 0.0, 1.0))
        deltas.append((u, v, old, new))
    return UpdateBatch.from_deltas(deltas)


# -- UpdateBatch -------------------------------------------------------- #

def test_batch_canonicalizes_and_validates():
    batch = UpdateBatch.from_deltas([(5, 2, 0.3, 0.4)])
    assert batch.us[0] == 2 and batch.vs[0] == 5
    assert len(batch) == 1
    assert list(batch.touched_vertices()) == [2, 5]

    with pytest.raises(ObfuscationError, match="self-loop"):
        UpdateBatch.from_deltas([(3, 3, 0.1, 0.2)])
    with pytest.raises(ObfuscationError, match="more than once"):
        UpdateBatch.from_deltas([(1, 2, 0.1, 0.2), (2, 1, 0.2, 0.3)])
    with pytest.raises(ObfuscationError, match="p_new"):
        UpdateBatch.from_deltas([(1, 2, 0.1, 1.5)])
    with pytest.raises(ObfuscationError, match="negative"):
        UpdateBatch.from_deltas([(-1, 2, 0.1, 0.2)])


def test_batch_from_graphs_round_trips(triangle):
    updated = UncertainGraph(3, [(0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.3)])
    batch = UpdateBatch.from_graphs(triangle, updated)
    assert batch.as_delta() == [(0, 1, 0.5, 0.9)]
    batch.validate_against(triangle)
    with pytest.raises(ObfuscationError, match="p_old"):
        batch.validate_against(updated)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_validate_against_reports_first_offending_entry(data):
    """The vectorized check raises the message the per-entry loop gave
    for the first offending entry (range before stale within one)."""
    graph = random_graph(data.draw(st.integers(0, 50), label="seed"),
                         n=8, n_edges=14)
    n = graph.n_nodes
    deltas = []
    seen = set()
    for __ in range(data.draw(st.integers(1, 6), label="size")):
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(u + 1, n + 1))
        if (u, v) in seen:
            continue
        seen.add((u, v))
        stored = graph.probability(u, v) if v < n else 0.0
        old = data.draw(st.sampled_from([stored, stored, 0.5]))
        deltas.append((u, v, old, 0.25))
    batch = UpdateBatch.from_deltas(deltas)

    expected = None
    for u, v, old, __ in batch.as_delta():
        if v >= n:
            expected = (f"update pair ({u}, {v}) is out of range for a "
                        f"graph with {n} vertices")
            break
        stored = graph.probability(u, v)
        if old != stored:
            expected = (f"update claims p_old={old!r} for pair ({u}, {v}), "
                        f"but the published graph has {stored!r}; rebuild "
                        "the batch against the current published state")
            break
    if expected is None:
        batch.validate_against(graph)
        return
    with pytest.raises(ObfuscationError) as info:
        batch.validate_against(graph)
    assert str(info.value) == expected


def test_update_file_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    graph = random_graph(1)
    batch = random_batch(graph, rng, 7)
    path = tmp_path / "batch.upd"
    write_update_file(batch, path)
    loaded = read_update_file(path)
    assert np.array_equal(loaded.us, batch.us)
    assert np.array_equal(loaded.vs, batch.vs)
    # repr round-trip: float-EXACT, not approximately equal
    assert np.array_equal(loaded.p_old, batch.p_old)
    assert np.array_equal(loaded.p_new, batch.p_new)


def test_update_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.upd"
    path.write_text("1 2 0.5\n")
    with pytest.raises(GraphFormatError, match="expected"):
        read_update_file(path)
    path.write_text("# fine\n1 2 0.5 abc\n")
    with pytest.raises(GraphFormatError):
        read_update_file(path)


# -- the oracle property ------------------------------------------------ #

@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_batches=st.integers(min_value=1, max_value=3),
    backend=st.sampled_from(["ram", "memmap"]),
    chunk=st.sampled_from([4, 16]),
    antithetic=st.booleans(),
)
def test_incremental_matches_full_recompute_oracle(
    seed, n_batches, backend, chunk, antithetic
):
    """Chained batches through the recertifier == rebuilding from the
    patched graph, bit for bit, across every store configuration."""
    monkeypatch = pytest.MonkeyPatch()
    try:
        monkeypatch.setenv("REPRO_WORLD_BACKEND", backend)
        monkeypatch.setenv("REPRO_WORLD_CHUNK", str(chunk))
        rng = np.random.default_rng(seed)
        graph = random_graph(seed)
        store = WorldStore(graph, n_samples=24, seed=7, antithetic=antithetic)
        store.warm()
        recertifier = IncrementalRecertifier(
            graph, k=3, epsilon=0.2, store=store
        )
        try:
            for __ in range(n_batches):
                batch = random_batch(recertifier.graph, rng, 3)
                outcome = recertifier.apply(batch)

                # Oracle 1: verdict + entropy columns vs. a cold rebuild
                # from the patched graph (same adversary knowledge).
                oracle = check_obfuscation(
                    outcome.graph, 3, 0.2,
                    knowledge=recertifier.cache.knowledge,
                )
                assert outcome.report.satisfied == oracle.satisfied
                assert (
                    outcome.report.epsilon_achieved
                    == oracle.epsilon_achieved
                )
                assert np.array_equal(
                    outcome.report.entropies, oracle.entropies
                )
                assert np.array_equal(
                    outcome.report.obfuscated, oracle.obfuscated
                )

                # Oracle 2: the patched pmf matrix vs. a cold cache
                # (up to trailing all-zero padding columns).
                fresh = DegreeUncertaintyCache(
                    outcome.graph, knowledge=recertifier.cache.knowledge
                )
                patched = recertifier.cache.base_matrix
                width = min(patched.shape[1], fresh.base_matrix.shape[1])
                assert np.array_equal(
                    patched[:, :width], fresh.base_matrix[:, :width]
                )
                assert not patched[:, width:].any()
                assert not fresh.base_matrix[:, width:].any()

                # Oracle 3: the rebased store vs. a pristine store's
                # derived view of the same cumulative delta.
                pristine = WorldStore(
                    graph, n_samples=24, seed=7, antithetic=antithetic
                )
                pristine.warm()
                try:
                    view = pristine.derive(
                        graph_delta(graph, outcome.graph)
                    )
                    qpairs = list(outcome.graph.endpoint_pairs())[:15]
                    assert np.array_equal(
                        view.reliability_of_pairs(qpairs),
                        store.base_reliability_of_pairs(qpairs),
                    )
                finally:
                    pristine.close()
        finally:
            store.close()
    finally:
        monkeypatch.undo()


# -- targeted repair ---------------------------------------------------- #

def hub_graph() -> tuple[UncertainGraph, np.ndarray, dict]:
    """Six hub vertices with 10 uncertain edges each; adversary knows
    structural degrees.  Collapsing one hub's edges to certainty makes
    its degree observation uniquely attributable."""
    rng = np.random.default_rng(11)
    n = 60
    edges: dict[tuple[int, int], float] = {}
    others = list(range(6, n))
    for hub in range(6):
        for v in rng.choice(others, 10, replace=False):
            v = int(v)
            edges[(min(hub, v), max(hub, v))] = 0.5
    for __ in range(120):
        u, v = (int(x) for x in rng.choice(others, 2, replace=False))
        edges[(min(u, v), max(u, v))] = 0.5
    graph = UncertainGraph(n, [(u, v, p) for (u, v), p in edges.items()])
    degrees = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return graph, degrees, edges


def test_repair_restores_certificate_locally():
    graph, knowledge, edges = hub_graph()
    k, epsilon = 4, 0.08

    recertifier = IncrementalRecertifier(
        graph, k, epsilon, knowledge=knowledge
    )
    batch = UpdateBatch.from_deltas(
        [(u, v, p, 1.0) for (u, v), p in edges.items() if u == 0]
    )
    outcome = recertifier.apply(batch, repair=RepairPolicy(entropy=7))
    assert outcome.repair is not None, "update should have broken the cert"
    assert outcome.repaired and outcome.report.satisfied

    # Locality: every repaired edge touches a violating vertex.
    repair = outcome.repair
    violators = set(repair.violators.tolist())
    assert violators
    for u, v in zip(repair.us.tolist(), repair.vs.tolist()):
        assert u in violators or v in violators

    # The post-repair certificate is bit-identical to the oracle.
    oracle = check_obfuscation(outcome.graph, k, epsilon, knowledge=knowledge)
    assert np.array_equal(outcome.report.entropies, oracle.entropies)
    assert outcome.report.epsilon_achieved == oracle.epsilon_achieved


def test_repair_is_deterministic():
    graph, knowledge, edges = hub_graph()
    batch_deltas = [
        (u, v, p, 1.0) for (u, v), p in edges.items() if u == 0
    ]

    def run():
        recertifier = IncrementalRecertifier(
            graph, 4, 0.08, knowledge=knowledge
        )
        return recertifier.apply(
            UpdateBatch.from_deltas(batch_deltas),
            repair=RepairPolicy(entropy=99),
        )

    first, second = run(), run()
    assert np.array_equal(first.report.entropies, second.report.entropies)
    assert first.repair.sigma == second.repair.sigma
    assert np.array_equal(first.repair.p_new, second.repair.p_new)


def test_repair_requires_violations(triangle):
    cache = DegreeUncertaintyCache(triangle)
    report = cache.check_base(1, 0.9)
    assert report.satisfied
    with pytest.raises(ObfuscationError, match="already obfuscated"):
        repair_violations(
            triangle, cache, report, 1, 0.9, RepairPolicy()
        )


def test_no_repair_policy_reports_violation():
    graph, knowledge, edges = hub_graph()
    recertifier = IncrementalRecertifier(graph, 4, 0.08, knowledge=knowledge)
    batch = UpdateBatch.from_deltas(
        [(u, v, p, 1.0) for (u, v), p in edges.items() if u == 0]
    )
    outcome = recertifier.apply(batch)  # no policy
    assert not outcome.report.satisfied
    assert not outcome.repaired and outcome.repair is None


def test_stale_batch_raises(triangle):
    recertifier = IncrementalRecertifier(triangle, 1, 0.9)
    stale = UpdateBatch.from_deltas([(0, 1, 0.4, 0.6)])  # p_old is 0.5
    with pytest.raises(ObfuscationError):
        recertifier.apply(stale)


# -- CLI + served update ------------------------------------------------ #

def _cli(argv):
    from repro.cli import CommandRuntime, _dispatch, build_parser

    out, err = io.StringIO(), io.StringIO()
    args = build_parser().parse_args(argv)
    code = _dispatch(args, out, err, CommandRuntime())
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def published_setup(tmp_path):
    graph = random_graph(5, n=60, n_edges=200)
    pub = tmp_path / "pub.pel"
    write_edge_list(graph, pub)
    on_disk = read_edge_list(pub)
    rng = np.random.default_rng(2)
    batch = random_batch(on_disk, rng, 5)
    upd = tmp_path / "batch.upd"
    write_update_file(batch, upd)
    return pub, upd, on_disk, batch


def test_cli_update_end_to_end(published_setup, tmp_path):
    pub, upd, on_disk, batch = published_setup
    out_path = tmp_path / "out.pel"
    code, stdout, err = _cli([
        "update", str(pub), str(upd), str(out_path),
        "--k", "3", "--epsilon", "0.2", "--samples", "40",
    ])
    import json

    payload = json.loads(stdout)
    assert code == (0 if payload["satisfied"] else 1)
    assert payload["n_updates"] == len(batch)
    assert payload["samples"] == 40
    assert "update_discrepancy" in payload
    assert out_path.exists()

    # The written graph is the batch applied to the published graph
    # (no repair fired at this lax threshold).
    if payload["satisfied"] and not payload["repaired"]:
        result = read_edge_list(out_path)
        for u, v, old, new in batch.as_delta():
            written = round(new, 6)  # edge lists carry 6 decimals
            if written > 0:
                assert result.probability(u, v) == pytest.approx(
                    new, abs=5e-7
                )


def test_cli_update_rejects_stale_updates(published_setup, tmp_path):
    pub, upd, on_disk, batch = published_setup
    stale = UpdateBatch.from_deltas([
        (int(batch.us[0]), int(batch.vs[0]), 0.123456, 0.5)
    ])
    stale_path = tmp_path / "stale.upd"
    write_update_file(stale, stale_path)
    code, stdout, err = _cli([
        "update", str(pub), str(stale_path), str(tmp_path / "o.pel"),
        "--k", "3", "--epsilon", "0.2",
    ])
    assert code == 2
    assert "p_old" in err


def test_served_update_byte_identical(published_setup, tmp_path):
    from repro.server import ChameleonService

    pub, upd, on_disk, batch = published_setup
    service = ChameleonService()
    try:
        served_out = tmp_path / "served.pel"
        direct_out = tmp_path / "direct.pel"
        tail = ["--k", "3", "--epsilon", "0.2", "--samples", "30"]
        job = service._jobs.submit(
            ["update", str(pub), str(upd), str(served_out)] + tail
        )
        service._run_job(job)
        code, stdout, __ = _cli(
            ["update", str(pub), str(upd), str(direct_out)] + tail
        )
        assert job.state == "done", job.error
        assert job.exit_code == code
        assert job.stdout == stdout
        assert served_out.read_bytes() == direct_out.read_bytes()

        # Second serving rides the warm degree cache + warm store.
        repeat_out = tmp_path / "repeat.pel"
        repeat = service._jobs.submit(
            ["update", str(pub), str(upd), str(repeat_out)] + tail
        )
        service._run_job(repeat)
        assert repeat.state == "done", repeat.error
        assert repeat.stdout == stdout
        assert repeat_out.read_bytes() == direct_out.read_bytes()
    finally:
        service._executor.shutdown(wait=True, cancel_futures=True)
