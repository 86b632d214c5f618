"""One workload in one fresh interpreter (started by ``run.py``).

Usage: ``python3 perfbench/measure.py WORKLOAD SEED SECONDS TRACE_OUT INPUT...``
with ``TRACE_OUT`` empty for an untraced run.  Prints one JSON object as
the last stdout line: ``attempted``, ``failed``, ``correct``, ``digest``,
``environment`` and ``values`` (every metric this workload computes).

Imports and a warm-up on a small graph happen before timing starts.  In
a traced run every operation is also repeated traced: the untraced ones
give the overhead baseline, the traced ones the per-layer numbers.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

import repro.ugraph as ugraph
from repro.core import anonymize, execution_environment, peak_rss_bytes
from repro.exceptions import ReproError
from repro.metrics import average_reliability_discrepancy
from repro.privacy import (
    DegreeUncertaintyCache,
    check_obfuscation,
    expected_degree_knowledge,
)
from repro.reliability import connectivity
from repro.reliability.worldstore import WorldStore
from repro.stream import IncrementalRecertifier, RepairPolicy, UpdateBatch

from spans import Tracer
from workloads import WORKLOADS, AnonymizeWorkload, UpdateClient, stand_in

#: Untraced reads of the inputs before and again after the anonymize
#: calls, and a few more after each call; the median of all of them is
#: ``setup_s`` (anonymize workloads).  Reads take a few ms, and a shared
#: host's speed drifts over seconds, so sampling the whole run keeps the
#: median from following one phase.
ANON_SETUPS = 15
ANON_SETUPS_PER_CALL = 3
#: Full cache + store builds before and again after the update stream;
#: the median of both groups is ``setup_s`` (update-stream).
STREAM_SETUPS = 3
#: Seed of the Monte-Carlo worlds behind ``reliability_loss``.
RELIABILITY_SEED = 2018


@contextmanager
def operation(tracer: Tracer | None, index: int, traced: bool):
    """Run operation ``index`` with the tracer installed if ``traced``.

    Every timed region starts from a collected heap, so collecting the
    garbage of earlier work does not land inside it.
    """
    gc.collect()
    if traced:
        tracer.operation = index
        tracer.install()
    try:
        yield
    finally:
        if traced:
            tracer.uninstall()


def p90(values: list[float]) -> float:
    """The 90th percentile (one sample: that sample)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def digest(graph, extra) -> str:
    h = hashlib.sha256()
    for array, dtype in ((graph.edge_src, np.int64), (graph.edge_dst, np.int64),
                         (graph.edge_probabilities, np.float64)):
        h.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    h.update(repr(extra).encode())
    return h.hexdigest()


def timing_values(setup, untraced_ops, traced_ops) -> dict:
    """The end-to-end timings plus the tracing overhead."""
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": 1000.0 * statistics.median(untraced_ops),
        "op_p90_ms": 1000.0 * p90(untraced_ops),
        "peak_rss_mb": peak_rss_bytes() / 2**20,
    }
    if traced_ops:
        base = statistics.median(untraced_ops)
        values["trace.overhead_s"] = statistics.median(traced_ops) - base
        values["trace.overhead_ratio"] = values["trace.overhead_s"] / base
    return values


def measure_anonymize(spec: AnonymizeWorkload, paths, seed, seconds, tracer):
    def run(graph, k=spec.k, epsilon=spec.epsilon):
        return anonymize(graph, k, epsilon, seed=seed,
                         utility_samples=spec.utility_samples)

    run(stand_in(spec.profile, 150, seed), k=5, epsilon=0.2)  # warm-up
    ugraph.read_edge_list(paths[0])
    setup: list[float] = []

    def sample_setups(count):
        for i in range(count):
            with operation(tracer, -1, False):
                started = time.perf_counter()
                ugraph.read_edge_list(paths[i % len(paths)])
                setup.append(time.perf_counter() - started)

    sample_setups(ANON_SETUPS)

    # One call per input in input order, each once untraced (and once
    # more traced in a traced run), until ``seconds`` have been measured
    # and at least ``min_calls`` untraced calls made.
    times: dict[bool, list[float]] = {False: [], True: []}
    results: list[tuple[int, object]] = []
    modes = (False, True) if tracer else (False,)
    while len(times[False]) < spec.min_calls \
            or sum(times[False]) + sum(times[True]) < seconds:
        i = len(times[False]) % len(paths)
        for traced in modes:
            with operation(tracer, len(results), traced):
                graph = ugraph.read_edge_list(paths[i])
                started = time.perf_counter()
                try:
                    result = run(graph)
                except ReproError as exc:
                    print(f"anonymize failed: {exc!r}", file=sys.stderr)
                    result = None
                times[traced].append(time.perf_counter() - started)
            results.append((i, result))
        sample_setups(ANON_SETUPS_PER_CALL)
    sample_setups(ANON_SETUPS)
    values = timing_values(setup, times[False], times[True])

    # Correctness, off the clock: every published graph must pass the
    # full-recompute oracle against its ORIGINAL graph's knowledge, and
    # every call on one input must publish the same graph.
    originals = [ugraph.read_edge_list(path) for path in paths]
    knowledge = [expected_degree_knowledge(graph) for graph in originals]
    failed = 0
    # Only the first ``min_calls`` inputs run on every run of any speed,
    # so only they enter the digest.
    digests: list[set[str]] = [set() for __ in paths[:spec.min_calls]]
    for i, result in results:
        if result is None or not result.success:
            failed += 1
            continue
        oracle = check_obfuscation(result.graph, spec.k, spec.epsilon,
                                   knowledge=knowledge[i])
        if not (oracle.satisfied
                and oracle.epsilon_achieved == result.epsilon_achieved):
            failed += 1
        if i < spec.min_calls:
            digests[i].add(digest(result.graph, result.sigma_history))
    # Quality of the first input's published graph.
    best = next((r for i, r in results if i == 0 and r and r.success), None)
    values.update({
        "sigma": best.sigma if best else 0.0,
        "epsilon_achieved": best.epsilon_achieved if best else 0.0,
        "reliability_loss": average_reliability_discrepancy(
            originals[0], best.graph, seed=RELIABILITY_SEED) if best else 0.0,
        "edge_updates_per_s": 0.0,
    })
    return len(results), failed, digests, values


def build_stream_state(spec, path, seed):
    graph = ugraph.read_edge_list(path)
    cache = DegreeUncertaintyCache(graph)
    store = WorldStore(graph, spec.worlds, seed=seed)
    store.warm()
    return IncrementalRecertifier(graph, spec.k, spec.epsilon,
                                  cache=cache, store=store)


def certificate_matches(outcome, expected, knowledge, spec) -> bool:
    """The incremental certificate equals one from a fresh degree cache,
    and the published probabilities equal the client's ``expected``
    ``(us, vs, probs)``."""
    fresh = DegreeUncertaintyCache(outcome.graph, knowledge=knowledge)
    reference = fresh.check_base(spec.k, spec.epsilon, knowledge=knowledge)
    report = outcome.report
    us, vs, probs = expected
    return (
        reference.satisfied == report.satisfied
        and reference.epsilon_achieved == report.epsilon_achieved
        and np.array_equal(reference.entropies, report.entropies)
        and np.array_equal(outcome.graph.pair_probabilities(us, vs), probs)
    )


def warm_up_stream(spec, seed):
    graph = stand_in(spec.profile, 600, seed)
    store = WorldStore(graph, 10, seed=seed)
    recertifier = IncrementalRecertifier(graph, spec.k, spec.epsilon,
                                         store=store)
    client = UpdateClient(graph, seed)
    for __ in range(3):
        us, vs, p_old, p_new = client.next_batch(8)
        recertifier.apply(UpdateBatch.from_deltas(zip(us, vs, p_old, p_new)))
        client.commit(us, vs, p_new)
    store.close()


def measure_stream(spec, paths, seed, seconds, tracer):
    (path,) = paths
    warm_up_stream(spec, seed)
    setup = []
    recertifier = None
    for index in range(STREAM_SETUPS + (tracer is not None)):
        if recertifier is not None:
            recertifier.store.close()
            recertifier = None
        with operation(tracer, -1, index == STREAM_SETUPS):
            started = time.perf_counter()
            recertifier = build_stream_state(spec, path, seed)
            if index < STREAM_SETUPS:
                setup.append(time.perf_counter() - started)

    client = UpdateClient(recertifier.graph, seed)
    n_updates = round(spec.batch_fraction * recertifier.graph.n_edges)
    policy = RepairPolicy()
    times: dict[bool, list[float]] = {False: [], True: []}
    certificates = []
    # (batch, outcome, client view) of every verify_every-th and the last
    # batch, checked after peak RSS is read so the checks do not inflate it.
    checkpoints = []
    bad: set[int] = set()
    attempted = failed = 0
    outcome = None
    digests: list[set[str]] = [set()]
    try:
        while attempted < spec.min_batches or \
                sum(times[False]) + sum(times[True]) < seconds:
            us, vs, p_old, p_new = client.next_batch(n_updates)
            batch = UpdateBatch.from_deltas(zip(us, vs, p_old, p_new))
            # A traced run traces every second batch.
            traced = tracer is not None and attempted % 2 == 1
            attempted += 1
            with operation(tracer, attempted - 1, traced):
                started = time.perf_counter()
                try:
                    outcome = recertifier.apply(batch, repair=policy)
                except ReproError as exc:
                    # The chain cannot continue from a half-applied batch.
                    print(f"update failed: {exc!r}", file=sys.stderr)
                    failed += 1
                    break
                times[traced].append(time.perf_counter() - started)
            client.commit(us, vs, p_new)
            certificates.append(outcome.report.epsilon_achieved)
            if not outcome.report.satisfied:
                bad.add(attempted)
            if attempted % spec.verify_every == 0:
                checkpoints.append((attempted, outcome, client.view()))
            # Every run reaches ``min_batches``, whatever its speed, so
            # the digest is taken there.
            if attempted == spec.min_batches:
                digests = [{digest(outcome.graph, certificates)}]
        if outcome is not None and attempted % spec.verify_every:
            checkpoints.append((attempted, outcome, client.view()))
        values = timing_values(setup, times[False], times[True])
        knowledge = recertifier.cache.knowledge
        bad.update(
            batch for batch, checked, expected in checkpoints
            if not certificate_matches(checked, expected, knowledge, spec)
        )
        failed += len(bad)
        values.update({
            "sigma": 0.0,
            "epsilon_achieved": certificates[-1] if certificates else 0.0,
            "reliability_loss": 0.0,
            "edge_updates_per_s": n_updates * len(times[False])
            / sum(times[False]),
        })
    finally:
        recertifier.store.close()
    # As many builds again after the stream, with the resident state gone
    # and peak RSS already read, so the median spans two moments of the run.
    del recertifier, outcome, checkpoints
    for __ in range(STREAM_SETUPS):
        with operation(tracer, -1, False):
            started = time.perf_counter()
            rebuilt = build_stream_state(spec, path, seed)
            setup.append(time.perf_counter() - started)
        rebuilt.store.close()
        del rebuilt
    values["setup_s"] = statistics.median(setup)
    return attempted, failed, digests, values


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace_out, *paths = argv
    spec = WORKLOADS[workload]
    seed = int(seed)
    tracer = Tracer() if trace_out else None
    environment = execution_environment()
    measure = (measure_anonymize if isinstance(spec, AnonymizeWorkload)
               else measure_stream)
    try:
        attempted, failed, digests, values = measure(
            spec, paths, seed, float(seconds), tracer)
    finally:
        connectivity.shutdown_worker_pools()
        for child in multiprocessing.active_children():
            child.join(timeout=30)
    values["error_rate"] = failed / attempted
    if tracer is not None:
        values.update(tracer.metrics())
        tracer.dump(trace_out)
    # One digest per input; the run's digest covers them in input order.
    combined = hashlib.sha256(
        "".join(min(per_input, default="") for per_input in digests).encode()
    ).hexdigest()
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and all(len(d) == 1 for d in digests),
        "digest": combined,
        "environment": environment,
        "values": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
