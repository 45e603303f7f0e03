"""Vectorized substrates must match their frozen scalar references.

PR 5 established the ``_reference.py`` guard pattern for the streaming
partitioners: snapshot the scalar loop verbatim, vectorize the
production path, and hold the two byte-identical.  These tests apply the
same guard to the two simulation substrates — the database's
discrete-event loop (:mod:`repro.database._reference`) and the GAS
analytics engine (:mod:`repro.analytics._reference`) — over everything a
run reports: results, metric snapshots, span traces (ids, timestamps,
call counts) and time-series samples.

Known, deliberate divergences are covered by their own tests instead:

* the sampler horizon-drain fix (``test_des_sampler_drain.py``) and the
  merge received-response accounting fix live only in the production
  loop — the reference keeps the pre-fix behaviour, and the scenarios
  here do not reach either (both are latent in closed-loop runs).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analytics import (
    GasEngine,
    KCore,
    PageRank,
    Placement,
    SingleSourceShortestPath,
    WeaklyConnectedComponents,
)
from repro.analytics._reference import (
    ReferenceGasEngine,
    ReferenceKCore,
    ReferencePageRank,
)
from repro.analytics.workloads.base import IterationActivity
from repro.database import WorkloadGenerator
from repro.database._reference import ReferenceClosedLoopSimulation
from repro.database.cluster import ServiceModel
from repro.database.simulation import ClosedLoopSimulation
from repro.faults import CrashInterval, FaultSchedule, SlowdownInterval
from repro.graph.generators import erdos_renyi, ldbc_like
from repro.partitioning.registry import make_seeded_partitioner
from repro.telemetry import set_tracer
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Tracer
from repro.telemetry.timeseries import TimeSeriesSampler


@pytest.fixture(scope="module")
def des_setup():
    graph = ldbc_like(900, avg_degree=8, seed=42)
    partition = make_seeded_partitioner("ldg", seed=31).partition(
        graph, 8, seed=47)
    generator = WorkloadGenerator(graph, skew=0.4, seed=5)
    bindings = (generator.bindings("one_hop", 60)
                + generator.bindings("two_hop", 25)
                + generator.bindings("shortest_path", 10))
    return graph, partition, bindings


@pytest.fixture(autouse=True)
def _reset_tracer():
    yield
    set_tracer(Tracer(enabled=False))


def snapshot_json(registry: MetricsRegistry) -> str:
    return json.dumps(registry.snapshot(), sort_keys=True, default=str)


def des_digest(result, tracer, sampler):
    digest = [
        result.latencies.tobytes(),
        result.vertices_read_per_worker.tobytes(),
        result.requests_per_worker.tobytes(),
        result.busy_seconds_per_worker.tobytes(),
        None if result.requests_lost_per_worker is None
        else result.requests_lost_per_worker.tobytes(),
        snapshot_json(result.metrics),
        tracer.to_jsonl(),
        tracer.calls,
    ]
    if sampler is not None:
        digest.append(tuple(sampler.times()))
        digest.append(json.dumps([s.to_dict() for s in sampler.samples],
                                 sort_keys=True, default=str))
    return digest


DES_SCENARIOS = {
    "plain": {},
    "traced": {"tracing": True},
    "sampled": {"sample": True},
    "heterogeneous": {"worker_speeds": [1.0, 0.5, 1.0, 2.0,
                                        1.0, 1.0, 0.75, 1.0]},
    "migration": {"run_kwargs": {
        "background_work": [(0.02, 2, 0.01), (0.05, 5, 0.02)],
        "migration_wait_seconds": 0.002,
    }, "migrate_first": 20},
    "crash": {"fault": True},
    "crash+traced+sampled": {"fault": True, "tracing": True, "sample": True},
    # The ablation-fault-tolerance shape over duration 0.25: overlapping
    # crashes take worker 1's whole replica chain down (queries abort),
    # worker 4 straggles at half speed, 1% of requests drop and remote
    # hops pay extra latency — every fault hook of the loop fires (107
    # timeouts and retries, 28 drops, 6 failed queries).
    "ablation-faults+traced+sampled": {"fault_schedule": FaultSchedule(
        crashes=(CrashInterval(1, 0.0875, 0.1375),
                 CrashInterval(2, 0.1, 0.1375)),
        slowdowns=(SlowdownInterval(4, 0.1625, 0.2125, 0.5),),
        drop_probability=0.01, extra_latency_seconds=0.0005, seed=3),
        "tracing": True, "sample": True},
}


@pytest.mark.parametrize("scenario", sorted(DES_SCENARIOS))
def test_des_event_loop_matches_reference(des_setup, scenario):
    """Batched DES == frozen scalar DES, byte for byte, per scenario."""
    graph, partition, bindings = des_setup
    spec = DES_SCENARIOS[scenario]
    run_kwargs = dict(spec.get("run_kwargs", {}))
    if spec.get("migrate_first"):
        run_kwargs["migrating_vertices"] = [
            b.start_vertex for b in bindings[:spec["migrate_first"]]]
    ctor_kwargs = {}
    if "worker_speeds" in spec:
        ctor_kwargs["worker_speeds"] = spec["worker_speeds"]
    if spec.get("fault"):
        ctor_kwargs["fault_schedule"] = FaultSchedule.single_crash(
            1, 0.02, 0.1, seed=3)
    if "fault_schedule" in spec:
        ctor_kwargs["fault_schedule"] = spec["fault_schedule"]
    digests = []
    for sim_cls in (ReferenceClosedLoopSimulation, ClosedLoopSimulation):
        tracer = Tracer(enabled=spec.get("tracing", False))
        set_tracer(tracer)
        sampler = (TimeSeriesSampler(MetricsRegistry())
                   if spec.get("sample") else None)
        sim = sim_cls(graph, partition.assignment, 8, **ctor_kwargs)
        result = sim.run(bindings=bindings, duration=0.25,
                         sampler=sampler, **run_kwargs)
        digests.append(des_digest(result, tracer, sampler))
    assert digests[0] == digests[1]


def test_des_matches_reference_with_service_model(des_setup):
    """A non-default service model exercises distinct column constants."""
    graph = erdos_renyi(250, 1200, seed=11)
    partition = make_seeded_partitioner("fennel", seed=31).partition(
        graph, 4, seed=47)
    generator = WorkloadGenerator(graph, skew=0.6, seed=9)
    bindings = (generator.bindings("one_hop", 40)
                + generator.bindings("two_hop", 20))
    digests = []
    for sim_cls in (ReferenceClosedLoopSimulation, ClosedLoopSimulation):
        tracer = Tracer(enabled=False)
        set_tracer(tracer)
        sim = sim_cls(graph, partition.assignment, 4,
                      service_model=ServiceModel(), clients_per_worker=4)
        result = sim.run(bindings=bindings, duration=0.4)
        digests.append(des_digest(result, tracer, None))
    assert digests[0] == digests[1]


# ----------------------------------------------------------------------
def gas_digest(run, values, tracer, sampler):
    digest = [
        tuple((it.iteration, it.gather_messages, it.mirror_update_messages,
               it.network_bytes, it.compute_seconds.tobytes(),
               it.wall_seconds) for it in run.iterations),
        tuple((e.step, e.worker, e.time, e.reexecuted_supersteps,
               e.lost_vertices, e.lost_edges, e.migration_bytes,
               e.rebalance_seconds, e.recovery_seconds)
              for e in run.recovery_events),
        snapshot_json(run.metrics),
        None if values is None else values.tobytes(),
        tracer.to_jsonl(),
        tracer.calls,
    ]
    if sampler is not None:
        digest.append(tuple(sampler.times()))
        digest.append(json.dumps([s.to_dict() for s in sampler.samples],
                                 sort_keys=True, default=str))
    return digest


@pytest.fixture(scope="module")
def gas_graph():
    return ldbc_like(1200, avg_degree=9, seed=42)


@pytest.fixture(scope="module")
def gas_placements(gas_graph):
    vertex = Placement(gas_graph, make_seeded_partitioner("ldg", seed=31)
                       .partition(gas_graph, 8, seed=47))
    edge = Placement(gas_graph, make_seeded_partitioner("hdrf", seed=31)
                     .partition(gas_graph, 8, seed=47))
    return {"vertex": vertex, "edge": edge}


GAS_SCENARIOS = {
    # (production workload factory, reference workload factory or None,
    #  placement, tracing, sampled, faulty)
    "pagerank/vertex-cut": (lambda: PageRank(8),
                            lambda: ReferencePageRank(8),
                            "vertex", False, False, False),
    "pagerank/edge-cut": (lambda: PageRank(8),
                          lambda: ReferencePageRank(8),
                          "edge", False, False, False),
    "kcore": (lambda: KCore(k=4), lambda: ReferenceKCore(4),
              "vertex", False, False, False),
    "wcc/traced+sampled": (WeaklyConnectedComponents, None,
                           "edge", True, True, False),
    "sssp": (lambda: SingleSourceShortestPath(source=0), None,
             "vertex", False, False, False),
    "pagerank/crash+traced": (lambda: PageRank(8),
                              lambda: ReferencePageRank(8),
                              "vertex", True, False, True),
    "wcc/crash+sampled": (WeaklyConnectedComponents, None,
                          "edge", False, True, True),
}


@pytest.mark.parametrize("scenario", sorted(GAS_SCENARIOS))
def test_gas_engine_matches_reference(gas_graph, gas_placements, scenario):
    """Cached sort-free GAS == frozen per-step loop, byte for byte.

    Where a frozen workload exists (``np.add.at`` scatter versions of
    PageRank / k-core), the reference engine runs it — so the swap to
    ``np.bincount`` is inside the comparison, not outside it.
    """
    make_new, make_ref, placement_key, tracing, sampled, faulty = \
        GAS_SCENARIOS[scenario]
    make_ref = make_ref or make_new
    placement = gas_placements[placement_key]
    fault = (FaultSchedule.single_crash(2, 0.001, 0.2, seed=3)
             if faulty else None)
    digests = []
    for engine_cls, factory in ((GasEngine, make_new),
                                (ReferenceGasEngine, make_ref)):
        tracer = Tracer(enabled=tracing)
        set_tracer(tracer)
        sampler = (TimeSeriesSampler(MetricsRegistry())
                   if sampled else None)
        workload = factory()
        run = engine_cls().run(gas_graph, placement, workload,
                               fault_schedule=fault, sampler=sampler)
        digests.append(gas_digest(run, workload.result(), tracer, sampler))
    assert digests[0] == digests[1]


def test_gas_cache_is_content_keyed(gas_graph, gas_placements):
    """Activity caches key on mask *content*: mutating a previously
    yielded mask array between steps must not poison the cache."""

    class MutatingWorkload(PageRank):
        """Yields the same ndarray object with changing content."""

        def iterations(self, graph):
            mask = np.ones(graph.num_vertices, dtype=bool)
            self._values = mask
            for step in range(4):
                mask[: (step * 7) % graph.num_vertices + 1] = step % 2 == 0
                yield IterationActivity(sends_forward=mask,
                                        sends_reverse=None, changed=mask)

    placement = gas_placements["vertex"]
    runs = []
    for engine_cls in (GasEngine, ReferenceGasEngine):
        workload = MutatingWorkload(num_iterations=4)
        run = engine_cls().run(gas_graph, placement, workload)
        runs.append(tuple(
            (it.gather_messages, it.mirror_update_messages,
             it.network_bytes, it.compute_seconds.tobytes())
            for it in run.iterations))
    assert runs[0] == runs[1]
