"""The benchmark's three workloads, driven through each layer's public API.

Every workload calls the layers in the shapes the quick-scale ``run-all``
uses, but from seeded inputs it builds itself: the graph generators, the
partitioners, the binding generator and the service config all take the
workload seed, so neither ``load_dataset``'s cache nor the experiments'
fixed seeds enter the measurement.

* ``offline-analytics`` partitions the twitter-, web- and road-like graphs
  with every offline algorithm at every offline k, and runs PageRank, WCC
  and SSSP on each placement.  Partitioning and the GAS engine do nearly
  all the work; the database and the service do none.
* ``online-queries`` partitions the ldbc-like graph with the online
  algorithms and runs the closed-loop DES over one fixed binding set per
  query kind at medium and high load, then the straggler and fault-schedule
  runs of the ablations.  Query planning, routing and the DES event loop
  dominate, and one graph object and one binding list serve the whole
  sweep, so reuse of planning across simulations shows here.
* ``service-churn`` runs the online-service and SLO-ablation policy
  variants of ``PartitionedGraphService`` on the ldbc-like graph.  It writes
  beside reads: mutation replay and traffic generation run every epoch,
  and the planner and the DES run on a graph that changes every epoch.

Each pass starts from fresh ``Graph`` objects over the setup's arrays, so
lazily built adjacency and anything keyed on a graph object is rebuilt, as
in one cold ``run-all``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analytics import (
    GasEngine,
    PageRank,
    Placement,
    SingleSourceShortestPath,
    WeaklyConnectedComponents,
)
from repro.database import (
    QUERY_KINDS,
    ChaosHarness,
    CrashInterval,
    FaultSchedule,
    SlowdownInterval,
    WorkloadGenerator,
    simulate_workload,
)
from repro.database import simulation as des
from repro.database.cluster import ServiceModel
from repro.database.mutations import GraphMutationLog
from repro.experiments.datasets import (
    DATASETS,
    OFFLINE_DATASETS,
    scale_profile,
    sssp_source,
)
# The quick sizes and generators are the experiments' own tables, read
# rather than copied so the benchmark follows them.
from repro.experiments.datasets import _GENERATORS, _PARAMS
from repro.experiments.figures import HIGH_LOAD_CLIENTS, MEDIUM_LOAD_CLIENTS
from repro.experiments.online_service import _service_config
from repro.experiments.runner import STREAM_ORDER
from repro.experiments.slo_ablation import _variants as slo_variants
from repro.graph.digraph import Graph
from repro.partitioning import (
    CUT_MODELS,
    OFFLINE_ALGORITHMS,
    ONLINE_ALGORITHMS,
    make_seeded_partitioner,
)
from repro.service import core as service_core
from repro.service.drift import DriftMonitor
from repro.service.traffic import TrafficModel

from spans import Hook, Span, self_times
from stats import percentile, tail_percentile

SCALE = "quick"
PROFILE = scale_profile(SCALE)

WORKLOAD_DATASETS = {
    "offline-analytics": OFFLINE_DATASETS,
    "online-queries": ("ldbc-snb",),
    "service-churn": ("ldbc-snb",),
}

#: Worker count and straggler speed of ``ablation_straggler`` and
#: ``ablation_fault_tolerance`` (their defaults).
ABLATION_WORKERS = 16
STRAGGLER_SPEED = 0.4
FAULTED_ALGORITHMS = ("ecr", "ldg", "fennel")

#: |sum(ranks) - 1| allowed for PageRank; the tolerance the analytics
#: tests hold the workload to.
PAGERANK_MASS_TOLERANCE = 1e-6

#: Wrapped layers and the workload each is meant to dominate; the traced
#: run fails if one of them records no call there.
WRAPPED_LAYERS = {
    "offline-analytics": (),
    "online-queries": ("database.plan", "database.route",
                       "database.simulate"),
    "service-churn": ("database.materialize", "service.traffic",
                      "service.drift", "service.migration"),
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    seed: int
    graphs: dict[str, Graph]
    #: One fixed binding list per query kind (``online-queries`` only).
    bindings: dict[str, list]


def setup(workload: str, seed: int, recorder) -> Inputs:
    """Generate the workload's graphs and bindings from *seed*."""
    graphs = {}
    for name in WORKLOAD_DATASETS[workload]:
        with recorder.span("graph.generate", dataset=name):
            graph = _GENERATORS[name](
                seed=seed * len(DATASETS) + DATASETS.index(name),
                **_PARAMS[SCALE][name])
            graphs[name] = graph.with_name(name)
    bindings = {}
    if workload == "online-queries":
        for kind in QUERY_KINDS:
            with recorder.span("database.bindings", kind=kind):
                generator = WorkloadGenerator(
                    graphs["ldbc-snb"], skew=PROFILE.workload_skew, seed=seed)
                bindings[kind] = generator.bindings(kind, PROFILE.num_bindings)
    return Inputs(seed, graphs, bindings)


def _fresh(graph: Graph) -> Graph:
    """A new graph object over the same arrays, with no lazy state."""
    return Graph(graph.num_vertices, graph.src, graph.dst, name=graph.name)


# ----------------------------------------------------------------------
# Ops: counted, checked and digested driver calls
# ----------------------------------------------------------------------
def _fingerprint(value) -> bytes:
    if isinstance(value, np.ndarray):
        return (f"{value.dtype.str}{value.shape}".encode()
                + np.ascontiguousarray(value).tobytes())
    if isinstance(value, float):
        return value.hex().encode()
    return repr(value).encode()


class Ops:
    """The driver's calls into the layers.

    An op is one such call.  It fails if it raises or if its output fails
    the workload's checks; every op's output feeds one digest.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self.attempted = 0
        self.failures: list[str] = []
        self._digest = hashlib.sha256()

    def call(self, name: str, fn: Callable, *args,
             check: Callable | None = None, note: Callable | None = None,
             attrs: dict | None = None, **kwargs):
        """Run ``fn(*args, **kwargs)`` as op *name*; ``None`` if it failed.

        *check* maps the result to a list of problems; *note* maps it to
        span attributes (traced run only).
        """
        self.attempted += 1
        try:
            with self.recorder.span(name, **(attrs or {})) as span:
                result = fn(*args, **kwargs)
        except Exception as exc:  # a raising op is a failed op, not a crash
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        problems = check(result) if check is not None else []
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))
            return None
        if note is not None and span is not None:
            span.attrs.update(note(result))
        return result

    def record(self, *values) -> None:
        for value in values:
            self._digest.update(_fingerprint(value))

    @property
    def failed(self) -> int:
        return len(self.failures)

    def digest(self) -> str:
        return self._digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Output checks (independent of the implementation)
# ----------------------------------------------------------------------
def _check_partition(k: int, items: int) -> Callable:
    def check(partition) -> list[str]:
        owners = partition.assignment
        if partition.num_partitions != k:
            return [f"num_partitions {partition.num_partitions} != {k}"]
        if owners.shape != (items,):
            return [f"{owners.size} owners for {items} items"]
        if owners.size and (owners.min() < 0 or owners.max() >= k):
            return [f"owner outside [0, {k})"]
        return []
    return check


def _check_gas(workload) -> Callable:
    def check(run) -> list[str]:
        if run.num_iterations < 1:
            return ["no superstep ran"]
        if isinstance(workload, PageRank):
            mass = float(workload.result().sum())
            if abs(mass - 1.0) > PAGERANK_MASS_TOLERANCE:
                return [f"PageRank mass {mass!r} != 1"]
        return []
    return check


def _check_fault_free(result) -> list[str]:
    """No query fails, and Little's law X (R + Z) / N = 1 holds.

    The law is exact over a long window.  Over a finite one, each of the
    N clients can have one query-plus-think cycle cut at either end of the
    window, so the ratio may miss 1 by up to one cycle over the window;
    the longest observed cycle stands in for that cycle.
    """
    if result.completed_queries < 1:
        return ["no query completed"]
    if result.failed_queries:
        return [f"{result.failed_queries} queries failed without faults"]
    window = result.duration - result.warmup
    clients = result.num_workers * result.clients_per_worker
    think = ServiceModel().think_seconds
    ratio = (result.completed_queries / window
             * (float(result.latencies.mean()) + think) / clients)
    slack = (float(result.latencies.max()) + think) / window
    if abs(ratio - 1.0) > slack:
        return [f"Little's law X(R+Z)/N = {ratio:.4f}, "
                f"allowed 1 +- {slack:.4f}"]
    return []


def _check_faulted(result) -> list[str]:
    if result.completed_queries + result.failed_queries < 1:
        return ["no query attempted"]
    return []


def _check_service(result) -> list[str]:
    """Mutations are conserved: offered = applied + shed + pending."""
    offered = sum(e.offered_mutations for e in result.epochs)
    applied = sum(e.applied_mutations for e in result.epochs)
    shed = sum(e.shed_writes for e in result.epochs)
    pending = result.epochs[-1].pending_mutations if result.epochs else 0
    if offered != applied + shed + pending:
        return [f"offered {offered} != applied {applied} + shed {shed} "
                f"+ pending {pending}"]
    return []


# ----------------------------------------------------------------------
# Workload passes
# ----------------------------------------------------------------------
def _partition(ops: Ops, graph: Graph, algorithm: str, k: int, seed: int):
    edge_cut = CUT_MODELS[algorithm] == "edge-cut"
    items = graph.num_vertices if edge_cut else graph.num_edges
    partition = ops.call(
        f"partitioning.{algorithm}",
        lambda: make_seeded_partitioner(algorithm, seed).partition(
            graph, k, order=STREAM_ORDER, seed=seed),
        check=_check_partition(k, items), attrs={"items": items})
    if partition is not None:
        ops.record(algorithm, k, partition.assignment)
    return partition


def offline_analytics(inputs: Inputs, ops: Ops) -> None:
    engine = GasEngine()
    for dataset in OFFLINE_DATASETS:
        graph = _fresh(inputs.graphs[dataset])
        source = sssp_source(graph)
        for algorithm in OFFLINE_ALGORITHMS:
            for k in PROFILE.offline_partitions:
                partition = _partition(ops, graph, algorithm, k, inputs.seed)
                if partition is None:
                    continue
                placement = ops.call("analytics.placement", Placement,
                                     graph, partition)
                if placement is None:
                    continue
                for workload in (PageRank(PROFILE.pagerank_iterations),
                                 WeaklyConnectedComponents(),
                                 SingleSourceShortestPath(source=source)):
                    run = ops.call(
                        f"analytics.{workload.name}", engine.run, graph,
                        placement, workload, check=_check_gas(workload),
                        note=lambda run: {"supersteps": run.num_iterations})
                    if run is not None:
                        ops.record(run.total_network_bytes,
                                   run.execution_seconds, workload.result())


def _simulate(ops: Ops, graph: Graph, partition, bindings, check,
              **kwargs):
    result = ops.call("database.simulate_workload", simulate_workload,
                      graph, partition, bindings, check=check,
                      duration=PROFILE.sim_duration, **kwargs)
    if result is not None:
        ops.record(result.completed_queries, result.failed_queries,
                   result.latencies, result.busy_seconds_per_worker,
                   result.vertices_read_per_worker)
    return result


def _fault_schedule(seed: int, workers: int, duration: float):
    """``ablation_fault_tolerance``'s schedule: two overlapping crashes,
    one straggler window and 1% wire drops."""
    return FaultSchedule(
        crashes=(CrashInterval(1 % workers, 0.35 * duration, 0.55 * duration),
                 CrashInterval(2 % workers, 0.40 * duration, 0.55 * duration)),
        slowdowns=(SlowdownInterval(min(4, workers - 1), 0.65 * duration,
                                    0.85 * duration, 0.5),),
        drop_probability=0.01,
        seed=seed)


def online_queries(inputs: Inputs, ops: Ops) -> None:
    graph = _fresh(inputs.graphs["ldbc-snb"])
    partitions = {}
    for algorithm in ONLINE_ALGORITHMS:
        for k in PROFILE.online_partitions:
            partitions[algorithm, k] = _partition(ops, graph, algorithm, k,
                                                  inputs.seed)
    healthy = {}
    for (algorithm, k), partition in partitions.items():
        if partition is None:
            continue
        for kind in QUERY_KINDS:
            for clients in (MEDIUM_LOAD_CLIENTS, HIGH_LOAD_CLIENTS):
                healthy[algorithm, k, kind, clients] = _simulate(
                    ops, graph, partition, inputs.bindings[kind],
                    _check_fault_free, clients_per_worker=clients)

    # ablation-straggler: the worker serving the most reads slows down.
    for algorithm in ONLINE_ALGORITHMS:
        base = healthy.get((algorithm, ABLATION_WORKERS, "one_hop",
                            MEDIUM_LOAD_CLIENTS))
        if base is None:
            continue
        speeds = [1.0] * ABLATION_WORKERS
        speeds[int(np.argmax(base.read_distribution()))] = STRAGGLER_SPEED
        _simulate(ops, graph, partitions[algorithm, ABLATION_WORKERS],
                  inputs.bindings["one_hop"], _check_fault_free,
                  clients_per_worker=MEDIUM_LOAD_CLIENTS, worker_speeds=speeds)

    # ablation-fault-tolerance: the scalar fault path of the DES.
    schedule = _fault_schedule(inputs.seed, ABLATION_WORKERS,
                               PROFILE.sim_duration)
    for algorithm in FAULTED_ALGORITHMS:
        partition = partitions[algorithm, ABLATION_WORKERS]
        if partition is not None:
            _simulate(ops, graph, partition, inputs.bindings["one_hop"],
                      _check_faulted, clients_per_worker=MEDIUM_LOAD_CLIENTS,
                      fault_schedule=schedule)
    partition = partitions["ecr", ABLATION_WORKERS]
    if partition is not None:
        ops.call("database.chaos", ChaosHarness().verify_simulation, graph,
                 partition, inputs.bindings["one_hop"],
                 duration=min(PROFILE.sim_duration, 0.3),
                 check=lambda report: [] if report.matched
                 else report.mismatches)


def service_variants(num_vertices: int, seed: int) -> list[tuple[str, object]]:
    """The online-service and SLO-ablation policies, seeded with *seed*."""
    # The budgets of ``online_service``.
    budgets = (("no migration", None),
               ("tight budget", max(64, num_vertices // 16)),
               ("generous budget", max(256, num_vertices // 4)))
    variants = [(label, _service_config(num_vertices, budget=budget))
                for label, budget in budgets]
    variants += [(label, config) for label, config in slo_variants(num_vertices)
                 if label != "no migration"]
    return [(label, dataclasses.replace(config, seed=seed))
            for label, config in variants]


def service_churn(inputs: Inputs, ops: Ops) -> None:
    graph = _fresh(inputs.graphs["ldbc-snb"])
    for label, config in service_variants(graph.num_vertices, inputs.seed):
        # The service's own default start: an LDG pass seeded from the
        # config, made here so partitioning is its own op.
        base = _partition(ops, graph, "ldg", config.num_partitions,
                          config.seed)
        if base is None:
            continue
        result = ops.call(
            "service.run",
            lambda: service_core.PartitionedGraphService(
                graph, config=config, base_partition=base).run(),
            check=_check_service,
            note=lambda result: {
                "epochs": len(result.epochs),
                "applied": sum(e.applied_mutations for e in result.epochs)})
        if result is not None:
            ops.record(label, result.digest(), result.observability_digest())


WORKLOADS: dict[str, Callable[[Inputs, Ops], None]] = {
    "offline-analytics": offline_analytics,
    "online-queries": online_queries,
    "service-churn": service_churn,
}


# ----------------------------------------------------------------------
# Traced run: hooks on nested layers and per-layer metrics
# ----------------------------------------------------------------------
def layer_hooks() -> list[Hook]:
    """Spans for the layers nested inside one public call.

    Each hook names the namespace the caller looks the callable up in:
    ``ClosedLoopSimulation._routed`` reads ``plan_query``/``route_plan``
    from ``repro.database.simulation``, and ``PartitionedGraphService.run``
    reads ``plan_migration`` from ``repro.service.core``.
    """
    seen: set[tuple] = set()
    tokens: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    counter = itertools.count()

    def plan_note(args, kwargs, result) -> dict:
        graph, kind, start = args[:3]
        if graph not in tokens:
            tokens[graph] = next(counter)
        key = (tokens[graph], kind, start, kwargs.get("target_vertex"),
               kwargs.get("fanout_limit"))
        repeat = key in seen
        seen.add(key)
        return {"repeat": repeat}

    def simulate_note(args, kwargs, result) -> dict:
        return {"faulted": not args[0].fault_schedule.is_empty,
                "queries": result.completed_queries + result.failed_queries}

    return [
        (des, "plan_query", "database.plan", plan_note),
        (des, "route_plan", "database.route", None),
        (des.ClosedLoopSimulation, "run", "database.simulate", simulate_note),
        (GraphMutationLog, "materialize", "database.materialize",
         lambda args, kwargs, result: {"ops": args[0].num_ops}),
        (TrafficModel, "epoch_traffic", "service.traffic", None),
        (DriftMonitor, "observe", "service.drift", None),
        (service_core, "plan_migration", "service.migration", None),
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(setup_spans: list[Span],
                  spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass and the run's set-up."""
    seconds: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    attrs: defaultdict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        seconds[span.name] += span.duration
        own[span.name] += self_s
        calls[span.name] += 1
        for key, value in span.attrs.items():
            if isinstance(value, (bool, int, float)):
                attrs[f"{span.name}:{key}"] += value
    faulted = sum(s.duration for s in spans
                  if s.name == "database.simulate" and s.attrs.get("faulted"))
    plan_us = [s.duration * 1e6 for s in spans if s.name == "database.plan"]
    tail = tail_percentile(len(plan_us), cap=99.0)
    gas_s = sum(seconds[f"analytics.{w}"] for w in ("pagerank", "wcc", "sssp"))

    metrics = {"graph.generate_s": sum(s.duration for s in setup_spans
                                       if s.name == "graph.generate")}
    for algorithm in OFFLINE_ALGORITHMS:
        name = f"partitioning.{algorithm}"
        metrics[f"{name}.s"] = seconds[name]
        metrics[f"{name}.items_per_s"] = _ratio(attrs[f"{name}:items"],
                                                seconds[name])
    metrics.update({
        "analytics.placement_s": seconds["analytics.placement"],
        "analytics.pagerank_s": seconds["analytics.pagerank"],
        "analytics.wcc_s": seconds["analytics.wcc"],
        "analytics.sssp_s": seconds["analytics.sssp"],
        "analytics.supersteps": sum(attrs[f"analytics.{w}:supersteps"]
                                    for w in ("pagerank", "wcc", "sssp")),
    })
    metrics["analytics.supersteps_per_s"] = _ratio(
        metrics["analytics.supersteps"], gas_s)
    metrics.update({
        "database.bindings_s": sum(s.duration for s in setup_spans
                                   if s.name == "database.bindings"),
        "database.plan_s": seconds["database.plan"],
        "database.plan.calls": calls["database.plan"],
        "database.plan.repeat_ratio": _ratio(
            attrs["database.plan:repeat"], calls["database.plan"]),
        "database.plan.p50_us": percentile(plan_us, 50) if plan_us else 0.0,
        "database.plan.p99_us": percentile(plan_us, tail) if tail else 0.0,
        "database.route_s": seconds["database.route"],
        "database.route.calls": calls["database.route"],
        "database.simulate_s": seconds["database.simulate"],
        "database.simulate.self_s": own["database.simulate"],
        "database.simulate.faulted_s": faulted,
        "database.simulate.calls": calls["database.simulate"],
        "database.queries": attrs["database.simulate:queries"],
        "database.queries_per_s": _ratio(attrs["database.simulate:queries"],
                                         own["database.simulate"]),
        "database.materialize_s": seconds["database.materialize"],
        "database.materialize.calls": calls["database.materialize"],
        "database.materialize.ops": attrs["database.materialize:ops"],
        "service.run_s": seconds["service.run"],
        "service.self_s": own["service.run"],
        "service.traffic_s": seconds["service.traffic"],
        "service.traffic.calls": calls["service.traffic"],
        "service.drift_s": seconds["service.drift"],
        "service.drift.calls": calls["service.drift"],
        "service.migration_s": seconds["service.migration"],
        "service.migration.calls": calls["service.migration"],
        "service.epochs": attrs["service.run:epochs"],
        "service.mutations_applied": attrs["service.run:applied"],
    })
    metrics["service.mutations_per_s"] = _ratio(
        metrics["service.mutations_applied"], metrics["service.run_s"])
    return metrics


def unwrapped_layers(workload: str, metrics: dict[str, float]) -> list[str]:
    """Wrapped layers that recorded no call on the workload they dominate."""
    return [layer for layer in WRAPPED_LAYERS[workload]
            if not metrics[f"{layer}.calls"]]
