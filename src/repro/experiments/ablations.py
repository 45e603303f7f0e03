"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's figures: they isolate the individual design
knobs of the studied algorithms (stream order sensitivity, FENNEL's γ,
HDRF's λ, Ginger's degree threshold, restreaming depth) that the paper
discusses qualitatively in Sections 4 and 6.
"""

from __future__ import annotations

import numpy as np

from repro.analytics import Placement
from repro.experiments.datasets import ONLINE_DATASET
from repro.experiments.figures import MEDIUM_LOAD_CLIENTS, ONLINE_WORKERS
from repro.experiments.report import ExperimentReport, Table
from repro.experiments.runner import (
    PARTITION_SEED,
    STREAM_ORDER,
    Artifact,
    ExperimentContext,
    group_by,
    requires,
)
from repro.faults import ChaosHarness, CrashInterval, FaultSchedule, SlowdownInterval
from repro.metrics import edge_cut_ratio, partition_balance, replication_factor
from repro.partitioning import (
    FennelPartitioner,
    GingerPartitioner,
    GreedyVertexCutPartitioner,
    HdrfPartitioner,
    RestreamingLdgPartitioner,
    make_seeded_partitioner,
)

#: Graph of the algorithm-knob ablations (the paper's skewed workhorse).
KNOB_DATASET = "twitter"
#: Partition count of the partitioning ablations.
ABLATION_PARTITIONS = 16
#: Speed of the degraded worker in the straggler ablation.
SLOW_FACTOR = 0.4
#: Share of edges held back and added after partitioning (dynamic updates).
GROWTH_FRACTION = 0.2

_KNOB_GRAPH = Artifact("dataset", dict(dataset=KNOB_DATASET))


def _one_hop(algorithm: str, **options) -> Artifact:
    """A medium-load 1-hop run on the online dataset's fixed cluster."""
    return Artifact("simulation", dict(
        dataset=ONLINE_DATASET, algorithm=algorithm, k=ONLINE_WORKERS,
        kind="one_hop", clients_per_worker=MEDIUM_LOAD_CLIENTS, **options))


@requires(lambda profile: [_KNOB_GRAPH])
def ablation_stream_order(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Stream-order sensitivity: greedy vertex-cut vs HDRF.

    Section 4.2.2: PowerGraph's greedy formulation "is sensitive to stream
    orders and might result in a single partition in case of breadth-first
    traversal order. HDRF avoids this problem" via its λ balance term.
    """
    graph = artifacts[_KNOB_GRAPH]
    report = ExperimentReport(
        "ablation-stream-order",
        f"Stream order sensitivity on {KNOB_DATASET}, k={ABLATION_PARTITIONS}",
    )
    table = report.add_table(Table(
        "Replication factor / balance by stream order",
        ["Order", "Greedy RF", "Greedy Balance", "HDRF RF", "HDRF Balance"],
    ))
    data = {}
    for order in ("random", "bfs", "dfs"):
        row = {}
        for label, partitioner in (
            ("greedy", GreedyVertexCutPartitioner(seed=PARTITION_SEED)),
            ("hdrf", HdrfPartitioner(seed=PARTITION_SEED)),
        ):
            partition = partitioner.partition(graph, ABLATION_PARTITIONS,
                                              order=order, seed=PARTITION_SEED)
            row[label] = (replication_factor(graph, partition),
                          partition_balance(graph, partition))
        data[order] = row
        table.add_row(order, round(row["greedy"][0], 2),
                      round(row["greedy"][1], 2), round(row["hdrf"][0], 2),
                      round(row["hdrf"][1], 2))
    report.data["results"] = data
    report.add_note("Expected: greedy's balance degrades under BFS/DFS "
                    "order while HDRF stays balanced (lambda > 1).")
    return report


@requires(lambda profile: [_KNOB_GRAPH])
def ablation_fennel_gamma(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """FENNEL γ sweep: cut quality vs balance trade-off (Eq. 5)."""
    graph = artifacts[_KNOB_GRAPH]
    report = ExperimentReport(
        "ablation-fennel-gamma",
        f"FENNEL gamma sweep on {KNOB_DATASET}, k={ABLATION_PARTITIONS}",
    )
    table = report.add_table(Table(
        "Edge-cut ratio and balance vs gamma",
        ["Gamma", "EdgeCutRatio", "Balance"],
    ))
    data = {}
    for gamma in (1.25, 1.5, 2.0, 3.0):
        partition = FennelPartitioner(gamma=gamma, seed=PARTITION_SEED) \
            .partition(graph, ABLATION_PARTITIONS, order="random",
                       seed=PARTITION_SEED)
        data[gamma] = (edge_cut_ratio(graph, partition),
                       partition_balance(graph, partition))
        table.add_row(gamma, round(data[gamma][0], 3), round(data[gamma][1], 3))
    report.data["results"] = data
    return report


@requires(lambda profile: [_KNOB_GRAPH])
def ablation_hdrf_lambda(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """HDRF λ sweep: replication vs balance (Eq. 7)."""
    graph = artifacts[_KNOB_GRAPH]
    report = ExperimentReport(
        "ablation-hdrf-lambda",
        f"HDRF lambda sweep on {KNOB_DATASET}, k={ABLATION_PARTITIONS}",
    )
    table = report.add_table(Table(
        "Replication factor and balance vs lambda",
        ["Lambda", "ReplFactor", "Balance"],
    ))
    data = {}
    for lam in (0.5, 1.0, 1.1, 2.0, 10.0):
        partition = HdrfPartitioner(balance_weight=lam, seed=PARTITION_SEED) \
            .partition(graph, ABLATION_PARTITIONS, order="bfs",
                       seed=PARTITION_SEED)
        data[lam] = (replication_factor(graph, partition),
                     partition_balance(graph, partition))
        table.add_row(lam, round(data[lam][0], 2), round(data[lam][1], 3))
    report.data["results"] = data
    report.add_note("Expected: larger lambda improves balance on "
                    "BFS-ordered streams at the cost of replication.")
    return report


@requires(lambda profile: [_KNOB_GRAPH])
def ablation_ginger_threshold(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Ginger degree-threshold sweep (the hybrid-cut cutoff)."""
    graph = artifacts[_KNOB_GRAPH]
    report = ExperimentReport(
        "ablation-ginger-threshold",
        f"Ginger high-degree threshold sweep on {KNOB_DATASET}, "
        f"k={ABLATION_PARTITIONS}",
    )
    table = report.add_table(Table(
        "Replication factor and balance vs threshold",
        ["Threshold", "ReplFactor", "Balance"],
    ))
    data = {}
    for threshold in (10, 50, 100, 500, 10**9):
        partition = GingerPartitioner(degree_threshold=threshold,
                                      seed=PARTITION_SEED) \
            .partition(graph, ABLATION_PARTITIONS, order="random",
                       seed=PARTITION_SEED)
        data[threshold] = (replication_factor(graph, partition),
                           partition_balance(graph, partition))
        table.add_row(threshold, round(data[threshold][0], 2),
                      round(data[threshold][1], 3))
    report.data["results"] = data
    report.add_note("threshold=1e9 disables the vertex-cut phase entirely "
                    "(pure FENNEL-like edge grouping).")
    return report


#: The offline quality bound restreaming is measured against.
_RESTREAMING_MTS = Artifact("partition", dict(
    dataset="usa-road", algorithm="mts", k=ABLATION_PARTITIONS))


@requires(lambda profile: [_RESTREAMING_MTS])
def ablation_restreaming(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """re-LDG pass-count sweep: approaching offline (MTS) quality."""
    mts = artifacts[_RESTREAMING_MTS]
    dataset, num_partitions = _RESTREAMING_MTS["dataset"], _RESTREAMING_MTS["k"]
    graph = ctx.graph(dataset)
    report = ExperimentReport(
        "ablation-restreaming",
        f"re-LDG restreaming passes on {dataset}, k={num_partitions}",
    )
    table = report.add_table(Table(
        "Edge-cut ratio vs number of passes",
        ["Passes", "EdgeCutRatio"],
    ))
    data = {}
    for passes in (1, 2, 3, 5, 10):
        partition = RestreamingLdgPartitioner(num_passes=passes,
                                              seed=PARTITION_SEED) \
            .partition(graph, num_partitions, order="random",
                       seed=PARTITION_SEED)
        data[passes] = edge_cut_ratio(graph, partition)
        table.add_row(passes, round(data[passes], 3))
    mts_cut = edge_cut_ratio(graph, mts)
    report.data["results"] = data
    report.data["mts_cut"] = mts_cut
    report.add_note(f"MTS (offline multilevel) cut ratio: {mts_cut:.3f} — "
                    "restreaming should close most of the gap from the "
                    "single-pass result.")
    return report


#: The offline bound of the dynamic-updates ablation, on the grown graph.
_DYNAMIC_MTS = Artifact("partition", dict(
    dataset=ONLINE_DATASET, algorithm="mts", k=ABLATION_PARTITIONS))


@requires(lambda profile: [_DYNAMIC_MTS])
def ablation_dynamic_updates(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Dynamic graphs: how a partitioning ages and how refinement helps.

    Section 2 motivates Hermes/Leopard with exactly this scenario: the
    graph grows after the initial (bulk-load) partitioning.  We hold back
    :data:`GROWTH_FRACTION` of the edges, partition the remainder with LDG,
    then add the held-back edges and compare:

    * the *stale* partitioning on the grown graph,
    * stale + Hermes-style refinement,
    * re-streaming the grown graph from scratch (re-LDG quality bound),
    * the offline MTS bound.
    """
    from repro.partitioning import LdgPartitioner, hermes_refine
    from repro.rng import make_rng

    offline = artifacts[_DYNAMIC_MTS]
    dataset, num_partitions = _DYNAMIC_MTS["dataset"], _DYNAMIC_MTS["k"]
    graph = ctx.graph(dataset)
    rng = make_rng(PARTITION_SEED)
    keep = rng.random(graph.num_edges) >= GROWTH_FRACTION
    base_graph = graph.subgraph_edges(np.flatnonzero(keep),
                                      name=f"{dataset}-base")

    stale = LdgPartitioner(seed=PARTITION_SEED).partition(
        base_graph, num_partitions, order=STREAM_ORDER, seed=PARTITION_SEED)
    refreshed = hermes_refine(graph, stale, seed=PARTITION_SEED)
    restreamed = LdgPartitioner(seed=PARTITION_SEED).partition(
        graph, num_partitions, order=STREAM_ORDER, seed=PARTITION_SEED)

    report = ExperimentReport(
        "ablation-dynamic-updates",
        f"Partition aging under {GROWTH_FRACTION:.0%} edge growth "
        f"({dataset}, k={num_partitions})",
    )
    table = report.add_table(Table(
        "Edge-cut ratio on the grown graph",
        ["Strategy", "EdgeCutRatio"],
    ))
    data = {}
    for label, partition in (("stale LDG", stale),
                             ("stale + hermes refine", refreshed),
                             ("re-streamed LDG", restreamed),
                             ("offline MTS", offline)):
        data[label] = edge_cut_ratio(graph, partition)
        table.add_row(label, round(data[label], 3))
    report.data["results"] = data
    report.add_note("Expected: refinement recovers most of the gap between "
                    "the stale partitioning and a full re-stream.")
    return report


@requires(lambda profile: [
    _one_hop(algorithm) for algorithm in ("ecr", "ldg", "fennel", "mts")])
def ablation_straggler(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Failure injection: one worker degrades to :data:`SLOW_FACTOR` speed.

    A straggling machine is the classic tail-latency amplifier.  The
    partition-aware router keeps sending it every query it owns, so a
    partitioning that concentrates hot data on the straggler suffers far
    more than one that spreads load — quantifying the resilience argument
    behind the paper's hash-partitioning recommendation for
    latency-critical workloads.
    """
    report = ExperimentReport(
        "ablation-straggler",
        f"Tail latency with one worker at {SLOW_FACTOR:.0%} speed "
        f"({ONLINE_DATASET}, {ONLINE_WORKERS} workers, medium load)",
    )
    table = report.add_table(Table(
        "p99 latency (ms), healthy vs degraded cluster",
        ["Algorithm", "Healthy p99", "Straggler p99", "Blowup"],
    ))
    data = {}
    for artifact, healthy in artifacts.items():
        algorithm = artifact["algorithm"]
        # Degrade the worker that serves the most reads — the worst case
        # the operator cares about.  Which worker that is depends on the
        # healthy run, so the degraded run cannot be planned ahead: it is
        # computed here, through the same cache.
        hot_worker = int(np.argmax(healthy.read_distribution()))
        speeds = [1.0] * artifact["k"]
        speeds[hot_worker] = SLOW_FACTOR
        degraded = ctx.simulation(**artifact.kwargs, worker_speeds=speeds)
        h_p99 = healthy.latency().p99 * 1e3
        d_p99 = degraded.latency().p99 * 1e3
        data[algorithm] = (h_p99, d_p99)
        table.add_row(algorithm.upper(), round(h_p99, 1), round(d_p99, 1),
                      round(d_p99 / max(h_p99, 1e-9), 2))
    report.data["results"] = data
    report.add_note("Expected: every algorithm degrades, and partitionings "
                    "that concentrate hot data suffer the largest blowup "
                    "when their hottest worker straggles.")
    return report


#: The inputs of the zero-fault chaos check.
_CHAOS_PARTITION = Artifact("partition", dict(
    dataset=ONLINE_DATASET, algorithm="ecr", k=ONLINE_WORKERS))
_CHAOS_BINDINGS = Artifact("bindings", dict(dataset=ONLINE_DATASET,
                                            kind="one_hop"))


def _fault_tolerance_needs(profile) -> list:
    """The chaos check's inputs, a (healthy, faulted) 1-hop run pair per
    algorithm, and healthy PageRank runs (ECR's also times the crash)."""
    duration = profile.sim_duration
    schedule = FaultSchedule(
        crashes=(
            CrashInterval(1 % ONLINE_WORKERS, 0.35 * duration, 0.55 * duration),
            CrashInterval(2 % ONLINE_WORKERS, 0.40 * duration, 0.55 * duration),
        ),
        slowdowns=(
            SlowdownInterval(min(4, ONLINE_WORKERS - 1), 0.65 * duration,
                             0.85 * duration, 0.5),
        ),
        drop_probability=0.01,
        seed=PARTITION_SEED,
    )
    online = [artifact for algorithm in ("ecr", "ldg", "fennel")
              for artifact in (_one_hop(algorithm),
                               _one_hop(algorithm, fault_schedule=schedule))]
    offline = [Artifact("analytics", dict(dataset=ONLINE_DATASET,
                                          algorithm=algorithm, k=ONLINE_WORKERS,
                                          workload="pagerank"))
               for algorithm in ("ecr", "ldg", "fennel", "hdrf")]
    return [_CHAOS_PARTITION, _CHAOS_BINDINGS, *online, *offline]


@requires(_fault_tolerance_needs)
def ablation_fault_tolerance(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Fault injection on both substrates: availability and recovery cost.

    Extends the paper's straggler discussion (Section 5.2) from *slow*
    machines to *failing* ones.  Every algorithm is subjected to the same
    deterministic :class:`~repro.faults.FaultSchedule` — the paper's
    same-workload methodology, extended to failures:

    * two overlapping worker crashes (workers 1 and 2 — a window where
      the k=2 replica chain of worker 1 is entirely down, so availability
      depends on how much hot data the partitioner placed there);
    * one transient straggler at half speed;
    * a 1% wire-drop probability.

    The online half measures client-visible availability, retry traffic
    and tail latency under the schedule; the offline half crashes one
    machine mid-PageRank and measures checkpoint-restart recovery, whose
    cost (state lost, migration traffic, re-homing quality) depends on the
    partitioning under test.
    """
    graph = ctx.graph(ONLINE_DATASET)

    report = ExperimentReport(
        "ablation-fault-tolerance",
        f"Availability and recovery under one fault schedule "
        f"({ONLINE_DATASET}, {ONLINE_WORKERS} workers)",
    )

    online_table = report.add_table(Table(
        "Online: availability / retries / tail latency under faults",
        ["Algorithm", "Availability", "Timeouts", "Retries", "Failed",
         "Healthy p99", "Faulted p99"],
    ))
    online = {}
    online_runs = {artifact: run for artifact, run in artifacts.items()
                   if artifact.kind == "simulation"}
    for algorithm, runs in group_by(online_runs, "algorithm").items():
        healthy, faulted = runs.values()
        online[algorithm] = {
            "availability": faulted.availability,
            "timeouts": faulted.timeouts,
            "retries": faulted.retries,
            "failed": faulted.failed_queries,
            "healthy_p99_ms": healthy.latency().p99 * 1e3,
            "faulted_p99_ms": faulted.latency().p99 * 1e3,
        }
        online_table.add_row(
            algorithm.upper(),
            f"{faulted.availability:.4f}",
            faulted.timeouts, faulted.retries, faulted.failed_queries,
            round(online[algorithm]["healthy_p99_ms"], 1),
            round(online[algorithm]["faulted_p99_ms"], 1))

    # Offline: crash one machine mid-PageRank.  The crash instant is fixed
    # from the hash baseline's wall clock, so every algorithm faces the
    # same schedule.  It depends on that run's result, so the faulted
    # runs cannot be planned ahead: they are computed here, through the
    # same cache.
    offline_runs = {artifact: run for artifact, run in artifacts.items()
                    if artifact.kind == "analytics"}
    reference = next(run for artifact, run in offline_runs.items()
                     if artifact["algorithm"] == "ecr")
    crash_at = 0.4 * reference.execution_seconds
    engine_schedule = FaultSchedule.single_crash(
        1 % ONLINE_WORKERS, crash_at, 0.2 * reference.execution_seconds,
        seed=PARTITION_SEED)

    offline_table = report.add_table(Table(
        "Offline: checkpoint-restart recovery of a mid-PageRank crash",
        ["Algorithm", "LostVertices", "MigrationKB", "ReExecSteps",
         "RecoveryMs", "Slowdown"],
    ))
    offline = {}
    for artifact, healthy in offline_runs.items():
        algorithm = artifact["algorithm"]
        faulted = ctx.analytics_run(**artifact.kwargs,
                                    fault_schedule=engine_schedule,
                                    checkpoint_interval=2)
        lost = sum(e.lost_vertices for e in faulted.recovery_events)
        offline[algorithm] = {
            "lost_vertices": lost,
            "migration_bytes": faulted.migration_bytes,
            "reexecuted_supersteps": faulted.reexecuted_supersteps,
            "recovery_seconds": faulted.recovery_seconds,
            "slowdown": (faulted.execution_seconds
                         / healthy.execution_seconds),
        }
        offline_table.add_row(
            algorithm.upper(), lost,
            round(faulted.migration_bytes / 1e3, 1),
            faulted.reexecuted_supersteps,
            round(faulted.recovery_seconds * 1e3, 3),
            round(offline[algorithm]["slowdown"], 3))

    # The chaos invariant: the zero-fault schedule must reproduce the
    # fault-free baseline bit-for-bit (raises on violation).
    ChaosHarness().verify_simulation(
        graph, artifacts[_CHAOS_PARTITION], artifacts[_CHAOS_BINDINGS],
        duration=min(ctx.profile.sim_duration, 0.3))
    report.data["results"] = {"online": online, "offline": offline}
    report.add_note("Zero-fault schedule verified bit-identical to the "
                    "fault-free baseline (ChaosHarness).")
    report.add_note("Expected: placements concentrating hot data on the "
                    "crashed workers lose more availability online and "
                    "pay more recovery traffic offline; balanced hash "
                    "placements degrade the most gracefully.")
    return report


@requires(lambda profile: [_KNOB_GRAPH])
def ablation_partitioning_cost(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Partitioning wall time and synopsis memory per algorithm.

    Section 4.1.1: streaming partitioners are "approximately ten times
    faster than their offline counterpart, METIS, and only use a fraction
    of memory".  This measures both on the same graph: wall-clock per
    algorithm and peak additional memory during the partitioning call
    (via tracemalloc, so it captures the synopsis the algorithm keeps).
    """
    import time
    import tracemalloc

    graph = artifacts[_KNOB_GRAPH]
    report = ExperimentReport(
        "ablation-partitioning-cost",
        f"Partitioning cost on {KNOB_DATASET} "
        f"({graph.num_edges:,} edges, k={ABLATION_PARTITIONS})",
    )
    table = report.add_table(Table(
        "Wall time and peak synopsis memory",
        ["Algorithm", "Seconds", "Peak MB", "Edges/s"],
    ))
    data = {}
    for algorithm in ("ecr", "ldg", "fennel", "hdrf", "hg", "mts"):
        partitioner = make_seeded_partitioner(algorithm, PARTITION_SEED)
        tracemalloc.start()
        started = time.time()
        partitioner.partition(graph, ABLATION_PARTITIONS, order=STREAM_ORDER,
                              seed=PARTITION_SEED)
        elapsed = time.time() - started
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak_mb = peak / 1e6
        data[algorithm] = (elapsed, peak_mb)
        table.add_row(algorithm.upper(), round(elapsed, 3),
                      round(peak_mb, 2), round(graph.num_edges / elapsed))
    report.data["results"] = data
    report.add_note("Expected: the hash methods are orders of magnitude "
                    "faster than MTS; every streaming method's synopsis is "
                    "a fraction of MTS's multilevel hierarchy.")
    return report


@requires(lambda profile: [
    Artifact("partition", dict(dataset=KNOB_DATASET,
                               algorithm=algorithm,
                               k=ABLATION_PARTITIONS))
    for algorithm in ("ecr", "ldg", "vcr", "hdrf", "hcr")])
def ablation_sender_side_aggregation(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Quantify Appendix B: the edge-cut PageRank advantage.

    Compares the mirror-update traffic a changed vertex generates under
    the uni-directional rule (out-edge mirrors only — possible because
    out-edges are source-local in the Appendix-B placement) against the
    all-mirror rule a naive system would use.
    """
    graph = ctx.graph(KNOB_DATASET)
    report = ExperimentReport(
        "ablation-sender-side-aggregation",
        f"Appendix B: out-edge-local vs all-mirror updates on {KNOB_DATASET}",
    )
    table = report.add_table(Table(
        "Per-iteration mirror updates if every vertex changes",
        ["Algorithm", "Out-edge mirrors", "All mirrors", "Saving"],
    ))
    data = {}
    for artifact, partition in artifacts.items():
        algorithm = artifact["algorithm"]
        placement = Placement(graph, partition)
        out_updates = int(placement.mirror_counts_out.sum())
        all_updates = int(placement.mirror_counts_all.sum())
        saving = 1.0 - out_updates / all_updates if all_updates else 0.0
        data[algorithm] = (out_updates, all_updates, saving)
        table.add_row(algorithm.upper(), out_updates, all_updates,
                      f"{saving:.0%}")
    report.data["results"] = data
    report.add_note("Edge-cut placements save ~100% (out-edges are "
                    "master-local); vertex-cut placements save little — "
                    "the Figure 1(a) slope difference.")
    return report
