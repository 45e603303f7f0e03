"""Reproductions of the paper's figures (1–9, 12–15).

Each function regenerates one figure's underlying data as text tables
(series instead of plots) and records the machine-readable payload in
``report.data`` for the test suite's shape checks.
"""

from __future__ import annotations

import numpy as np

from repro.database import plan_query, record_workload, simulate_workload
from repro.experiments.datasets import OFFLINE_DATASETS, ONLINE_DATASET
from repro.experiments.report import ExperimentReport, Table
from repro.experiments.runner import (
    PARTITION_SEED,
    Artifact,
    ExperimentContext,
    group_by,
    requires,
)
from repro.graph.analysis import classify_graph
from repro.metrics import edge_cut_ratio, relative_standard_deviation, summarize
from repro.partitioning import (
    CUT_MODELS,
    OFFLINE_ALGORITHMS,
    ONLINE_ALGORITHMS,
    recommend,
)
from repro.partitioning.workload_aware import workload_aware_partition

#: The offline analytics workloads run over every placement.
OFFLINE_WORKLOADS = ("pagerank", "wcc", "sssp")
#: Client counts of the two load scenarios (Section 6.3.2).
MEDIUM_LOAD_CLIENTS = 12
HIGH_LOAD_CLIENTS = 24
#: Report label of each load scenario, keyed by clients per worker.
LOAD_LABELS = {MEDIUM_LOAD_CLIENTS: "medium", HIGH_LOAD_CLIENTS: "high"}
#: The graph of the single-dataset offline figures (1 and 3).
SKEWED_DATASET = "twitter"
#: Cluster size of the fixed-size online experiments.
ONLINE_WORKERS = 16
#: Concurrent clients of Fig. 12, spread over every cluster size.
TOTAL_CLIENTS = 192


def _analytics(dataset: str, algorithm: str, k: int, workload: str) -> Artifact:
    return Artifact("analytics", dict(dataset=dataset, algorithm=algorithm,
                                      k=k, workload=workload))


def _simulation(dataset: str, algorithm: str, k: int, kind: str,
                clients: int) -> Artifact:
    return Artifact("simulation", dict(dataset=dataset, algorithm=algorithm,
                                       k=k, kind=kind,
                                       clients_per_worker=clients))


# ----------------------------------------------------------------------
# Offline analytics figures
# ----------------------------------------------------------------------
@requires(lambda profile: [
    _analytics(SKEWED_DATASET, algorithm, k, workload)
    for workload in OFFLINE_WORKLOADS
    for algorithm in OFFLINE_ALGORITHMS
    for k in profile.offline_partitions])
def figure1(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Fig. 1: replication factor vs total network I/O per cut model."""
    report = ExperimentReport(
        "figure1",
        f"Replication factor vs network I/O on {SKEWED_DATASET} "
        "(PR / WCC / SSSP, all algorithms x partition counts)",
    )
    points: dict[str, dict[str, list[tuple[float, float]]]] = {}
    table = report.add_table(Table(
        "Per-configuration points",
        ["Workload", "CutModel", "Algorithm", "k", "ReplFactor", "Network MB"],
    ))
    for artifact, run in artifacts.items():
        workload, algorithm = artifact["workload"], artifact["algorithm"]
        model = CUT_MODELS[algorithm]
        rf = run.replication_factor
        mb = run.total_network_bytes / 1e6
        points.setdefault(workload, {}).setdefault(model, []).append((rf, mb))
        table.add_row(workload, model, algorithm.upper(), artifact["k"],
                      round(rf, 2), round(mb, 2))
    slopes = report.add_table(Table(
        "Least-squares slope of network I/O vs replication factor "
        "(MB per replica unit, through origin)",
        ["Workload", *sorted(set(CUT_MODELS.values()))],
    ))
    slope_data: dict[str, dict[str, float]] = {}
    for workload, by_model in points.items():
        row = {}
        for model in sorted(set(CUT_MODELS.values())):
            pts = np.array(by_model.get(model, [(0, 0)]))
            x, y = pts[:, 0], pts[:, 1]
            denominator = float((x * x).sum())
            row[model] = float((x * y).sum() / denominator) if denominator else 0.0
        slope_data[workload] = row
        slopes.add_row(workload,
                       *[round(row[m], 2) for m in sorted(set(CUT_MODELS.values()))])
    report.data["points"] = points
    report.data["slopes"] = slope_data
    report.add_note("Expected shape: network I/O grows linearly with RF; "
                    "for PageRank the edge-cut slope is clearly below "
                    "vertex-cut/hybrid (uni-directional communication); "
                    "PR total I/O >> WCC/SSSP.")
    return report


@requires(lambda profile: [
    Artifact("partition", dict(dataset=dataset, algorithm=algorithm, k=k))
    for dataset in OFFLINE_DATASETS
    for k in profile.offline_partitions
    for algorithm in OFFLINE_ALGORITHMS])
def figure2(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Fig. 2: replication factor of every algorithm / dataset / k."""
    report = ExperimentReport(
        "figure2", "Replication factors over 8..128 partitions",
    )
    data: dict[str, dict[int, dict[str, float]]] = {}
    for dataset, by_k in group_by(artifacts, "dataset", "k").items():
        table = report.add_table(Table(
            f"Replication factor — {dataset}",
            ["Partitions", *[a.upper() for a in OFFLINE_ALGORITHMS]],
        ))
        data[dataset] = {}
        for k, cells in by_k.items():
            row = {artifact["algorithm"]:
                   ctx.placement(**artifact.kwargs).replication_factor()
                   for artifact in cells}
            data[dataset][k] = row
            table.add_row(k, *[round(value, 2) for value in row.values()])
    report.data["replication"] = data
    report.add_note("Expected shape: no universal winner — LDG/FNL lowest "
                    "on usa-road; HDRF lowest among vertex-cut on uk-web; "
                    "degree-aware methods (HDRF/DBH/HG) competitive with or "
                    "better than MTS on twitter.")
    return report


@requires(lambda profile: [
    _analytics(SKEWED_DATASET, algorithm, k, workload)
    for workload in OFFLINE_WORKLOADS
    for k in profile.offline_partitions
    for algorithm in OFFLINE_ALGORITHMS])
def figure3(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Fig. 3: execution time of PR / WCC / SSSP across cluster sizes."""
    report = ExperimentReport(
        "figure3", f"Offline workload execution time on {SKEWED_DATASET} (ms)",
    )
    data: dict[str, dict[int, dict[str, float]]] = {}
    for workload, by_k in group_by(artifacts, "workload", "k").items():
        table = report.add_table(Table(
            f"Execution time (ms) — {workload}",
            ["Partitions", *[a.upper() for a in OFFLINE_ALGORITHMS]],
        ))
        data[workload] = {}
        for k, cells in by_k.items():
            row = _execution_ms(cells)
            data[workload][k] = row
            table.add_row(k, *[round(value, 2) for value in row.values()])
    report.data["execution_ms"] = data
    report.add_note("Expected shape: vertex-cut/hybrid fastest PageRank on "
                    "the skewed graph; algorithm gaps narrow for WCC/SSSP; "
                    "diminishing returns at high partition counts.")
    return report


def _execution_ms(artifacts: dict) -> dict[str, float]:
    """``{algorithm: execution ms}`` of one row of analytics runs."""
    return {artifact["algorithm"]: run.execution_seconds * 1e3
            for artifact, run in artifacts.items()}


@requires(lambda profile: [
    _analytics(dataset, algorithm, max(profile.offline_partitions), "pagerank")
    for dataset in OFFLINE_DATASETS
    for algorithm in OFFLINE_ALGORITHMS])
def figure4(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Fig. 4: per-machine computation time distribution during PageRank."""
    k = next(iter(artifacts))["k"]
    report = ExperimentReport(
        "figure4",
        f"Distribution of per-machine computation time, PageRank, {k} machines",
    )
    data: dict[str, dict[str, dict]] = {}
    for dataset, cells in group_by(artifacts, "dataset").items():
        table = report.add_table(Table(
            f"Computation time (ms) — {dataset}",
            ["Algorithm", "Min", "p25", "Median", "p75", "Max", "Max/Mean"],
        ))
        data[dataset] = {}
        for artifact, run in cells.items():
            algorithm = artifact["algorithm"]
            dist = summarize(run.compute_seconds_per_machine() * 1e3)
            data[dataset][algorithm] = dist
            table.add_row(algorithm.upper(), round(dist.minimum, 2),
                          round(dist.p25, 2), round(dist.median, 2),
                          round(dist.p75, 2), round(dist.maximum, 2),
                          round(dist.max_over_mean, 2))
    report.data["distributions"] = data
    report.add_note("Expected shape: edge-cut methods (LDG/FNL) show a much "
                    "larger spread than vertex-cut on the skewed graphs "
                    "(twitter/uk-web); on usa-road edge-cut is balanced.")
    return report


@requires(lambda profile: [
    _analytics(dataset, algorithm, k, workload)
    for dataset in OFFLINE_DATASETS
    for workload in OFFLINE_WORKLOADS
    for k in profile.offline_partitions
    for algorithm in OFFLINE_ALGORITHMS])
def figure13(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Fig. 13: the full offline grid (all datasets x workloads x k)."""
    report = ExperimentReport(
        "figure13", "Execution time (ms) of all offline workloads on all graphs",
    )
    data: dict[tuple, dict[str, float]] = {}
    for dataset, by_workload in group_by(artifacts, "dataset", "workload", "k").items():
        for workload, by_k in by_workload.items():
            table = report.add_table(Table(
                f"Execution time (ms) — {dataset} / {workload}",
                ["Partitions", *[a.upper() for a in OFFLINE_ALGORITHMS]],
            ))
            for k, cells in by_k.items():
                row = _execution_ms(cells)
                data[(dataset, workload, k)] = row
                table.add_row(k, *[round(value, 2) for value in row.values()])
    report.data["execution_ms"] = data
    report.add_note("Expected shape: LDG/FNL lowest execution times on "
                    "usa-road; vertex-cut/hybrid lowest on twitter/uk-web.")
    return report


# ----------------------------------------------------------------------
# Online query figures
# ----------------------------------------------------------------------
@requires(lambda profile: [
    _simulation(ONLINE_DATASET, algorithm, k, "one_hop",
                MEDIUM_LOAD_CLIENTS)
    for algorithm in ONLINE_ALGORITHMS
    for k in profile.online_partitions])
def figure5(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Fig. 5: edge-cut ratio vs network I/O for the 1-hop workload."""
    graph = ctx.graph(ONLINE_DATASET)
    report = ExperimentReport(
        "figure5", f"Edge-cut ratio vs network I/O, 1-hop on {ONLINE_DATASET}",
    )
    table = report.add_table(Table(
        "Per-configuration points",
        ["Algorithm", "k", "EdgeCutRatio", "Network KB/query"],
    ))
    xs, ys = [], []
    for artifact, result in artifacts.items():
        algorithm, k = artifact["algorithm"], artifact["k"]
        partition = ctx.online_partition(artifact["dataset"], algorithm, k)
        ratio = edge_cut_ratio(graph, partition)
        # Normalise to per-query I/O: runs complete different query
        # counts in the fixed duration, while the paper measures the
        # I/O of a fixed workload.
        kb_per_query = (result.network_bytes / 1e3
                        / max(result.completed_queries, 1))
        xs.append(ratio)
        ys.append(kb_per_query)
        table.add_row(algorithm.upper(), k, round(ratio, 3),
                      round(kb_per_query, 2))
    correlation = float(np.corrcoef(xs, ys)[0, 1]) if len(xs) > 2 else 1.0
    report.data["points"] = list(zip(xs, ys))
    report.data["correlation"] = correlation
    report.add_note(f"Pearson correlation of network I/O with edge-cut "
                    f"ratio: {correlation:.3f} (paper: linear relationship).")
    return report


@requires(lambda profile: [
    _simulation(ONLINE_DATASET, algorithm, k, kind, clients)
    for kind in ("one_hop", "two_hop")
    for clients in LOAD_LABELS
    for k in profile.online_partitions
    for algorithm in ONLINE_ALGORITHMS])
def figure6(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Fig. 6: aggregate throughput, 1-hop & 2-hop, medium & high load."""
    report = ExperimentReport(
        "figure6", f"Aggregate throughput on {ONLINE_DATASET} under medium/high load",
    )
    data: dict[tuple, float] = {}
    for kind, by_load in group_by(artifacts, "kind", "clients_per_worker",
                                  "k").items():
        for clients, by_k in by_load.items():
            label = LOAD_LABELS[clients]
            table = report.add_table(Table(
                f"Throughput (queries/s) — {kind}, {label} load",
                ["Workers", *[a.upper() for a in ONLINE_ALGORITHMS]],
            ))
            for k, cells in by_k.items():
                row = _throughput(cells)
                for algorithm, throughput in row.items():
                    data[(kind, label, k, algorithm)] = throughput
                table.add_row(k, *[round(value) for value in row.values()])
    report.data["throughput"] = data
    report.add_note("Expected shape: MTS best (paper: ~25% over hashing on "
                    "1-hop); partitioning's impact far smaller than for "
                    "offline analytics (no 5x gaps).")
    return report


def _throughput(artifacts: dict) -> dict[str, float]:
    """``{algorithm: queries/s}`` of one row of simulations."""
    return {artifact["algorithm"]: result.throughput
            for artifact, result in artifacts.items()}


def _read_distributions(table: Table, artifacts: dict) -> dict:
    """Add one per-worker read-distribution row per simulation."""
    data = {}
    for artifact, result in artifacts.items():
        algorithm = artifact["algorithm"]
        dist = summarize(result.read_distribution() / 1e3)
        data[algorithm] = dist
        table.add_row(algorithm.upper(), round(dist.minimum, 1),
                      round(dist.p25, 1), round(dist.median, 1),
                      round(dist.p75, 1), round(dist.p95, 1),
                      round(dist.p99, 1), round(dist.maximum, 1),
                      round(dist.max_over_mean, 2))
    return data


def _fixed_size_needs(datasets) -> list:
    """1-hop, medium-load runs of every online algorithm on each dataset."""
    return [_simulation(dataset, algorithm, ONLINE_WORKERS, "one_hop",
                        MEDIUM_LOAD_CLIENTS)
            for dataset in datasets for algorithm in ONLINE_ALGORITHMS]


@requires(lambda profile: _fixed_size_needs([ONLINE_DATASET]))
def figure7(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Fig. 7: per-worker vertex reads during the 1-hop workload."""
    report = ExperimentReport(
        "figure7",
        f"Vertex reads per worker, 1-hop on {ONLINE_DATASET}, "
        f"{ONLINE_WORKERS} workers",
    )
    table = report.add_table(Table(
        "Reads per worker (thousands)",
        ["Algorithm", "Min", "p25", "Median", "p75", "p95", "p99", "Max",
         "Max/Mean"],
    ))
    report.data["distributions"] = _read_distributions(table, artifacts)
    report.add_note("Expected shape: LDG/FNL spread >> ECR spread — the "
                    "workload-skew hotspots of Section 6.3.1.")
    return report


#: The recorded workload Fig. 8 weights its partition by.
_FIGURE8_BINDINGS = Artifact("bindings", dict(dataset=ONLINE_DATASET,
                                              kind="one_hop"))


@requires(lambda profile: [_FIGURE8_BINDINGS, *_fixed_size_needs([ONLINE_DATASET])])
def figure8(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Fig. 8: workload-aware weighted partitioning (throughput + RSD)."""
    graph = ctx.graph(ONLINE_DATASET)
    bindings = artifacts.pop(_FIGURE8_BINDINGS)
    report = ExperimentReport(
        "figure8",
        f"Workload-aware partitioning, 1-hop on {ONLINE_DATASET}, "
        f"{ONLINE_WORKERS} workers",
    )
    # Record the access log of the same workload (the paper's method).
    plans = [plan_query(graph, b.kind, b.start_vertex,
                        target_vertex=b.target_vertex)
             for b in bindings]
    log = record_workload(graph, plans)
    weighted = workload_aware_partition(
        graph, ONLINE_WORKERS, log.vertex_reads, seed=PARTITION_SEED,
    )

    table = report.add_table(Table(
        "Throughput and load-distribution RSD",
        ["Algorithm", "Throughput (q/s)", "Load RSD"],
    ))
    data = {}
    # Registry algorithms run through the cached simulation path; MTS-W's
    # partition is derived from the recorded access log above, so it has
    # no registry identity and runs the simulator directly.
    results = [(artifact["algorithm"].upper(), result)
               for artifact, result in artifacts.items()]
    results.append(("MTS-W", simulate_workload(
        graph, weighted, bindings,
        clients_per_worker=MEDIUM_LOAD_CLIENTS,
        duration=ctx.profile.sim_duration,
    )))
    for label, result in results:
        rsd = relative_standard_deviation(result.read_distribution())
        data[label] = (result.throughput, rsd)
        table.add_row(label, round(result.throughput), round(rsd, 3))
    report.data["results"] = data
    report.add_note("Expected shape: MTS-W (weighted by recorded accesses) "
                    "beats unweighted MTS in throughput (paper: 13-35%) and "
                    "has the lowest load RSD.")
    return report


@requires(lambda profile: [
    _simulation(ONLINE_DATASET, algorithm, k, "one_hop",
                max(1, TOTAL_CLIENTS // k))
    for k in profile.online_partitions
    for algorithm in ONLINE_ALGORITHMS])
def figure12(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Fig. 12: fixed client population, growing cluster size."""
    report = ExperimentReport(
        "figure12",
        f"Aggregate throughput of {TOTAL_CLIENTS} concurrent clients, "
        f"1-hop on {ONLINE_DATASET}",
    )
    table = report.add_table(Table(
        "Throughput (queries/s)",
        ["Workers", *[a.upper() for a in ONLINE_ALGORITHMS]],
    ))
    data: dict[int, dict[str, float]] = {}
    for k, cells in group_by(artifacts, "k").items():
        row = _throughput(cells)
        data[k] = row
        table.add_row(k, *[round(value) for value in row.values()])
    report.data["throughput"] = data
    report.add_note("Expected shape: throughput stops improving (and "
                    "degrades) beyond ~16 workers — communication overhead "
                    "dominates (Section 5.2.1).")
    return report


@requires(lambda profile: [
    _simulation(dataset, algorithm, ONLINE_WORKERS, "one_hop", clients)
    for dataset in OFFLINE_DATASETS
    for clients in LOAD_LABELS
    for algorithm in ONLINE_ALGORITHMS])
def figure14(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Fig. 14: 1-hop throughput on the real-world-like graphs."""
    report = ExperimentReport(
        "figure14",
        f"1-hop throughput on real-world-like graphs, {ONLINE_WORKERS} workers",
    )
    data: dict[tuple, float] = {}
    for dataset, by_load in group_by(artifacts, "dataset",
                                     "clients_per_worker").items():
        table = report.add_table(Table(
            f"Throughput (queries/s) — {dataset}",
            ["Load", *[a.upper() for a in ONLINE_ALGORITHMS]],
        ))
        for clients, cells in by_load.items():
            label = LOAD_LABELS[clients]
            row = _throughput(cells)
            for algorithm, throughput in row.items():
                data[(dataset, label, algorithm)] = throughput
            table.add_row(label, *[round(value) for value in row.values()])
    report.data["throughput"] = data
    return report


@requires(lambda profile: _fixed_size_needs(OFFLINE_DATASETS))
def figure15(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Fig. 15: per-worker read distributions on the real-world-like graphs."""
    report = ExperimentReport(
        "figure15",
        f"Vertex reads per worker, 1-hop, {ONLINE_WORKERS} workers, all graphs",
    )
    data: dict[str, dict[str, object]] = {}
    for dataset, cells in group_by(artifacts, "dataset").items():
        table = report.add_table(Table(
            f"Reads per worker (thousands) — {dataset}",
            ["Algorithm", "Min", "p25", "Median", "p75", "p95", "p99",
             "Max", "Max/Mean"],
        ))
        data[dataset] = _read_distributions(table, cells)
    report.data["distributions"] = data
    report.add_note("Expected shape: FNL/LDG suffer load imbalance "
                    "regardless of graph characteristics (Section 6.3.1).")
    return report


# ----------------------------------------------------------------------
# Figure 9: the decision tree, checked against measurements
# ----------------------------------------------------------------------
# PageRank at a mid/large cluster size.  The tree selects among
# *streaming* algorithms; MTS is the offline baseline and needs a
# pre-processing pass, so it is out of scope.
@requires(lambda profile: [
    _analytics(dataset, algorithm, max(profile.offline_partitions[:-1]),
               "pagerank")
    for dataset in OFFLINE_DATASETS
    for algorithm in OFFLINE_ALGORITHMS if algorithm != "mts"])
def figure9(ctx: ExperimentContext, artifacts: dict) -> ExperimentReport:
    """Fig. 9: decision-tree recommendations vs measured winners."""
    report = ExperimentReport(
        "figure9", "Decision tree for picking an SGP algorithm",
    )
    table = report.add_table(Table(
        "Recommendation vs measurement",
        ["Scenario", "Recommended", "Measured best", "Consistent"],
    ))
    data = []
    for dataset, cells in group_by(artifacts, "dataset").items():
        graph_type = classify_graph(ctx.graph(dataset))
        rec = recommend("analytics", graph_type=graph_type)
        timings = {artifact["algorithm"]: run.execution_seconds
                   for artifact, run in cells.items()}
        best = min(timings, key=timings.get)
        # "Consistent" means the recommendation is within 25% of the best
        # measured time — the paper's tree picks a robust choice, not
        # necessarily the single fastest in every configuration.
        consistent = timings[rec.algorithm] <= 1.25 * timings[best]
        scenario = f"analytics / {dataset} ({graph_type})"
        table.add_row(scenario, rec.algorithm.upper(), best.upper(),
                      "yes" if consistent else "no")
        data.append((scenario, rec.algorithm, best, consistent))
    # Online branch: latency-critical and throughput-oriented entries.
    for kwargs, scenario in (
        (dict(tail_latency_critical=True), "online / tail-latency critical"),
        (dict(tail_latency_critical=False, load="medium",
              objective="throughput"), "online / medium load, throughput"),
    ):
        rec = recommend("online", **kwargs)
        table.add_row(scenario, rec.algorithm.upper(), "-", "-")
        data.append((scenario, rec.algorithm, None, None))
    report.data["rows"] = data
    report.add_note("Offline rows are validated against measured PageRank "
                    "execution times; online rows restate the paper's "
                    "guidance (validated by table5/figure6 shapes).")
    return report
