"""The experiment suite as an explicit job DAG.

The paper's methodology is a dataflow: a *dataset* is generated, streamed
in a fixed *order*, *partitioned* by each algorithm at each cluster size,
the partitions are *placed*, *substrate runs* (GAS analytics / database
simulations) execute over the placements, *metrics* are reduced from the
runs, and each *table/figure* renders a slice of those metrics.  This
module makes that dataflow explicit as :class:`Job` nodes so the
scheduler can execute independent branches in parallel and resume from
whatever artifacts already exist.

Job kinds and their stage in the DAG::

    dataset ──► partition ──► analytics ─────┐
        │           │                        ├──► experiment
        └──► bindings ──► simulation ────────┘

(The *stream* stage is the ``order`` field of the partition jobs; the
*placement* and *metric* stages run inside their consumers — a placement
is derived in-process from the cached partition, and metric reduction is
part of each experiment's rendering.)

The per-experiment requirement tables below mirror the loops inside
:mod:`repro.experiments.figures` / ``tables`` / ``ablations``.  They are
deliberately *approximate*: anything an experiment needs that the planner
did not enumerate (e.g. the derived straggler run whose worker speeds
depend on a prior result) is simply computed inside the experiment job —
through the same cache — so a planner/experiment mismatch costs a little
parallelism, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import OrchestratorError
from repro.experiments.datasets import (
    DATASETS,
    OFFLINE_DATASETS,
    scale_profile,
)
from repro.experiments.figures import (
    HIGH_LOAD_CLIENTS,
    MEDIUM_LOAD_CLIENTS,
    OFFLINE_WORKLOADS,
)
from repro.partitioning import OFFLINE_ALGORITHMS, ONLINE_ALGORITHMS

#: The dataset the online (database) experiments run on.
ONLINE_DATASET = "ldbc-snb"

#: Execution stage per job kind (drives the deterministic serial order).
STAGE = {"dataset": 0, "partition": 1, "bindings": 1,
         "analytics": 2, "simulation": 2, "experiment": 3}


@dataclass
class Job:
    """One schedulable unit: an artifact to materialise or an experiment."""

    job_id: str
    kind: str
    params: dict = field(default_factory=dict)
    deps: tuple = ()


@dataclass
class JobGraph:
    """A validated DAG of jobs plus the experiment order to render in."""

    jobs: dict = field(default_factory=dict)
    experiments: tuple = ()

    def add(self, kind: str, params: dict, deps=()) -> str:
        job_id = _job_id(kind, params)
        existing = self.jobs.get(job_id)
        if existing is not None:
            existing.deps = tuple(sorted(set(existing.deps) | set(deps)))
            return job_id
        self.jobs[job_id] = Job(job_id, kind, dict(params),
                                tuple(sorted(set(deps))))
        return job_id

    def topological_order(self) -> list:
        """Deterministic schedule: by stage, then job id (serial order)."""
        order = sorted(self.jobs.values(),
                       key=lambda j: (STAGE[j.kind], j.job_id))
        seen = set()
        for job in order:
            missing = [d for d in job.deps if d not in self.jobs]
            if missing:
                raise OrchestratorError(
                    f"job {job.job_id} depends on unknown job(s) {missing}")
            if any(d not in seen and STAGE[self.jobs[d].kind] >= STAGE[job.kind]
                   for d in job.deps):
                raise OrchestratorError(
                    f"job {job.job_id} has a dependency at the same or a "
                    f"later stage — the DAG is not stage-stratified")
            seen.add(job.job_id)
        return order

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for job in self.jobs.values():
            out[job.kind] = out.get(job.kind, 0) + 1
        return out


def _job_id(kind: str, params: dict) -> str:
    parts = [str(params[key]) for key in sorted(params)]
    return f"{kind}:" + "/".join(parts) if parts else kind


# ----------------------------------------------------------------------
# Requirement enumeration (mirrors the experiment bodies)
# ----------------------------------------------------------------------
def build_plan(names, scale: str | None = None) -> JobGraph:
    """The job DAG covering *names* at *scale*.

    Shared artifacts are deduplicated: the Fig. 2 partitionings feed
    Figs. 1/3/4/13 as single partition jobs, and the online simulations
    Table 5 and Figs. 5–7 share appear once.
    """
    from repro.experiments import EXPERIMENTS

    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise OrchestratorError(f"unknown experiment(s): {unknown}")

    profile = scale_profile(scale)
    plan = JobGraph(experiments=tuple(names))
    for name in names:
        requirements = _REQUIREMENTS.get(name, _no_requirements)
        dep_ids = [_add_artifact(plan, spec) for spec in requirements(profile)]
        plan.add("experiment", {"name": name}, deps=dep_ids)
    return plan


def _add_artifact(plan: JobGraph, spec) -> str:
    kind, params = spec
    if kind == "dataset":
        return plan.add("dataset", params)
    if kind == "bindings":
        dataset = plan.add("dataset", {"dataset": params["dataset"]})
        return plan.add("bindings", params, deps=[dataset])
    if kind == "partition":
        dataset = plan.add("dataset", {"dataset": params["dataset"]})
        return plan.add("partition", params, deps=[dataset])
    if kind == "analytics":
        partition = plan.add("partition", {
            "dataset": params["dataset"], "algorithm": params["algorithm"],
            "k": params["k"]})
        return plan.add("analytics", params, deps=[partition])
    if kind == "simulation":
        partition = plan.add("partition", {
            "dataset": params["dataset"], "algorithm": params["algorithm"],
            "k": params["k"]})
        bindings = plan.add("bindings", {
            "dataset": params["dataset"], "kind": params["kind"]})
        return plan.add("simulation", params, deps=[partition, bindings])
    raise OrchestratorError(f"unknown artifact kind {kind!r}")


def _no_requirements(profile):
    return ()


def _datasets(*names):
    return [("dataset", {"dataset": d}) for d in names]


def _offline_analytics(datasets, algorithms, ks, workloads):
    return [("analytics", {"dataset": d, "algorithm": a, "k": k, "workload": w})
            for d in datasets for a in algorithms for k in ks for w in workloads]


def _partitions(datasets, algorithms, ks):
    return [("partition", {"dataset": d, "algorithm": a, "k": k})
            for d in datasets for a in algorithms for k in ks]


def _simulations(datasets, algorithms, ks, kinds, client_counts):
    return [("simulation", {"dataset": d, "algorithm": a, "k": k,
                            "kind": q, "clients": c})
            for d in datasets for a in algorithms for k in ks
            for q in kinds for c in client_counts]


def _req_table3(profile):
    return _datasets(*DATASETS)


def _req_table4(profile):
    return _partitions([ONLINE_DATASET], ONLINE_ALGORITHMS,
                       profile.online_partitions)


def _req_table5(profile):
    return _simulations([ONLINE_DATASET], ONLINE_ALGORITHMS, [16],
                        ["one_hop"], [MEDIUM_LOAD_CLIENTS, HIGH_LOAD_CLIENTS])


def _req_figure1(profile):
    return _offline_analytics(["twitter"], OFFLINE_ALGORITHMS,
                              profile.offline_partitions, OFFLINE_WORKLOADS)


def _req_figure2(profile):
    return _partitions(OFFLINE_DATASETS, OFFLINE_ALGORITHMS,
                       profile.offline_partitions)


def _req_figure3(profile):
    return _offline_analytics(["twitter"], OFFLINE_ALGORITHMS,
                              profile.offline_partitions, OFFLINE_WORKLOADS)


def _req_figure4(profile):
    k = max(profile.offline_partitions)
    return _offline_analytics(OFFLINE_DATASETS, OFFLINE_ALGORITHMS, [k],
                              ["pagerank"])


def _req_figure5(profile):
    return _simulations([ONLINE_DATASET], ONLINE_ALGORITHMS,
                        profile.online_partitions, ["one_hop"],
                        [MEDIUM_LOAD_CLIENTS])


def _req_figure6(profile):
    return _simulations([ONLINE_DATASET], ONLINE_ALGORITHMS,
                        profile.online_partitions, ["one_hop", "two_hop"],
                        [MEDIUM_LOAD_CLIENTS, HIGH_LOAD_CLIENTS])


def _req_figure7(profile):
    return _simulations([ONLINE_DATASET], ONLINE_ALGORITHMS, [16],
                        ["one_hop"], [MEDIUM_LOAD_CLIENTS])


def _req_figure8(profile):
    # The MTS-W candidate (workload-aware weighted partition) is derived
    # inside the experiment; only the standard candidates are planned.
    return _req_figure7(profile)


def _req_figure9(profile):
    k = max(profile.offline_partitions[:-1])
    streaming = [a for a in OFFLINE_ALGORITHMS if a != "mts"]
    return _offline_analytics(OFFLINE_DATASETS, streaming, [k], ["pagerank"])


def _req_figure12(profile):
    return [("simulation", {"dataset": ONLINE_DATASET, "algorithm": a,
                            "k": k, "kind": "one_hop",
                            "clients": max(1, 192 // k)})
            for a in ONLINE_ALGORITHMS for k in profile.online_partitions]


def _req_figure13(profile):
    return _offline_analytics(OFFLINE_DATASETS, OFFLINE_ALGORITHMS,
                              profile.offline_partitions, OFFLINE_WORKLOADS)


def _req_figure14(profile):
    return _simulations(OFFLINE_DATASETS, ONLINE_ALGORITHMS, [16],
                        ["one_hop"], [MEDIUM_LOAD_CLIENTS, HIGH_LOAD_CLIENTS])


def _req_figure15(profile):
    return _simulations(OFFLINE_DATASETS, ONLINE_ALGORITHMS, [16],
                        ["one_hop"], [MEDIUM_LOAD_CLIENTS])


def _req_ablation_twitter(profile):
    return _datasets("twitter")


def _req_ablation_restreaming(profile):
    return (_datasets("usa-road")
            + _partitions(["usa-road"], ["mts"], [16]))


def _req_ablation_dynamic(profile):
    return (_datasets(ONLINE_DATASET)
            + _partitions([ONLINE_DATASET], ["mts"], [16]))


def _req_ablation_straggler(profile):
    # Healthy runs are planned; the degraded runs depend on which worker
    # turns out hottest and are computed (through the cache) in-experiment.
    return _simulations([ONLINE_DATASET], ["ecr", "ldg", "fennel", "mts"],
                        [16], ["one_hop"], [MEDIUM_LOAD_CLIENTS])


def _req_ablation_fault_tolerance(profile):
    # Faulted runs use a schedule built inside the experiment; the healthy
    # baselines and the partitions both halves share are planned.
    return (_simulations([ONLINE_DATASET], ["ecr", "ldg", "fennel"], [16],
                         ["one_hop"], [MEDIUM_LOAD_CLIENTS])
            + _partitions([ONLINE_DATASET], ["ecr", "ldg", "fennel", "hdrf"],
                          [16])
            + _offline_analytics([ONLINE_DATASET],
                                 ["ecr", "ldg", "fennel", "hdrf"], [16],
                                 ["pagerank"]))


def _req_ablation_sender_side(profile):
    return _partitions(["twitter"], ["ecr", "ldg", "vcr", "hdrf", "hcr"], [16])


def _req_online_service(profile):
    # The service loop derives everything else (partitions, traffic,
    # simulations) from its own seeds; only the base graph is planned.
    return _datasets(ONLINE_DATASET)


_REQUIREMENTS = {
    "table3": _req_table3,
    "table4": _req_table4,
    "table5": _req_table5,
    "figure1": _req_figure1,
    "figure2": _req_figure2,
    "figure3": _req_figure3,
    "figure4": _req_figure4,
    "figure5": _req_figure5,
    "figure6": _req_figure6,
    "figure7": _req_figure7,
    "figure8": _req_figure8,
    "figure9": _req_figure9,
    "figure12": _req_figure12,
    "figure13": _req_figure13,
    "figure14": _req_figure14,
    "figure15": _req_figure15,
    "ablation-stream-order": _req_ablation_twitter,
    "ablation-fennel-gamma": _req_ablation_twitter,
    "ablation-hdrf-lambda": _req_ablation_twitter,
    "ablation-ginger-threshold": _req_ablation_twitter,
    "ablation-restreaming": _req_ablation_restreaming,
    "ablation-dynamic-updates": _req_ablation_dynamic,
    "ablation-fault-tolerance": _req_ablation_fault_tolerance,
    "ablation-straggler": _req_ablation_straggler,
    "ablation-partitioning-cost": _req_ablation_twitter,
    "ablation-sender-side-aggregation": _req_ablation_sender_side,
    "online-service": _req_online_service,
    # The SLO ablation is the same service loop under different policies;
    # like online-service, only the base graph is a plannable artifact.
    "slo-ablation": _req_online_service,
    # The scale sweep spills its own synthetic streams to disk and caches
    # ingest summaries directly; nothing is plannable up front.
    "scale-sweep": _no_requirements,
}
