"""Experiment orchestration: shared context, caching, sweep helpers.

One figure often reuses another's expensive intermediates (the Fig. 2
partitionings feed Figs. 1/3/4; the online partitionings feed Table 5 and
Figs. 5–8).  :class:`ExperimentContext` owns those caches, the scale
profile, and the seeds, so a full `run_all` regenerates every table and
figure from one consistent universe — the paper's "same partitions across
all experiments" methodology.

The context has two cache tiers.  The in-memory dictionaries give the
historical behaviour: within one process, one universe of partitionings.
When a :class:`~repro.orchestrator.ArtifactCache` is attached (the
``repro run-all`` path — see ``docs/orchestrator.md``), every expensive
read — :meth:`partition`, :meth:`analytics_run`, :meth:`bindings`,
:meth:`simulation` — first consults the content-addressed on-disk store,
so warm re-runs skip all substrate computation, interrupted runs resume
from completed artifacts, and parallel workers share one universe across
process boundaries.  :meth:`placement` is derived data: it is rebuilt
from the (cached) partition rather than stored, because pickling a
placement would duplicate the whole graph into every blob.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.analytics import (
    DEFAULT_COST_MODEL,
    GasEngine,
    PageRank,
    Placement,
    SingleSourceShortestPath,
    WeaklyConnectedComponents,
)
from repro.analytics.result import AnalyticsRun
from repro.database import WorkloadGenerator, simulate_workload
from repro.errors import ConfigurationError
from repro.experiments.datasets import (
    active_scale,
    load_dataset,
    scale_profile,
    sssp_source,
)
from repro.partitioning import canonical_name, make_seeded_partitioner
from repro.partitioning.base import VertexPartition

#: Deterministic seed for partitioner tie-breaking / stream shuffles.
PARTITION_SEED = 1301
#: Stream order used throughout the experiments: datasets arrive in their
#: serialisation order, which carries locality for road/web graphs — the
#: same situation as the paper's bulk loads from disk.
STREAM_ORDER = "natural"


def artifact_id(kind: str, params: dict) -> str:
    """``kind:`` plus the parameter values in name order."""
    parts = [str(params[key]) for key in sorted(params)]
    return f"{kind}:" + "/".join(parts) if parts else kind


@dataclass(frozen=True)
class Artifact:
    """One artifact an experiment reads, declared with :func:`requires`.

    ``kind`` names the :class:`ExperimentContext` method that computes it
    (:data:`ARTIFACT_METHODS`); ``kwargs`` are exactly that method's
    keyword arguments.  Identity is :attr:`id`, which is also the
    orchestrator's job id.
    """

    kind: str
    kwargs: dict = field(compare=False)
    id: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "id", artifact_id(self.kind, self.kwargs))

    def __getitem__(self, name: str):
        return self.kwargs[name]


def requires(requirements):
    """Declare an experiment's artifacts once, as a function of the profile.

    ``@requires(needs)`` turns ``body(ctx, artifacts)`` into the
    registry's ``experiment(ctx=None)``: it fetches ``needs(ctx.profile)``
    and passes the body that ``{Artifact: value}`` mapping, so the body
    reads nothing it did not declare.  :func:`repro.orchestrator.build_plan`
    plans the same ``experiment.requirements``.
    """
    def declare(body):
        @functools.wraps(body)
        def experiment(ctx: ExperimentContext | None = None):
            ctx = ctx or ExperimentContext()
            return body(ctx, {
                artifact: ARTIFACT_METHODS[artifact.kind](ctx, **artifact.kwargs)
                for artifact in requirements(ctx.profile)})

        experiment.requirements = requirements
        return experiment
    return declare


def group_by(artifacts: dict, *names: str) -> dict:
    """Nest an ``{Artifact: value}`` mapping by the named kwargs.

    ``group_by(runs, "workload", "k")`` is ``{workload: {k: {artifact:
    value}}}``; every level keeps declaration order.
    """
    if not names:
        return artifacts
    nested: dict = {}
    for artifact, value in artifacts.items():
        nested.setdefault(artifact[names[0]], {})[artifact] = value
    return {key: group_by(group, *names[1:]) for key, group in nested.items()}


@dataclass
class ExperimentContext:
    """Shared state for a batch of experiments at one scale.

    ``cache`` is an optional :class:`repro.orchestrator.ArtifactCache`;
    when present every expensive intermediate is read through (and
    written to) the on-disk content-addressed store.
    """

    scale: str | None = None
    cost_model: object = DEFAULT_COST_MODEL
    cache: object = None
    _partitions: dict = field(default_factory=dict)
    _placements: dict = field(default_factory=dict)
    _runs: dict = field(default_factory=dict)
    _bindings: dict = field(default_factory=dict)
    _simulations: dict = field(default_factory=dict)
    _ingests: dict = field(default_factory=dict)

    @property
    def profile(self):
        return scale_profile(self.scale)

    @property
    def scale_name(self) -> str:
        """The resolved scale ('quick'/'default'/'large') used in keys."""
        return active_scale(self.scale)

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _through_cache(self, memo: dict, memo_key, kind: str, fields: dict,
                      compute):
        """Memo dict -> on-disk artifact cache -> compute (and backfill).

        Every *compute* (a genuine recomputation, not a cache read) bumps
        the process-global ``orchestrator.computed.<kind>`` counter — the
        counter the warm-run acceptance check asserts stays at zero.
        """
        from repro import telemetry
        from repro.orchestrator.cache import MISS

        if memo_key in memo:
            return memo[memo_key]
        if self.cache is not None:
            value = self.cache.fetch(kind, fields)
            if value is not MISS:
                memo[memo_key] = value
                return value
        value = compute()
        telemetry.get_metrics().counter(f"orchestrator.computed.{kind}").inc()
        if self.cache is not None:
            self.cache.store(kind, fields, value)
        memo[memo_key] = value
        return value

    # ------------------------------------------------------------------
    # Graphs & partitions
    # ------------------------------------------------------------------
    def graph(self, dataset: str):
        return load_dataset(dataset, self.scale)

    def partition(self, dataset: str, algorithm: str, k: int):
        """Partition *dataset* with *algorithm* into *k* parts (cached)."""
        algorithm = canonical_name(algorithm)
        key = (dataset, algorithm, k)
        fields = {
            "dataset": dataset,
            "scale": self.scale_name,
            "algorithm": algorithm,
            "k": int(k),
            "order": STREAM_ORDER,
            "seed": PARTITION_SEED,
        }

        def compute():
            return make_seeded_partitioner(algorithm, PARTITION_SEED).partition(
                self.graph(dataset), k, order=STREAM_ORDER, seed=PARTITION_SEED,
            )

        return self._through_cache(self._partitions, key, "partition",
                                   fields, compute)

    def placement(self, dataset: str, algorithm: str, k: int) -> Placement:
        """Placement for a (cached) partition.

        Derived data: rebuilt from the partition read through the cache
        rather than stored itself (a placement pickles the whole graph).
        """
        key = (dataset, canonical_name(algorithm), k)
        if key not in self._placements:
            self._placements[key] = Placement(
                self.graph(dataset), self.partition(dataset, algorithm, k),
            )
        return self._placements[key]

    # ------------------------------------------------------------------
    # Offline workloads
    # ------------------------------------------------------------------
    def make_workload(self, workload: str, dataset: str):
        if workload == "pagerank":
            return PageRank(num_iterations=self.profile.pagerank_iterations)
        if workload == "wcc":
            return WeaklyConnectedComponents()
        if workload == "sssp":
            return SingleSourceShortestPath(source=sssp_source(self.graph(dataset)))
        raise ConfigurationError(f"unknown workload {workload!r}")

    def analytics_run(self, dataset: str, algorithm: str, k: int,
                      workload: str, *, fault_schedule=None,
                      checkpoint_interval: int | None = None) -> AnalyticsRun:
        """Run (and cache) one offline workload execution.

        ``fault_schedule``/``checkpoint_interval`` select the engine's
        fault-tolerant path; both are part of the cache key (the fault
        schedule by its deterministic ``repr``).
        """
        algorithm = canonical_name(algorithm)
        key = (dataset, algorithm, k, workload,
               repr(fault_schedule), checkpoint_interval)
        fields = {
            "dataset": dataset,
            "scale": self.scale_name,
            "algorithm": algorithm,
            "k": int(k),
            "workload": workload,
            "order": STREAM_ORDER,
            "seed": PARTITION_SEED,
            "cost_model": repr(self.cost_model),
            "faults": None if fault_schedule is None else repr(fault_schedule),
            "checkpoint_interval": checkpoint_interval,
        }

        def compute():
            engine = GasEngine(self.cost_model)
            kwargs = {}
            if fault_schedule is not None:
                kwargs["fault_schedule"] = fault_schedule
            if checkpoint_interval is not None:
                kwargs["checkpoint_interval"] = checkpoint_interval
            return engine.run(
                self.graph(dataset), self.placement(dataset, algorithm, k),
                self.make_workload(workload, dataset), **kwargs,
            )

        return self._through_cache(self._runs, key, "analytics",
                                   fields, compute)

    # ------------------------------------------------------------------
    # Out-of-core ingest
    # ------------------------------------------------------------------
    def ingest_run(self, spec: dict) -> dict:
        """Run (and cache) one out-of-core ingest described by *spec*.

        *spec* is the JSON-safe ``{"stream": {...}, "shard": {...}}``
        shape :func:`repro.ingest.run_ingest_spec` takes; the whole spec
        is the cache key.  Worker count is *not* part of the shard spec's
        identity (``ShardConfig.to_fields`` drops it), so summaries
        cached by a parallel run satisfy a serial re-run byte-for-byte.
        """
        from repro.ingest import ShardConfig, run_ingest_spec

        shard = ShardConfig(**dict(spec.get("shard", {})))
        fields = {
            "stream": dict(spec.get("stream", {})),
            "shard": shard.to_fields(),
        }
        key = repr(sorted(fields["stream"].items())) + repr(shard.to_fields())
        return self._through_cache(self._ingests, key, "ingest", fields,
                                   lambda: run_ingest_spec(spec))

    # ------------------------------------------------------------------
    # Online workloads
    # ------------------------------------------------------------------
    def bindings(self, dataset: str, kind: str):
        """The fixed binding set every algorithm serves (cached)."""
        key = (dataset, kind)
        fields = {
            "dataset": dataset,
            "scale": self.scale_name,
            "kind": kind,
            "num_bindings": self.profile.num_bindings,
            "skew": self.profile.workload_skew,
            "seed": PARTITION_SEED,
        }

        def compute():
            generator = WorkloadGenerator(
                self.graph(dataset), skew=self.profile.workload_skew,
                seed=PARTITION_SEED,
            )
            return generator.bindings(kind, self.profile.num_bindings)

        return self._through_cache(self._bindings, key, "bindings",
                                   fields, compute)

    def online_partition(self, dataset: str, algorithm: str,
                         k: int) -> VertexPartition:
        """Edge-cut partition for the database experiments (JanusGraph
        supports only the edge-cut model)."""
        partition = self.partition(dataset, algorithm, k)
        if not isinstance(partition, VertexPartition):
            raise ConfigurationError(
                f"{algorithm} is not an edge-cut algorithm; the online "
                f"experiments only run edge-cut partitionings"
            )
        return partition

    def simulation(self, dataset: str, algorithm: str, k: int, kind: str, *,
                   clients_per_worker: int, duration: float | None = None,
                   worker_speeds=None, fault_schedule=None):
        """Run (and cache) one closed-loop database simulation.

        The standard online-experiment shape: *algorithm*'s edge-cut
        partition of *dataset* into *k* workers serving the fixed binding
        set of *kind*.  Heterogeneous speeds and fault schedules are part
        of the cache key (``worker_speeds`` as a float list, the schedule
        by its deterministic ``repr``).
        """
        algorithm = canonical_name(algorithm)
        if duration is None:
            duration = self.profile.sim_duration
        speeds = None if worker_speeds is None else [float(s) for s in worker_speeds]
        key = (dataset, algorithm, k, kind, clients_per_worker, duration,
               None if speeds is None else tuple(speeds), repr(fault_schedule))
        fields = {
            "dataset": dataset,
            "scale": self.scale_name,
            "algorithm": algorithm,
            "k": int(k),
            "kind": kind,
            "clients_per_worker": int(clients_per_worker),
            "duration": float(duration),
            "worker_speeds": speeds,
            "faults": None if fault_schedule is None else repr(fault_schedule),
            "order": STREAM_ORDER,
            "seed": PARTITION_SEED,
        }

        def compute():
            return simulate_workload(
                self.graph(dataset),
                self.online_partition(dataset, algorithm, k),
                self.bindings(dataset, kind),
                clients_per_worker=clients_per_worker,
                duration=duration,
                worker_speeds=speeds,
                fault_schedule=fault_schedule,
            )

        return self._through_cache(self._simulations, key, "simulation",
                                   fields, compute)


#: The :class:`ExperimentContext` method that computes each artifact kind.
ARTIFACT_METHODS = {
    "dataset": ExperimentContext.graph,
    "partition": ExperimentContext.partition,
    "bindings": ExperimentContext.bindings,
    "analytics": ExperimentContext.analytics_run,
    "simulation": ExperimentContext.simulation,
    "ingest": ExperimentContext.ingest_run,
}
