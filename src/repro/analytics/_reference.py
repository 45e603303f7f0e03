"""Frozen scalar reference for the GAS engine (pre-vectorization).

Verbatim snapshot of ``repro.analytics.engine`` (and the two workloads
whose scatter used ``np.add.at``) as they stood before the cached,
sort-free superstep rewrite — the PR 5 ``_reference.py`` pattern applied
to the analytics substrate.  Purposes:

1. **Equivalence gate** — ``tests/test_substrate_equivalence.py`` and
   ``benchmarks/bench_substrates.py`` assert the production engine's
   iteration stats, metrics, recovery events, and spans are
   byte-identical to this snapshot.
2. **Benchmark baseline** — the "before" supersteps/sec in
   ``BENCH_substrates.json``.

Do not optimise this file.  The only deviations from the snapshotted
production code are the ``Reference*`` names.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.analytics.cost import DEFAULT_COST_MODEL, CostModel
from repro.analytics.placement import Placement
from repro.analytics.result import AnalyticsRun, IterationStats, RecoveryEvent
from repro.analytics.workloads.base import IterationActivity, Workload
from repro.errors import ConfigurationError, FaultInjectionError, SimulationError
from repro.faults import NO_FAULTS, FaultSchedule
from repro.graph.digraph import Graph
from repro.partitioning.base import VertexPartition
from repro.partitioning.dynamic import reassign_lost_vertices
from repro.telemetry import get_tracer
from repro.telemetry.tracer import SimClock, Tracer



class ReferenceGasEngine:
    """The pre-vectorization per-superstep loop, frozen.

    Same contract as :class:`~repro.analytics.engine.GasEngine`; see
    that class for parameter documentation.
    """

    def __init__(self, cost_model: CostModel = DEFAULT_COST_MODEL,
                 tracer: Tracer | None = None):
        self.cost_model = cost_model
        self.tracer = tracer

    def run(self, graph: Graph, placement: Placement,
            workload: Workload, *,
            fault_schedule: FaultSchedule | None = None,
            checkpoint_interval: int = 4,
            sampler=None) -> AnalyticsRun:
        """Execute *workload* over *placement* (frozen superstep loop)."""
        if placement.graph is not graph:
            raise SimulationError("placement was built for a different graph")
        schedule = fault_schedule or NO_FAULTS
        faulty = not schedule.is_empty
        if checkpoint_interval < 1:
            raise FaultInjectionError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}")
        k = placement.num_partitions
        src, dst = graph.src, graph.dst
        edge_parts = placement.edge_parts
        master = placement.master

        run = AnalyticsRun(
            workload=workload.name,
            algorithm=placement.algorithm,
            num_partitions=k,
            replication_factor=placement.replication_factor(),
            checkpoint_interval=checkpoint_interval if faulty else None,
        )
        metrics = run.metrics
        m_steps = metrics.counter("gas.supersteps")
        m_gather = metrics.counter("gas.gather_messages")
        m_mirror = metrics.counter("gas.mirror_update_messages")
        m_bytes = metrics.counter("gas.network_bytes")
        m_recoveries = metrics.counter("gas.recoveries")
        m_reexec = metrics.counter("gas.reexecuted_supersteps")
        m_ckpts = metrics.counter("gas.checkpoints")
        m_ckpt_secs = metrics.counter("gas.checkpoint_seconds_total")
        tracer = self.tracer if self.tracer is not None else get_tracer()
        tracing = tracer.enabled
        sampling = sampler is not None and sampler.enabled
        if sampling:
            sampler.registry = metrics
        clock = SimClock()
        covered_until = 0.0
        last_checkpoint_step = 0
        root = tracer.begin("gas.run", 0.0, parent=None,
                            workload=workload.name,
                            algorithm=placement.algorithm,
                            num_partitions=k) if tracing else 0

        for step, activity in enumerate(workload.iterations(graph)):
            gather_msgs = 0
            edge_ops = np.zeros(k, dtype=np.float64)
            apply_targets: list[np.ndarray] = []
            bytes_in = np.zeros(k, dtype=np.float64)

            for direction, senders in (("fwd", activity.sends_forward),
                                       ("rev", activity.sends_reverse)):
                if senders is None or not senders.any():
                    continue
                if direction == "fwd":
                    active = senders[src]
                    receivers = dst[active]
                else:
                    active = senders[dst]
                    receivers = src[active]
                parts = edge_parts[active]
                edge_ops += np.bincount(parts, minlength=k)
                pairs = np.unique(receivers * k + parts)
                pair_vertices = pairs // k
                pair_parts = pairs % k
                remote = pair_parts != master[pair_vertices]
                gather_msgs += int(remote.sum())
                bytes_in += np.bincount(
                    master[pair_vertices[remote]], minlength=k,
                ) * self.cost_model.bytes_per_message
                apply_targets.append(np.unique(pair_vertices))

            vertex_ops = np.zeros(k, dtype=np.float64)
            if apply_targets:
                targets = np.unique(np.concatenate(apply_targets))
                vertex_ops += np.bincount(master[targets], minlength=k)

            changed = activity.changed
            update_msgs = 0
            if changed is not None and changed.any():
                uni = workload.direction == "uni"
                pairs = (placement.out_pairs
                         if uni and placement.locality_aware
                         else placement.all_pairs)
                pair_vertices = pairs // k
                pair_parts = pairs % k
                relevant = changed[pair_vertices]
                remote = relevant & (pair_parts != master[pair_vertices])
                update_msgs = int(remote.sum())
                bytes_in += np.bincount(pair_parts[remote], minlength=k) \
                    * self.cost_model.bytes_per_message
                vertex_ops += np.bincount(master[pair_vertices[remote]],
                                          minlength=k)

            compute = (edge_ops * self.cost_model.seconds_per_edge
                       + vertex_ops * self.cost_model.seconds_per_vertex_op)
            network_bytes = float(bytes_in.sum())
            wall = (float(compute.max(initial=0.0))
                    + self.cost_model.network_seconds(
                        float(bytes_in.max(initial=0.0)))
                    + self.cost_model.barrier_seconds)
            run.iterations.append(IterationStats(
                iteration=step,
                gather_messages=gather_msgs,
                mirror_update_messages=update_msgs,
                network_bytes=network_bytes,
                compute_seconds=compute,
                wall_seconds=wall,
            ))
            m_steps.inc()
            m_gather.inc(gather_msgs)
            m_mirror.inc(update_msgs)
            m_bytes.inc(network_bytes)

            step_start = clock.now
            if tracing:
                sid = tracer.begin("gas.superstep", step_start, parent=root,
                                   iteration=step,
                                   gather_messages=gather_msgs,
                                   mirror_update_messages=update_msgs,
                                   network_bytes=network_bytes)
                compute_end = step_start
                for machine in range(k):
                    cid = tracer.begin("gas.compute", step_start, parent=sid,
                                       machine=machine)
                    tracer.end(cid, step_start + float(compute[machine]))
                    compute_end = max(compute_end,
                                      step_start + float(compute[machine]))
                syncid = tracer.begin("gas.sync", compute_end, parent=sid,
                                      network_bytes=network_bytes)
                tracer.end(syncid, step_start + wall)
                tracer.end(sid, step_start + wall)
            clock.advance(wall)

            if faulty:
                window_end = clock.now
                for crash in schedule.crash_starts_in(covered_until,
                                                      window_end):
                    if crash.worker >= k:
                        continue
                    event = self._recover(graph, placement, run, schedule,
                                          crash, step, last_checkpoint_step)
                    m_recoveries.inc()
                    m_reexec.inc(event.reexecuted_supersteps)
                    if tracing:
                        rid = tracer.begin(
                            "gas.recovery", clock.now, parent=root,
                            step=step, worker=crash.worker,
                            lost_vertices=event.lost_vertices,
                            lost_edges=event.lost_edges,
                            reexecuted_supersteps=event.reexecuted_supersteps,
                            migration_bytes=event.migration_bytes)
                        tracer.end(rid, clock.now + event.recovery_seconds)
                    clock.advance(event.recovery_seconds)
                covered_until = window_end
                if (step + 1) % checkpoint_interval == 0:
                    if tracing:
                        kid = tracer.begin("gas.checkpoint", clock.now,
                                           parent=root, step=step)
                        tracer.end(kid, clock.now
                                   + self.cost_model.checkpoint_seconds)
                    clock.advance(self.cost_model.checkpoint_seconds)
                    m_ckpts.inc()
                    m_ckpt_secs.inc(self.cost_model.checkpoint_seconds)
                    last_checkpoint_step = step + 1
            if sampling:
                sampler.sample(clock.now, index=step)
        metrics.histogram("gas.machine.compute_seconds").observe_many(
            run.compute_seconds_per_machine())
        if tracing:
            tracer.end(root, clock.now, supersteps=run.num_iterations,
                       recoveries=len(run.recovery_events))
        return run

    # ------------------------------------------------------------------
    def _recover(self, graph: Graph, placement: Placement, run: AnalyticsRun,
                 schedule: FaultSchedule, crash, step: int,
                 last_checkpoint_step: int) -> RecoveryEvent:
        cost = self.cost_model
        k = placement.num_partitions
        lost_mask = placement.master == crash.worker
        lost_vertices = int(np.count_nonzero(lost_mask))
        lost_edges = int(np.count_nonzero(placement.edge_parts == crash.worker))
        cross_edges = 0
        if k > 1 and lost_vertices:
            master_partition = VertexPartition(
                k, placement.master, algorithm=placement.algorithm)
            recovered = reassign_lost_vertices(
                graph, master_partition, crash.worker, seed=schedule.seed)
            touches = lost_mask[graph.src] | lost_mask[graph.dst]
            cross = (recovered.assignment[graph.src[touches]]
                     != recovered.assignment[graph.dst[touches]])
            cross_edges = int(np.count_nonzero(cross))
        migration_bytes = (cost.recovery_bytes(lost_vertices, lost_edges)
                           + cross_edges * cost.bytes_per_message)
        rebalance_seconds = cost.network_seconds(migration_bytes)
        reexecuted = step - last_checkpoint_step + 1
        reexec_seconds = float(sum(
            it.wall_seconds
            for it in run.iterations[last_checkpoint_step:step + 1]))
        event = RecoveryEvent(
            step=step,
            worker=crash.worker,
            time=crash.start,
            reexecuted_supersteps=reexecuted,
            lost_vertices=lost_vertices,
            lost_edges=lost_edges,
            migration_bytes=migration_bytes,
            rebalance_seconds=rebalance_seconds,
            recovery_seconds=reexec_seconds + rebalance_seconds,
        )
        run.recovery_events.append(event)
        return event


class ReferencePageRank(Workload):
    """Frozen PageRank with the pre-vectorization ``np.add.at`` scatter."""

    name = "pagerank"
    direction = "uni"

    def __init__(self, num_iterations: int = 20, damping: float = 0.85):
        if num_iterations < 1:
            raise ConfigurationError("num_iterations must be >= 1")
        if not 0.0 < damping < 1.0:
            raise ConfigurationError("damping must lie in (0, 1)")
        self.num_iterations = num_iterations
        self.damping = damping
        self._values: np.ndarray | None = None

    def iterations(self, graph: Graph) -> Iterator[IterationActivity]:
        n = graph.num_vertices
        if n == 0:
            return
        src, dst = graph.src, graph.dst
        out_degree = graph.out_degree
        dangling = out_degree == 0
        safe_degree = np.maximum(out_degree, 1)
        ranks = np.full(n, 1.0 / n)
        all_vertices = np.ones(n, dtype=bool)

        for _step in range(self.num_iterations):
            contribution = ranks / safe_degree
            incoming = np.zeros(n)
            np.add.at(incoming, dst, contribution[src])
            incoming += ranks[dangling].sum() / n
            ranks = (1.0 - self.damping) / n + self.damping * incoming
            self._values = ranks
            yield IterationActivity(
                sends_forward=all_vertices,
                sends_reverse=None,
                changed=all_vertices,
            )


class ReferenceKCore(Workload):
    """Frozen k-core with the pre-vectorization ``np.add.at`` scatters."""

    name = "kcore"
    direction = "bi"

    def __init__(self, k: int = 3, max_iterations: int = 100_000):
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        self.k = k
        self.max_iterations = max_iterations
        self._values: np.ndarray | None = None

    def iterations(self, graph: Graph) -> Iterator[IterationActivity]:
        n = graph.num_vertices
        if n == 0:
            return
        src, dst = graph.src, graph.dst
        effective = graph.degree.astype(np.int64).copy()
        alive = np.ones(n, dtype=bool)

        for _step in range(self.max_iterations):
            removing = alive & (effective < self.k)
            if not removing.any():
                break
            alive &= ~removing
            drop = np.zeros(n, dtype=np.int64)
            fwd = removing[src]
            if fwd.any():
                np.add.at(drop, dst[fwd], 1)
            rev = removing[dst]
            if rev.any():
                np.add.at(drop, src[rev], 1)
            effective -= drop
            self._values = alive.copy()
            yield IterationActivity(
                sends_forward=removing,
                sends_reverse=removing,
                changed=removing,
            )
        self._values = alive.copy()
