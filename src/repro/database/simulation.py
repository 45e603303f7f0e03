"""Closed-loop discrete-event simulation of the graph-database cluster.

Reproduces the paper's online-query methodology (Section 5.2): a cluster
of ``k`` workers serves 1-hop / 2-hop / shortest-path queries issued by
``C`` concurrent closed-loop clients per worker — 12 for the paper's
*medium load* ("high utilization"), 24 for *high load* ("overloaded").
Each client issues its next query the moment the previous one completes.

The simulation is an exact FIFO single-server queueing model per worker:
requests arrive (after a half-RTT if remote), queue, occupy the server
for a deterministic service time, and respond (plus the other half-RTT).
A query advances phase by phase; a phase completes when its slowest
request responds.  Everything is deterministic given the binding set, so
two partitioning algorithms are compared on *exactly* the same workload —
the paper's setup.

What emerges, rather than being programmed in:

* lower edge-cut ratio → fewer/larger/more-local requests → less
  per-request overhead and network time → higher throughput under medium
  load (Fig. 6, Table 4→Fig. 5 correlation);
* workload skew + clustering partitioners → hot workers → queueing →
  collapsed tail latency under high load (Table 5, Figs. 7/15);
* more workers at fixed client count → more remote fan-out per query →
  throughput degradation beyond ~16 workers (Fig. 12).

Event-loop representation
-------------------------
The heap holds plain ``(time, seq, kind, payload)`` tuples — kind is a
small int — so ordering compares run in C instead of a dataclass
``__lt__`` (which dominated the old profile at >500k calls per run).
Each binding is planned, routed and compiled once per simulation into
per-phase request rows (:class:`_QueryColumns` — worker, reads, service
time, network delta), and one loop serves fault-free and faulted runs
alike.  A request's outcome is known when it is issued: the FIFO server
clock gives its response time, and under faults a request to a crashed
worker, or one dropped on the wire, becomes a ``_TIMEOUT`` deadline
instead.  Response events have no side effect but counting the phase
down, so the responders of one issue — a phase, or one retried request
— collapse into a single ``_SETTLED`` event at their lexicographically
last ``(time, seq)``; that event consumes all their sequence numbers,
while timeouts and retries keep their own events.  Whichever settle
comes last charges the coordinator merge for the responses that
actually arrived.  The heap's tie-breaking, the sampler's tick
boundaries and every float accumulation order are therefore
*identical* to the scalar per-response loop —
``repro.database._reference`` plus
``tests/test_substrate_equivalence.py`` hold this loop to
byte-identical results, faulted runs included.  The fault hooks are
per-request branches guarded by ``faulty``, so a run with the empty
schedule does the arithmetic of one without fault injection (the
ChaosHarness invariant).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from repro.database.cluster import Cluster, ServiceModel
from repro.database.queries import plan_query
from repro.database.router import FailoverRouter, RoutedQuery, route_plan
from repro.database.workload import QueryBinding
from repro.errors import ConfigurationError, QueryTimeoutError, WorkerFailedError
from repro.faults import (
    DEFAULT_RETRY_POLICY,
    NO_FAULTS,
    FaultSchedule,
    ReplicaMap,
    RetryPolicy,
)
from repro.graph.digraph import Graph
from repro.metrics.runtime import LatencySummary, latency_summary
from repro.telemetry import get_tracer
from repro.telemetry.metrics import MetricsRegistry
from repro.tools import sanitize

#: Wire size of one vertex record (id + properties + framing).
BYTES_PER_VERTEX_RECORD = 128.0
#: Fixed wire overhead of one remote request/response pair.
BYTES_PER_REMOTE_REQUEST = 256.0

# Heap-event kinds.  Events are ``(time, seq, kind, payload)`` tuples;
# ``seq`` is unique so the kind int never participates in ordering.
_START = 0
_PHASE_DONE = 1
_SETTLED = 2  # the responses of one issue, collapsed
_TIMEOUT = 3
_RETRY = 4
_BACKGROUND = 5
_ABORT = 6


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulated run.

    The run's scalar counters live in the ``db.*`` namespace of
    :attr:`metrics` (a :class:`~repro.telemetry.metrics.MetricsRegistry`
    snapshot of the event loop); the historical attribute spellings —
    ``completed_queries``, ``timeouts``, ``network_bytes``, … — are
    properties over that registry, so existing callers and the
    ChaosHarness field comparisons are unaffected.
    """

    num_workers: int
    clients_per_worker: int
    duration: float
    warmup: float
    latencies: np.ndarray
    vertices_read_per_worker: np.ndarray
    requests_per_worker: np.ndarray
    busy_seconds_per_worker: np.ndarray
    metrics: MetricsRegistry
    requests_lost_per_worker: np.ndarray | None = None

    @property
    def completed_queries(self) -> int:
        """Queries finished after warmup (counter ``db.queries.completed``)."""
        return int(self.metrics.value("db.queries.completed"))

    @property
    def network_bytes(self) -> float:
        """Bytes moved by remote requests (counter ``db.network_bytes``)."""
        return float(self.metrics.value("db.network_bytes"))

    @property
    def remote_reads(self) -> int:
        """Vertex reads served off-coordinator (``db.reads.remote``)."""
        return int(self.metrics.value("db.reads.remote"))

    @property
    def total_reads(self) -> int:
        """All vertex reads (counter ``db.reads.total``)."""
        return int(self.metrics.value("db.reads.total"))

    @property
    def timeouts(self) -> int:
        """Requests whose deadline fired (counter ``db.timeouts``)."""
        return int(self.metrics.value("db.timeouts"))

    @property
    def retries(self) -> int:
        """Requests re-issued to a replica (counter ``db.retries``)."""
        return int(self.metrics.value("db.retries"))

    @property
    def failed_queries(self) -> int:
        """Queries lost after warmup (counter ``db.queries.failed``)."""
        return int(self.metrics.value("db.queries.failed"))

    @property
    def dropped_requests(self) -> int:
        """Requests dropped on the wire (counter ``db.requests.dropped``)."""
        return int(self.metrics.value("db.requests.dropped"))

    @property
    def availability(self) -> float:
        """Fraction of post-warmup queries that completed (1.0 = no loss).

        The SLA-style metric of the fault-tolerance experiments: a query
        counts as unavailable when it exhausted its retry budget or its
        start vertex's entire replica chain was down.
        """
        attempted = self.completed_queries + self.failed_queries
        if attempted == 0:
            return 1.0
        return self.completed_queries / attempted

    @property
    def throughput(self) -> float:
        """Completed queries per simulated second (post-warmup)."""
        window = self.duration - self.warmup
        if window <= 0:
            return 0.0
        return self.completed_queries / window

    def latency(self) -> LatencySummary:
        """Mean / p50 / p99 of post-warmup query latencies (Table 5)."""
        return latency_summary(self.latencies)

    def read_distribution(self) -> np.ndarray:
        """Per-worker vertex reads (the Fig. 7/15 distribution)."""
        return self.vertices_read_per_worker


class _QueryColumns:
    """A binding's routed query, compiled once per simulation.

    ``phases`` holds one tuple of ``(worker, reads, service_seconds,
    net_delta, remote)`` rows per routed phase — every float computed by
    the *same expression* as the per-request reference loop
    (``model.service_seconds(reads) / worker.speed``; the half-RTT network
    delta to the routed coordinator), so issuing from the rows reproduces
    its arithmetic bit for bit.  ``route_plan`` groups a phase's reads by distinct owner, so
    the workers of one phase are pairwise distinct — which is what lets a
    whole phase issue in one pass without intra-phase queue interactions.
    """

    __slots__ = ("routed", "phases")

    def __init__(self, routed: RoutedQuery, phases: tuple):
        self.routed = routed
        self.phases = phases


class _Query:
    """Progress of one in-flight query."""

    __slots__ = ("cols", "client", "phase", "started", "coordinator",
                 "outstanding", "received", "failed", "span", "hop_span")

    def __init__(self, cols: _QueryColumns, client: int, started: float):
        self.cols = cols
        self.client = client
        self.phase = 0
        self.started = started
        #: Effective coordinator — the routed primary unless it was down
        #: at query start and a replica took over.
        self.coordinator = cols.routed.coordinator
        #: Requests of the current phase not yet settled.
        self.outstanding = 0
        #: Responses that actually arrived this phase — the merge may only
        #: charge for these, not the planned fan-out.
        self.received = 0
        #: Set when any request of this query exhausted its retry budget.
        self.failed = False
        #: Open telemetry span ids (0 = tracing disabled).
        self.span = 0
        self.hop_span = 0


class ClosedLoopSimulation:
    """Closed-loop query simulation over a partitioned graph store.

    Parameters
    ----------
    graph:
        The stored graph (query plans are computed against it).
    vertex_owner:
        Worker id per vertex — a :class:`~repro.partitioning.base.
        VertexPartition` assignment (JanusGraph's edge-cut placement).
    clients_per_worker:
        12 = the paper's medium load, 24 = high load.
    service_model:
        Cluster timing constants.
    fanout_limit:
        Optional 2-hop frontier cap (see :func:`repro.database.queries.
        two_hop`).
    fault_schedule:
        Optional :class:`~repro.faults.FaultSchedule`.  ``None`` or the
        empty schedule leaves every result bit-identical to a run without
        fault injection (the :class:`~repro.faults.ChaosHarness`
        invariant).
    retry_policy:
        Client timeout/retry behaviour under faults (defaults to
        :data:`~repro.faults.DEFAULT_RETRY_POLICY`).
    k_safety:
        Replica-chain length of the failover map (clamped to the cluster
        size); 1 disables failover.
    raise_on_failure:
        When True, the first unavailable query raises
        :class:`~repro.errors.QueryTimeoutError` /
        :class:`~repro.errors.WorkerFailedError` instead of being counted.
    """

    def __init__(self, graph: Graph, vertex_owner, num_workers: int, *,
                 clients_per_worker: int = 12,
                 service_model: ServiceModel | None = None,
                 fanout_limit: int | None = 64,
                 worker_speeds=None,
                 fault_schedule: FaultSchedule | None = None,
                 retry_policy: RetryPolicy | None = None,
                 k_safety: int = 2,
                 raise_on_failure: bool = False):
        owner = np.asarray(vertex_owner, dtype=np.int64)
        if owner.shape != (graph.num_vertices,):
            raise ConfigurationError("vertex_owner must map every vertex")
        if owner.size and (owner.min() < 0 or owner.max() >= num_workers):
            raise ConfigurationError("vertex_owner contains invalid worker ids")
        if clients_per_worker < 1:
            raise ConfigurationError("clients_per_worker must be >= 1")
        self.graph = graph
        self.owner = owner
        self.cluster = Cluster(num_workers, owner, service_model,
                               worker_speeds=worker_speeds)
        self.clients_per_worker = clients_per_worker
        self.fanout_limit = fanout_limit
        self.fault_schedule = fault_schedule or NO_FAULTS
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.replica_map = ReplicaMap(num_workers,
                                      max(1, min(k_safety, num_workers)))
        self.raise_on_failure = raise_on_failure
        # Worker speeds and the (scaled) service model are fixed at
        # construction, so compiled columns stay valid across runs.
        self._columns_cache: dict[tuple, _QueryColumns] = {}

    # ------------------------------------------------------------------
    def _columns(self, binding: QueryBinding) -> _QueryColumns:
        """Plan, route and compile *binding* (cached per binding)."""
        key = (binding.kind, binding.start_vertex, binding.target_vertex)
        cached = self._columns_cache.get(key)
        if cached is None:
            plan = plan_query(self.graph, binding.kind, binding.start_vertex,
                              target_vertex=binding.target_vertex,
                              fanout_limit=self.fanout_limit)
            routed = route_plan(plan, self.owner)
            workers = self.cluster.workers
            half_rtt = self.cluster.model.network_rtt_seconds / 2
            coordinator = routed.coordinator
            cached = _QueryColumns(routed, tuple(
                tuple((worker_id, reads,
                       workers[worker_id].service_seconds(reads),
                       half_rtt if worker_id != coordinator else 0.0,
                       worker_id != coordinator)
                      for worker_id, reads in phase.requests)
                for phase in routed.phases))
            self._columns_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    def run(self, bindings: list[QueryBinding], *, duration: float = 2.0,
            warmup_fraction: float = 0.25,
            background_work=None,
            migrating_vertices=None,
            migration_wait_seconds: float = 0.0,
            sampler=None,
            sample_interval: float | None = None) -> SimulationResult:
        """Simulate *duration* seconds of closed-loop load.

        Clients cycle through *bindings* at staggered offsets, so every
        algorithm under comparison serves the same query sequence.
        Metrics cover completions after ``warmup_fraction * duration``
        (``0 <= warmup_fraction < 1``).

        The three optional knobs model an in-flight partition migration
        (see :mod:`repro.service`) and are **exact no-ops** when left at
        their defaults — the same ChaosHarness-style invariant as
        ``fault_schedule``:

        * ``background_work`` — ``(time, worker, seconds)`` triples; each
          occupies *worker*'s FIFO server for *seconds* starting no
          earlier than *time* (a migration batch shipping vertex state —
          rate-limited by the caller, so it delays but never stalls
          queries).
        * ``migrating_vertices`` — vertex ids temporarily double-homed
          mid-move; a query *starting* at one of them first waits
          ``migration_wait_seconds`` (the ownership-handshake retry) —
          counted in ``db.migration.waits``.

        ``sampler`` — an optional
        :class:`~repro.telemetry.timeseries.TimeSeriesSampler`; the run
        rebinds it to its own registry and snapshots it every
        ``sample_interval`` simulated seconds (default ``duration / 10``)
        plus once at the horizon, turning the run into a latency/
        throughput trajectory instead of one end-of-run aggregate.  A
        disabled (or absent) sampler adds zero registry calls.
        """
        if not bindings:
            raise ConfigurationError("bindings must be non-empty")
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        if not 0 <= warmup_fraction < 1:
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
        if migration_wait_seconds < 0:
            raise ConfigurationError("migration_wait_seconds must be >= 0")
        migrating = None
        if migrating_vertices is not None:
            moving = np.asarray(migrating_vertices, dtype=np.int64)
            if moving.size:
                migrating = frozenset(moving.tolist())
        self.cluster.reset()
        model = self.cluster.model
        schedule = self.fault_schedule
        policy = self.retry_policy
        #: The fault hooks below are exact no-ops when the schedule is
        #: empty — guarded by ``faulty`` so a fault-free run performs the
        #: *same arithmetic in the same order* as before fault injection
        #: existed (the ChaosHarness invariant).
        faulty = not schedule.is_empty
        router = FailoverRouter(self.replica_map, schedule)
        workers = self.cluster.workers
        num_workers = self.cluster.num_workers
        num_clients = self.clients_per_worker * num_workers
        warmup = duration * warmup_fraction
        think = model.think_seconds
        half_rtt = model.network_rtt_seconds / 2
        extra = schedule.extra_latency_seconds
        overhead = model.coordinator_overhead_seconds
        per_response = model.per_response_seconds
        tracer = get_tracer()
        tracing = tracer.enabled

        events: list[tuple] = []
        heappush = heapq.heappush
        sequence = itertools.count()
        next_seq = sequence.__next__
        request_ids = itertools.count()
        retry_ids = itertools.count()
        binding_cursor = [int(i * len(bindings) / num_clients)
                          for i in range(num_clients)]

        latencies: list[float] = []
        #: The run's counters: the same increments, in the same order, as
        #: the plain ints this loop used to carry — just named.
        metrics = MetricsRegistry()
        c_completed = metrics.counter("db.queries.completed")
        c_bytes = metrics.counter("db.network_bytes")
        c_remote = metrics.counter("db.reads.remote")
        c_total = metrics.counter("db.reads.total")
        c_timeouts = metrics.counter("db.timeouts")
        c_retries = metrics.counter("db.retries")
        c_failed = metrics.counter("db.queries.failed")
        c_dropped = metrics.counter("db.requests.dropped")
        # Created only when a migration is in flight, so a plain run's
        # metrics registry is byte-identical to the pre-service layout.
        c_migration_waits = metrics.counter("db.migration.waits") \
            if migrating is not None else None
        c_migration_busy = metrics.counter("db.migration.busy_seconds") \
            if background_work else None
        # Time-series sampling: tick the sampler at fixed simulated-time
        # intervals inside the event loop.  Disabled/absent samplers cost
        # nothing — not a single registry call.
        sampling = sampler is not None and sampler.enabled
        tick = 0.0
        next_tick = 0.0
        if sampling:
            sampler.registry = metrics
            tick = duration / 10.0 if sample_interval is None \
                else float(sample_interval)
            if tick <= 0:
                raise ConfigurationError("sample_interval must be positive")
            next_tick = tick
        root_span = tracer.begin(
            "db.run", 0.0, parent=None,
            num_workers=num_workers,
            clients_per_worker=self.clients_per_worker,
            duration=duration) if tracing else 0

        def push(time: float, kind: int, payload) -> None:
            heappush(events, (time, next_seq(), kind, payload))

        def next_binding(client: int) -> QueryBinding:
            index = binding_cursor[client]
            binding_cursor[client] = (index + 1) % len(bindings)
            return bindings[index]

        def start_query(client: int, now: float) -> None:
            binding = next_binding(client)
            cols = self._columns(binding)
            routed = cols.routed
            q = _Query(cols, client, now)
            if migrating is not None and binding.start_vertex in migrating:
                # The start vertex is mid-migration (double-homed): the
                # client's first request races the ownership handshake and
                # is answered only after one bounded retry wait.  Applied
                # once per query, at start — migration delays reads, it
                # never drops them.
                c_migration_waits.inc()
                if tracing:
                    tracer.point("db.migration.wait", now, parent=root_span,
                                 vertex=binding.start_vertex, client=client)
                now += migration_wait_seconds
            if tracing:
                q.span = tracer.begin(
                    "db.query", now, parent=root_span, kind=routed.kind,
                    client=client, coordinator=routed.coordinator)
                tracer.point("db.route", now, parent=q.span,
                             coordinator=routed.coordinator,
                             phases=len(routed.phases))
            if faulty:
                coordinator = router.coordinator(routed, now)
                if coordinator is None:
                    # The start vertex's whole replica chain is down: the
                    # client cannot even open a session; it observes one
                    # timeout deadline and gives the query up.
                    if self.raise_on_failure:
                        raise WorkerFailedError(
                            f"entire replica chain of worker "
                            f"{routed.coordinator} is down at t={now:.4f}s")
                    q.failed = True
                    push(now + policy.timeout_seconds, _ABORT, q)
                    return
                if tracing and coordinator != routed.coordinator:
                    tracer.point("db.failover", now, parent=q.span,
                                 kind="coordinator",
                                 primary=routed.coordinator,
                                 replica=coordinator)
                q.coordinator = coordinator
            issue_phase(q, now)

        def issue_phase(q: _Query, now: float) -> None:
            phases = q.cols.phases
            phase = q.phase
            while phase < len(phases) and not phases[phase]:
                phase += 1
            q.phase = phase
            if phase == len(phases):
                end_query(q, now)
                return
            rows = phases[phase]
            q.outstanding = len(rows)
            q.received = 0
            if tracing:
                q.hop_span = tracer.begin(
                    "db.hop", now, parent=q.span, phase=phase,
                    fanout=len(rows))
            issue(q, rows, 0, now)

        def issue(q: _Query, rows: tuple, attempt: int, now: float) -> None:
            """Issue *rows* — a phase, or one retried request — and push
            one ``_SETTLED`` event for the responders (module docstring).
            """
            coordinator = q.coordinator
            best_time = -1.0
            best_seq = 0
            lost = 0
            total_reads = 0
            remote_reads = 0
            remote_requests = 0
            for row in rows:
                target, reads, service, delta, remote = row
                arrival = now + delta
                if faulty:
                    # Failover: attempt n goes to replica n of the row's
                    # primary owner (attempt 0 is the primary itself).
                    primary = target
                    target = router.target(primary, attempt)
                    if target != primary:
                        service = workers[target].service_seconds(reads)
                        if tracing:
                            tracer.point("db.failover", now,
                                         parent=q.hop_span, kind="request",
                                         primary=primary, replica=target,
                                         attempt=attempt)
                    remote = target != coordinator
                    delta = half_rtt + extra if remote else 0.0
                    arrival = now + delta
                    request_id = next(request_ids)
                    if schedule.is_crashed(target, arrival):
                        reason = "crashed"
                    elif schedule.should_drop(request_id):
                        reason = "dropped"
                        c_dropped.inc()
                    else:
                        reason = ""
                    if reason:
                        # No response will ever come; the client discovers
                        # the loss only through its timeout deadline.
                        workers[target].stats.requests_lost += 1
                        if tracing:
                            tracer.point("db.request.lost", now,
                                         parent=q.hop_span, worker=target,
                                         reads=reads, attempt=attempt,
                                         reason=reason)
                        push(now + policy.timeout_seconds, _TIMEOUT,
                             (q, row, attempt))
                        lost += 1
                        continue
                    factor = schedule.speed_factor(target, arrival)
                    if factor != 1.0:
                        service = service / factor
                worker = workers[target]
                server = worker.busy_until
                begin = arrival if arrival > server else server
                completion = begin + service
                worker.busy_until = completion
                stats = worker.stats
                stats.requests_served += 1
                stats.vertices_read += reads
                stats.busy_seconds += service
                total_reads += reads
                if remote:
                    stats.remote_requests += 1
                    remote_reads += reads
                    remote_requests += 1
                response = completion + delta
                seq = next_seq()
                if response >= best_time:
                    best_time = response
                    best_seq = seq
                if tracing:
                    # The request's whole life is known analytically here,
                    # so the span is recorded at once: queueing is
                    # begin-arrival, service is completion-begin.
                    rid = tracer.begin("db.request", now, parent=q.hop_span,
                                       worker=target, reads=reads,
                                       attempt=attempt, remote=remote,
                                       queue_seconds=begin - arrival,
                                       service_seconds=service)
                    tracer.end(rid, response)
            # Byte totals are sums of integral floats, so charging them
            # per issue instead of per request is exact.
            c_total.inc(total_reads)
            if remote_requests:
                c_remote.inc(remote_reads)
                c_bytes.inc(remote_requests * BYTES_PER_REMOTE_REQUEST
                            + remote_reads * BYTES_PER_VERTEX_RECORD)
            if lost < len(rows):
                heappush(events, (best_time, best_seq, _SETTLED,
                                  (q, len(rows) - lost)))

        def settle(q: _Query, now: float, settled: int, arrived: int) -> None:
            """Count *settled* requests of the phase down, *arrived* of
            them with a response; the last settle ends the phase."""
            q.received += arrived
            q.outstanding -= settled
            if q.outstanding:
                return
            if q.failed:
                if tracing:
                    tracer.end(q.hop_span, now, status="failed")
                end_query(q, now)
                return
            # Merge the phase's responses on the coordinator: this
            # occupies the coordinating worker's server, so hot
            # coordinators queue up and wide fan-out costs CPU.  Charge
            # only the responses that arrived — a request settled by its
            # timeout deadline shipped nothing to merge.  (Today every
            # merge-reaching phase has received == fan-out: a timeout
            # settle either retries, which produces a response later, or
            # marks the query failed, which skips the merge — so this is
            # accounting hygiene, not a behaviour change.)
            worker = workers[q.coordinator]
            merge = (overhead + q.received * per_response) / worker.speed
            server = worker.busy_until
            begin = now if now > server else server
            done = begin + merge
            worker.busy_until = done
            worker.stats.busy_seconds += merge
            if tracing:
                tracer.end(q.hop_span, done, status="ok", merge_seconds=merge)
            q.phase += 1
            heappush(events, (done, next_seq(), _PHASE_DONE, q))

        def end_query(q: _Query, now: float) -> None:
            failed = q.failed
            if failed and self.raise_on_failure:
                raise QueryTimeoutError(
                    f"{q.cols.routed.kind} query of client {q.client} "
                    f"exhausted its {policy.max_retries}-retry budget at "
                    f"t={now:.4f}s")
            if now >= warmup:
                if failed:
                    c_failed.inc()
                else:
                    latencies.append(now - q.started)
                    c_completed.inc()
            if tracing:
                tracer.end(q.span, now, status="failed" if failed else "ok",
                           latency_seconds=now - q.started)
            if now < duration:
                heappush(events, (now + think, next_seq(), _START, q.client))

        def on_timeout(q: _Query, row: tuple, attempt: int,
                       now: float) -> None:
            c_timeouts.inc()
            if tracing:
                tracer.point("db.timeout", now, parent=q.hop_span,
                             worker=row[0], attempt=attempt)
            if not q.failed:
                if attempt < policy.max_retries:
                    c_retries.inc()
                    delay = policy.backoff_seconds(
                        attempt, schedule.jitter(next(retry_ids)))
                    if tracing:
                        tracer.point("db.retry", now, parent=q.hop_span,
                                     worker=row[0], attempt=attempt,
                                     delay_seconds=delay)
                    push(now + delay, _RETRY, (q, row, attempt + 1))
                    return
                q.failed = True
            # Out of retries — or the query already failed on another
            # request, so none are burnt on it: just settle this one.
            settle(q, now, 1, 0)

        def on_background(payload, now: float) -> None:
            # A migration batch occupies the worker's FIFO server like any
            # storage request: queries queued behind it wait, which is the
            # honest latency price of shipping vertex state.
            worker_id, seconds = payload
            worker = workers[worker_id]
            server = worker.busy_until
            begin = now if now > server else server
            worker.busy_until = begin + seconds
            stats = worker.stats
            stats.busy_seconds += seconds
            stats.migration_seconds += seconds
            stats.migration_batches += 1
            c_migration_busy.inc(seconds)
            if tracing:
                tracer.point("db.migration.batch", now, parent=root_span,
                             worker=worker_id, seconds=seconds)

        # Stagger client start-up across the first millisecond so the
        # initial burst does not synchronise queues artificially.
        for client in range(num_clients):
            push(client * 1e-6, _START, client)
        if background_work:
            for when, worker_id, seconds in background_work:
                if seconds < 0 or when < 0:
                    raise ConfigurationError(
                        "background_work entries must have time >= 0 and "
                        "seconds >= 0")
                if not 0 <= int(worker_id) < num_workers:
                    raise ConfigurationError(
                        f"background_work worker {worker_id} outside the "
                        f"{num_workers}-worker cluster")
                push(float(when), _BACKGROUND,
                     (int(worker_id), float(seconds)))

        sanitizing = sanitize.ACTIVE
        last_event_time = 0.0
        heappop = heapq.heappop
        while events:
            time_, seq, kind, payload = heappop(events)
            if sanitizing:
                sanitize.check_event_time(time_, last_event_time,
                                          "database.simulation.event_loop")
                last_event_time = time_
            if sampling:
                while next_tick <= time_ and next_tick < duration:
                    sampler.sample(next_tick)
                    next_tick += tick
            if time_ > duration:
                break
            if kind == _SETTLED:
                q, arrived = payload
                settle(q, time_, arrived, arrived)
            elif kind == _PHASE_DONE:
                issue_phase(payload, time_)
            elif kind == _START:
                start_query(payload, time_)
            elif kind == _TIMEOUT:
                on_timeout(*payload, time_)
            elif kind == _RETRY:
                q, row, attempt = payload
                issue(q, (row,), attempt, time_)
            elif kind == _BACKGROUND:
                on_background(payload, time_)
            else:  # _ABORT: the whole replica chain was down at start.
                end_query(payload, time_)

        if sampling:
            # Drain the remaining tick grid: if the heap emptied (or the
            # last event preceded the horizon by more than a tick), the
            # in-loop flush above never reached these times.  They must
            # fire here — before the end-of-run histograms are observed —
            # so every pre-horizon sample sees only event-time state and
            # the grid [tick, 2*tick, ...) is complete for every run, not
            # just runs where a straggler event lands past the horizon.
            while next_tick < duration:
                sampler.sample(next_tick)
                next_tick += tick

        metrics.histogram("db.query.latency_seconds").observe_many(latencies)
        metrics.histogram("db.worker.vertices_read").observe_many(
            w.stats.vertices_read for w in workers)
        metrics.histogram("db.worker.busy_seconds").observe_many(
            w.stats.busy_seconds for w in workers)
        if sampling:
            # Horizon sample: the only one that sees the end-of-run
            # histograms (latency quantiles, per-worker distributions).
            sampler.sample(duration)
        if tracing:
            # Queries still in flight at the horizon close here so their
            # request/hop spans keep their parents in the export.
            tracer.end_subtree(root_span, duration, status="inflight")
            tracer.end(root_span, duration,
                       completed_queries=int(c_completed.value),
                       failed_queries=int(c_failed.value))
        return SimulationResult(
            num_workers=num_workers,
            clients_per_worker=self.clients_per_worker,
            duration=duration,
            warmup=warmup,
            latencies=np.asarray(latencies),
            vertices_read_per_worker=np.array(
                [w.stats.vertices_read for w in workers], dtype=np.int64),
            requests_per_worker=np.array(
                [w.stats.requests_served for w in workers], dtype=np.int64),
            busy_seconds_per_worker=np.array(
                [w.stats.busy_seconds for w in workers]),
            metrics=metrics,
            requests_lost_per_worker=np.array(
                [w.stats.requests_lost for w in workers], dtype=np.int64),
        )


def simulate_workload(graph: Graph, partition, bindings, *,
                      clients_per_worker: int = 12, duration: float = 2.0,
                      service_model: ServiceModel | None = None,
                      fanout_limit: int | None = 64,
                      worker_speeds=None,
                      fault_schedule: FaultSchedule | None = None,
                      retry_policy: RetryPolicy | None = None,
                      k_safety: int = 2,
                      raise_on_failure: bool = False,
                      sampler=None,
                      sample_interval: float | None = None) -> SimulationResult:
    """One-shot convenience wrapper around :class:`ClosedLoopSimulation`."""
    assignment = getattr(partition, "assignment", partition)
    num_workers = getattr(partition, "num_partitions", None)
    if num_workers is None:
        assignment = np.asarray(assignment)
        if assignment.size == 0:
            raise ConfigurationError(
                "partition assignment is empty: simulate_workload needs "
                "one owner per vertex (or a partition object carrying "
                "num_partitions)")
        num_workers = int(np.max(assignment)) + 1
    sim = ClosedLoopSimulation(
        graph, assignment, num_workers,
        clients_per_worker=clients_per_worker,
        service_model=service_model,
        fanout_limit=fanout_limit,
        worker_speeds=worker_speeds,
        fault_schedule=fault_schedule,
        retry_policy=retry_policy,
        k_safety=k_safety,
        raise_on_failure=raise_on_failure,
    )
    return sim.run(bindings, duration=duration, sampler=sampler,
                   sample_interval=sample_interval)
