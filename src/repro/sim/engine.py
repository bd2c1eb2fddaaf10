"""Conservative discrete-event engine with generator-coroutine processes.

Model
-----
Each simulated MPI process is a Python generator.  The engine resumes
generators in global timestamp order; between two yields a process executes
"instantaneously" except for explicit CPU overheads that advance its local
clock.  A generator yields one of three blocking conditions:

``("sleep", dt)``
    resume ``dt`` simulated seconds later,
``("until", t)``
    resume at absolute simulated time ``t`` (or immediately if past),
``("wait", [requests])``
    resume when every :class:`Request` in the list has completed,
``("wait_any", [requests])``
    resume when at least one request has completed; the resume value is the
    index of the earliest-completing request.

Messaging follows a LogGP-flavoured cost model (see
:class:`repro.sim.network.NetworkModel`):

* the sender pays a CPU overhead ``o`` per message,
* the message occupies an *injection port* for ``bytes / bandwidth``
  seconds (back-to-back sends serialize),
* the wire adds latency ``L``,
* optionally the message occupies an *extraction port* at the receiver
  (incast serialization).

Latency and bandwidth come from the message's link class
(:meth:`~repro.sim.network.NetworkModel.link_class`).  Ports share one
index space: rank ``r``'s private port is ``r`` and node ``n``'s shared
NIC is ``num_procs + n``.  Inter-node traffic claims the node NIC of the
side that owns the port (sender for injection, receiver for extraction)
under shared-NIC modelling; everything else claims the rank's private
port.  :meth:`Engine._claim` is the one claim routine (the eager send in
:meth:`Engine.post_isend` inlines it); with link telemetry on, each claim
is one :meth:`~repro.obs.linkstats.LinkStatsRecorder.record` call.

Messages up to the eager threshold use the *eager* protocol (the sender
never blocks on the receiver).  Larger messages use *rendezvous*: an RTS
control message travels to the receiver, the data transfer starts only once
the matching receive is posted (plus a CTS latency back), so a late receiver
stalls the sender — the first-order mechanism by which process-arrival skew
propagates through large-message collectives.

Determinism: the event heap breaks ties by insertion sequence; given the
same inputs a simulation is bit-for-bit reproducible.

One deliberate approximation: a process that is resumed at time ``T`` runs
ahead to its next blocking point, claiming port time for operations stamped
``T + k*o`` even though other heap events in ``(T, T + k*o)`` have not been
processed yet.  Port bookkeeping is a max-chain, so this can only reorder
grants within a few CPU-overhead periods (~1 µs) and never moves any event
backwards in time.

Hot-path design (what keeps 1024-rank O(p²) collectives tractable)
------------------------------------------------------------------
A p-rank linear alltoall holds ~p² requests, in-flight messages, and heap
entries alive at once, so both per-message *work* and per-message *bytes*
are on the critical path (at ~1M live messages the working set stops
fitting in cache and every pointer chase slows down):

* Exact-envelope receives match the unexpected-message queue with a single
  dict lookup; only wildcard (:data:`ANY_SOURCE`/:data:`ANY_TAG`) receives
  scan, and arriving messages probe the wildcard posted keys only while a
  wildcard receive is actually live (``_Proc.wild_posted``).
* Wait completion is countdown-based: each pending request carries
  back-pointers to its waiting fibers, so completing one request is O(1)
  instead of re-scanning the fiber's whole request list.
* Heap entries are plain ``(time, seq, kind, a, b)`` tuples dispatched by
  an integer jump in :meth:`Engine.run` — no per-event closure allocation.
* The send :class:`Request` doubles as the wire message (no separate
  message object), matching-queue dict values hold a bare request until a
  second one collides (then a deque), and a request's ``waiters`` holds a
  bare ``(fiber, epoch)`` entry until a second waiter registers.
* The cyclic GC is paused for the duration of :meth:`Engine.run`: the
  engine allocates millions of objects that die by refcount, and
  generational scans over the live graph otherwise dominate large runs.

:class:`EngineStats` counts all of this; it is surfaced on
``RunResult.engine_stats`` and in the ``max_events`` error message.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from time import perf_counter
from typing import Any, Iterator

from repro.errors import DeadlockError, ProtocolError, SimulationError
from repro.obs.context import absorb_engine_stats as _absorb_engine_stats
from repro.obs.context import current as _obs_current
from repro.obs.linkstats import RX, TX, encode_port
from repro.obs.spans import msg_track as _msg_track
from repro.sim.network import NetworkModel

ANY_SOURCE = -1
ANY_TAG = -1

# Request kinds
_SEND = 0
_RECV = 1

# Event kinds.  Heap entries are (time, seq, kind, a, b) tuples; the integer
# kind is dispatched by a jump in Engine.run().  seq is unique, so heap
# comparisons never reach the payload fields.
_EV_START = 0    # a = fiber                   — first resume of a generator
_EV_RESUME = 1   # a = fiber, b = send value   — resume a blocked fiber
_EV_DELIVER = 2  # a = send req                — eager payload / RTS arrives
_EV_RNDV = 3     # a = send req, b = recv req  — rendezvous data arrives


class EngineStats:
    """Counters describing one (or several merged) engine runs.

    ``events_*`` split :attr:`events_total` by heap-event kind.  The match
    counters separate the O(1) fast paths from the wildcard fallbacks:
    ``match_fast``/``match_scan`` count unexpected-queue lookups by exact
    vs. wildcard receives, ``posted_fast``/``posted_wild`` count arriving
    messages probing one posted key vs. all four wildcard-candidate keys.
    ``peak_heap`` is the peak number of outstanding scheduled events
    (heap plus per-port event chains) — the in-flight-message high-water
    mark of the run.
    """

    __slots__ = (
        "events_start",
        "events_resume",
        "events_deliver",
        "events_rendezvous",
        "match_fast",
        "match_scan",
        "posted_fast",
        "posted_wild",
        "peak_heap",
        "wall_seconds",
        "runs",
    )

    def __init__(self) -> None:
        self.events_start = 0
        self.events_resume = 0
        self.events_deliver = 0
        self.events_rendezvous = 0
        self.match_fast = 0
        self.match_scan = 0
        self.posted_fast = 0
        self.posted_wild = 0
        self.peak_heap = 0
        self.wall_seconds = 0.0
        self.runs = 0

    @property
    def events_total(self) -> int:
        return (self.events_start + self.events_resume
                + self.events_deliver + self.events_rendezvous)

    @property
    def events_per_sec(self) -> float:
        """Wall-clock event throughput (0.0 before any timed run)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_total / self.wall_seconds

    def merge(self, other: "EngineStats") -> None:
        """Accumulate ``other`` into this instance (for cross-run aggregates)."""
        self.events_start += other.events_start
        self.events_resume += other.events_resume
        self.events_deliver += other.events_deliver
        self.events_rendezvous += other.events_rendezvous
        self.match_fast += other.match_fast
        self.match_scan += other.match_scan
        self.posted_fast += other.posted_fast
        self.posted_wild += other.posted_wild
        self.peak_heap = max(self.peak_heap, other.peak_heap)
        self.wall_seconds += other.wall_seconds
        self.runs += other.runs

    def to_dict(self) -> dict[str, float | int]:
        d: dict[str, float | int] = {name: getattr(self, name) for name in self.__slots__}
        d["events_total"] = self.events_total
        d["events_per_sec"] = self.events_per_sec
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "EngineStats":
        """Rebuild stats from :meth:`to_dict` output (derived keys ignored) —
        how worker-process aggregates rejoin the parent session."""
        stats = cls()
        for name in cls.__slots__:
            setattr(stats, name, data[name])
        return stats

    def summary(self) -> str:
        """One-line human-readable digest (used in logs and error messages)."""
        return (
            f"{self.events_total} events"
            f" (start {self.events_start}, resume {self.events_resume},"
            f" deliver {self.events_deliver}, rndv {self.events_rendezvous}),"
            f" match fast/scan {self.match_fast}/{self.match_scan},"
            f" posted fast/wild {self.posted_fast}/{self.posted_wild},"
            f" peak heap {self.peak_heap},"
            f" {self.events_per_sec / 1e3:.0f}k events/s"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EngineStats {self.summary()}>"


class Request:
    """Handle for a pending non-blocking operation.

    ``complete_time`` is ``None`` while the operation is in flight.  For
    receives, ``payload`` holds the received data object (or ``None`` when
    the sender attached no payload) once complete; ``source_rank`` and
    ``recv_tag`` record the matched envelope, which is what callers need when
    receiving with :data:`ANY_SOURCE` / :data:`ANY_TAG`.

    A *send* request doubles as the engine's in-flight wire message (there
    is no separate message class — at ~p² concurrent messages the second
    object per message is measurable): ``payload`` carries the data,
    ``eager`` the protocol, and ``arrival`` the wire-arrival timestamp of
    the data (eager) or the RTS (rendezvous).

    ``waiters`` holds the ``(fiber, epoch)`` back-pointers registered when a
    fiber blocks on this request — a bare entry tuple for the common single
    waiter, a list of entries otherwise.  Completion wakes exactly those
    fibers (countdown waits) instead of re-scanning their request lists.
    """

    __slots__ = (
        "kind",
        "owner",
        "peer",
        "tag",
        "nbytes",
        "complete_time",
        "payload",
        "source_rank",
        "recv_tag",
        "post_time",
        "waiters",
        "eager",
        "arrival",
        "activity",
    )

    def __init__(self, kind: int, owner: int, peer: int, tag: int, nbytes: int) -> None:
        self.kind = kind
        self.owner = owner
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        # Activity label of the sending fiber at post time (send requests
        # only); link records claimed at delivery/extraction time read it so
        # interleaved jobs keep their own attribution.
        self.activity: str | None = None
        self.complete_time: float | None = None
        self.payload: Any = None
        self.source_rank: int | None = None
        self.recv_tag: int | None = None
        self.post_time: float = 0.0
        self.waiters: Any = None
        self.eager = True
        self.arrival = 0.0

    @property
    def done(self) -> bool:
        return self.complete_time is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "send" if self.kind == _SEND else "recv"
        state = f"done@{self.complete_time:.9f}" if self.done else "pending"
        return f"<Request {kind} owner={self.owner} peer={self.peer} tag={self.tag} {state}>"


class _Fiber:
    """One execution strand of a simulated process.

    Every process has a *main* fiber; additional fibers model concurrently
    progressing activities of the same rank (e.g. a hardware-offloaded
    non-blocking collective).  Each fiber has its own clock and blocking
    state; fibers of one rank share the rank's ports and message queues.

    A finished fiber is itself waitable: it exposes the same
    ``kind``/``owner``/``done``/``complete_time``/``waiters`` surface as a
    :class:`Request`, so ``yield ctx.waitall(fiber)`` joins it.

    Wait bookkeeping: blocking bumps ``wait_epoch`` and registers
    ``(self, epoch)`` with each pending request; ``wait_pending`` counts the
    outstanding registrations and ``wait_deadline`` tracks the running max
    of their completion times, so the final completion resumes the fiber
    without re-scanning ``waiting``.
    """

    __slots__ = (
        "proc",
        "gen",
        "now",
        "t0",
        "waiting",
        "wait_any",
        "done",
        "blocked",
        "result",
        "complete_time",
        "kind",
        "owner",
        "waiters",
        "wait_epoch",
        "wait_pending",
        "wait_deadline",
        "activity",
    )

    def __init__(self, proc: "_Proc", gen: Iterator[Any] | None, now: float) -> None:
        self.proc = proc
        self.gen = gen
        self.now = now
        # Creation timestamp (start of the fiber's virtual-time span).
        self.t0 = now
        # Requests this fiber is currently blocked on (None when runnable).
        self.waiting: list[Request] | None = None
        # True when blocked on wait_any (first completion resumes).
        self.wait_any = False
        self.done = False
        self.blocked = False
        # Value returned by the generator (StopIteration.value).
        self.result: Any = None
        # Waitable surface (set when the fiber finishes).
        self.complete_time: float | None = None
        self.kind = _SEND  # joining is never a "foreign recv"
        self.owner = proc.rank
        self.waiters: Any = None
        self.wait_epoch = 0
        self.wait_pending = 0
        self.wait_deadline = 0.0
        # Activity label this fiber is currently inside (None = raw p2p);
        # restored into ``engine.activity`` on every resume so interleaved
        # fibers (multi-job runs) do not blur each other's link attribution.
        self.activity: str | None = None

    @property
    def rank(self) -> int:
        return self.proc.rank


class _Proc:
    """Engine-internal rank-level state (queues, fibers).

    The matching dicts map ``(src, tag)`` to *either* a single entry (the
    overwhelmingly common case — one pending item per envelope) *or* a
    deque of entries once a second one collides.  Keys are removed as soon
    as their last entry is taken, so dict size tracks live entries even
    across long multi-collective programs, and the wildcard scan never
    visits dead keys.
    """

    __slots__ = (
        "rank",
        "fibers",
        "unexpected",
        "posted",
        "wild_posted",
    )

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.fibers: list[_Fiber] = [_Fiber(self, None, 0.0)]
        # (src, tag) -> arrived-but-unmatched send request, or deque thereof.
        self.unexpected: dict[tuple[int, int], Any] = {}
        # (src, tag) -> posted-but-unmatched recv request, or deque thereof.
        self.posted: dict[tuple[int, int], Any] = {}
        # Number of live posted receives whose key contains a wildcard;
        # while zero, arriving messages probe only their exact key.
        self.wild_posted = 0

    @property
    def main(self) -> _Fiber:
        return self.fibers[0]

    @property
    def now(self) -> float:
        """The main fiber's clock (rank-level convenience view)."""
        return self.main.now

    @property
    def done(self) -> bool:
        return all(f.done for f in self.fibers)

    @property
    def result(self) -> Any:
        return self.main.result


class Engine:
    """Discrete-event simulator for a fixed set of message-passing processes.

    Parameters
    ----------
    num_procs:
        Number of simulated MPI ranks.
    network:
        The :class:`~repro.sim.network.NetworkModel` that prices messages.
    max_events:
        Safety valve against runaway simulations; exceeding it raises
        :class:`SimulationError`.
    """

    def __init__(self, num_procs: int, network: NetworkModel, max_events: int = 200_000_000):
        if num_procs <= 0:
            raise ProtocolError(f"num_procs must be positive, got {num_procs}")
        self.num_procs = num_procs
        self.network = network
        self.max_events = max_events
        self.procs = [_Proc(rank) for rank in range(num_procs)]
        self._heap: list[tuple[float, int, int, Any, Any, Any]] = []
        self._seq = 0
        self._events_processed = 0
        self._outstanding = 0
        self.now = 0.0
        self.stats = EngineStats()
        # Flow-level fast path (repro.sim.flow).  ``flow_runtime`` is
        # attached by build_engine when a non-exact FlowConfig is supplied;
        # ``activity`` names the collective/algorithm currently executing
        # (best effort, for error reporting only).
        self.flow_runtime = None
        self.activity: str | None = None
        # Per-port event chains: deliveries leaving one injection port with
        # one wire latency are scheduled in non-decreasing (time, seq) order
        # (port grants max-chain forward), so they live in a FIFO bucket with
        # only the head in the heap.  This keeps the heap at O(ports) instead
        # of O(messages-in-flight) — the difference between log2(~2k) and
        # log2(~1M) comparisons per pop in a 1024-rank linear alltoall.
        self._chains: dict[Any, deque] = {}
        # One port index space: rank r's private port is r, node n's shared
        # NIC is num_procs + n.  Each list holds every port's free time on
        # one side: injection (tx) and extraction (rx).  See _claim.
        self.num_ports = num_procs + network.num_nodes
        self._tx_free = [0.0] * self.num_ports
        self._rx_free = [0.0] * self.num_ports
        self._node_of = network.node_of
        self._group_of = network.group_of
        # Run-scoped observability (repro.obs).  Captured once at engine
        # construction; None unless a session with span recording is open,
        # so the disabled-mode cost on fiber completion is one None check.
        octx = _obs_current()
        self._obs = octx if (octx.enabled and octx.record_spans) else None
        # Per-message spans (sender post -> receiver completion) feed the
        # comm-volume and critical-path analyses; opt-in via the session's
        # record_messages flag because they are O(messages) in volume.
        self._obs_msg = self._obs if (self._obs is not None
                                      and octx.record_messages) else None
        # Fabric link recorder (repro.obs.linkstats).  None unless the
        # session opted into link recording: every port claim would record
        # one tuple, so the disabled path must stay a single None check.
        self._obs_link = octx.links if octx.enabled else None
        # Recorded form (encode_port) of every port index: a list lookup
        # per claim costs less than a call.
        self._link_port = ([encode_port(i, num_procs)
                            for i in range(self.num_ports)]
                           if self._obs_link is not None else None)

    # ------------------------------------------------------------------ #
    # Event plumbing
    # ------------------------------------------------------------------ #

    def _schedule(self, time: float, kind: int, a: Any, b: Any = None) -> None:
        """Push an event directly onto the heap (resumes, starts, fallbacks)."""
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, a, b, None))
        out = self._outstanding + 1
        self._outstanding = out
        if out > self.stats.peak_heap:
            self.stats.peak_heap = out

    def _schedule_chained(self, key: Any, time: float, kind: int, a: Any,
                          b: Any = None) -> None:
        """Schedule an event on the sorted FIFO chain identified by ``key``.

        Only the chain head sits in the heap; :meth:`run` promotes the next
        entry when it pops the head.  Each chain must stay sorted — an entry
        that would land out of order (e.g. a sibling fiber with an earlier
        clock reusing a port chain) bypasses the chain and goes straight to
        the heap, which is always correct: pop order only requires that every
        chain's minimum is heap-visible.
        """
        chains = self._chains
        bucket = chains.get(key)
        if bucket is None:
            chains[key] = bucket = deque()
        self._seq += 1
        if bucket:
            if time >= bucket[-1][0]:
                bucket.append((time, self._seq, kind, a, b, bucket))
            else:
                heapq.heappush(self._heap, (time, self._seq, kind, a, b, None))
        else:
            entry = (time, self._seq, kind, a, b, bucket)
            bucket.append(entry)
            heapq.heappush(self._heap, entry)
        out = self._outstanding + 1
        self._outstanding = out
        if out > self.stats.peak_heap:
            self.stats.peak_heap = out

    def set_process(self, rank: int, gen: Iterator[Any]) -> None:
        """Install the generator driving rank ``rank`` and schedule its start."""
        proc = self.procs[rank]
        main = proc.main
        if main.gen is not None:
            raise ProtocolError(f"process {rank} already has a generator")
        main.gen = gen
        self._schedule(main.now, _EV_START, main)

    def spawn_fiber(self, rank: int, gen: Iterator[Any] | None,
                    start_time: float) -> _Fiber:
        """Start an additional concurrently progressing fiber on ``rank``.

        The fiber shares the rank's ports and message queues but has its own
        clock, starting at ``start_time``.  The returned fiber is waitable
        (``yield ctx.waitall(fiber)``) from fibers of the same rank.
        ``gen`` may be installed after the call (before the engine first
        resumes the fiber).
        """
        proc = self.procs[rank]
        fiber = _Fiber(proc, gen, start_time)
        proc.fibers.append(fiber)
        self._schedule(start_time, _EV_START, fiber)
        return fiber

    def run(self) -> float:
        """Run the simulation to completion; return the final simulated time.

        Raises :class:`DeadlockError` if the event heap drains while some
        processes are still blocked on requests that can never complete.
        """
        for proc in self.procs:
            if proc.main.gen is None:
                raise ProtocolError(f"process {proc.rank} has no generator installed")
        stats = self.stats
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        max_events = self.max_events
        events = self._events_processed
        n_start = n_resume = n_deliver = n_rndv = 0
        # Pause the cyclic GC: nearly everything allocated here dies by
        # refcount, and generational scans over millions of live requests
        # and heap entries otherwise dominate large runs.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        started = perf_counter()
        try:
            while heap:
                time, _seq, kind, a, b, bucket = pop(heap)
                if bucket is not None:
                    # Popped a chain head: promote the chain's next entry.
                    bucket.popleft()
                    if bucket:
                        push(heap, bucket[0])
                self._outstanding -= 1
                if time < self.now - 1e-15:
                    raise SimulationError(
                        f"causality violation: event at {time} before clock {self.now}"
                    )
                if time > self.now:
                    self.now = time
                events += 1
                if events > max_events:
                    raise SimulationError(
                        self._max_events_message(
                            n_start, n_resume, n_deliver, n_rndv
                        )
                    )
                if kind == _EV_RESUME:
                    n_resume += 1
                    self._resume(a, b)
                elif kind == _EV_DELIVER:
                    n_deliver += 1
                    self._deliver(a)
                elif kind == _EV_RNDV:
                    n_rndv += 1
                    self._finish_recv(b, a, time)
                else:  # _EV_START
                    n_start += 1
                    self._resume(a, first=True)
        finally:
            if gc_was_enabled:
                gc.enable()
            self._events_processed = events
            stats.events_start += n_start
            stats.events_resume += n_resume
            stats.events_deliver += n_deliver
            stats.events_rendezvous += n_rndv
            stats.wall_seconds += perf_counter() - started
            stats.runs += 1
            # Reports into the run-scoped obs session (if any).
            _absorb_engine_stats(stats)
        blocked = [p.rank for p in self.procs if not p.done]
        if blocked:
            raise DeadlockError(blocked)
        return self.now

    def _max_events_message(self, n_start: int, n_resume: int,
                            n_deliver: int, n_rndv: int) -> str:
        msg = f"exceeded max_events={self.max_events} [{self.stats.summary()}]"
        if self.activity:
            msg += f" while running {self.activity}"
        per_message = n_deliver + n_rndv
        total = n_start + n_resume + per_message
        if total and per_message * 2 >= total:
            msg += (
                "; most events are per-message deliveries, which suggests a "
                "regular bulk phase blew the budget — consider "
                "--engine-mode hybrid (repro.sim.flow) to collapse it "
                "into analytic flow batches"
            )
        return msg

    # ------------------------------------------------------------------ #
    # Process execution
    # ------------------------------------------------------------------ #

    def _resume(self, fiber: _Fiber, value: Any = None, first: bool = False) -> None:
        """Advance ``fiber``'s generator until its next blocking condition."""
        if fiber.done:
            raise ProtocolError(f"resuming finished fiber of process {fiber.rank}")
        fiber.blocked = False
        # Synchronous claims (post_isend) made while this fiber runs must
        # carry *its* activity, not whichever fiber resumed last.
        self.activity = fiber.activity
        gen = fiber.gen
        assert gen is not None
        try:
            condition = next(gen) if first else gen.send(value)
        except StopIteration as stop:
            fiber.done = True
            fiber.result = stop.value
            fiber.complete_time = fiber.now
            obs = self._obs
            if obs is not None:
                name = "program" if fiber is fiber.proc.fibers[0] else "fiber"
                obs.record_rank_span(name, fiber.rank, fiber.t0, fiber.now)
            # Joiners (other fibers of this rank) may be waiting on us.
            self._notify_waiters(fiber)
            return
        self._apply_condition(fiber, condition)

    def _apply_condition(self, fiber: _Fiber, condition: Any) -> None:
        try:
            kind = condition[0]
        except (TypeError, IndexError):
            raise ProtocolError(
                f"process {fiber.rank} yielded invalid condition {condition!r}"
            ) from None
        if kind == "wait" or kind == "wait_any":
            requests: list[Request] = condition[1]
            any_mode = kind == "wait_any"
            for req in requests:
                if req.kind == _RECV and req.owner != fiber.rank:
                    raise ProtocolError(
                        f"process {fiber.rank} waiting on foreign recv of rank {req.owner}"
                    )
            if any_mode:
                done_times = [
                    (r.complete_time, i) for i, r in enumerate(requests)
                    if r.complete_time is not None
                ]
                if done_times:
                    when, index = min(done_times)
                    resume_at = max(fiber.now, when)
                    fiber.now = resume_at
                    self._schedule(resume_at, _EV_RESUME, fiber, index)
                else:
                    self._block(fiber, requests, any_mode=True)
                return
            if self._block(fiber, requests, any_mode=False):
                return
            # Every request already complete: resume after the latest one.
            resume_at = fiber.wait_deadline
            fiber.now = resume_at
            self._schedule(resume_at, _EV_RESUME, fiber, None)
        elif kind == "sleep":
            dt = condition[1]
            if dt < 0:
                raise ProtocolError(f"process {fiber.rank} slept for negative time {dt}")
            fiber.now += dt
            self._schedule(fiber.now, _EV_RESUME, fiber, None)
        elif kind == "until":
            target = condition[1]
            if target > fiber.now:
                fiber.now = target
            self._schedule(fiber.now, _EV_RESUME, fiber, None)
        elif kind == "flow_gate":
            # Flow-level phase barrier (repro.sim.flow): the fiber parks in
            # the gate; the last arrival replays the whole phase and
            # schedules every member's resume at its computed exit time.
            fiber.blocked = True
            fiber.waiting = None
            fiber.wait_any = False
            condition[1].arrive(fiber)
        else:
            raise ProtocolError(
                f"process {fiber.rank} yielded unknown condition {condition!r}"
            )

    def _block(self, fiber: _Fiber, requests: list[Request], any_mode: bool) -> bool:
        """Register ``fiber`` as a waiter on every pending request.

        Returns True if the fiber actually blocked.  For ``waitall`` with no
        pending requests it returns False, leaving ``fiber.wait_deadline`` at
        the resume time (max of ``fiber.now`` and all completion times).
        A request listed twice registers twice *and* counts twice, so the
        countdown stays consistent for duplicates.
        """
        fiber.wait_epoch += 1
        entry = (fiber, fiber.wait_epoch)
        if any_mode:
            # Caller guarantees no request is complete yet.
            for r in requests:
                w = r.waiters
                if w is None:
                    r.waiters = entry
                elif type(w) is list:
                    w.append(entry)
                else:
                    r.waiters = [w, entry]
            fiber.waiting = requests
            fiber.wait_any = True
            fiber.blocked = True
            return True
        pending = 0
        deadline = fiber.now
        for r in requests:
            ct = r.complete_time
            if ct is not None:
                if ct > deadline:
                    deadline = ct
                continue
            pending += 1
            w = r.waiters
            if w is None:
                r.waiters = entry
            elif type(w) is list:
                w.append(entry)
            else:
                r.waiters = [w, entry]
        fiber.wait_deadline = deadline
        if pending == 0:
            return False
        fiber.wait_pending = pending
        fiber.waiting = requests
        fiber.wait_any = False
        fiber.blocked = True
        return True

    def _notify_waiters(self, req: Request | _Fiber) -> None:
        """A request (or fiber handle) completed: wake its registered waiters.

        Countdown completion — O(1) per (request, waiter) pair.  Stale
        registrations (the fiber has since resumed and re-blocked) are
        filtered by the epoch check in :meth:`_wake`.
        """
        w = req.waiters
        if w is None:
            return
        req.waiters = None
        if type(w) is tuple:  # single (fiber, epoch) entry — the common case
            fiber = w[0]
            if w[1] != fiber.wait_epoch or not fiber.blocked:
                return  # stale registration from an earlier wait
            if fiber.wait_any:
                self._wake(fiber, w[1], req)
                return
            # Inlined countdown step: this is once-per-message in collectives.
            ct = req.complete_time
            if ct > fiber.wait_deadline:
                fiber.wait_deadline = ct
            pending = fiber.wait_pending - 1
            fiber.wait_pending = pending
            if pending == 0:
                resume_at = fiber.wait_deadline
                fiber.waiting = None
                fiber.blocked = False
                fiber.now = resume_at
                self._schedule(resume_at, _EV_RESUME, fiber, None)
        else:
            for fiber, epoch in w:
                self._wake(fiber, epoch, req)

    def _wake(self, fiber: _Fiber, epoch: int, req: Request | _Fiber) -> None:
        if epoch != fiber.wait_epoch or not fiber.blocked:
            return  # stale registration from an earlier wait
        if fiber.wait_any:
            # First completion for this wait: pick the earliest-completed
            # index (scans once; duplicates resolve to the lowest index).
            done_times = [
                (r.complete_time, i) for i, r in enumerate(fiber.waiting)
                if r.complete_time is not None
            ]
            when, index = min(done_times)
            resume_at = fiber.now if fiber.now > when else when
            fiber.waiting = None
            fiber.wait_any = False
            fiber.blocked = False
            fiber.now = resume_at
            self._schedule(resume_at, _EV_RESUME, fiber, index)
        else:
            ct = req.complete_time
            if ct > fiber.wait_deadline:
                fiber.wait_deadline = ct
            fiber.wait_pending -= 1
            if fiber.wait_pending == 0:
                resume_at = fiber.wait_deadline
                fiber.waiting = None
                fiber.blocked = False
                fiber.now = resume_at
                self._schedule(resume_at, _EV_RESUME, fiber, None)

    # ------------------------------------------------------------------ #
    # Point-to-point messaging
    # ------------------------------------------------------------------ #

    def post_isend(
        self, src: int, dst: int, nbytes: int, tag: int, payload: Any = None,
        sync: bool = False, fiber: _Fiber | None = None,
    ) -> Request:
        """Post a non-blocking send from ``src``'s current local time.

        ``sync=True`` forces the rendezvous protocol regardless of size
        (``MPI_Issend`` semantics): the send cannot complete before the
        matching receive is posted.  ``fiber`` selects which of the rank's
        fibers posts (and pays the CPU overhead); default is the main fiber.
        """
        if not (0 <= dst < self.num_procs):
            raise ProtocolError(f"isend to invalid rank {dst}")
        if nbytes < 0:
            raise ProtocolError(f"isend with negative size {nbytes}")
        if tag < 0:
            raise ProtocolError(f"isend with negative tag {tag} (reserved for wildcards)")
        proc = self.procs[src]
        fib = fiber if fiber is not None else proc.fibers[0]
        net = self.network
        # Built field-by-field (not via __init__): two requests per message
        # make the constructor call overhead itself measurable at scale.
        req = Request.__new__(Request)
        req.kind = _SEND
        req.owner = src
        req.peer = dst
        req.tag = tag
        req.nbytes = nbytes
        req.payload = payload
        req.source_rank = None
        req.recv_tag = None
        req.waiters = None
        req.post_time = fib.now
        req.activity = self.activity
        fib.now += net.send_overhead
        if nbytes <= net.eager_max and not sync:
            # Inlined _claim of the injection port: this is the exact
            # engine's hottest path, where each method call shows.  The
            # delivery chain key packs the port index and the link class
            # into one int (no tuple per send).
            node_of = self._node_of
            src_node = node_of[src]
            if src == dst:
                cls = 0
            elif src_node == node_of[dst]:
                cls = 1
            else:
                group_of = self._group_of
                cls = 2 if group_of[src] == group_of[dst] else 3
            port = (self.num_procs + src_node
                    if cls > 1 and net.shared_node_nic else src)
            free = self._tx_free
            ready = fib.now
            start = free[port]
            if ready > start:
                start = ready
            free[port] = tx_end = start + nbytes * net.inv_bw_of[cls]
            req.eager = True
            req.complete_time = tx_end
            req.arrival = arrival = tx_end + net.lat_of[cls]
            self._schedule_chained((port << 2) | cls, arrival, _EV_DELIVER,
                                   req)
            links = self._obs_link
            if links is not None and cls:
                links.record(self._link_port[port], cls, TX,
                             start, tx_end, nbytes, start - ready,
                             self.activity)
        else:
            # Rendezvous: the RTS travels now; data moves once matched.
            lat = net.latency(src, dst)
            req.eager = False
            req.complete_time = None
            req.arrival = arrival = fib.now + lat
            self._schedule_chained(("rts", src, lat), arrival, _EV_DELIVER, req)
        return req

    def post_irecv(self, dst: int, src: int, tag: int, nbytes: int = 0,
                   fiber: _Fiber | None = None) -> Request:
        """Post a non-blocking receive at ``dst``'s current local time.

        ``src`` may be :data:`ANY_SOURCE` and ``tag`` may be :data:`ANY_TAG`.
        """
        if src != ANY_SOURCE and not (0 <= src < self.num_procs):
            raise ProtocolError(f"irecv from invalid rank {src}")
        if tag != ANY_TAG and tag < 0:
            raise ProtocolError(f"irecv with negative tag {tag} (use ANY_TAG to wildcard)")
        if nbytes < 0:
            raise ProtocolError(f"irecv with negative size {nbytes}")
        proc = self.procs[dst]
        fib = fiber if fiber is not None else proc.fibers[0]
        req = Request.__new__(Request)
        req.kind = _RECV
        req.owner = dst
        req.peer = src
        req.tag = tag
        req.nbytes = nbytes
        req.complete_time = None
        req.payload = None
        req.source_rank = None
        req.recv_tag = None
        req.waiters = None
        req.eager = True
        req.arrival = 0.0
        req.post_time = fib.now
        fib.now += self.network.recv_overhead
        key = (src, tag)
        if src != ANY_SOURCE and tag != ANY_TAG:
            # Exact envelope: one dict probe against the unexpected queue.
            self.stats.match_fast += 1
            unexpected = proc.unexpected
            cur = unexpected.get(key)
            if cur is None:
                msg = None
            elif type(cur) is deque:
                msg = cur.popleft()
                if not cur:
                    del unexpected[key]
            else:
                msg = cur
                del unexpected[key]
        else:
            msg = self._match_unexpected_wild(proc, src, tag)
        if msg is not None:
            self._complete_match(req, msg)
        else:
            posted = proc.posted
            cur = posted.get(key)
            if cur is None:
                posted[key] = req
            elif type(cur) is deque:
                cur.append(req)
            else:
                posted[key] = deque((cur, req))
            if src == ANY_SOURCE or tag == ANY_TAG:
                proc.wild_posted += 1
        return req

    # -- matching ------------------------------------------------------- #

    @staticmethod
    def _queue_pop(table: dict, key: tuple[int, int], cur: Any) -> Any:
        """Take the head entry for ``key`` (a bare entry or a deque head),
        pruning the key as soon as it empties."""
        if type(cur) is deque:
            head = cur.popleft()
            if not cur:
                del table[key]
            return head
        del table[key]
        return cur

    def _match_unexpected_wild(self, proc: _Proc, src: int, tag: int) -> Request | None:
        """Scan the unexpected queues for a wildcard receive: the
        earliest-*arrived* matching message wins.  Exact envelopes never get
        here — they resolve with one dict probe in :meth:`post_irecv`
        (messages always carry concrete envelopes, so an exact receive can
        match exactly one key)."""
        self.stats.match_scan += 1
        unexpected = proc.unexpected
        candidates: list[tuple[float, tuple[int, int]]] = []
        for (msrc, mtag), cur in unexpected.items():
            if (src == ANY_SOURCE or msrc == src) and (tag == ANY_TAG or mtag == tag):
                head = cur[0] if type(cur) is deque else cur
                candidates.append((head.arrival, (msrc, mtag)))
        if not candidates:
            return None
        _, key = min(candidates)
        return self._queue_pop(unexpected, key, unexpected[key])

    def _match_posted_wild(self, proc: _Proc, msg: Request) -> Request | None:
        """Match an arriving message while wildcard receives are live
        (``wild_posted > 0``): all four candidate keys are probed and the
        earliest post wins (ties break toward the wildcard key, whose tuple
        sorts first — deterministic either way)."""
        self.stats.posted_wild += 1
        posted = proc.posted
        candidates: list[tuple[float, tuple[int, int]]] = []
        for key in (
            (msg.owner, msg.tag),
            (ANY_SOURCE, msg.tag),
            (msg.owner, ANY_TAG),
            (ANY_SOURCE, ANY_TAG),
        ):
            cur = posted.get(key)
            if cur is not None:
                head = cur[0] if type(cur) is deque else cur
                candidates.append((head.post_time, key))
        if not candidates:
            return None
        _, key = min(candidates)
        req = self._queue_pop(posted, key, posted[key])
        if key[0] == ANY_SOURCE or key[1] == ANY_TAG:
            proc.wild_posted -= 1
        return req

    def _deliver(self, msg: Request) -> None:
        """Handle arrival of an eager payload or a rendezvous RTS at the
        receiver.  The exact-envelope eager case — essentially every message
        of a collective — runs inline: one posted-queue probe, the
        extraction-port claim, receive completion, waiter notification."""
        proc = self.procs[msg.peer]
        if not proc.wild_posted:
            self.stats.posted_fast += 1
            key = (msg.owner, msg.tag)
            posted = proc.posted
            cur = posted.get(key)
            if cur is None:
                recv_req = None
            elif type(cur) is deque:
                recv_req = cur.popleft()
                if not cur:
                    del posted[key]
            else:
                recv_req = cur
                del posted[key]
        else:
            recv_req = self._match_posted_wild(proc, msg)
        if recv_req is None:
            key = (msg.owner, msg.tag)
            unexpected = proc.unexpected
            cur = unexpected.get(key)
            if cur is None:
                unexpected[key] = msg
            elif type(cur) is deque:
                cur.append(msg)
            else:
                unexpected[key] = deque((cur, msg))
        elif msg.eager:
            # Inlined _finish_recv: essentially every collective message
            # completes here.
            ready = recv_req.post_time
            if msg.arrival > ready:
                ready = msg.arrival
            ready = self._claim(self._rx_free, RX, msg.owner, msg.peer, ready,
                                msg.nbytes, msg.activity)
            recv_req.complete_time = ready
            recv_req.payload = msg.payload
            recv_req.source_rank = msg.owner
            recv_req.recv_tag = msg.tag
            if self._obs_msg is not None:
                self._record_msg(msg, ready)
            self._notify_waiters(recv_req)
        else:
            self._complete_match(recv_req, msg)

    def _complete_match(self, recv_req: Request, msg: Request) -> None:
        """A send and a receive have met; finish the transfer."""
        ready = max(recv_req.post_time, msg.arrival)
        if msg.eager:
            self._finish_recv(recv_req, msg, ready)
            return
        # Rendezvous handshake: CTS back to the sender, then the data.  The
        # data deliveries of one sender and latency arrive in claim order,
        # so they share one event chain.
        src, dst = msg.owner, msg.peer
        lat = self.network.latency(src, dst)
        tx_end = self._claim(self._tx_free, TX, src, dst, ready + lat,
                             msg.nbytes, msg.activity)
        msg.complete_time = tx_end
        self._notify_waiters(msg)
        self._schedule_chained((src, lat), tx_end + lat, _EV_RNDV, msg,
                               recv_req)

    def _claim(self, free: list[float], direction: int, src: int, dst: int,
               ready: float, nbytes: float, activity: str | None) -> float:
        """Claim FIFO port time for one ``src -> dst`` message; return its end.

        ``free`` is :attr:`_tx_free` (``direction`` :data:`TX`, the sender's
        side) or :attr:`_rx_free` (:data:`RX`, the receiver's side).  The
        port is the side owner's node NIC for inter-node traffic under
        shared-NIC modelling and the owner's private port otherwise; the
        claim starts at ``max(ready, free[port])`` and holds the port for
        ``nbytes`` at the link class's bandwidth.  Without rx serialization
        an extraction claim is a no-op that returns ``ready``.
        """
        net = self.network
        if direction == RX and not net.rx_serialization:
            return ready
        cls = net.link_class(src, dst)
        owner = dst if direction == RX else src
        port = (self.num_procs + self._node_of[owner]
                if cls > 1 and net.shared_node_nic else owner)
        start = free[port]
        if ready > start:
            start = ready
        free[port] = end = start + nbytes * net.inv_bw_of[cls]
        links = self._obs_link
        if links is not None and cls:
            links.record(self._link_port[port], cls, direction,
                         start, end, nbytes, start - ready, activity)
        return end

    def _finish_recv(self, recv_req: Request, msg: Request,
                     ready: float) -> None:
        """Serialize ``msg`` through the receiver's extraction port, then
        complete ``recv_req``."""
        when = self._claim(self._rx_free, RX, msg.owner, msg.peer, ready,
                           msg.nbytes, msg.activity)
        recv_req.complete_time = when
        recv_req.payload = msg.payload
        recv_req.source_rank = msg.owner
        recv_req.recv_tag = msg.tag
        if self._obs_msg is not None:
            self._record_msg(msg, when)
        self._notify_waiters(recv_req)

    def _record_msg(self, msg: Request, delivered: float) -> None:
        """Record one delivered message (sender post to receiver completion)
        on the receiver's message track.  Every eager and rendezvous
        completion path funnels through here when message recording is on."""
        self._obs_msg.record_vspan(
            "msg", _msg_track(msg.peer), msg.post_time, delivered,
            args={"src": msg.owner, "dst": msg.peer, "bytes": msg.nbytes,
                  "tag": msg.tag},
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def proc_time(self, rank: int) -> float:
        """Current local simulated time of rank ``rank``."""
        return self.procs[rank].now
