"""User-facing simulated MPI layer.

A simulated MPI program is a Python *generator function* taking a
:class:`ProcContext` and yielding blocking conditions (produced by the
context's methods).  Blocking convenience wrappers (``send``, ``recv``,
``barrier``) are sub-generators used with ``yield from``; they return their
result via the generator return value::

    def program(ctx: ProcContext):
        if ctx.rank == 0:
            yield from ctx.send(1, nbytes=8, payload=np.arange(1))
        else:
            req = yield from ctx.recv(0)
            print(req.payload)
        yield from ctx.barrier()

    result = run_processes(platform, program)

Time handling: :meth:`ProcContext.time` returns the *true* simulated time of
the calling rank.  Experiments that need realistic imperfect clocks layer
:mod:`repro.clocks` on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ProtocolError
from repro.obs.context import current as _obs_current
from repro.sim.engine import ANY_SOURCE, ANY_TAG, Engine, EngineStats, Request
from repro.sim.network import NetworkModel, NetworkParams
from repro.sim.noise import NoiseModel
from repro.sim.platform import Platform

# Tag blocks reserved per subsystem so concurrent phases never cross-match.
TAG_P2P = 0
TAG_BARRIER = 1_000
TAG_COLLECTIVE = 10_000
TAG_CLOCK = 2_000
TAG_TRACE = 3_000


class ProcContext:
    """Handle through which a simulated process interacts with the engine.

    One context exists per rank.  Methods starting with ``i`` are
    non-blocking and return a :class:`Request`; the generator helpers
    (``send``, ``recv``, ``barrier``, ...) block via ``yield from``.
    """

    __slots__ = ("engine", "rank", "size", "noise", "_proc", "_fiber", "user")

    def __init__(self, engine: Engine, rank: int, noise: NoiseModel | None = None,
                 fiber=None) -> None:
        self.engine = engine
        self.rank = rank
        self.size = engine.num_procs
        self.noise = noise
        self._proc = engine.procs[rank]
        # The execution strand this context posts from (main fiber unless
        # this context was created by start_fiber).
        self._fiber = fiber if fiber is not None else self._proc.main
        #: Free slot for experiment harnesses to attach per-rank state.
        self.user: dict[str, Any] = {}

    # -- time ----------------------------------------------------------- #

    def time(self) -> float:
        """True simulated time at this rank's fiber (perfect global clock)."""
        return self._fiber.now

    # -- fibers (concurrent progress on the same rank) ------------------- #

    def start_fiber(self, fn: "Callable[[ProcContext], Iterator[tuple]]"):
        """Start ``fn`` as a concurrently progressing fiber of this rank.

        The fiber gets its own :class:`ProcContext` (same rank, own clock
        starting now) and shares the rank's NIC ports and matching queues —
        the model of a hardware-offloaded/asynchronously progressing
        activity such as a non-blocking collective.  The returned handle is
        waitable: ``yield ctx.waitall(handle)`` joins it and
        ``handle.result`` carries the fiber's return value.

        Fibers of one rank run on independent clocks; if two fibers of the
        same rank exchange messages with the same peers, give them distinct
        tags.
        """
        fiber = self.engine.spawn_fiber(self.rank, None, self._fiber.now)
        child_ctx = ProcContext(self.engine, self.rank, self.noise, fiber=fiber)
        fiber.gen = fn(child_ctx)
        return fiber

    def sleep(self, seconds: float) -> tuple:
        """Blocking condition: advance this rank's clock by ``seconds``."""
        return ("sleep", seconds)

    def wait_until(self, when: float) -> tuple:
        """Blocking condition: advance this rank's clock to ``when``."""
        return ("until", when)

    def compute(self, seconds: float) -> tuple:
        """Blocking condition: perform ``seconds`` of work, noise-perturbed.

        With no noise model attached this is identical to :meth:`sleep`.
        """
        if self.noise is not None:
            seconds = self.noise.perturb(self.rank, self._proc.now, seconds)
        return ("sleep", seconds)

    # -- point-to-point, non-blocking ------------------------------------ #

    def isend(
        self,
        dst: int,
        nbytes: int,
        tag: int = TAG_P2P,
        payload: Any = None,
        sync: bool = False,
    ) -> Request:
        """Post a non-blocking send.  ndarray payloads are snapshotted.

        ``sync=True`` gives ``MPI_Issend`` semantics (always rendezvous).
        """
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        return self.engine.post_isend(
            self.rank, dst, nbytes, tag, payload, sync=sync, fiber=self._fiber
        )

    def irecv(self, src: int, tag: int = TAG_P2P, nbytes: int = 0) -> Request:
        """Post a non-blocking receive (``src``/``tag`` may be wildcards)."""
        return self.engine.post_irecv(self.rank, src, tag, nbytes, fiber=self._fiber)

    def waitall(self, *requests: Request | Iterable[Request]) -> tuple:
        """Blocking condition: wait for every given request (or fiber handle)."""
        flat: list[Request] = []
        for item in requests:
            if isinstance(item, Request) or not hasattr(item, "__iter__"):
                flat.append(item)  # request or fiber handle
            else:
                flat.extend(item)
        if not flat:
            raise ProtocolError("waitall with no requests")
        return ("wait", flat)

    wait = waitall

    def waitany(self, *requests: Request | Iterable[Request]) -> tuple:
        """Blocking condition: wait until *one* request completes.

        Yielding this returns the index (within the flattened list) of the
        earliest-completing request::

            index = yield ctx.waitany(reqs)
        """
        flat: list[Request] = []
        for item in requests:
            if isinstance(item, Request) or not hasattr(item, "__iter__"):
                flat.append(item)  # request or fiber handle
            else:
                flat.extend(item)
        if not flat:
            raise ProtocolError("waitany with no requests")
        return ("wait_any", flat)

    # -- point-to-point, blocking helpers -------------------------------- #

    def send(
        self, dst: int, nbytes: int, tag: int = TAG_P2P, payload: Any = None
    ) -> Generator[tuple, None, Request]:
        req = self.isend(dst, nbytes, tag, payload)
        yield self.waitall(req)
        return req

    def recv(
        self, src: int, tag: int = TAG_P2P, nbytes: int = 0
    ) -> Generator[tuple, None, Request]:
        req = self.irecv(src, tag, nbytes)
        yield self.waitall(req)
        return req

    def sendrecv(
        self,
        dst: int,
        src: int,
        nbytes: int,
        recv_nbytes: int | None = None,
        tag: int = TAG_P2P,
        payload: Any = None,
    ) -> Generator[tuple, None, Request]:
        """Simultaneous send+recv; returns the receive request."""
        sreq = self.isend(dst, nbytes, tag, payload)
        rreq = self.irecv(src, tag, recv_nbytes if recv_nbytes is not None else nbytes)
        yield self.waitall(sreq, rreq)
        return rreq

    # -- built-in dissemination barrier ---------------------------------- #

    def barrier(self, tag: int = TAG_BARRIER) -> Generator[tuple, None, None]:
        """Dissemination barrier over all ranks (log2(p) rounds).

        This is the harness-internal barrier; the full set of MPI barrier
        *algorithms* lives in :mod:`repro.collectives.barrier`.
        """
        p, me = self.size, self.rank
        if p == 1:
            return
        distance = 1
        round_no = 0
        while distance < p:
            dst = (me + distance) % p
            src = (me - distance) % p
            yield from self.sendrecv(dst, src, nbytes=1, tag=tag + round_no)
            distance *= 2
            round_no += 1


@dataclass
class RunResult:
    """Outcome of a completed simulation job.

    ``engine_stats`` carries the engine's hot-path counters (events by kind,
    match fast/slow-path hits, peak heap size, wall-clock events/s); see
    :class:`repro.sim.engine.EngineStats`.
    """

    final_time: float
    rank_times: list[float]
    rank_results: list[Any]
    events_processed: int
    engine_stats: EngineStats | None = None


ProcessFn = Callable[[ProcContext], Iterator[tuple]]


def build_engine(
    platform: Platform,
    params: NetworkParams | None = None,
    noise: NoiseModel | None = None,
    num_ranks: int | None = None,
    flow=None,
) -> tuple[Engine, list[ProcContext]]:
    """Create an engine plus one :class:`ProcContext` per rank.

    ``num_ranks`` may restrict the job to the first ranks of the platform
    (like an under-subscribed ``mpirun -np``).  ``flow`` is an optional
    :class:`repro.sim.flow.FlowConfig`; when given, a
    :class:`~repro.sim.flow.FlowRuntime` is attached, enabling the
    flow-level fast path for collectives with registered phase descriptors.
    """
    network = NetworkModel(platform, params or NetworkParams())
    p = platform.num_ranks if num_ranks is None else num_ranks
    if not (0 < p <= platform.num_ranks):
        raise ProtocolError(
            f"num_ranks={num_ranks} outside 1..{platform.num_ranks} for {platform.name}"
        )
    engine = Engine(p, network)
    if flow is not None:
        from repro.sim.flow import FlowRuntime

        engine.flow_runtime = FlowRuntime(engine, flow)
    contexts = [ProcContext(engine, rank, noise) for rank in range(p)]
    return engine, contexts


def run_processes(
    platform: Platform,
    fn: ProcessFn | Sequence[ProcessFn],
    params: NetworkParams | None = None,
    noise: NoiseModel | None = None,
    num_ranks: int | None = None,
    flow=None,
) -> RunResult:
    """Run one program (or a per-rank list of programs) to completion."""
    engine, contexts = build_engine(platform, params, noise, num_ranks, flow)
    for rank, ctx in enumerate(contexts):
        rank_fn = fn[rank] if isinstance(fn, (list, tuple)) else fn
        engine.set_process(rank, rank_fn(ctx))
    with _obs_current().wall_span("sim.run", track="sim",
                                  args={"ranks": engine.num_procs}):
        final = engine.run()
    return RunResult(
        final_time=final,
        rank_times=[p.now for p in engine.procs],
        rank_results=[p.result for p in engine.procs],
        events_processed=engine.events_processed,
        engine_stats=engine.stats,
    )


__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "EngineStats",
    "ProcContext",
    "RunResult",
    "build_engine",
    "run_processes",
    "TAG_P2P",
    "TAG_BARRIER",
    "TAG_COLLECTIVE",
    "TAG_CLOCK",
    "TAG_TRACE",
]
