"""Flow-level fast path: collapse regular bulk phases into vectorized replays.

The exact engine (:mod:`repro.sim.engine`) prices every message as its own
discrete event — perfect fidelity, but a 16k-rank linear alltoall is ~256M
messages and hopeless at one heap pop per message.  This module adds the
escape hatch: collectives *declare* the regular bulk phases of their
schedules via :func:`phase_descriptor` plans, and when every rank of a
communicator reaches such a phase, the engine collapses the whole phase
into **one event per rank** — a :class:`FlowGate` that blocks all ranks,
replays the phase's port-claim recurrences with vectorized numpy, writes
the port state back, and resumes every rank at its computed exit time.

Exactness contract
------------------
The replay is not an approximation of the engine's cost model — it *is* the
cost model, evaluated in closed form:

* every float operation of the exact engine (sequential ``+= overhead``
  clock advances, ``max(ready, port_free) + tx_time`` port claims, eager
  and rendezvous completion rules) is replicated operation-for-operation,
  in the same order, so results are **bit-identical** to exact simulation
  whenever the flow path engages (see ``tests/test_engine_parity.py``);
* a port's claim chain splits into stretches of claims that find the port
  idle (``ready + t`` each) and claims that queue (``np.add.accumulate`` on
  float64 is a strict left fold), so :func:`_seq_chain` evaluates it in
  one vectorized pass per stretch without changing a single rounding step.

The provable-exactness domain splits on plan kind and port ownership:

* *Stepped* plans (lockstep exchange rounds) on **private-port** platforms
  (per-rank NICs, a single node, or one rank per node) are bit-exact at
  **any** entry skew: every port has a single owning rank that claims it
  in its own program order, and the engine's expected- and unexpected-path
  completion formulas coincide, so event interleaving cannot change the
  arithmetic.
* The *linear* plan is bit-exact at **any** entry skew on every platform:
  a rank's whole phase runs in its entry event, so the exact engine's
  event order follows from the entries and arrivals alone, and the replay
  claims extraction ports in that order (a message that arrives before its
  receiver enters is claimed during the receiver's entry event, in post
  order; every other one at its delivery; see :func:`_extraction_order`).
* Stepped plans on platforms with ranks *sharing* node ports additionally
  need **aligned entries**: with skewed entries an early rank's phase
  overlaps a late rank's previous phase in simulated time, and the engine
  interleaves their claims on the shared port while the gate serializes
  phases.  They moreover engage only when each node port has a **single
  claiming rank** for the whole phase (ring schedules qualify; strided
  exchanges like pairwise or recursive doubling do not — several
  co-located ranks would contend for the node NIC, which the vectorized
  replay does not serialize).  Dispatch falls back on these cases, and the
  gate refuses them when a declaration turns out false.

Every replay assumes the phase's own messages are the only traffic, so a
gate checks at resolution that it was **quiet** and raises
:class:`SimulationError` otherwise: no event was scheduled from the first
arrival on, only the other ranks' entries were pending at the first
arrival, and no rank holds a posted receive or an unmatched message.
Linear gates also require every port to be free by the earliest entry
(see :meth:`FlowGate._unquiet`).

Dispatch rules
--------------
A collective call takes the flow path only when **all** of these hold,
otherwise it falls back to exact per-message simulation and bumps the
``flow.fallback_*`` counters:

* a phase descriptor is registered for ``(collective, algorithm)`` and
  returns a plan for these parameters (e.g. recursive doubling only for
  power-of-two communicators, ring allreduce only for ``count >= p``,
  linear alltoall only below the eager threshold);
* the run declares its arrival spread (``FlowConfig.declared_spread`` is
  not ``None``): an unknown spread lets entries drift into the gate
  window (synced-clock harmonize targets), which the quiet check would
  refuse;
* for stepped plans on shared-port platforms: the declared spread is
  zero (perfectly aligned phases), and the gate re-checks the *actual*
  entry spread at resolution, raising :class:`SimulationError` if it is
  nonzero; stepped plans on private-port platforms are skew-exact and
  skip both checks;
* the platform is link-class uniform, unless the plan sets ``hetero_ok``
  (ring-structured and linear schedules keep single-owner port access on
  hetero platforms; pairwise/XOR schedules do not);
* the call happens on the rank's main fiber (overlapped fibers keep exact
  ordering semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.obs.context import current as _obs_current
from repro.obs.linkstats import RX, TX, encode_port
from repro.sim.engine import _EV_RESUME, Engine

ENGINE_MODES = ("exact", "hybrid")


@dataclass(frozen=True)
class FlowConfig:
    """Enables the flow fast path for a run (the ``hybrid`` engine mode).

    The flow path engages where a plan exists and the replay is provably
    bit-identical to the exact engine (see the module docstring).

    Parameters
    ----------
    declared_spread:
        The arrival spread the harness *promises* for collective entries
        (``max(skew) - min(skew)`` of the pattern under a perfect clock).
        ``None`` means unknown (e.g. synced-clock mode) and disables the
        fast path entirely.
    payloads:
        When False, flow-path collectives return ``None`` instead of the
        reference result — scale benchmarks skip the O(p^2) payload work.
    """

    declared_spread: float | None = None
    payloads: bool = True

    def __post_init__(self) -> None:
        if self.declared_spread is not None and self.declared_spread < 0:
            raise ConfigurationError("declared_spread must be non-negative")


@dataclass(frozen=True)
class FlowPlan:
    """A collective schedule's declaration of one regular bulk phase.

    ``kind="stepped"`` describes a sequence of lockstep exchange rounds
    (every rank sends one message and receives one message per step, then
    waits on both): ``steps`` lazily yields ``(dst, src, sbytes)`` arrays
    per round, where ``dst[r]``/``src[r]`` are rank ``r``'s peers (mutually
    consistent permutations: ``dst[src[r]] == r``) and ``sbytes[r]`` the
    modeled wire bytes rank ``r`` sends.  Steps are generated lazily so an
    8k-rank plan costs O(p) memory, not O(p * steps).

    ``kind="linear"`` describes the post-everything-then-wait shape of
    ``alltoall/basic_linear``: ``p-1`` receives (ascending source, skipping
    self) then ``p-1`` sends to ``(rank+off) % p``, each of ``msg_bytes``
    eager bytes, one terminal waitall.

    ``hetero_ok`` asserts the schedule keeps single-owner access to every
    shared node port on multi-core nodes (at most one rank per node sends
    inter-node per step); plans without it only run on link-class-uniform
    platforms.  ``est_messages`` is the total point-to-point message count
    the plan replaces — the basis of the ``flow.fallback_messages`` and
    ``flow.messages_collapsed`` counters.
    """

    kind: str
    collective: str
    algorithm: str
    hetero_ok: bool
    est_messages: int
    num_steps: int = 0
    msg_bytes: float = 0.0
    steps: Callable[[], Iterator[tuple]] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("stepped", "linear"):
            raise ConfigurationError(f"unknown flow plan kind {self.kind!r}")
        if self.kind == "stepped" and self.steps is None:
            raise ConfigurationError("stepped flow plans need a steps() generator")


# --------------------------------------------------------------------- #
# Phase-descriptor registry
# --------------------------------------------------------------------- #

_DESCRIPTORS: dict[tuple[str, str], Callable] = {}


def phase_descriptor(collective: str, algorithm: str):
    """Register ``fn(p, args, network) -> FlowPlan | None`` for a schedule.

    The descriptor runs per collective call and must be cheap (O(p) at
    most); returning ``None`` means the schedule is not phase-regular for
    these parameters and the exact engine handles the call.
    """

    def deco(fn):
        _DESCRIPTORS[(collective, algorithm)] = fn
        return fn

    return deco


def get_descriptor(collective: str, algorithm: str):
    """The registered phase descriptor, or ``None``."""
    return _DESCRIPTORS.get((collective, algorithm))


# --------------------------------------------------------------------- #
# Vectorized network tables and port state
# --------------------------------------------------------------------- #


class _NetTables:
    """Link-class lookup arrays for the engine's cost model.

    Class indices are :meth:`~repro.sim.network.NetworkModel.link_class`'s:
    1 = intra-node, 2 = inter-node same group, 3 = cross-group
    (self-messages never occur in bulk phases).  ``num_ports`` is the size
    of the engine's port index space (ranks ``0..p-1``, node NICs
    ``p + node``).
    """

    __slots__ = (
        "p", "num_ports", "node_of", "group_of", "lat", "inv_bw", "shared",
        "rx_ser", "o", "ro", "eager_max", "uniform", "multi_group",
        "private_ports",
    )

    def __init__(self, engine: Engine) -> None:
        net = engine.network
        p = engine.num_procs
        self.p = p
        self.num_ports = engine.num_ports
        self.node_of = np.asarray(net.node_of[:p], dtype=np.int64)
        self.group_of = np.asarray(net.group_of[:p], dtype=np.int64)
        self.lat = np.array(net.lat_of)
        self.inv_bw = np.array(net.inv_bw_of)
        self.shared = bool(net.shared_node_nic)
        self.rx_ser = bool(net.rx_serialization)
        self.o = net.send_overhead
        self.ro = net.recv_overhead
        self.eager_max = net.eager_max
        self.multi_group = bool(np.unique(self.group_of).size > 1) and (
            net.lat_of[3] != net.lat_of[2]
            or net.inv_bw_of[3] != net.inv_bw_of[2]
        )
        # Link-class uniformity: every possible message shares one (latency,
        # bandwidth) class.  True when all ranks share a node (all intra) or
        # every rank owns its node (all inter) with no distinct group tier.
        nodes_used = int(np.unique(self.node_of).size)
        if nodes_used == 1:
            self.uniform = True
        elif nodes_used == p:
            self.uniform = not self.multi_group
        else:
            self.uniform = False
        # Private ports: no port is claimed by more than one rank — either
        # NICs are per-rank, all traffic is intra-node (node ports unused),
        # or each node hosts a single rank.  This is the domain where
        # stepped replays stay bit-exact under arbitrary entry skew.
        self.private_ports = (
            not self.shared
            or nodes_used == 1
            or int(np.bincount(self.node_of).max()) == 1
        )

    def classes(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Per-element link class for messages ``src[i] -> dst[i]``."""
        node = self.node_of
        same_node = node[src] == node[dst]
        if self.multi_group:
            grp = self.group_of
            return np.where(same_node, 1, np.where(grp[src] == grp[dst], 2, 3))
        return np.where(same_node, 1, 2)

    def ports(self, owners: np.ndarray, cls: np.ndarray) -> np.ndarray:
        """Port index each claim uses: the owner's node NIC ``p + node``
        for inter-node traffic under shared-NIC modelling, the owner's
        private port otherwise (the exact engine's rule)."""
        if not self.shared:
            return owners
        return np.where(cls >= 2, self.p + self.node_of[owners], owners)


class _PortState:
    """Snapshot of every port's ``free`` time, in the engine's index space."""

    __slots__ = ("tx", "rx")

    def __init__(self, engine: Engine) -> None:
        self.tx = np.array(engine._tx_free)
        self.rx = np.array(engine._rx_free)

    def write_back(self, engine: Engine) -> None:
        # Plain python floats keep the exact engine's hot path free of
        # numpy scalar overhead after the batch.
        engine._tx_free = self.tx.tolist()
        engine._rx_free = self.rx.tolist()


class _LinkAccum:
    """Per-batch fabric-traffic accumulator for the link recorder.

    The flow replay never materializes individual messages, so link
    recording aggregates instead: per ``(port, class, direction)`` it sums
    busy seconds, bytes, messages, and contention wait over the whole
    batch with :func:`np.bincount`, then :meth:`emit` writes one synthetic
    :meth:`~repro.obs.linkstats.LinkStatsRecorder.record_batch` interval
    per nonzero link.  Byte and message totals match the exact engine's
    per-message records exactly (integer-valued sums); busy/wait seconds
    can differ in the last ulp because the summation order differs.

    Keys pack the engine's port index space (ranks ``0..p-1``, node ports
    ``p + node``) with the link class: ``key = port * 4 + cls``.
    """

    __slots__ = ("p", "size", "busy", "nbytes", "wait", "msgs")

    def __init__(self, nt: _NetTables) -> None:
        self.p = nt.p
        self.size = nt.num_ports * 4
        # Index 0 = tx (injection), 1 = rx (extraction), as in linkstats.
        self.busy = np.zeros((2, self.size))
        self.nbytes = np.zeros((2, self.size))
        self.wait = np.zeros((2, self.size))
        self.msgs = np.zeros((2, self.size))

    def add(self, direction: int, ports, cls, busy, nbytes, wait) -> None:
        keys = np.asarray(ports, dtype=np.int64).ravel() * 4 + \
            np.asarray(cls, dtype=np.int64).ravel()

        def weights(x):
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(x, keys.shape) if x.ndim == 0 else x.ravel()

        self.busy[direction] += np.bincount(keys, weights=weights(busy),
                                            minlength=self.size)
        self.nbytes[direction] += np.bincount(keys, weights=weights(nbytes),
                                              minlength=self.size)
        self.wait[direction] += np.bincount(keys, weights=weights(wait),
                                            minlength=self.size)
        self.msgs[direction] += np.bincount(keys, minlength=self.size)

    def emit(self, recorder, start: float, end: float,
             activity: str | None) -> None:
        p = self.p
        for direction in (0, 1):
            idx = np.flatnonzero(self.msgs[direction])
            if not idx.size:
                continue
            # Bulk-convert once: per-element numpy scalar boxing would
            # dominate the whole write-back on wide platforms.
            busy = self.busy[direction][idx].tolist()
            nbytes = self.nbytes[direction][idx].tolist()
            wait = self.wait[direction][idx].tolist()
            msgs = self.msgs[direction][idx].tolist()
            for i, key in enumerate(idx.tolist()):
                recorder.record_batch(
                    encode_port(key >> 2, p), key & 3, direction,
                    start, end, busy[i], nbytes[i], int(msgs[i]), wait[i],
                    activity)


# --------------------------------------------------------------------- #
# Exact sequential port chains, vectorized
# --------------------------------------------------------------------- #


def _seq_chain(a: np.ndarray, t: np.ndarray, free0: float) -> tuple[np.ndarray, float]:
    """Evaluate ``end_j = max(a_j, end_{j-1}) + t_j`` with ``end_{-1} = free0``.

    This is the engine's port-claim recurrence for one port's claim
    sequence (``a`` = per-claim ready times in claim order, ``t`` =
    transmission times).  The chain splits into *stretches*: runs of
    claims that find the port idle (``a_j > end_{j-1}``, so ``end_j =
    a_j + t_j``) and runs that queue behind the previous claim (``end_j =
    end_{j-1} + t_j``: a strict left fold, which is what
    ``np.add.accumulate`` computes on float64).  Each pass evaluates one
    stretch in one vector operation and extends to the first claim that
    leaves it; a one-element peek at the pass's second claim picks the
    stretch kind.  Every claim gets the scalar recurrence's own rounding
    (one max, then one add), so results are bit-identical, at one pass per
    stretch.  Returns (ends, final_free).
    """
    n = a.shape[0]
    out = np.empty(n)
    start = 0
    prev = free0
    while True:
        base = a[start] if a[start] > prev else prev
        first = base + t[start]
        if start + 1 < n and a[start + 1] > first:
            # Idle stretch: each claim starts at its own ready time.
            ends = a[start:] + t[start:]
            ends[0] = first
            leave = a[start + 1 :] <= ends[:-1]
        else:
            # Queued stretch: each claim starts when the previous one ends.
            seg = np.empty(n - start + 1)
            seg[0] = base
            seg[1:] = t[start:]
            np.add.accumulate(seg, out=seg)
            ends = seg[1:]
            leave = a[start + 1 :] > ends[:-1]
        # The first claim that leaves the stretch; argmax stops there, where
        # flatnonzero would index every later one too.
        j = int(leave.argmax()) if leave.size else 0
        if not leave.size or not leave[j]:
            out[start:] = ends
            return out, float(out[-1])
        stop = start + 1 + j
        out[start:stop] = ends[: stop - start]
        prev = float(out[stop - 1])
        start = stop


def _port_chains(free: np.ndarray, ports: np.ndarray, ready: np.ndarray,
                 t: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """Run every port's claim chain; return each claim's end time.

    Claim ``i`` is ready at ``ready[i]`` and holds port ``ports[i]`` for
    ``t[i]``.  Claims of one port are chained (:func:`_seq_chain`) in
    ``order`` (a permutation; default: index order), starting from and
    updating ``free[port]``.
    """
    if order is None:
        perm = np.argsort(ports, kind="stable")
    else:
        perm = order[np.argsort(ports[order], kind="stable")]
    ports_sorted = ports[perm]
    ready_sorted = ready[perm]
    t_sorted = t[perm]
    ends_out = np.empty(ports.size)
    bounds = np.flatnonzero(np.diff(ports_sorted)) + 1
    for b0, b1 in zip(np.concatenate(([0], bounds)),
                      np.concatenate((bounds, [ports.size]))):
        port = int(ports_sorted[b0])
        ends, free[port] = _seq_chain(ready_sorted[b0:b1], t_sorted[b0:b1],
                                      free[port])
        ends_out[perm[b0:b1]] = ends
    return ends_out


# --------------------------------------------------------------------- #
# Phase replays
# --------------------------------------------------------------------- #


def _replay_stepped(
    plan: FlowPlan, nt: _NetTables, state: _PortState, entries: np.ndarray,
    accum: _LinkAccum | None = None,
) -> np.ndarray:
    """Replay a stepped exchange phase; returns per-rank exit times.

    Each step replicates the exact engine per rank: isend (clock += send
    overhead, eager port claim at ready or rendezvous claim at CTS
    arrival), irecv (clock += recv overhead), delivery at the receiver
    (eager extraction-port claim or rendezvous extract), waitall (clock =
    max of clock and both completion times).  All per-step quantities are
    elementwise over ranks; each shared node port is chained as a single
    sequence, which is exact because the dispatcher's single-owner scan
    guarantees at most one rank claims any node port during the phase.
    """
    ranks = np.arange(nt.p)
    tx, rx = state.tx, state.rx
    now = entries.copy()
    for dst, src, sbytes in plan.steps():
        now = now + nt.o          # isend: post, clock advance
        ready = now               # send ready == this step's irecv post time
        now = now + nt.ro         # irecv: clock advance
        cls = nt.classes(ranks, dst)
        tx_time = sbytes * nt.inv_bw[cls]
        lat = nt.lat[cls]
        eager = sbytes <= nt.eager_max
        # Rendezvous handshake: RTS at ready+lat, CTS back after the
        # receiver's recv post; the data claim starts at CTS arrival.
        if eager.all():
            claim_ready = ready
        else:
            handshake = np.maximum(ready[dst], ready + lat)
            claim_ready = np.where(eager, ready, handshake + lat)
        ports = nt.ports(ranks, cls)
        tx_start = np.maximum(claim_ready, tx[ports])
        tx_end = tx_start + tx_time
        tx[ports] = tx_end
        if accum is not None:
            accum.add(TX, ports, cls, tx_time, sbytes, tx_start - claim_ready)
        # Receiver side: rank r's inbound message comes from src[r]; its
        # sender-side quantities are gathers of the arrays above.
        arrival_in = tx_end[src] + lat[src]
        rx_time_in = tx_time[src]
        a_val = np.where(eager[src], np.maximum(ready, arrival_in), arrival_in)
        if nt.rx_ser:
            ports = nt.ports(ranks, cls[src])
            rx_start = np.maximum(a_val, rx[ports])
            delivered = rx_start + rx_time_in
            rx[ports] = delivered
            if accum is not None:
                accum.add(RX, ports, cls[src], rx_time_in,
                          np.broadcast_to(np.asarray(sbytes, dtype=float),
                                          (nt.p,))[src],
                          rx_start - a_val)
        else:
            delivered = a_val
        now = np.maximum(np.maximum(now, tx_end), delivered)
    return now


def _extraction_order(arrival: np.ndarray, entries: np.ndarray,
                      dst: np.ndarray, recv_idx: np.ndarray,
                      rank_of_pos: np.ndarray) -> np.ndarray:
    """The exact engine's event order of a linear phase's extraction claims.

    ``arrival``, ``dst`` and ``recv_idx`` are ``(p, m)`` in claim layout
    (sender gate position major, send index minor); ``entries`` holds each
    rank's entry clock.  A message that arrives before its receiver's entry
    is *unexpected*: it waits in the queue and is claimed during the
    receiver's entry event, at the receive's post (ascending source).
    Every other message is claimed at its delivery event.  Claims therefore
    run at the receiver's entry or at the arrival.  At equal times entry
    events run first, since the gate's quiet check guarantees that they
    were all scheduled before any delivery: entries in gate-arrival order
    then post index, deliveries in (arrival, sender position, send index)
    order, which is the row-major index.
    """
    flat = arrival.ravel()
    # All times are positive finite, so the IEEE-754 bit pattern viewed as
    # uint64 sorts like the float, and integer keys take numpy's radix path.
    # The bound skips the O(p^2) gather below when entries are aligned.
    if flat.min() >= entries.max():
        return np.argsort(flat.view(np.uint64), kind="stable")
    entry_of_dst = entries[dst]
    unexpected = arrival < entry_of_dst
    p, m = arrival.shape
    pos_of = np.empty(p, dtype=np.int64)
    pos_of[rank_of_pos] = np.arange(p)
    when = np.where(unexpected, entry_of_dst, arrival)
    # Tie keys: entry claims below p*m, deliveries from p*m up.
    tie = np.where(unexpected, pos_of[dst] * m + recv_idx,
                   np.arange(p * m, 2 * p * m).reshape(p, m))
    return np.lexsort((tie.ravel(), when.ravel()))


def _replay_linear(
    plan: FlowPlan,
    nt: _NetTables,
    state: _PortState,
    entries: np.ndarray,
    order: np.ndarray,
    accum: _LinkAccum | None = None,
) -> np.ndarray:
    """Replay the basic-linear alltoall phase; returns per-rank exit times.

    Every rank posts ``p-1`` receives then ``p-1`` eager sends and waits
    once, so *all* posts of a rank execute in its single entry event —
    injection claims interleave across ranks in **gate-arrival order**
    (``order``), send-index minor.  Extraction claims follow the exact
    engine's event order at any entry skew (:func:`_extraction_order`).
    :func:`_port_chains` then evaluates every port's claim sequence on each
    side.
    """
    p = nt.p
    m = p - 1
    rank_of_pos = order
    t_pos = entries[rank_of_pos]

    # Sequential clock advance per rank: m recv-overhead adds, then m
    # send-overhead adds — replicated as a left-fold accumulate per row.
    seq = np.empty((p, 2 * m + 1))
    seq[:, 0] = t_pos
    seq[:, 1 : m + 1] = nt.ro
    seq[:, m + 1 :] = nt.o
    np.add.accumulate(seq, axis=1, out=seq)
    recv_post_pos = seq[:, :m]      # post time of the j-th irecv
    ready = seq[:, m + 1 :]         # ready time of the k-th isend
    now_after = seq[:, -1].copy()

    recv_post_rank = np.empty((p, m))
    recv_post_rank[rank_of_pos] = recv_post_pos

    # int32 indices: the O(p*m) gathers below are memory-bound and p < 2^31.
    off = np.arange(1, p, dtype=np.int32)
    src_col = rank_of_pos.astype(np.int32)[:, None]  # (p, 1) sender per row
    dst = src_col + off[None, :]                  # (p, m) receiver per element
    dst -= (dst >= p).astype(np.int32) * np.int32(p)  # cheaper than % p
    nod_s = nt.node_of[src_col]
    nod_d = nt.node_of[dst]
    if nt.multi_group:
        cls = np.where(
            nod_d == nod_s, 1,
            np.where(nt.group_of[dst] == nt.group_of[src_col], 2, 3),
        ).astype(np.int8)
    else:
        cls = np.where(nod_d == nod_s, np.int8(1), np.int8(2))
    tx_time = plan.msg_bytes * nt.inv_bw[cls]
    lat = nt.lat[cls]

    # --- injection-port claims, in (arrival position, send index) order ---
    # Row-major order IS the claim order (arrival position major, send
    # index minor).
    tx_ports = nt.ports(np.broadcast_to(src_col, (p, m)), cls)
    tx_end = _port_chains(state.tx, tx_ports.ravel(), ready.ravel(),
                          tx_time.ravel()).reshape(p, m)

    if accum is not None:
        # The chains only surface end times, so the aggregate reconstructs
        # start = end - tx_time; wait can differ from the exact engine's in
        # the last ulp (clamped at zero), while bytes/messages are exact.
        accum.add(TX, tx_ports, cls, tx_time, plan.msg_bytes,
                  np.maximum(tx_end - tx_time - ready, 0.0))

    # --- extraction-port claims, in the exact engine's event order ---
    arrival = tx_end + lat
    recv_idx = (src_col - (src_col > dst)).astype(np.int32)
    a_val = np.maximum(recv_post_rank[dst, recv_idx], arrival)
    if nt.rx_ser:
        rx_ports = nt.ports(dst, cls)
        by_event = _extraction_order(arrival, entries, dst, recv_idx,
                                     rank_of_pos)
        delivered = _port_chains(state.rx, rx_ports.ravel(), a_val.ravel(),
                                 tx_time.ravel(), by_event).reshape(p, m)
        if accum is not None:
            accum.add(RX, rx_ports, cls, tx_time, plan.msg_bytes,
                      np.maximum(delivered - tx_time - a_val, 0.0))
    else:
        delivered = a_val

    # --- waitall: exit = max(clock after posts, send ends, recv ends) ---
    # Scatter deliveries into receiver-major layout (each slot written once:
    # every column of dst is a permutation of the ranks), then reduce; max
    # is exact, so the reduction order cannot change the result.
    recv_major = np.empty((p, m))
    cols = np.broadcast_to(np.arange(m), (p, m))
    recv_major[dst, cols] = delivered
    exits = np.empty(p)
    exits[rank_of_pos] = np.maximum(now_after, tx_end.max(axis=1))
    np.maximum(exits, recv_major.max(axis=1), out=exits)
    return exits


# --------------------------------------------------------------------- #
# Gate and runtime
# --------------------------------------------------------------------- #


class FlowGate:
    """Rendezvous point where all ranks of one planned phase meet.

    Each rank's ``run_collective`` yields ``("flow_gate", gate)``; the
    engine blocks the fiber and calls :meth:`arrive`.  The last arrival
    triggers :meth:`resolve`: snapshot port state, replay the phase, write
    the state back, and schedule every rank's resume (rank-ascending) at
    its computed exit time with its result as the resume value.

    :meth:`resolve` first checks that the gate was *quiet*
    (:meth:`_unquiet`): the replay sees only the phase's own traffic, so
    nothing else may be in flight, queued or posted across it.
    """

    __slots__ = (
        "runtime", "plan", "signature", "result_fn", "fibers", "data",
        "order", "arrived", "quiet",
    )

    def __init__(self, runtime: "FlowRuntime", plan: FlowPlan,
                 signature: tuple, result_fn) -> None:
        p = runtime.engine.num_procs
        self.runtime = runtime
        self.plan = plan
        self.signature = signature
        self.result_fn = result_fn
        self.fibers: list = [None] * p
        self.data: list = [None] * p
        self.order: list[int] = []
        self.arrived = 0
        # Engine (_seq, _outstanding) at the first arrival.
        self.quiet: tuple[int, int] | None = None

    def arrive(self, fiber) -> None:
        rank = fiber.rank
        if self.fibers[rank] is not None:
            raise SimulationError(
                f"rank {rank} re-entered the flow gate for "
                f"{self.plan.collective}/{self.plan.algorithm}"
            )
        if self.quiet is None:
            engine = self.runtime.engine
            self.quiet = (engine._seq, engine._outstanding)
        self.fibers[rank] = fiber
        self.order.append(rank)
        self.arrived += 1
        if self.arrived == len(self.fibers):
            self.resolve()

    def resolve(self) -> None:
        runtime = self.runtime
        engine = runtime.engine
        plan = self.plan
        runtime._active_gate = None
        p = engine.num_procs
        nt = runtime.net_tables
        entries = np.array([f.now for f in self.fibers])
        state = _PortState(engine)
        problem = self._unquiet(entries, state)
        if problem is not None:
            raise SimulationError(
                f"flow gate for {plan.collective}/{plan.algorithm}: "
                f"{problem}, so the flow replay would not match the exact "
                "engine; rerun with --engine-mode exact"
            )
        spread = float(entries.max() - entries.min())
        if plan.kind == "stepped" and not nt.private_ports and spread > 0.0:
            raise SimulationError(
                f"flow gate for {plan.collective}/{plan.algorithm}: actual "
                f"entry spread {spread:.3g}s is nonzero — the declared zero "
                "spread did not hold at this phase (collectives not separated "
                "by a harmonized barrier?); rerun with --engine-mode exact"
            )
        accum = _LinkAccum(nt) if engine._obs_link is not None else None
        if plan.kind == "linear":
            order = np.array(self.order, dtype=np.int64)
            exits = _replay_linear(plan, nt, state, entries, order, accum)
        else:
            exits = _replay_stepped(plan, nt, state, entries, accum)
        state.write_back(engine)
        if accum is not None:
            accum.emit(engine._obs_link, float(entries.min()),
                       float(exits.max()), engine.activity)
        if runtime.config.payloads and self.result_fn is not None:
            results = self.result_fn(self.data)
        else:
            results = [None] * p
        floor = engine.now
        for r in range(p):
            fib = self.fibers[r]
            exit_t = float(exits[r])
            fib.now = exit_t
            engine._schedule(
                exit_t if exit_t >= floor else floor, _EV_RESUME, fib, results[r]
            )
        octx = _obs_current()
        if octx.enabled:
            labels = {"algorithm": plan.algorithm}
            octx.metrics.counter("flow.batches", labels).inc()
            octx.metrics.counter("flow.messages_collapsed",
                                 labels).inc(plan.est_messages)

    def _unquiet(self, entries: np.ndarray, state: _PortState) -> str | None:
        """The first failed quiet-gate condition, or ``None``.

        The replay prices only the phase's own messages, so no other event
        may run or be pending from the first arrival on, and no rank may
        hold a posted receive or an unmatched message across the gate.  The
        linear replay also orders extraction claims as the exact engine
        would from the entry events alone, so every port must be free by
        the earliest entry: earlier traffic, including a previous batch's
        deliveries, has finished.
        """
        engine = self.runtime.engine
        seq, outstanding = self.quiet
        if engine._seq != seq:
            return "an event was scheduled while ranks waited at the gate"
        if outstanding != len(self.fibers) - 1 or engine._outstanding:
            return ("events besides the other ranks' entries were pending "
                    "at the first arrival")
        for proc in engine.procs:
            if proc.posted:
                return f"rank {proc.rank} holds a posted receive"
            if proc.unexpected:
                return f"rank {proc.rank} holds an unmatched message"
        if self.plan.kind == "linear":
            first = float(entries.min())
            busy = float(max(state.tx.max(), state.rx.max()))
            if busy > first:
                return (f"a port is busy until {busy:.9g}s, after the "
                        f"earliest entry at {first:.9g}s")
        return None


class FlowRuntime:
    """Per-engine flow state: dispatch decisions and gates.

    Attached to an engine as ``engine.flow_runtime`` by
    :func:`repro.sim.mpi.build_engine` when a :class:`FlowConfig` is
    supplied.  Engagement is counted only by the ``flow.*`` obs counters.
    """

    def __init__(self, engine: Engine, config: FlowConfig) -> None:
        self.engine = engine
        self.config = config
        self._active_gate: FlowGate | None = None
        self._nt: _NetTables | None = None
        self._owner_cache: dict[tuple, bool] = {}

    @property
    def net_tables(self) -> _NetTables:
        nt = self._nt
        if nt is None:
            nt = self._nt = _NetTables(self.engine)
        return nt

    def dispatch(self, ctx, collective: str, algorithm: str, args, data,
                 result_fn) -> Iterator | None:
        """A flow-path generator for this call, or ``None`` for exact.

        The decision depends only on call parameters, config, and platform
        shape, so every rank of one collective call decides identically.
        """
        engine = self.engine
        p = engine.num_procs
        if p <= 1:
            return None
        if ctx._fiber is not engine.procs[ctx.rank].fibers[0]:
            return None
        if not hasattr(args, "count"):
            # Vector collectives (VectorArgs: per-rank/per-pair counts) have
            # no stepped flow plan yet; label them distinctly so workload
            # runs do not silently read as generic "no_plan" regressions.
            self._count_fallback(ctx, "vector", 0)
            return None
        fn = _DESCRIPTORS.get((collective, algorithm))
        if fn is None:
            self._count_fallback(ctx, "no_plan", 0)
            return None
        plan = fn(p, args, engine.network)
        if plan is None:
            self._count_fallback(ctx, "no_plan", 0)
            return None
        spread = self.config.declared_spread
        nt = self.net_tables
        reason = None
        # An unknown spread lets entries drift into the gate window
        # (synced-clock harmonize targets), which the gate's quiet check
        # refuses.  At a known spread, linear plans replay the exact
        # engine's event order and stepped plans on private-port platforms
        # are order-insensitive (single-owner ports; skew folds into the
        # recurrences exactly); stepped plans on shared node ports need
        # aligned entries.
        if not plan.hetero_ok and not nt.uniform:
            reason = "hetero"
        elif spread is None:
            reason = "unknown_spread"
        elif plan.kind == "linear" or nt.private_ports:
            pass
        elif spread > 0.0:
            reason = "spread"
        elif not self._single_port_owner(plan, args):
            # The vectorized stepped replay chains each shared node port as
            # one sequence; two ranks claiming the same port would need
            # event-order serialization it does not model.
            reason = "shared_contention"
        if reason is not None:
            self._count_fallback(ctx, reason, plan.est_messages)
            return None
        signature = (collective, algorithm, p, args.count, args.msg_bytes, args.tag)
        return self._flow_body(ctx, plan, signature, result_fn, data)

    def _count_fallback(self, ctx, reason: str, est_messages: int) -> None:
        """Count one fallback-to-exact decision under its reason label.

        Counted once per collective call (at rank 0) so the totals read as
        calls, not call × ranks.  ``est_messages`` is zero when no plan
        exists to estimate from (``reason="no_plan"``).
        """
        if ctx.rank != 0:
            return
        octx = _obs_current()
        if not octx.enabled:
            return
        labels = {"reason": reason}
        octx.metrics.counter("flow.fallback_calls", labels).inc()
        octx.metrics.counter("flow.fallback_messages", labels).inc(est_messages)

    def _single_port_owner(self, plan: FlowPlan, args) -> bool:
        """Whether every shared node port has at most one claiming rank.

        Stepped replays on shared-NIC multi-rank nodes are exact only when
        each node's injection and extraction port is touched by a single
        rank for the whole phase — true for ring schedules (only the
        node-boundary ranks cross nodes), false for strided exchanges like
        pairwise or recursive doubling where several co-located ranks send
        inter-node in the same step.  The scan is O(p) per step with an
        early exit on the first violation, and the verdict depends only on
        the schedule shape, so it is cached across ranks and repetitions.
        """
        nt = self.net_tables
        key = (plan.collective, plan.algorithm, nt.p, args.count, args.msg_bytes)
        cached = self._owner_cache.get(key)
        if cached is not None:
            return cached
        ranks = np.arange(nt.p)
        # Claiming rank per port index (-1: unclaimed so far).
        tx_owner = np.full(nt.num_ports, -1, dtype=np.int64)
        rx_owner = np.full(nt.num_ports, -1, dtype=np.int64)
        ok = True
        prev_dst = prev_src = None
        for dst, src, _sbytes in plan.steps():
            # Ring-style schedules repeat the same partner map every step;
            # a repeated map cannot add owners, so skip the rescan.
            if (
                prev_dst is not None
                and np.array_equal(dst, prev_dst)
                and np.array_equal(src, prev_src)
            ):
                continue
            prev_dst, prev_src = dst, src
            cls = nt.classes(ranks, dst)
            for owner, ports in (
                (tx_owner, nt.ports(ranks, cls)),
                (rx_owner, nt.ports(ranks, cls[src]) if nt.rx_ser else None),
            ):
                if ports is None:
                    continue
                prev = owner[ports]
                if (np.any((prev != -1) & (prev != ranks))
                        or np.unique(ports).size != ports.size):
                    ok = False
                    break
                owner[ports] = ranks
            if not ok:
                break
        self._owner_cache[key] = ok
        return ok

    def _flow_body(self, ctx, plan, signature, result_fn, data):
        gate = self._active_gate
        if gate is None:
            gate = FlowGate(self, plan, signature, result_fn)
            self._active_gate = gate
        elif gate.signature != signature:
            raise SimulationError(
                f"flow gate mismatch: rank {ctx.rank} entered {signature} while "
                f"the active batch is {gate.signature} — ranks must call the "
                "same collective with the same parameters"
            )
        gate.data[ctx.rank] = data
        result = yield ("flow_gate", gate)
        return result


__all__ = [
    "ENGINE_MODES",
    "FlowConfig",
    "FlowGate",
    "FlowPlan",
    "FlowRuntime",
    "get_descriptor",
    "phase_descriptor",
]
