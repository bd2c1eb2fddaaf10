"""Fabric link statistics: bounded busy-interval recording per port.

The simulator's cost model is a set of FIFO *ports* in one index space:
rank ``r``'s private port is ``r`` and node ``n``'s shared NIC is
``p + n`` (``p`` ranks), each with an injection (tx) and an extraction
(rx) side.  A message claims its owner's node NIC when it crosses nodes
under shared-NIC modelling and the owner's private port otherwise, with
the recurrence ``start = max(ready, port_free); port_free = start +
tx_time``.  That recurrence *is* the fabric: a port whose claims queue up
is a hot link, and ``start - ready`` is exactly the time a message waited
on contention rather than on its own transmission.

:class:`LinkStatsRecorder` captures those claims.  Mirroring
:class:`~repro.obs.spans.SpanRecorder`, it is a bounded ring (overflow
drops the oldest records and counts them in :attr:`dropped`) and the
disabled-mode cost in the engine is a single ``None`` check per message.
Records are plain tuples, not objects: the exact engine records one per
port claim, through :meth:`LinkStatsRecorder.record`.

Record layout (see :data:`FIELDS`)::

    (port, cls, direction, start, end, busy, nbytes, messages, wait, activity)

* ``port`` — ``>= 0``: the rank owning a private NIC port; ``< 0``: a
  shared node port, recorded ``-(node + 1)`` (:func:`encode_port`) so a
  record names its port without knowing the job size (see
  :func:`port_name`).
* ``cls`` — link class, indexing :data:`CLASS_NAMES`: 1 intra-node,
  2 inter-node same group, 3 cross-group.  Self-messages (class 0) claim
  no port time and are never recorded.
* ``direction`` — :data:`TX` (injection) or :data:`RX` (extraction).
* ``start``/``end`` — the busy interval in virtual seconds.
* ``busy`` — port-busy seconds inside the interval (``end - start`` for a
  single message; the summed occupancy for a flow-batch aggregate, whose
  envelope spans the whole phase).
* ``nbytes``/``messages`` — traffic volume the record covers.
* ``wait`` — contention seconds: how long the traffic sat ready but
  blocked behind earlier claims of the same port.
* ``activity`` — the ``"{collective}/{algorithm}"`` label active when the
  claim happened (``None`` for raw point-to-point traffic), the key for
  per-collective contention attribution in :mod:`repro.obs.analysis`.

Both engines feed the same recorder: the exact engine records one tuple
per port claim, and the flow engine (:mod:`repro.sim.flow`) writes one
synthetic aggregate per ``(port, class, direction)`` per batch, so exact
and hybrid runs of the same case paint the same per-link byte totals.
:func:`link_totals` sums records per link for every consumer (the gauges
here and the :class:`~repro.obs.analysis.TraceAnalysis` tables).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

#: Default ring capacity (records).  A record is one 10-tuple (~200 bytes
#: with its boxed floats), bounding the recorder at ~40 MB worst case.
DEFAULT_LINK_CAPACITY = 200_000

#: Link-class names, indexed by the engine's class codes.
CLASS_NAMES = ("self", "intra", "inter", "group")

#: Direction codes and their names.
TX, RX = 0, 1
DIRECTION_NAMES = ("tx", "rx")

#: Field names of one record tuple, in order.
FIELDS = ("port", "cls", "direction", "start", "end", "busy", "nbytes",
          "messages", "wait", "activity")


def encode_port(port: int, num_procs: int) -> int:
    """Recorded form of an engine port index: a rank's private port keeps
    its index, node ``n``'s NIC (index ``num_procs + n``) becomes
    ``-(n + 1)``."""
    return port if port < num_procs else num_procs - 1 - port


def port_name(port: int) -> str:
    """Human-readable name for an encoded port index.

    Rank-private ports are their rank (``rank3``); shared node NICs are
    encoded negative (``-(node + 1)``) and render as ``node2``.
    """
    return f"rank{port}" if port >= 0 else f"node{-port - 1}"


def link_name(port: int, cls: int, direction: int) -> str:
    """Canonical ``port/class/direction`` label for one directed link."""
    return f"{port_name(port)} {CLASS_NAMES[cls]} {DIRECTION_NAMES[direction]}"


class LinkStatsRecorder:
    """Bounded in-memory store of per-port busy intervals for one session."""

    __slots__ = ("capacity", "records", "dropped")

    def __init__(self, capacity: int = DEFAULT_LINK_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.records: deque[tuple] = deque(maxlen=capacity)
        #: Records evicted from the ring by newer ones.
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.records)

    def record(self, port: int, cls: int, direction: int, start: float,
               end: float, nbytes: float, wait: float,
               activity: str | None) -> None:
        """Record one message's port claim (busy = end - start)."""
        if len(self.records) == self.capacity:
            self.dropped += 1
        self.records.append((port, cls, direction, start, end, end - start,
                             nbytes, 1, wait, activity))

    def record_batch(self, port: int, cls: int, direction: int, start: float,
                     end: float, busy: float, nbytes: float, messages: int,
                     wait: float, activity: str | None) -> None:
        """Record one aggregate interval covering ``messages`` claims.

        The flow engine's write-back path: ``[start, end]`` is the batch
        envelope, ``busy`` the summed port occupancy inside it.
        """
        if len(self.records) == self.capacity:
            self.dropped += 1
        self.records.append((port, cls, direction, start, end, busy,
                             nbytes, messages, wait, activity))

    def to_dicts(self) -> list[dict]:
        """All records as plain dicts (export / analysis form)."""
        return [dict(zip(FIELDS, rec)) for rec in self.records]

    def publish_gauges(self, registry) -> int:
        """Set per-link totals as labeled gauges on ``registry``.

        One ``link.busy_seconds`` / ``link.bytes_total`` /
        ``link.wait_seconds`` / ``link.messages_total`` gauge per distinct
        ``(port, class, direction)``, labeled for the Prometheus exposition
        path (:func:`repro.obs.expose.render_prometheus`).  Returns the
        number of distinct links published.
        """
        totals = link_totals(self.records)
        for (port, cls, direction), (busy, nbytes, messages, wait) \
                in sorted(totals.items()):
            labels = {"port": port_name(port), "link_class": CLASS_NAMES[cls],
                      "direction": DIRECTION_NAMES[direction]}
            registry.gauge("link.busy_seconds", labels).set(busy)
            registry.gauge("link.bytes_total", labels).set(nbytes)
            registry.gauge("link.messages_total", labels).set(messages)
            registry.gauge("link.wait_seconds", labels).set(wait)
        return len(totals)


def link_totals(records: Iterable[tuple],
                by_activity: bool = False) -> dict[tuple, list]:
    """Sum ``[busy, nbytes, messages, wait]`` per link over record tuples.

    Keys are ``(port, cls, direction)``, or ``(port, cls, direction,
    activity)`` with ``by_activity``, in first-seen order.  Sums run in
    record order, so every consumer (gauges, usage, attribution) gets
    bit-identical totals.
    """
    totals: dict[tuple, list] = {}
    for port, cls, direction, _s, _e, busy, nbytes, messages, wait, activity \
            in records:
        key = ((port, cls, direction, activity) if by_activity
               else (port, cls, direction))
        agg = totals.get(key)
        if agg is None:
            totals[key] = [busy, nbytes, messages, wait]
        else:
            agg[0] += busy
            agg[1] += nbytes
            agg[2] += messages
            agg[3] += wait
    return totals


__all__ = [
    "DEFAULT_LINK_CAPACITY",
    "CLASS_NAMES",
    "DIRECTION_NAMES",
    "TX",
    "RX",
    "FIELDS",
    "encode_port",
    "link_totals",
    "port_name",
    "link_name",
    "LinkStatsRecorder",
]
