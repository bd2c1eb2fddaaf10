"""LogGP-flavoured network cost model for the simulator.

The model distinguishes two link levels, mirroring the paper's simulation
platform (Section III-A): *intra-node* (ranks on the same node communicate
through shared memory) and *inter-node* (through the switch).  Each level has
its own latency and bandwidth, and an optional third level prices traffic
between node groups.  On top of the per-link cost the model charges a
constant CPU overhead per posted send/receive; the engine serializes
messages through FIFO injection (and optionally extraction) ports.

The mapping from rank to node comes from the :class:`~repro.sim.platform.Platform`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.sim.platform import Platform


@dataclass(frozen=True)
class NetworkParams:
    """Tunable parameters of the network model.

    Defaults approximate the paper's simulation platform: 10 Gbps links,
    1 µs intra-node and 2 µs inter-node latency.
    """

    intra_latency: float = 1e-6
    inter_latency: float = 2e-6
    intra_bandwidth: float = 10e9 / 8  # bytes/s (10 Gbps)
    inter_bandwidth: float = 10e9 / 8
    #: Inter-group link (Dragonfly+/fat-tree third level).  ``None`` means
    #: inter-group traffic uses the plain inter-node parameters.
    group_latency: float | None = None
    group_bandwidth: float | None = None
    send_overhead: float = 0.3e-6
    recv_overhead: float = 0.3e-6
    eager_threshold: int = 4096
    rx_serialization: bool = True
    #: Inter-node messages serialize through one NIC per *node* (shared by
    #: all its ranks) rather than a private per-rank port.  This is the
    #: physical reality on multi-core nodes and the first-order source of
    #: contention effects under process-arrival skew; switching it off
    #: falls back to the pure per-rank LogGP port model (ablation).
    shared_node_nic: bool = True

    def validate(self) -> None:
        if self.intra_latency < 0 or self.inter_latency < 0:
            raise ConfigurationError("latencies must be non-negative")
        if self.intra_bandwidth <= 0 or self.inter_bandwidth <= 0:
            raise ConfigurationError("bandwidths must be positive")
        if self.send_overhead < 0 or self.recv_overhead < 0:
            raise ConfigurationError("overheads must be non-negative")
        if self.eager_threshold < 0:
            raise ConfigurationError("eager threshold must be non-negative")
        if self.group_latency is not None and self.group_latency < 0:
            raise ConfigurationError("group latency must be non-negative")
        if self.group_bandwidth is not None and self.group_bandwidth <= 0:
            raise ConfigurationError("group bandwidth must be positive")


@dataclass
class NetworkModel:
    """Prices messages between ranks of a :class:`Platform`.

    Every message travels over one *link class* (:meth:`link_class`):
    0 self, 1 intra-node, 2 inter-node within a group, 3 cross-group.  The
    class indexes the per-class ``lat_of`` latency and ``inv_bw_of``
    inverse-bandwidth tables, which :meth:`latency`,
    :meth:`transmission_time`, the engine's inlined send path and the flow
    replay's vector tables all read.  The precomputed fields (``node_of``,
    ``group_of``, the two tables, ``eager_max``) are deliberately public so
    the engine's hot path can read them without method calls.
    """

    platform: Platform
    params: NetworkParams = field(default_factory=NetworkParams)

    def __post_init__(self) -> None:
        self.params.validate()
        self._node_of = self.platform.node_of_rank_table()
        self.node_of = self._node_of
        self.num_nodes = self.platform.nodes
        self.send_overhead = self.params.send_overhead
        self.recv_overhead = self.params.recv_overhead
        self.rx_serialization = self.params.rx_serialization
        self.shared_node_nic = self.params.shared_node_nic
        self.eager_max = self.params.eager_threshold
        self.group_of = self.platform.group_of_rank_table()
        params = self.params
        group_lat = (params.group_latency if params.group_latency is not None
                     else params.inter_latency)
        group_bw = (params.group_bandwidth
                    if params.group_bandwidth is not None
                    else params.inter_bandwidth)
        #: Latency and inverse bandwidth per link class (self messages cost
        #: nothing).
        self.lat_of = (0.0, params.intra_latency, params.inter_latency,
                       group_lat)
        self.inv_bw_of = (0.0, 1.0 / params.intra_bandwidth,
                          1.0 / params.inter_bandwidth, 1.0 / group_bw)

    def same_node(self, a: int, b: int) -> bool:
        return self._node_of[a] == self._node_of[b]

    def is_eager(self, nbytes: int) -> bool:
        return nbytes <= self.eager_max

    def link_class(self, src: int, dst: int) -> int:
        """Link class of ``src -> dst``: 0 self, 1 intra-node, 2 inter-node
        in the same group, 3 cross-group (symmetric in its arguments)."""
        if src == dst:
            return 0
        if self._node_of[src] == self._node_of[dst]:
            return 1
        return 2 if self.group_of[src] == self.group_of[dst] else 3

    def latency(self, src: int, dst: int) -> float:
        """Wire latency between two ranks (zero for a self-message)."""
        return self.lat_of[self.link_class(src, dst)]

    def transmission_time(self, src: int, dst: int, nbytes: int) -> float:
        """Time the message occupies an injection/extraction port."""
        return nbytes * self.inv_bw_of[self.link_class(src, dst)]

    def point_to_point_time(self, src: int, dst: int, nbytes: int) -> float:
        """Analytic cost of one isolated message (no port contention).

        Useful for sanity checks and for closed-form expectations in tests.
        """
        if src == dst:
            return 0.0
        base = self.latency(src, dst) + self.transmission_time(src, dst, nbytes)
        if self.rx_serialization:
            base += self.transmission_time(src, dst, nbytes)
        if not self.is_eager(nbytes):
            # RTS out + CTS back before the data can move.
            base += 2 * self.latency(src, dst)
        return base
