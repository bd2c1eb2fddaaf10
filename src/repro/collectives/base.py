"""Common infrastructure for collective algorithms.

Data vs. modeled size
---------------------
Algorithms carry real numpy payloads so correctness is testable, but the
*modeled* wire size is supplied separately: :class:`CollArgs` has ``count``
(items in one rank's contribution — or one block, for Alltoall/Allgather)
and ``msg_bytes`` (the bytes the simulator should charge for that
contribution).  ``bytes_for(items)`` scales proportionally, so a segmented
algorithm sending half its items is charged half the bytes.  This lets a
timing study model a 1 MiB message while moving a 64-element test payload.

Virtual topologies
------------------
The tree builders (binomial, binary, in-order binary, chain) return a
``(parent, children)`` pair per rank using *virtual ranks* rotated so that
the requested root is virtual rank 0 — the same trick Open MPI's ``coll
tuned`` component uses.

Registry
--------
Algorithms self-register with the :func:`register` decorator, keyed by
collective family and algorithm name, optionally carrying the Open MPI
algorithm ID from the paper's Table II and any aliases (e.g. the SimGrid
names used in Fig. 4).  An algorithm that hands some calls wholesale to
another (segmented ring below one segment runs the plain ring) declares
that rule as ``runs_as``; :func:`schedule_of` follows it to the algorithm
whose schedule actually runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from repro.errors import ConfigurationError, UnknownAlgorithmError
from repro.collectives.ops import SUM, ReduceOp
# Re-exported so family modules declare flow-phase regularity alongside
# their algorithm registrations (see repro.sim.flow for the dispatch rules).
from repro.sim.flow import FlowPlan, phase_descriptor
from repro.sim.mpi import TAG_COLLECTIVE, ProcContext

#: Default segment size (bytes) for segmented/pipelined algorithms, matching
#: the order of magnitude of Open MPI's tuned defaults.
DEFAULT_SEGMENT_BYTES = 64 * 1024


@dataclass(frozen=True)
class CollArgs:
    """Invocation parameters shared by all collective algorithms.

    Parameters
    ----------
    count:
        Number of payload items in one rank's contribution (one *block* for
        Alltoall/Allgather-family collectives).
    msg_bytes:
        Modeled size in bytes of that contribution/block on the wire.
    root:
        Root rank for rooted collectives (ignored otherwise).
    op:
        Reduction operator for reducing collectives (ignored otherwise).
    segment_bytes:
        Segment size for pipelined algorithms; ``None`` selects
        :data:`DEFAULT_SEGMENT_BYTES`.
    tag:
        Base message tag; distinct concurrent collectives need distinct tags.
    """

    count: int
    msg_bytes: float
    root: int = 0
    op: ReduceOp = SUM
    segment_bytes: float | None = None
    tag: int = TAG_COLLECTIVE

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ConfigurationError(f"count must be positive, got {self.count}")
        if self.msg_bytes < 0:
            raise ConfigurationError(f"msg_bytes must be non-negative, got {self.msg_bytes}")
        if self.segment_bytes is not None and self.segment_bytes <= 0:
            raise ConfigurationError("segment_bytes must be positive")

    def bytes_for(self, items: int) -> float:
        """Modeled wire bytes of a message carrying ``items`` payload items."""
        return self.msg_bytes * (items / self.count)

    def segments(self) -> list[tuple[int, int]]:
        """Split the contribution into ``(offset, items)`` segments.

        The number of segments is ``ceil(msg_bytes / segment_bytes)``, capped
        by ``count`` (a segment carries at least one item).
        """
        seg_bytes = self.segment_bytes if self.segment_bytes is not None else DEFAULT_SEGMENT_BYTES
        if self.msg_bytes <= 0:
            return [(0, self.count)]
        nseg = int(np.ceil(self.msg_bytes / seg_bytes))
        nseg = max(1, min(nseg, self.count))
        bounds = np.linspace(0, self.count, nseg + 1).astype(int)
        return [
            (int(bounds[i]), int(bounds[i + 1] - bounds[i]))
            for i in range(nseg)
            if bounds[i + 1] > bounds[i]
        ]

    def with_root(self, root: int) -> "CollArgs":
        return replace(self, root=root)


# --------------------------------------------------------------------- #
# Virtual topologies
# --------------------------------------------------------------------- #


def vrank(rank: int, size: int, root: int) -> int:
    """Virtual rank with the root rotated to 0."""
    return (rank - root) % size


def rrank(virtual: int, size: int, root: int) -> int:
    """Inverse of :func:`vrank`."""
    return (virtual + root) % size


def binomial_tree(rank: int, size: int, root: int = 0) -> tuple[int | None, list[int]]:
    """Binomial tree rooted at ``root``: returns (parent, children) in real ranks.

    Children are ordered nearest-first (distance 1, 2, 4, ...), the order a
    binomial broadcast sends in.
    """
    v = vrank(rank, size, root)
    parent: int | None = None
    lsb = size  # acts as +infinity for the root (v == 0)
    mask = 1
    while mask < size:
        if v & mask:
            parent = rrank(v ^ mask, size, root)
            lsb = mask
            break
        mask <<= 1
    children: list[int] = []
    mask = 1
    while mask < lsb and mask < size:
        child = v | mask
        if child < size:
            children.append(rrank(child, size, root))
        mask <<= 1
    return parent, children


def binary_tree(rank: int, size: int, root: int = 0) -> tuple[int | None, list[int]]:
    """Complete binary tree in virtual-rank heap order (children 2v+1, 2v+2)."""
    v = vrank(rank, size, root)
    parent = None if v == 0 else rrank((v - 1) // 2, size, root)
    children = [rrank(c, size, root) for c in (2 * v + 1, 2 * v + 2) if c < size]
    return parent, children


@lru_cache(maxsize=64)
def _in_order_table(size: int) -> tuple[tuple[int | None, tuple[int, ...]], ...]:
    table: list[tuple[int | None, tuple[int, ...]]] = [(None, ())] * size

    def build(lo: int, hi: int, parent: int | None) -> int | None:
        if lo > hi:
            return None
        # Balanced midpoint split; the in-order traversal of the result
        # visits ranks in ascending order.
        mid = (lo + hi + 1) // 2
        left = build(lo, mid - 1, mid)
        right = build(mid + 1, hi, mid)
        table[mid] = (parent, tuple(c for c in (left, right) if c is not None))
        return mid

    build(0, size - 1, None)
    return tuple(table)


def in_order_binary_tree(rank: int, size: int, root: int | None = None) -> tuple[int | None, list[int]]:
    """In-order binary tree over ranks ``0..size-1``.

    The tree's in-order traversal visits ranks in ascending order, which is
    what makes reductions over it valid for non-commutative operators.  The
    topology is root-independent; rooted collectives using it move the final
    result from the tree head to the requested root with one extra message,
    as Open MPI does.  ``root`` is accepted for interface symmetry.
    """
    parent, children = _in_order_table(size)[rank]
    return parent, list(children)


def in_order_tree_root(size: int) -> int:
    """Rank at the top of the in-order binary tree of :func:`in_order_binary_tree`."""
    return (size) // 2 if size > 1 else 0


def knomial_tree(rank: int, size: int, root: int = 0, radix: int = 4) -> tuple[int | None, list[int]]:
    """k-nomial tree: the radix-``radix`` generalization of the binomial tree.

    At round ``r`` (digit position ``radix**r``), each node already holding
    the data serves up to ``radix - 1`` children at offsets
    ``d * radix**r``.  ``radix=2`` reduces exactly to the binomial tree.
    Parent: clear the lowest non-zero base-``radix`` digit of the virtual
    rank; children: set one lower digit position to a non-zero value.
    """
    if radix < 2:
        raise ConfigurationError(f"radix must be >= 2, got {radix}")
    v = vrank(rank, size, root)
    parent: int | None = None
    lowest = size  # position value of v's lowest non-zero digit (inf for root)
    place = 1
    vv = v
    while vv:
        digit = vv % radix
        if digit:
            parent = rrank(v - digit * place, size, root)
            lowest = place
            break
        vv //= radix
        place *= radix
    children: list[int] = []
    place = 1
    while place < lowest and place < size:
        for digit in range(1, radix):
            child = v + digit * place
            if child < size:
                children.append(rrank(child, size, root))
        place *= radix
    return parent, children


def knomial_parent(v: int, radix: int) -> int | None:
    """Virtual parent in a k-nomial tree (None for the root)."""
    place = 1
    vv = v
    while vv:
        digit = vv % radix
        if digit:
            return v - digit * place
        vv //= radix
        place *= radix
    return None


def chain_tree(rank: int, size: int, root: int = 0, fanout: int = 1) -> tuple[int | None, list[int]]:
    """``fanout`` parallel chains hanging off the root.

    Virtual ranks ``1..size-1`` are split into ``fanout`` contiguous chains;
    the head of each chain is a direct child of the root.
    """
    if fanout < 1:
        raise ConfigurationError(f"fanout must be >= 1, got {fanout}")
    v = vrank(rank, size, root)
    if size == 1:
        return None, []
    rest = size - 1
    fanout = min(fanout, rest)
    base, extra = divmod(rest, fanout)
    # Chain c covers virtual ranks [starts[c]+1, starts[c+1]] (1-based body).
    starts = [0]
    for c in range(fanout):
        starts.append(starts[-1] + base + (1 if c < extra else 0))
    if v == 0:
        children = [rrank(s + 1, size, root) for s in starts[:-1]]
        return None, children
    chain = next(c for c in range(fanout) if starts[c] < v <= starts[c + 1])
    first = starts[chain] + 1
    parent_v = 0 if v == first else v - 1
    child_v = v + 1 if v + 1 <= starts[chain + 1] else None
    parent = rrank(parent_v, size, root)
    children = [] if child_v is None else [rrank(child_v, size, root)]
    return parent, children


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

#: Signature of a collective algorithm generator: (ctx, args, data) -> result.
AlgorithmFn = Callable[..., Iterator]

#: Signature of a wholesale-fallback rule: (p, args) -> the name of the
#: registered algorithm whose schedule runs unchanged, or None.
RunsAsFn = Callable[[int, CollArgs], "str | None"]


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registry entry for one collective algorithm."""

    collective: str
    name: str
    fn: AlgorithmFn = field(repr=False)
    ompi_id: int | None = None
    aliases: tuple[str, ...] = ()
    description: str = ""
    runs_as: RunsAsFn | None = field(default=None, repr=False)

    @property
    def label(self) -> str:
        """Short display label, e.g. ``reduce/binomial (ID 5)``."""
        suffix = f" (ID {self.ompi_id})" if self.ompi_id is not None else ""
        return f"{self.collective}/{self.name}{suffix}"


_REGISTRY: dict[str, dict[str, AlgorithmInfo]] = {}
_ALIASES: dict[str, dict[str, str]] = {}


def register(
    collective: str,
    name: str,
    ompi_id: int | None = None,
    aliases: tuple[str, ...] = (),
    description: str = "",
    runs_as: RunsAsFn | None = None,
) -> Callable[[AlgorithmFn], AlgorithmFn]:
    """Class-level decorator registering a collective algorithm generator.

    ``runs_as(p, args)`` declares a wholesale fallback: it names the
    registered algorithm whose schedule this one runs unchanged on ``p``
    ranks with ``args``, or returns None.  The algorithm's body takes its
    fallback branch on the same predicate, so the rule lives in one place.
    """

    def deco(fn: AlgorithmFn) -> AlgorithmFn:
        family = _REGISTRY.setdefault(collective, {})
        alias_map = _ALIASES.setdefault(collective, {})
        if name in family or name in alias_map:
            raise ConfigurationError(f"duplicate algorithm {collective}/{name}")
        info = AlgorithmInfo(collective, name, fn, ompi_id, tuple(aliases),
                             description, runs_as)
        family[name] = info
        for alias in aliases:
            if alias in alias_map or alias in family:
                raise ConfigurationError(f"duplicate alias {collective}/{alias}")
            alias_map[alias] = name
        return fn

    return deco


def list_collectives() -> list[str]:
    """Names of all collective families with registered algorithms."""
    return sorted(_REGISTRY)


def list_algorithms(collective: str) -> list[str]:
    """Canonical algorithm names for a family, sorted by Open MPI ID then name."""
    try:
        family = _REGISTRY[collective]
    except KeyError:
        raise UnknownAlgorithmError(collective, "*", []) from None
    return [
        info.name
        for info in sorted(
            family.values(), key=lambda i: (i.ompi_id is None, i.ompi_id or 0, i.name)
        )
    ]


def get_algorithm(collective: str, name: str) -> AlgorithmInfo:
    """Look up an algorithm by canonical name or alias."""
    family = _REGISTRY.get(collective)
    if family is None:
        raise UnknownAlgorithmError(collective, name, [])
    info = family.get(name)
    if info is None:
        canonical = _ALIASES.get(collective, {}).get(name)
        if canonical is not None:
            info = family[canonical]
    if info is None:
        raise UnknownAlgorithmError(collective, name, list(family))
    return info


def schedule_of(collective: str, algorithm: str, p: int, args: CollArgs) -> str:
    """Canonical name of the algorithm whose schedule ``algorithm`` runs.

    Follows the chain of ``runs_as`` fallbacks (segmented ring at one
    segment runs ring; ring with fewer items than ranks runs recursive
    doubling) to the algorithm that actually runs on ``p`` ranks with
    ``args``; an algorithm without a fallback there names itself.
    """
    info = get_algorithm(collective, algorithm)
    while info.runs_as is not None:
        twin = info.runs_as(p, args)
        if twin is None:
            break
        info = get_algorithm(collective, twin)
    return info.name


def get_algorithm_by_id(collective: str, ompi_id: int) -> AlgorithmInfo:
    """Look up an algorithm by its Open MPI algorithm ID (paper Table II)."""
    family = _REGISTRY.get(collective)
    if family is None:
        raise UnknownAlgorithmError(collective, str(ompi_id), [])
    for info in family.values():
        if info.ompi_id == ompi_id:
            return info
    raise UnknownAlgorithmError(collective, f"id:{ompi_id}", list(family))


# --------------------------------------------------------------------- #
# Small shared helpers for the algorithm modules
# --------------------------------------------------------------------- #


def as_array(data: np.ndarray, count: int, name: str) -> np.ndarray:
    """Validate a 1-D contribution buffer of ``count`` items."""
    arr = np.asarray(data)
    if arr.ndim != 1 or arr.shape[0] != count:
        raise ConfigurationError(f"{name} must be 1-D with {count} items, got shape {arr.shape}")
    return arr


def as_matrix(data: np.ndarray, rows: int, count: int, name: str) -> np.ndarray:
    """Validate a 2-D (rows x count) buffer (Alltoall/Allgather family)."""
    arr = np.asarray(data)
    if arr.shape != (rows, count):
        raise ConfigurationError(f"{name} must have shape ({rows}, {count}), got {arr.shape}")
    return arr


def ceil_log2(n: int) -> int:
    return int(np.ceil(np.log2(n))) if n > 1 else 0


def largest_power_of_two_leq(n: int) -> int:
    p = 1
    while p * 2 <= n:
        p *= 2
    return p


__all__ = [
    "AlgorithmFn",
    "AlgorithmInfo",
    "CollArgs",
    "DEFAULT_SEGMENT_BYTES",
    "FlowPlan",
    "phase_descriptor",
    "register",
    "schedule_of",
    "get_algorithm",
    "get_algorithm_by_id",
    "list_algorithms",
    "list_collectives",
    "vrank",
    "rrank",
    "binomial_tree",
    "binary_tree",
    "in_order_binary_tree",
    "in_order_tree_root",
    "chain_tree",
    "knomial_tree",
    "knomial_parent",
    "as_array",
    "as_matrix",
    "ceil_log2",
    "largest_power_of_two_leq",
    "ProcContext",
]
