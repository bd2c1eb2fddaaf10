"""Registry of built-in workload generators — the scenario zoo.

Each generator builds a :class:`~repro.workloads.spec.WorkloadSpec` for a
given rank count.  Generators are deterministic in ``seed`` and shrink
under ``fast=True`` (CI smoke budgets).  Register new ones with
:func:`register_workload`; the CLI (``repro-mpi workload list``) and the
smoke tests enumerate this registry.

The built-ins cover the structures the selection literature calls out as
workload-dependent: PARAM-style size sweeps, DLRM embedding-exchange
``alltoallv`` with skewed per-pair count matrices, data-parallel allreduce
bucket schedules, ragged ``allgatherv``, and the mixed compute+collective
timestep generalizing :mod:`repro.apps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.spec import CollectivePhase, WorkloadSpec


@dataclass(frozen=True)
class WorkloadInfo:
    """Registry entry: a named workload builder."""

    name: str
    builder: Callable[..., WorkloadSpec]
    description: str


_ZOO: dict[str, WorkloadInfo] = {}


def register_workload(name: str, description: str = ""):
    """Decorator registering ``fn(num_ranks, fast=False, seed=0)`` under ``name``."""

    def deco(fn):
        if name in _ZOO:
            raise ConfigurationError(f"workload {name!r} already registered")
        _ZOO[name] = WorkloadInfo(name=name, builder=fn, description=description)
        return fn

    return deco


def list_workloads() -> list[WorkloadInfo]:
    """Every registered workload, sorted by name."""
    return [_ZOO[name] for name in sorted(_ZOO)]


def get_workload(name: str) -> WorkloadInfo:
    info = _ZOO.get(name)
    if info is None:
        known = ", ".join(sorted(_ZOO)) or "none"
        raise ConfigurationError(f"unknown workload {name!r}; registered: {known}")
    return info


def build_workload(name: str, num_ranks: int, fast: bool = False,
                   seed: int = 0) -> WorkloadSpec:
    """Instantiate a registered workload for ``num_ranks`` ranks."""
    if num_ranks < 2:
        raise ConfigurationError("workloads need at least 2 ranks")
    return get_workload(name).builder(num_ranks, fast=fast, seed=seed)


# --------------------------------------------------------------------------- #
# Built-in generators
# --------------------------------------------------------------------------- #

@register_workload(
    "param_sweep",
    "PARAM-comms-style allreduce size sweep (begin/end/factor schedule)",
)
def param_sweep(num_ranks: int, fast: bool = False, seed: int = 0) -> WorkloadSpec:
    """Geometric size sweep, one phase per size — PARAM's ``--b/--e/--f``."""
    begin, end, factor = (64, 1024, 4) if fast else (64, 65536, 4)
    sizes = []
    size = begin
    while size <= end:
        sizes.append(size)
        size *= factor
    return WorkloadSpec(
        name="param_sweep",
        phases=tuple(CollectivePhase("allreduce", float(s), count=16)
                     for s in sizes),
        iterations=2 if fast else 4,
        warmup=1,
        compute=0.0,
        overlap="sequential",
        description=f"allreduce sweep {begin}B..{end}B x{factor} "
                    f"({len(sizes)} sizes)",
    )


@register_workload(
    "dlrm_embedding",
    "DLRM-style embedding exchange: skewed alltoallv + dense allreduce",
)
def dlrm_embedding(num_ranks: int, fast: bool = False, seed: int = 0) -> WorkloadSpec:
    """Embedding-table alltoallv with hot ranks, then a dense-layer allreduce.

    The per-pair count matrix is drawn once (deterministically from
    ``seed``) and a few destination ranks are made "hot" — the table-size
    imbalance that makes DLRM exchanges skewed in practice.
    """
    p = num_ranks
    rng = np.random.default_rng(seed)
    base = 16 if fast else 64
    counts = rng.integers(base // 2, base + base // 2, size=(p, p))
    hot = rng.choice(p, size=max(1, p // 8), replace=False)
    counts[:, hot] *= 4
    np.fill_diagonal(counts, 0)
    return WorkloadSpec(
        name="dlrm_embedding",
        phases=(
            CollectivePhase("alltoallv", counts=tuple(map(tuple, counts.tolist())),
                            item_bytes=8.0),
            CollectivePhase("allreduce", 4096.0 if fast else 16384.0, count=16),
        ),
        iterations=2 if fast else 4,
        warmup=1,
        compute=1e-4,
        overlap="sequential",
        description=f"skewed (p,p) embedding exchange, {len(hot)} hot ranks, "
                    "plus dense-gradient allreduce",
    )


@register_workload(
    "ddp_buckets",
    "data-parallel gradient buckets: split compute + descending allreduces",
)
def ddp_buckets(num_ranks: int, fast: bool = False, seed: int = 0) -> WorkloadSpec:
    """Bucketed gradient allreduce, compute sliced between buckets.

    Buckets fire largest-last (backward-pass order reversed into launch
    order), with the compute budget split across them — the pipelining a
    DDP trainer gets from overlapping backward with gradient reduction.
    """
    sizes = (8192.0, 4096.0, 2048.0) if fast else (262144.0, 131072.0, 65536.0, 32768.0)
    return WorkloadSpec(
        name="ddp_buckets",
        phases=tuple(CollectivePhase("allreduce", s, count=32) for s in sizes),
        iterations=2 if fast else 4,
        warmup=1,
        compute=5e-4 if fast else 2e-3,
        overlap="split",
        description=f"{len(sizes)} gradient buckets, compute split per bucket",
    )


@register_workload(
    "halo_mix",
    "mixed timestep: alltoall halo + residual allreduce + control bcast",
)
def halo_mix(num_ranks: int, fast: bool = False, seed: int = 0) -> WorkloadSpec:
    """A CFD-style timestep mixing three collective families."""
    halo = 8192.0 if fast else 32768.0
    return WorkloadSpec(
        name="halo_mix",
        phases=(
            CollectivePhase("alltoall", halo, count=16),
            CollectivePhase("allreduce", 8.0, count=8),
            CollectivePhase("bcast", 1024.0, count=16),
        ),
        iterations=3 if fast else 6,
        warmup=1,
        compute=5e-4,
        overlap="sequential",
        description="CFD-ish timestep: halo exchange, residual reduce, control bcast",
    )


@register_workload(
    "allgatherv_ragged",
    "ragged allgatherv: linearly growing per-rank blocks",
)
def allgatherv_ragged(num_ranks: int, fast: bool = False, seed: int = 0) -> WorkloadSpec:
    """Uneven-decomposition allgatherv: block i holds ``base*(i+1)`` items."""
    p = num_ranks
    base = 4 if fast else 16
    counts = tuple(base * (i + 1) for i in range(p))
    return WorkloadSpec(
        name="allgatherv_ragged",
        phases=(CollectivePhase("allgatherv", counts=counts, item_bytes=8.0),),
        iterations=2 if fast else 4,
        warmup=1,
        compute=0.0,
        overlap="sequential",
        description=f"per-rank blocks ramp {base}..{base * p} items",
    )


__all__ = [
    "WorkloadInfo",
    "register_workload",
    "list_workloads",
    "get_workload",
    "build_workload",
]
