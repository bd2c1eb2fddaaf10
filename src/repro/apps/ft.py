"""FT proxy: the NAS FT (3-D FFT) communication skeleton.

NAS FT iterates ``evolve -> FFT`` steps; with a 2-D (transpose-based)
decomposition each 3-D FFT performs an all-to-all transposition.  In the
paper's configuration (class D on 32 x 32 ranks) MPI_Alltoall accounts for
over 95 % of MPI time at a fixed message size of 32 768 bytes, and 50-70 %
of the total runtime.  The proxy keeps precisely those ratios adjustable:
per iteration it runs FFT/evolve compute (noise-perturbed, so realistic
arrival skew emerges) and ``transposes_per_iteration`` Alltoall calls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.apps.base import IterativeProxyApp
from repro.sim.platform import MachineSpec

#: The message size the paper traces for FT class D on 1024 ranks.
FT_MSG_BYTES = 32_768.0

#: NAS FT problem classes: (nx, ny, nz) grid dimensions.
FT_CLASSES: dict[str, tuple[int, int, int]] = {
    "S": (64, 64, 64),
    "W": (128, 128, 32),
    "A": (256, 256, 128),
    "B": (512, 256, 256),
    "C": (512, 512, 512),
    "D": (2048, 1024, 1024),
    "E": (4096, 2048, 2048),
}


def ft_message_bytes(problem_class: str, num_ranks: int) -> float:
    """Per-pair Alltoall block size of NAS FT's transpose.

    The transpose redistributes the full complex grid (16 bytes/point)
    across all rank pairs: ``nx*ny*nz * 16 / p^2`` bytes per block.
    Sanity anchor: class D on 1024 ranks gives exactly the paper's
    32 768 B.
    """
    try:
        nx, ny, nz = FT_CLASSES[problem_class.upper()]
    except KeyError:
        raise ValueError(
            f"unknown FT class {problem_class!r}; choose from {sorted(FT_CLASSES)}"
        ) from None
    if num_ranks <= 0:
        raise ValueError("num_ranks must be positive")
    return nx * ny * nz * 16 / (num_ranks**2)


@dataclass
class FTProxy(IterativeProxyApp):
    """NAS-FT-shaped proxy: Alltoall-dominant iterative application."""

    collective: str = "alltoall"
    algorithm: str = "pairwise"
    msg_bytes: float = FT_MSG_BYTES
    iterations: int = 20
    calls_per_iteration: int = 2  # forward + inverse transpose per evolve step
    compute_per_iteration: float = 1.2e-3
    name: str = "ft"

    @classmethod
    def for_class(
        cls,
        problem_class: str,
        spec: MachineSpec,
        nodes: int | None = None,
        cores_per_node: int | None = None,
        seed: int = 0,
        algorithm: str = "pairwise",
        iterations: int = 20,
        seconds_per_point: float = 2e-11,
    ) -> "FTProxy":
        """FT sized from an actual NAS class: message bytes from the grid,
        compute time from a per-grid-point rate (default ~50 Gpoint/s/rank
        equivalent, covering the FFT's log-factor work).

        Unlike :meth:`class_d_scaled` (which pins the paper's 32 768 B
        per-pair message at any rank count), this derives both message size
        and compute from the class, so communication/compute ratios follow
        the real benchmark as the class or rank count changes.
        """
        ft = cls.from_machine(spec, nodes, cores_per_node, seed=seed,
                              algorithm=algorithm, iterations=iterations)
        p = ft.platform.num_ranks
        msg_bytes = ft_message_bytes(problem_class, p)
        nx, ny, nz = FT_CLASSES[problem_class.upper()]
        return replace(ft, msg_bytes=msg_bytes,
                       compute_per_iteration=nx * ny * nz / p * seconds_per_point)

    @classmethod
    def class_d_scaled(
        cls,
        spec: MachineSpec,
        nodes: int | None = None,
        cores_per_node: int | None = None,
        seed: int = 0,
        algorithm: str = "pairwise",
        iterations: int = 20,
    ) -> "FTProxy":
        """FT with the paper's class-D per-pair message size on a scaled machine."""
        return cls.from_machine(spec, nodes, cores_per_node, seed=seed,
                                algorithm=algorithm, iterations=iterations)
