"""Proxy applications for end-to-end validation (paper Section V).

The paper validates its selection strategy on NAS FT, whose communication
is dominated (>95 % of MPI time) by ``MPI_Alltoall`` at a fixed 32768-byte
message.  :class:`FTProxy` reproduces exactly that structure — iterative
compute phases (FFT/evolve work, perturbed by machine noise) interleaved
with transposition All-to-alls — so that realistic arrival patterns emerge
endogenously from compute imbalance.  :class:`CGProxy` provides an
Allreduce-dominant counterpart.
"""

from repro.apps.base import AppResult, IterativeProxyApp
from repro.apps.ft import FTProxy
from repro.apps.cg import CGProxy

__all__ = [
    "AppResult",
    "IterativeProxyApp",
    "FTProxy",
    "CGProxy",
]
