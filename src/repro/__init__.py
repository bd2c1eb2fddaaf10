"""repro — arrival-pattern-aware MPI collective algorithm selection.

A from-scratch Python reproduction of

    Salimi Beni, Cosenza, Hunold:
    "MPI Collective Algorithm Selection in the Presence of Process Arrival
    Patterns", IEEE CLUSTER 2024.

The package bundles a discrete-event MPI simulator (:mod:`repro.sim`), a
library of collective algorithms (:mod:`repro.collectives`), arrival-pattern
generation (:mod:`repro.patterns`), a clock-synchronized micro-benchmark
harness (:mod:`repro.bench`), observability and trace analysis
(:mod:`repro.obs`), algorithm-selection strategies (:mod:`repro.selection`),
traceable proxy applications (:mod:`repro.apps`), and one experiment driver
per paper figure/table (:mod:`repro.experiments`).
"""

from repro._version import __version__
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    ProtocolError,
    ReproError,
    SimulationError,
    TraceFormatError,
    UnknownAlgorithmError,
)

__all__ = [
    "__version__",
    "ReproError",
    "SimulationError",
    "DeadlockError",
    "ProtocolError",
    "ConfigurationError",
    "UnknownAlgorithmError",
    "TraceFormatError",
]
