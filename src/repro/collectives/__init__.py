"""MPI collective algorithms over the simulated point-to-point layer.

Every algorithm the paper exercises (Table II plus the SimGrid/SMPI-specific
Allreduce variants of Fig. 4b) is implemented from scratch as a generator
operating on a :class:`~repro.sim.mpi.ProcContext`.  Algorithms move real
numpy payloads, so their semantics are testable, while the *modeled* wire
size is decoupled from the payload length (see :class:`CollArgs`).

Use the registry to enumerate or look up algorithms::

    from repro.collectives import get_algorithm, list_algorithms
    list_algorithms("alltoall")          # ['basic_linear', 'bruck', ...]
    algo = get_algorithm("reduce", "binomial")

Importing this package registers all built-in algorithms.
"""

from repro.collectives.base import (
    AlgorithmInfo,
    CollArgs,
    get_algorithm,
    get_algorithm_by_id,
    list_algorithms,
    list_collectives,
    register,
    schedule_of,
)
from repro.collectives.ops import MAX, MIN, PROD, SUM, ReduceOp
from repro.collectives.api import (
    VECTOR_FAMILIES,
    make_input,
    make_vector_input,
    reference_result,
    run_collective,
)

# Importing the algorithm modules populates the registry.
from repro.collectives import (  # noqa: E402,F401  (import-for-side-effect)
    allgather,
    allreduce,
    alltoall,
    barrier,
    bcast,
    gather,
    reduce,
    reduce_scatter,
    scan,
    scatter,
    smp,
    vector,
)
from repro.collectives.vector import VectorArgs

__all__ = [
    "AlgorithmInfo",
    "CollArgs",
    "ReduceOp",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "register",
    "get_algorithm",
    "get_algorithm_by_id",
    "list_algorithms",
    "list_collectives",
    "schedule_of",
    "make_input",
    "make_vector_input",
    "reference_result",
    "run_collective",
    "VECTOR_FAMILIES",
    "VectorArgs",
]
