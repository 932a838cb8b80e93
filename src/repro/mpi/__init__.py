"""MPI-like message-passing substrate.

The paper implements PRNA with OpenMPI on a distributed-memory cluster.
This environment is a single offline machine, so the substrate is built
in-package (see DESIGN.md, substitutions): an MPI-style
:class:`~repro.mpi.communicator.Communicator` API with

* a **thread backend** (:mod:`repro.mpi.inprocess`) — real concurrency,
  shared memory, GIL-bound compute (which is itself one of the repro's
  documented observations);
* a **process backend** (:mod:`repro.mpi.process`) — real parallelism
  across the GIL via ``multiprocessing`` pipes, whose NumPy ``Allreduce``
  runs recursive doubling (:mod:`repro.mpi.reduce_algos`);
* a **virtual clock** (:mod:`repro.mpi.virtualtime`) charged from analytic
  work models, combined with communication **cost models**
  (:mod:`repro.mpi.costmodel`) so cluster-scale executions can be
  simulated faithfully on one core.

The API is only what the SPMD programs call: PRNA's row ``Allreduce`` and
final ``bcast``, the dataflow schedule's ``Publish``/``Await``, and the
manager-worker tagged ``send``/``recv``.
"""

from repro.mpi.communicator import Communicator, ReduceOp
from repro.mpi.costmodel import ClusterSpec, CostModel
from repro.mpi.inprocess import run_threaded
from repro.mpi.process import run_multiprocess
from repro.mpi.virtualtime import VirtualClock

__all__ = [
    "Communicator",
    "ReduceOp",
    "ClusterSpec",
    "CostModel",
    "VirtualClock",
    "run_threaded",
    "run_multiprocess",
]
