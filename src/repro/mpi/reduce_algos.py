"""Recursive-doubling Allreduce over point-to-point messaging.

The process backend's :meth:`~repro.mpi.process.ProcessCommunicator
.Allreduce` runs this textbook ``MPI_Allreduce`` algorithm over the
substrate's ``send``/``recv`` (rather than the shared-memory rendezvous),
so PRNA's row synchronization exercises a real distributed communication
pattern.  Its analytic cost, next to the linear and ring alternatives, is
:meth:`repro.mpi.costmodel.CostModel.allreduce`, which the simulator and
the collective-algorithm ablation price.

The buffer is reduced **in place** on every rank; sends are assumed
buffered (the process backend guarantees it for the message sizes
involved).
"""

from __future__ import annotations

import numpy as np

from repro.mpi.communicator import Communicator
from repro.mpi.datatypes import ReduceOp, apply_op

__all__ = ["allreduce_recursive_doubling"]

_TAG_BASE = 0x5200  # distinct tag space so the exchange never cross-talks


def allreduce_recursive_doubling(
    comm: Communicator, buffer: np.ndarray, op: ReduceOp = ReduceOp.MAX
) -> None:
    """Recursive doubling: ceil(log2 P) full-buffer exchange rounds.

    Non-power-of-two worlds are handled the standard way: the first
    ``2r`` ranks fold pairwise so a power-of-two core runs the doubling,
    then the folded-out ranks receive the result.
    """
    rank, size = comm.rank, comm.size
    if size == 1:
        return
    tag = _TAG_BASE + 10
    power = 1
    while power * 2 <= size:
        power *= 2
    remainder = size - power

    # Fold phase: ranks [power, size) send into ranks [0, remainder).
    if rank >= power:
        partner = rank - power
        comm.send(buffer.copy(), partner, tag)
    elif rank < remainder:
        apply_op(op, buffer, comm.recv(rank + power, tag), out=buffer)

    # Doubling phase among ranks [0, power).
    if rank < power:
        distance = 1
        while distance < power:
            partner = rank ^ distance
            comm.send(buffer.copy(), partner, tag + distance)
            apply_op(op, buffer, comm.recv(partner, tag + distance), out=buffer)
            distance *= 2

    # Unfold phase: results back out to ranks [power, size).
    if rank < remainder:
        comm.send(buffer.copy(), rank + power, tag + power)
    elif rank >= power:
        buffer[...] = comm.recv(rank - power, tag + power)
