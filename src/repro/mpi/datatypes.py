"""Reduction operations for the substrate."""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["ReduceOp", "apply_op"]


class ReduceOp(enum.Enum):
    """Reduction operators, mirroring the MPI predefined ops PRNA needs.

    ``MAX`` is the one the paper uses: "calling MPI_Allreduce ... using the
    MPI_MAX operation to ensure that all updated values end up in the
    receive buffer" (Section V-B).
    """

    MAX = "max"
    SUM = "sum"


_ARRAY_OPS = {
    ReduceOp.MAX: np.maximum,
    ReduceOp.SUM: np.add,
}

_SCALAR_OPS = {
    ReduceOp.MAX: max,
    ReduceOp.SUM: lambda a, b: a + b,
}


def apply_op(op: ReduceOp, a, b, out=None):
    """``a (op) b`` for arrays (elementwise) or scalars.

    Arrays may reduce in place via *out* (ignored for scalars).
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        ufunc = _ARRAY_OPS[op]
        return ufunc(a, b, out=out) if out is not None else ufunc(a, b)
    return _SCALAR_OPS[op](a, b)
