"""Reduction operators."""

import numpy as np

from repro.mpi.datatypes import ReduceOp, apply_op


class TestApplyOp:
    def test_scalar_ops(self):
        assert apply_op(ReduceOp.MAX, 3, 5) == 5
        assert apply_op(ReduceOp.SUM, 3, 5) == 8

    def test_array_ops(self):
        a = np.array([1, 5, 2])
        b = np.array([4, 3, 2])
        assert apply_op(ReduceOp.MAX, a, b).tolist() == [4, 5, 2]
        assert apply_op(ReduceOp.SUM, a, b).tolist() == [5, 8, 4]

    def test_array_in_place(self):
        a = np.array([1, 5])
        out = apply_op(ReduceOp.MAX, a, np.array([2, 2]), out=a)
        assert out is a
        assert a.tolist() == [2, 5]

    def test_mixed_scalar_array(self):
        a = np.array([1, 5])
        assert apply_op(ReduceOp.MAX, a, 3).tolist() == [3, 5]

