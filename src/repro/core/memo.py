"""Memoization tables for child-slice results.

The paper's crucial space reduction (Section IV-A): only the *last* tabulated
subproblem of each child slice needs to be retained, and a child slice is
identified by its origin pair ``(i1, i2)``, so a two-dimensional ``n x m``
table ``M`` replaces the four-dimensional table of the original formulation —
Theta(n^2 m^2) space becomes Theta(nm).

This library goes one step further.  Every read of the recurrence is
``M[k1+1, k2+1]`` and every write is ``M[i1+1, i2+1]`` for an *arc pair*,
plus the final score at ``M[0, 0]``, so only ``|A1| x |A2|`` cells of ``M``
are ever used.  :class:`ArcMemoTable` indexes the table by arc number::

    A[a1, a2] = M[lefts1[a1] + 1, lefts2[a2] + 1]

with the score held beside the table — Theta(|A1| |A2|) space (4.2 MB
instead of 142 MB on a 4216 nt rRNA pair with 721 arcs).  Arcs are ordered
by right endpoint, so the d2 terms of the slice over arcs ``[lo1, hi1) x
[lo2, hi2)`` are the contiguous block ``A[lo1:hi1, lo2:hi2]``.  SRNA2, PRNA,
manager-worker, checkpointing and weighted scoring all hold this table;
:meth:`ArcMemoTable.positions` expands the paper's ``n x m`` layout on
demand, for comparisons and display only.

Two position-space tables remain for SRNA1, the paper's lookup-overhead
ablation, which probes origins before they are guaranteed to be tabulated:

* :class:`DenseMemoTable` — a NumPy array with an optional known-mask;
* :class:`SparseMemoTable` — a dictionary, the paper's literal formulation.

``KEY_NOT_FOUND`` is the sentinel the paper's Algorithm 1 tests for.
"""

from __future__ import annotations

import numpy as np

from repro.structure.arcs import Structure

__all__ = [
    "KEY_NOT_FOUND",
    "ArcMemoTable",
    "DenseMemoTable",
    "SparseMemoTable",
]


class _KeyNotFound:
    """Singleton sentinel mirroring the paper's ``KEY_NOT_FOUND``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "KEY_NOT_FOUND"

    def __bool__(self) -> bool:
        return False


KEY_NOT_FOUND = _KeyNotFound()


class ArcMemoTable:
    """Arc-indexed memo table: ``arcs[a1, a2]`` is the result of the child
    slice under S1 arc ``a1`` and S2 arc ``a2`` (arcs in right-endpoint
    order), ``score`` the parent slice's result.

    ``arcs`` is what every slice engine reads and writes; :attr:`values`
    is the position-space expansion of the paper's ``n x m`` table.
    """

    __slots__ = ("_arcs", "_s1", "_s2", "score")

    def __init__(
        self,
        s1: Structure,
        s2: Structure,
        dtype: np.dtype | type = np.int64,
    ):
        self._arcs = np.zeros((s1.n_arcs, s2.n_arcs), dtype=dtype)
        self._s1, self._s2 = s1, s2
        self.score = 0

    @classmethod
    def wrap(
        cls, arcs: np.ndarray, s1: Structure, s2: Structure
    ) -> "ArcMemoTable":
        """Adopt an existing ``(|A1|, |A2|)`` array as the table's storage.

        Used to back the result table with a parent-owned shared mapping
        (see :meth:`repro.runtime.context.ExecutionContext.result_memo`),
        so the writing rank hands its table back without pickling.  The
        array is used as-is — the caller guarantees it starts zeroed.
        """
        if arcs.shape != (s1.n_arcs, s2.n_arcs):
            raise ValueError(
                f"arc table backing array has shape {arcs.shape}, expected "
                f"{(s1.n_arcs, s2.n_arcs)}"
            )
        table = cls.__new__(cls)
        table._arcs = arcs
        table._s1, table._s2 = s1, s2
        table.score = 0
        return table

    @classmethod
    def from_positions(
        cls, values: np.ndarray, s1: Structure, s2: Structure
    ) -> "ArcMemoTable":
        """The arc table of a position-space ``n x m`` table (SRNA1's)."""
        table = cls.wrap(values[np.ix_(s1.lefts + 1, s2.lefts + 1)], s1, s2)
        table.score = values[0, 0].item()
        return table

    @property
    def arcs(self) -> np.ndarray:
        """The ``(|A1|, |A2|)`` array of child-slice results."""
        return self._arcs

    @property
    def shape(self) -> tuple[int, int]:
        return self._arcs.shape

    def positions(self) -> np.ndarray:
        """The paper's ``(max(n, 1), max(m, 1))`` table ``M``, built anew.

        ``M[lefts1 + 1, lefts2 + 1]`` holds the arc table, ``M[0, 0]`` the
        score and every other cell 0 — bit for bit the table a
        position-indexed SRNA2 fills.
        """
        s1, s2 = self._s1, self._s2
        out = np.zeros(
            (max(s1.length, 1), max(s2.length, 1)), dtype=self._arcs.dtype
        )
        out[np.ix_(s1.lefts + 1, s2.lefts + 1)] = self._arcs
        out[0, 0] = self.score
        return out

    @property
    def values(self) -> np.ndarray:
        """:meth:`positions` — an expansion, so writes to it are lost."""
        return self.positions()

    def nbytes(self) -> int:
        """Resident bytes of the table: ``|A1| * |A2| * itemsize``."""
        return self._arcs.nbytes


class DenseMemoTable:
    """Dense ``n x m`` position-space memo table (SRNA1's).

    ``track_known=True`` additionally maintains a boolean mask so SRNA1 can
    distinguish "never tabulated" from "tabulated with result 0" — the
    distinction behind the paper's ``KEY_NOT_FOUND`` test.
    """

    __slots__ = ("_values", "_known")

    def __init__(
        self,
        n: int,
        m: int,
        track_known: bool = False,
        dtype: np.dtype | type = np.int64,
    ):
        self._values = np.zeros((max(n, 1), max(m, 1)), dtype=dtype)
        self._known = np.zeros_like(self._values, dtype=bool) if track_known else None

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def known(self) -> np.ndarray | None:
        return self._known

    @property
    def shape(self) -> tuple[int, int]:
        return self._values.shape

    def store(self, i1: int, i2: int, value: int) -> None:
        """Memoize the slice result at origin ``(i1, i2)``."""
        self._values[i1, i2] = value
        if self._known is not None:
            self._known[i1, i2] = True

    def lookup(self, i1: int, i2: int):
        """Value at origin ``(i1, i2)``, or ``KEY_NOT_FOUND`` if tracking
        is enabled and the origin has never been stored."""
        if self._known is not None and not self._known[i1, i2]:
            return KEY_NOT_FOUND
        return int(self._values[i1, i2])

    def row(self, i1: int) -> np.ndarray:
        """Writable view of row ``i1``."""
        return self._values[i1]

    def nbytes(self) -> int:
        """Resident bytes of the table (and mask, if tracking)."""
        total = self._values.nbytes
        if self._known is not None:
            total += self._known.nbytes
        return total


class SparseMemoTable:
    """Dictionary-backed memo table (origin pair -> value).

    Slower per lookup than :class:`DenseMemoTable` but only stores origins
    actually spawned; used by ablations contrasting SRNA1's lookup overhead
    with SRNA2's guaranteed-present dense reads.  The ``values`` array is
    materialized lazily for engines that need vectorized gathers.
    """

    __slots__ = ("_store", "_n", "_m", "_values", "_dirty")

    def __init__(self, n: int, m: int, dtype: np.dtype | type = np.int64):
        self._store: dict[tuple[int, int], int] = {}
        self._n, self._m = max(n, 1), max(m, 1)
        self._values = np.zeros((self._n, self._m), dtype=dtype)
        self._dirty = False

    @property
    def values(self) -> np.ndarray:
        return self._values

    def store(self, i1: int, i2: int, value: int) -> None:
        """Memoize the slice result at origin ``(i1, i2)``."""
        self._store[(i1, i2)] = int(value)
        self._values[i1, i2] = value

    def lookup(self, i1: int, i2: int):
        """Value at origin ``(i1, i2)``, or ``KEY_NOT_FOUND``."""
        return self._store.get((i1, i2), KEY_NOT_FOUND)

    def __len__(self) -> int:
        return len(self._store)

    def nbytes(self) -> int:
        """Approximate resident bytes (dict overhead dominates)."""
        # Rough accounting: dict entry overhead dominates.
        return len(self._store) * 100 + self._values.nbytes
