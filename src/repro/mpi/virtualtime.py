"""Per-rank virtual clocks for trace-driven simulation.

Each rank owns a :class:`VirtualClock` that accumulates simulated seconds.
Compute is charged from an analytic work model
(:class:`~repro.perf.model.WorkModel`).  Collectives synchronize clocks:
every participant advances to the maximum participant clock plus the
collective's modelled cost (:meth:`repro.mpi.communicator.Communicator
._charge_collective`) — the fundamental rule that makes per-row Allreduce
behave like the barrier it is.
"""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """Simulated-time accumulator for one rank."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now: float = 0.0

    def charge(self, seconds: float) -> None:
        """Advance the clock by *seconds* of simulated work."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self.now += seconds

    def advance_to(self, instant: float) -> None:
        """Move the clock forward to *instant* (no-op if already past)."""
        if instant > self.now:
            self.now = instant
