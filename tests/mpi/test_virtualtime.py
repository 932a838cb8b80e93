"""Virtual clocks."""

import pytest

from repro.mpi.virtualtime import VirtualClock


class TestVirtualClock:
    def test_charge(self):
        clock = VirtualClock()
        clock.charge(1.5)
        clock.charge(0.5)
        assert clock.now == 2.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().charge(-1.0)

    def test_advance_to(self):
        clock = VirtualClock()
        clock.charge(5.0)
        clock.advance_to(3.0)  # no-op backwards
        assert clock.now == 5.0
        clock.advance_to(8.0)
        assert clock.now == 8.0
