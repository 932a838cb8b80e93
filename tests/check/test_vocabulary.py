"""The protocol verifier's vocabulary is the communicator API.

A name the verifier models but :class:`Communicator` lacks is dead
analysis; a collective the runtime sanitizer does not override runs
unvalidated.  Both drift silently, so pin them here.
"""

import pytest

from repro.check import protocol
from repro.check.sanitizer import SanitizedCommunicator
from repro.mpi.communicator import Communicator

VOCABULARY = sorted(
    protocol.COLLECTIVES | set(protocol._SEND_METHODS) | set(protocol._RECV_METHODS)
)


@pytest.mark.parametrize("name", VOCABULARY)
def test_modelled_name_is_a_communicator_method(name):
    assert callable(getattr(Communicator, name, None)), name


@pytest.mark.parametrize("name", sorted(protocol.COLLECTIVES))
def test_collective_is_validated_by_the_sanitizer(name):
    assert name in vars(SanitizedCommunicator), name
