"""The shared :class:`~repro.transport.base.Transport` contract suite.

Every transport the registry can produce — and every wrapper — must honour
the same capability surface: ``deliver`` returns the payload as the
destination observed it, ``deliver_many`` is semantically the per-envelope
loop, ``close`` is idempotent, and the context-manager protocol closes.
The suite runs identically over inproc, the TCP loopback reflector, and
the fault wrapper around each of them, so a new transport only needs a
factory row here to prove itself.
"""

import abc

import pytest

from repro.mixnet.messages import SubmissionBatch
from repro.transport import (
    SUBMISSION_BATCH,
    Envelope,
    FaultyTransport,
    InProcTransport,
    Transport,
)
from repro.transport.tcp import TcpTransport

from tests.test_transport import make_submission


def _inproc(group):
    return InProcTransport()


def _faulty(group):
    return FaultyTransport(InProcTransport(), [])


def _tcp(group):
    return TcpTransport(group, node_name="contract")


def _faulty_tcp(group):
    return FaultyTransport(_tcp(group), [])


#: Row id → factory; a row's id starts with the name its transport reports.
FACTORIES = {
    "inproc": _inproc,
    "faulty": _faulty,
    "faulty-tcp": _faulty_tcp,
    "tcp": _tcp,
}


@pytest.fixture(params=sorted(FACTORIES))
def transport(request, group):
    instance = FACTORIES[request.param](group)
    yield instance
    instance.close()


def submission_envelope(group, sender="alice"):
    batch = SubmissionBatch.from_submissions(
        group, [make_submission(group, chain_id=1, sender=sender)]
    )
    return (
        batch,
        Envelope(
            kind=SUBMISSION_BATCH,
            source=sender,
            destination="server-0",
            round_number=1,
            payload=batch,
            chain_id=1,
        ),
    )


class TestTransportContract:
    def test_is_a_transport(self, transport, request):
        assert isinstance(transport, Transport)
        assert transport.name in FACTORIES
        assert request.node.callspec.params["transport"].split("-")[0] == transport.name

    def test_deliver_returns_the_observed_payload(self, transport, group):
        submission, envelope = submission_envelope(group)
        assert transport.deliver(envelope) == submission

    def test_deliver_many_matches_the_per_envelope_loop(self, transport, group):
        pairs = [submission_envelope(group, sender=f"user-{i}") for i in range(3)]
        batch = transport.deliver_many([envelope for _, envelope in pairs])
        assert batch == [submission for submission, _ in pairs]

    def test_deliver_many_of_nothing_is_nothing(self, transport):
        assert transport.deliver_many([]) == []

    def test_close_is_idempotent(self, transport):
        transport.close()
        transport.close()  # must not raise

    def test_context_manager_closes(self, group, request):
        # A fresh instance per factory: the fixture instance must stay open
        # for the other tests' sake.
        for factory in FACTORIES.values():
            with factory(group) as instance:
                assert isinstance(instance, Transport)
            instance.close()  # idempotent even after __exit__

class TestAbstractBase:
    def test_cannot_instantiate_without_deliver(self):
        with pytest.raises(TypeError):
            Transport()

    def test_minimal_subclass_gets_the_defaults(self, group):
        class Recorder(Transport):
            name = "recorder"

            def __init__(self):
                self.seen = []

            def deliver(self, envelope):
                self.seen.append(envelope)
                return envelope.payload

        recorder = Recorder()
        _, envelope = submission_envelope(group)
        assert recorder.deliver_many([envelope, envelope]) == [
            envelope.payload,
            envelope.payload,
        ]
        assert len(recorder.seen) == 2
        recorder.close()
        with recorder as entered:
            assert entered is recorder

    def test_deliver_is_abstract(self):
        assert getattr(Transport.deliver, "__isabstractmethod__", False)
        assert isinstance(Transport, abc.ABCMeta)
