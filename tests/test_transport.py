"""Transport layer: envelopes, codecs, link records, and deployment wiring."""

import pytest

from repro.constants import SUBMISSION_OVERHEAD
from repro.coordinator.network import DeploymentConfig
from repro.crypto.nizk import prove_dlog
from repro.errors import ConfigurationError, DecodingError
from repro.mixnet.ahs import ChainRoundResult
from repro.mixnet.messages import (
    BatchEntry,
    ClientSubmission,
    EncodedBatch,
    FetchBatch,
    MailboxBatch,
    MailboxMessage,
    MessageBody,
    SubmissionBatch,
)
from repro.transport import (
    BATCH,
    MAILBOX_DELIVERY,
    MAILBOX_FETCH_BATCH,
    SUBMISSION_BATCH,
    Envelope,
    InProcTransport,
    make_transport,
)
from repro.transport.codec import (
    UnsupportedPayload,
    decode_chain_outcome,
    decode_payload,
    encode_chain_outcome,
    encode_payload,
)
from repro.transport.tcp import TcpTransport

from repro.trace import Trace

from tests.conftest import make_deployment
from tests.test_engine_parity import build

RECIPIENT = b"\x09" * 32
KEY = b"\x05" * 32


def make_submission(group, chain_id=1, sender="alice", ciphertext=b"c" * 64):
    secret = group.random_scalar()
    proof = prove_dlog(group, group.base(), secret)
    return ClientSubmission(
        chain_id=chain_id,
        sender=sender,
        dh_public=group.encode(group.base_mult(secret)),
        ciphertext=ciphertext,
        proof=proof,
    )


def envelope(kind, payload, **kwargs):
    defaults = dict(source="src", destination="dst", round_number=1)
    defaults.update(kwargs)
    return Envelope(kind=kind, payload=payload, **defaults)


class TestCodecRoundTrips:
    def test_submission_payload(self, group):
        submission = make_submission(group)
        batch = SubmissionBatch.from_submissions(group, [submission])
        wire = encode_payload(group, envelope(SUBMISSION_BATCH, batch))
        assert len(wire) == 4 + 4 + submission.wire_size()
        decoded = decode_payload(group, SUBMISSION_BATCH, wire)
        assert decoded == batch and decoded == [submission]

    def test_batch_payload(self, group):
        entries = [
            BatchEntry(dh_public=group.base_mult(index + 1), ciphertext=bytes([index]) * index)
            for index in range(4)
        ]
        batch = EncodedBatch.from_entries(group, entries)
        wire = encode_payload(group, envelope(BATCH, batch, chain_id=0))
        decoded = decode_payload(group, BATCH, wire)
        assert isinstance(decoded, EncodedBatch)
        assert decoded.blob == batch.blob and list(decoded) == entries

    def test_mailbox_payloads(self, group):
        messages = [
            MailboxMessage.seal(RECIPIENT, KEY, 3, MessageBody.data(b"m%d" % index))
            for index in range(3)
        ]
        records = [message.to_bytes() for message in messages]
        wire = encode_payload(group, envelope(MAILBOX_DELIVERY, MailboxBatch.from_records(records)))
        decoded = decode_payload(group, MAILBOX_DELIVERY, wire)
        assert isinstance(decoded, MailboxBatch) and list(decoded) == messages
        inboxes = [(RECIPIENT, records)]
        wire = encode_payload(group, envelope(MAILBOX_FETCH_BATCH, FetchBatch.from_inboxes(inboxes)))
        decoded = decode_payload(group, MAILBOX_FETCH_BATCH, wire)
        assert isinstance(decoded, FetchBatch)
        assert [(owner, list(batch)) for owner, batch in decoded] == [(RECIPIENT, messages)]

    def test_submission_batch_payload(self, group):
        submissions = [make_submission(group, sender=f"user-{index}") for index in range(3)]
        batch = SubmissionBatch.from_submissions(group, submissions)
        wire = encode_payload(group, envelope(SUBMISSION_BATCH, batch))
        assert wire == batch.to_wire()
        decoded = decode_payload(group, SUBMISSION_BATCH, wire)
        assert isinstance(decoded, SubmissionBatch) and list(decoded) == submissions

    def test_empty_batches(self, group):
        empties = {
            BATCH: EncodedBatch.from_entries(group, []),
            SUBMISSION_BATCH: SubmissionBatch.from_records(group, []),
            MAILBOX_DELIVERY: MailboxBatch.from_records([]),
            MAILBOX_FETCH_BATCH: FetchBatch.from_inboxes([]),
        }
        for kind, empty in empties.items():
            decoded = decode_payload(group, kind, encode_payload(group, envelope(kind, empty)))
            assert type(decoded) is type(empty) and list(decoded) == []

    def test_a_batch_kind_takes_only_its_wire_type(self, group):
        with pytest.raises(UnsupportedPayload, match="must be a MailboxBatch"):
            encode_payload(group, envelope(MAILBOX_DELIVERY, []))

    def test_trailing_bytes_rejected(self, group):
        batch = EncodedBatch.from_entries(group, [BatchEntry(group.base_mult(2), b"ct")])
        wire = encode_payload(group, envelope(BATCH, batch))
        with pytest.raises(DecodingError):
            decode_payload(group, BATCH, wire + b"\x00")

    def test_chain_outcome_round_trip(self):
        result = ChainRoundResult(
            chain_id=3,
            round_number=9,
            status=ChainRoundResult.STATUS_DELIVERED,
            mailbox_messages=MailboxBatch.from_records(
                [MailboxMessage.seal(RECIPIENT, KEY, 9, MessageBody.loopback()).to_bytes()]
            ),
            rejected_senders=["mallory"],
            invalid_inner_count=2,
            input_digest=b"\xaa" * 32,
        )
        wire = encode_chain_outcome(3, ["eve"], result)
        chain_id, accept_rejected, decoded = decode_chain_outcome(wire)
        assert chain_id == 3
        assert accept_rejected == ["eve"]
        assert decoded == result

    def test_chain_outcome_none_vs_empty_strings(self):
        result = ChainRoundResult(
            chain_id=0,
            round_number=1,
            status=ChainRoundResult.STATUS_HALTED_SERVER,
            misbehaving_server="",
            input_digest=b"",
        )
        _, _, decoded = decode_chain_outcome(encode_chain_outcome(0, [], result))
        assert decoded.misbehaving_server == ""
        result_none = ChainRoundResult(
            chain_id=0, round_number=1, status=ChainRoundResult.STATUS_DELIVERED
        )
        _, _, decoded = decode_chain_outcome(encode_chain_outcome(0, [], result_none))
        assert decoded.misbehaving_server is None


class TestTransports:
    def test_inproc_is_identity(self):
        transport = InProcTransport()
        payload = object()
        assert transport.deliver(envelope(SUBMISSION_BATCH, payload)) is payload

    def test_tcp_records_payload_wire_bytes(self, group):
        batch = SubmissionBatch.from_submissions(group, [make_submission(group)])
        with TcpTransport(group, node_name="loopback") as transport:
            with Trace().stage("collect") as recorded:
                delivered = transport.deliver(envelope(
                    SUBMISSION_BATCH, batch, source="alice", destination="server-0", chain_id=1
                ))
        assert delivered == batch and delivered is not batch
        [record] = recorded.links
        size = len(batch.to_wire())
        assert (record.source, record.destination, record.chain_id, record.wire_bytes) == (
            "alice", "server-0", 1, size
        )
        assert recorded.counters == {
            f"envelopes.{SUBMISSION_BATCH}": 1, f"wire_bytes.{SUBMISSION_BATCH}": size,
        }

    def test_make_transport(self, group):
        assert make_transport("inproc").name == "inproc"
        with make_transport("tcp", group=group) as transport:
            assert transport.name == "tcp"
        with pytest.raises(ConfigurationError):
            make_transport("tcp")
        with pytest.raises(ValueError):
            make_transport("carrier-pigeon")


class TestLinks:
    def test_a_round_uses_batch_frames(self):
        deployment = build(transport="tcp")
        links = deployment.run_round().trace.links
        kinds = {record.kind for record in links}
        assert {SUBMISSION_BATCH, MAILBOX_FETCH_BATCH} <= kinds
        # One framed upload per chain, not one per (user, chain).
        submission_records = [record for record in links if record.kind == SUBMISSION_BATCH]
        assert len(submission_records) == deployment.num_chains
        deployment.close()

    def test_a_streamed_round_uploads_one_frame_per_chain_and_chunk(self):
        deployment = build(transport="tcp", population_chunk_size=2)
        submission_records = [
            record for record in deployment.run_round().trace.links
            if record.kind == SUBMISSION_BATCH
        ]
        # One framed upload per (chain, chunk) the chunk's users touch — 6
        # users in chunks of 2 → 3 chunks — instead of one per chain.
        assignments = deployment.population.chain_assignments
        users = deployment.users
        expected = sum(
            len({chain for user in users[start:start + 2] for chain in assignments[user.name]})
            for start in range(0, len(users), 2)
        )
        assert expected > deployment.num_chains
        assert len(submission_records) == expected
        deployment.close()


def hop_links(deployment, report):
    """The round's ``BATCH`` links, after checking there is one per hop of
    every chain — each member but the last hands its output on."""
    links = [link for link in report.trace.links if link.kind == BATCH]
    assert sorted((link.chain_id, link.source, link.destination) for link in links) == sorted(
        (chain.chain_id, sender.server_name, receiver.server_name)
        for chain in deployment.chains
        for sender, receiver in zip(chain.members, chain.members[1:])
    )
    return links


class TestDeploymentWiring:
    def test_chains_share_the_deployment_transport(self):
        """Every hop kind crosses the one encoding transport, each chain hop
        included; that it counts payload bytes, never its routing header, is
        the parity suite's ``COUNTERS`` pin."""
        deployment = make_deployment(num_servers=3, num_users=2, num_chains=2, seed=1,
                                     transport="tcp")
        report = deployment.run_round()
        assert all(link.wire_bytes for link in hop_links(deployment, report))
        counters = report.trace.counters
        deployment.close()
        kinds = (SUBMISSION_BATCH, BATCH, MAILBOX_DELIVERY, MAILBOX_FETCH_BATCH)
        assert all(counters[f"wire_bytes.{kind}"] for kind in kinds)

    def test_use_transport_rewires_chains(self):
        """Chains hold no transport: every hop crosses the deployment's
        current one, after a swap and on a re-formed chain alike (the TCP
        replacement encodes each batch, the in-process one does not)."""
        deployment = make_deployment(num_servers=3, num_users=2, num_chains=2, seed=1)
        assert all(
            link.wire_bytes is None for link in hop_links(deployment, deployment.run_round())
        )
        replacement = TcpTransport(deployment.group, node_name="loopback")
        deployment.use_transport(replacement)
        assert deployment.transport is replacement
        assert all(link.wire_bytes for link in hop_links(deployment, deployment.run_round()))
        retired = deployment.chain(0)
        deployment.reform_chain(0)
        assert deployment.chain(0) is not retired
        assert all(link.wire_bytes for link in hop_links(deployment, deployment.run_round()))
        deployment.close()

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            DeploymentConfig(transport="udp").validate()

    def test_entry_servers_are_chain_heads(self):
        deployment = make_deployment(num_users=2, seed=3)
        for topology in deployment.topologies:
            assert deployment.entry_servers[topology.chain_id] == topology.servers[0]


class TestWireOverheadConstant:
    def test_submission_wire_size_is_overhead_plus_onion(self, group):
        from repro.crypto.onion import onion_size

        deployment = make_deployment(num_servers=3, num_users=2, num_chains=2, chain_length=3,
                                     seed=2)
        built = deployment.population.build_round_submissions_batch(
            1, deployment.chain_keys_view(1), deployment.users[:1]
        )
        submissions = [submission for batch in built.values() for submission in batch]
        assert len(submissions) == deployment.ell()
        for submission in submissions:
            assert submission.wire_size() == SUBMISSION_OVERHEAD + onion_size(3)
