"""The TCP transport: frame grammar fuzzing and live-socket behaviour.

Three layers, cheapest first: hypothesis round-trip and truncation fuzzing
of the frame/handshake codecs (pure functions, no sockets), single-process
loopback tests against a live listener (real sockets, one interpreter),
and one ``distributed``-marked test that talks to an actual
``python -m repro.runner --role mix`` subprocess over the management and
data planes.
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.coordinator.adversary import forge_invalid_proof_submission
from repro.coordinator.network import Deployment, DeploymentConfig
from repro.errors import DecodingError, TransportError
from repro.mixnet.blame import BlameVerdict
from repro.mixnet.messages import ClientSubmission, MailboxMessage, SubmissionBatch
from repro.runner import protocol
from repro.runner.harness import READY_PREFIX
from repro.runner.roles import MixRoleHandler
from repro.transport import codec, frames
from repro.transport.envelope import INJECTED, SUBMISSION_BATCH, Envelope
from repro.transport.faulty import DROP, FaultyTransport, LinkFault
from repro.transport.tcp import ReflectingHandler, TcpTransport

from tests.conftest import chunk_users, make_deployment
from tests.test_transport import make_submission

request_ids = st.integers(min_value=0, max_value=2**64 - 1)


def all_proper_prefixes_fail(decoder, data):
    for cut in range(len(data)):
        with pytest.raises(DecodingError):
            decoder(data[:cut])


class TestFrameCodec:
    @settings(max_examples=50, deadline=None)
    @given(
        frame_type=st.sampled_from(frames.FRAME_TYPES),
        request_id=request_ids,
        body=st.binary(max_size=256),
    )
    def test_round_trip(self, frame_type, request_id, body):
        wire = frames.encode_frame(frame_type, request_id, body)
        assert frames.decode_frame(wire) == (frame_type, request_id, body)

    @settings(max_examples=25, deadline=None)
    @given(request_id=request_ids, body=st.binary(max_size=64))
    def test_every_truncation_is_rejected(self, request_id, body):
        wire = frames.encode_frame(frames.FRAME_ENVELOPE, request_id, body)
        all_proper_prefixes_fail(frames.decode_frame, wire)

    @settings(max_examples=25, deadline=None)
    @given(
        frame_type=st.sampled_from(frames.FRAME_TYPES),
        request_id=request_ids,
        body=st.binary(max_size=64),
    )
    def test_the_stream_layer_parses_a_frame_without_its_prefix(
        self, frame_type, request_id, body
    ):
        wire = frames.encode_frame(frame_type, request_id, body)
        assert frames.decode_frame_payload(wire[4:]) == (frame_type, request_id, body)

    def test_a_prefixless_frame_needs_its_whole_header(self):
        header = frames.encode_frame(frames.FRAME_REPLY, 7, b"")[4:]
        all_proper_prefixes_fail(frames.decode_frame_payload, header)
        with pytest.raises(DecodingError, match="unknown frame type"):
            frames.decode_frame_payload(b"\xff" + header[1:])

    def test_trailing_bytes_are_rejected(self):
        wire = frames.encode_frame(frames.FRAME_REPLY, 7, b"body")
        with pytest.raises(DecodingError, match="trailing"):
            frames.decode_frame(wire + b"\x00")

    def test_unknown_frame_type_is_rejected_both_ways(self):
        with pytest.raises(DecodingError, match="unknown frame type"):
            frames.encode_frame(99, 1, b"")
        wire = bytearray(frames.encode_frame(frames.FRAME_HELLO, 1, b""))
        wire[4] = 99  # frame type byte, just past the length prefix
        with pytest.raises(DecodingError, match="unknown frame type"):
            frames.decode_frame(bytes(wire))

    def test_every_opcode_round_trips_at_its_pinned_wire_value(self):
        # Renumbering an opcode is a silent wire break: peers on the old
        # numbering parse the frame as a different type.  Pin each value
        # and round-trip each opcode explicitly.
        pinned = {
            frames.FRAME_HELLO: 1,
            frames.FRAME_HELLO_ACK: 2,
            frames.FRAME_ENVELOPE: 3,
            frames.FRAME_REPLY: 4,
            frames.FRAME_CONTROL: 5,
            frames.FRAME_ERROR: 6,
        }
        assert set(frames.FRAME_TYPES) == set(pinned)
        for opcode, value in pinned.items():
            assert opcode == value
            wire = frames.encode_frame(opcode, 42, b"payload")
            assert wire[4] == value  # opcode byte sits just past the length prefix
            assert frames.decode_frame(wire) == (opcode, 42, b"payload")


class TestHelloCodec:
    @settings(max_examples=50, deadline=None)
    @given(
        node=st.text(max_size=32),
        group_kind=st.text(max_size=32),
        digest=st.binary(max_size=48),
    )
    def test_round_trip(self, node, group_kind, digest):
        hello = frames.Hello(node=node, group_kind=group_kind, config_digest=digest)
        assert frames.decode_hello(frames.encode_hello(hello)) == hello

    @settings(max_examples=25, deadline=None)
    @given(node=st.text(max_size=16), digest=st.binary(max_size=32))
    def test_every_truncation_is_rejected(self, node, digest):
        wire = frames.encode_hello(
            frames.Hello(node=node, group_kind="ModPGroup", config_digest=digest)
        )
        all_proper_prefixes_fail(frames.decode_hello, wire)

    def test_bad_magic_is_rejected(self):
        wire = frames.encode_hello(frames.Hello("n", "g", b""))
        with pytest.raises(DecodingError, match="magic"):
            frames.decode_hello(b"NOPE" + wire[4:])

    def test_version_mismatch_is_rejected(self):
        wire = bytearray(frames.encode_hello(frames.Hello("n", "g", b"")))
        wire[4:6] = (frames.PROTOCOL_VERSION + 1).to_bytes(2, "big")
        with pytest.raises(DecodingError, match="version mismatch"):
            frames.decode_hello(bytes(wire))

    @staticmethod
    def _wire(node, group_kind, digest=b""):
        """A HELLO spelled out field by field: a text field is a presence
        byte and a length-prefixed body (``None``: presence byte 0 alone)."""
        def text(raw):
            return b"\x00" if raw is None else b"\x01" + len(raw).to_bytes(4, "big") + raw
        return (frames.MAGIC + frames.PROTOCOL_VERSION.to_bytes(2, "big") + text(node)
                + text(group_kind) + len(digest).to_bytes(4, "big") + digest)

    def test_the_spelled_out_wire_matches_the_encoder(self):
        hello = frames.Hello(node="mix-0", group_kind="ModPGroup", config_digest=b"\x07" * 3)
        assert self._wire(b"mix-0", b"ModPGroup", b"\x07" * 3) == frames.encode_hello(hello)

    @settings(max_examples=25, deadline=None)
    @given(node=st.text(max_size=16), digest=st.binary(max_size=32),
           extra=st.binary(min_size=1, max_size=1))
    def test_one_trailing_byte_is_rejected(self, node, digest, extra):
        wire = frames.encode_hello(frames.Hello(node=node, group_kind="g", config_digest=digest))
        with pytest.raises(DecodingError, match="trailing"):
            frames.decode_hello(wire + extra)

    @pytest.mark.parametrize("node, group_kind", [(None, b"g"), (b"n", None), (None, None)],
                             ids=["no-node", "no-group-kind", "neither"])
    def test_an_absent_node_or_group_kind_is_rejected(self, node, group_kind):
        with pytest.raises(DecodingError, match="missing"):
            frames.decode_hello(self._wire(node, group_kind))

    @pytest.mark.parametrize("node, group_kind", [(b"\xff\xfe", b"g"), (b"mix-\xc3", b"g"),
                                                  (b"n", b"\x80")],
                             ids=["invalid-start", "cut-sequence", "group-kind"])
    def test_a_name_that_is_not_utf8_is_rejected(self, node, group_kind):
        with pytest.raises(DecodingError, match="UTF-8"):
            frames.decode_hello(self._wire(node, group_kind))


def sample_batch(group, **fields):
    """A one-submission batch: the sample payload of the envelope tests."""
    return SubmissionBatch.from_submissions(group, [make_submission(group, **fields)])


class TestEnvelopeFrameCodec:
    def test_round_trip_with_optional_fields(self, group):
        batch = sample_batch(group, chain_id=2, sender="user-1")
        for chain_id, part in [(None, None), (2, None), (2, 3)]:
            envelope = Envelope(
                kind=SUBMISSION_BATCH,
                source="user-1",
                destination="server-0",
                round_number=11,
                payload=batch,
                chain_id=chain_id,
                part=part,
            )
            wire = frames.encode_envelope_frame(group, envelope)
            assert frames.decode_envelope_frame(group, wire) == envelope

    def test_framing_an_encoded_payload_matches_the_one_shot_encoder(self, group):
        envelope = Envelope(
            kind=SUBMISSION_BATCH,
            source="user-1",
            destination="server-0",
            round_number=11,
            payload=sample_batch(group),
            chain_id=1,
        )
        payload_wire = codec.encode_payload(group, envelope)
        wire = frames.frame_envelope(envelope, payload_wire)
        assert wire == frames.encode_envelope_frame(group, envelope)
        assert wire.endswith(payload_wire)

    def test_every_truncation_is_rejected(self, group):
        envelope = Envelope(
            kind=SUBMISSION_BATCH,
            source="user-1",
            destination="server-0",
            round_number=11,
            payload=sample_batch(group),
            chain_id=1,
            part=0,
        )
        wire = frames.encode_envelope_frame(group, envelope)
        all_proper_prefixes_fail(
            lambda data: frames.decode_envelope_frame(group, data), wire
        )

    def test_trailing_bytes_are_rejected(self, group):
        envelope = Envelope(
            kind=SUBMISSION_BATCH,
            source="u",
            destination="s",
            round_number=1,
            payload=sample_batch(group),
        )
        wire = frames.encode_envelope_frame(group, envelope)
        with pytest.raises(DecodingError, match="trailing"):
            frames.decode_envelope_frame(group, wire + b"\x00")

    def test_unknown_kind_is_rejected(self, group):
        envelope = Envelope(
            kind=SUBMISSION_BATCH,
            source="u",
            destination="s",
            round_number=1,
            payload=sample_batch(group),
        )
        wire = frames.encode_envelope_frame(group, envelope)
        # Splice in an unknown kind string of the same length.
        assert SUBMISSION_BATCH.encode() in wire
        broken = wire.replace(SUBMISSION_BATCH.encode(), b"x" * len(SUBMISSION_BATCH.encode()), 1)
        with pytest.raises(DecodingError, match="unknown envelope kind"):
            frames.decode_envelope_frame(group, broken)


class TestBlameVerdictCodec:
    """The verdict a mix role returns to the coordinator after blame."""

    names = st.lists(st.text(max_size=12), max_size=4)

    @staticmethod
    def verdict(users=("user-3",), servers=("server-1", "server-2")):
        return BlameVerdict(
            chain_id=2,
            round_number=9,
            malicious_users=list(users),
            malicious_servers=list(servers),
            false_accusations=1,
            examined_ciphertexts=12,
        )

    @settings(max_examples=50, deadline=None)
    @given(
        chain_id=st.integers(min_value=0, max_value=2**32 - 1),
        round_number=st.integers(min_value=0, max_value=2**64 - 1),
        users=names,
        servers=names,
        counters=st.tuples(*[st.integers(min_value=0, max_value=2**32 - 1)] * 2),
    )
    def test_round_trip(self, chain_id, round_number, users, servers, counters):
        verdict = BlameVerdict(
            chain_id=chain_id,
            round_number=round_number,
            malicious_users=users,
            malicious_servers=servers,
            false_accusations=counters[0],
            examined_ciphertexts=counters[1],
        )
        assert BlameVerdict.from_bytes(verdict.to_bytes()) == verdict

    def test_every_truncation_is_rejected(self):
        all_proper_prefixes_fail(BlameVerdict.from_bytes, self.verdict().to_bytes())

    def test_trailing_bytes_are_rejected(self):
        with pytest.raises(DecodingError, match="trailing"):
            BlameVerdict.from_bytes(self.verdict().to_bytes() + b"\x00")

    def test_decoding_resumes_at_the_returned_offset(self):
        first, second = self.verdict(), self.verdict(users=(), servers=("server-0",))
        wire = b"prefix" + first.to_bytes() + second.to_bytes()
        decoded, offset = codec.decode_blame_verdict(wire, len(b"prefix"))
        assert decoded == first
        assert codec.decode_blame_verdict(wire, offset) == (second, len(wire))


class TestErrorCodec:
    @settings(max_examples=25, deadline=None)
    @given(message=st.text(max_size=128))
    def test_round_trip(self, message):
        assert frames.decode_error(frames.encode_error(message)) == message

    def test_trailing_bytes_are_rejected(self):
        with pytest.raises(DecodingError, match="trailing"):
            frames.decode_error(frames.encode_error("boom") + b"\x00")


@pytest.fixture
def tcp(group):
    transport = TcpTransport(group, node_name="loopback")
    yield transport
    transport.close()


def submission_envelope(group, sender="alice"):
    batch = sample_batch(group, chain_id=1, sender=sender)
    envelope = Envelope(
        kind=SUBMISSION_BATCH,
        source=sender,
        destination="server-0",
        round_number=1,
        payload=batch,
        chain_id=1,
    )
    return batch, envelope


class TestLoopback:
    def test_deliver_reflects_through_a_real_socket(self, tcp, group):
        submission, envelope = submission_envelope(group)
        assert tcp.deliver(envelope) == submission

    def test_deliver_many_is_pipelined_and_ordered(self, tcp, group):
        pairs = [submission_envelope(group, sender=f"user-{i}") for i in range(5)]
        replies = tcp.deliver_many([envelope for _, envelope in pairs])
        assert replies == [submission for submission, _ in pairs]

    def test_handler_errors_surface_as_transport_errors(self, tcp):
        # The default reflector accepts no control messages; the error must
        # cross the socket as an ERROR frame and re-raise on the caller.
        with pytest.raises(TransportError, match="peer .* reported"):
            tcp.control(tcp.node_name, b"\x01")

    def test_faulty_wrapper_drops_over_tcp(self, tcp, group):
        faulty = FaultyTransport(tcp, [LinkFault(behaviour=DROP, kind=SUBMISSION_BATCH)])
        _, envelope = submission_envelope(group)
        delivered = faulty.deliver(envelope)
        assert isinstance(delivered, SubmissionBatch) and delivered == []

    def test_request_after_close_raises(self, tcp, group):
        tcp.close()
        tcp.close()  # idempotent
        _, envelope = submission_envelope(group)
        with pytest.raises(TransportError, match="closed"):
            tcp.deliver(envelope)

    def test_unknown_peer_is_a_routing_error(self, tcp, group):
        _, envelope = submission_envelope(group)
        tcp.set_peers({}, {"server-0": "elsewhere"})
        with pytest.raises(TransportError, match="no route to peer"):
            tcp.deliver(envelope)


class TestWireResidentUplink:
    """Both directions stay in their wire encoding over TCP, and the
    reflector that proves it parses works on the event loop."""

    @staticmethod
    def constructed(monkeypatch, cls, field):
        """Record ``field`` of every ``cls`` object built from here on."""
        built = []
        original = cls.__init__

        def counting(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(getattr(self, field))

        monkeypatch.setattr(cls, "__init__", counting)
        return built

    def test_an_honest_churn_round_builds_no_submission_objects(self, monkeypatch):
        # The churn shape: covers on, TCP loopback, chunked, staggered, some
        # users offline (their banked covers are played, their mail held).
        deployment = make_deployment(num_users=10, transport="tcp")
        try:
            a, b = deployment.users[0].name, deployment.users[1].name
            deployment.start_conversation(a, b)
            senders = self.constructed(monkeypatch, ClientSubmission, "sender")
            recipients = self.constructed(monkeypatch, MailboxMessage, "recipient")
            with chunk_users(4):
                reports = deployment.run_rounds([
                    deployment.round_spec(payloads={a: b"hi"}),
                    deployment.round_spec(offline_users={deployment.users[5].name}),
                    deployment.round_spec(offline_users={b}),
                ], staggered=True)
            assert reports[0].conversation_payloads(b) == [b"hi"]
            assert reports[1].used_cover_for == [deployment.users[5].name]
            assert senders == [] and recipients == []
            # An injected submission is the one thing built as an object, by
            # its author; its frame crosses the uplink as records.
            forged = forge_invalid_proof_submission(
                deployment.group, deployment.chain_keys_view(4)[0], 4, "mallory"
            )
            report = deployment.run_round(extra_submissions=[forged])
            assert "mallory" in report.rejected_senders
            assert senders == ["mallory"] and recipients == []
        finally:
            deployment.close()

    def test_a_drop_naming_a_forger_loses_only_her_record(self):
        deployment = make_deployment(num_users=6, transport="tcp")
        try:
            honest = deployment.run_round().total_submissions
            deployment.use_transport(
                FaultyTransport(deployment.transport, [LinkFault(behaviour=DROP, source="mallory")]),
                close_previous=False,
            )
            forged = forge_invalid_proof_submission(
                deployment.group, deployment.chain_keys_view(2)[0], 2, "mallory"
            )
            report = deployment.run_round(extra_submissions=[forged])
            assert "mallory" not in report.rejected_senders
            assert report.total_submissions == honest
            assert report.all_chains_delivered()
            [applied] = deployment.transport.applied
            assert (applied.kind, applied.source) == (SUBMISSION_BATCH, INJECTED)
        finally:
            deployment.close()

    def test_the_reflector_runs_on_the_loop_and_role_handlers_on_the_pool(self):
        deployment = make_deployment(num_users=2)
        seen = {}

        def recording(base, label):
            class Recording(base):
                def handle_envelope(self, envelope):
                    seen[label] = threading.current_thread().name
                    return super().handle_envelope(envelope)
            return Recording

        reflector = TcpTransport(deployment.group, node_name="reflector",
                                 handler=recording(ReflectingHandler, "reflector")(deployment.group))
        role = TcpTransport(deployment.group, node_name="role",
                            handler=recording(MixRoleHandler, "role")(deployment))
        try:
            for transport in (reflector, role):
                submission, envelope = submission_envelope(deployment.group)
                assert transport.deliver(envelope) == submission
            assert seen["reflector"] == reflector._thread.name == "xrd-tcp-reflector"
            assert seen["role"].startswith("xrd-tcp-handler")
        finally:
            reflector.close()
            role.close()
            deployment.close()

    def test_close_returns_after_every_thread_it_started(self):
        """``close()`` joins the loop thread and the handler pool: no
        ``xrd-tcp-*`` thread of the transport is alive when it returns,
        without the census's grace period."""
        deployment = make_deployment(num_users=2)
        before = set(threading.enumerate())
        role = TcpTransport(deployment.group, node_name="role", handler=MixRoleHandler(deployment))
        try:
            submission, envelope = submission_envelope(deployment.group)
            assert role.deliver(envelope) == submission
            started = {
                thread for thread in set(threading.enumerate()) - before
                if thread.name.startswith("xrd-tcp-")
            }
            assert any(thread.name.startswith("xrd-tcp-handler") for thread in started)
        finally:
            role.close()
            deployment.close()
        assert sorted(thread.name for thread in started if thread.is_alive()) == []

    def test_close_does_not_wait_out_a_handlers_outbound_request(self, group):
        """A handler blocked on a peer that never answers is told the
        transport closed: ``close()`` returns at once, not after the
        request timeout, and leaves no handler thread behind."""
        entered, release = threading.Event(), threading.Event()
        forwarded = []

        class Stalling(ReflectingHandler):
            runs_on_loop = False

            def handle_control(self, body):
                entered.set()
                release.wait(30)
                return body

        class Forwarding(ReflectingHandler):
            runs_on_loop = False

            def handle_control(self, body):
                try:
                    return middle.control("stall", body)
                except TransportError as exc:
                    forwarded.append((threading.current_thread(), str(exc)))
                    raise

        stall = TcpTransport(group, node_name="stall", handler=Stalling(group))
        middle = TcpTransport(group, node_name="middle", handler=Forwarding(group),
                              request_timeout=60)
        client = TcpTransport(group, node_name="client", start_server=False)
        middle.set_peers({"stall": stall.local_address}, {})
        client.set_peers({"middle": middle.local_address}, {})
        caller = threading.Thread(target=lambda: pytest.raises(
            TransportError, client.control, "middle", b"\x01"))
        try:
            caller.start()
            assert entered.wait(10)
            started = time.monotonic()
            middle.close()
            assert time.monotonic() - started < 5
            [(handler, error)] = forwarded
            assert error == "middle: transport is closed" and not handler.is_alive()
        finally:
            release.set()
            middle.close()
            client.close()
            stall.close()
            caller.join(10)


class TestHandshake:
    def test_group_kind_mismatch_is_rejected(self, group):
        with TcpTransport(group, node_name="server") as server, TcpTransport(
            group, node_name="client", group_kind="EllipticNope"
        ) as client:
            client.set_peers({"server": server.local_address}, {})
            with pytest.raises(TransportError, match="rejected the handshake"):
                client.control("server", b"\x01")

    def test_config_digest_mismatch_is_rejected(self, group):
        with TcpTransport(
            group, node_name="server", config_digest=b"a" * 32
        ) as server, TcpTransport(
            group, node_name="client", config_digest=b"b" * 32
        ) as client:
            client.set_peers({"server": server.local_address}, {})
            with pytest.raises(TransportError, match="rejected the handshake"):
                client.control("server", b"\x01")

    def test_digestless_probe_is_accepted(self, group):
        # An empty digest means "not asserting a config" (debug tooling);
        # only two *conflicting* non-empty digests are refused.
        submission, envelope = submission_envelope(group)
        with TcpTransport(
            group, node_name="server", config_digest=b"a" * 32
        ) as server, TcpTransport(group, node_name="probe") as probe:
            probe.set_peers({"server": server.local_address}, {"server-0": "server"})
            assert probe.deliver(envelope) == submission


@pytest.mark.distributed
class TestTwoProcesses:
    """Talk to a real ``python -m repro.runner --role mix`` child process."""

    def test_ping_deliver_and_shutdown(self):
        config = DeploymentConfig(
            num_servers=2, num_users=2, num_chains=1, chain_length=2, seed=7, group_kind="modp"
        )
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (package_root, env.get("PYTHONPATH")) if part
        )
        with tempfile.TemporaryDirectory(prefix="xrd-two-proc-") as workdir:
            config_path = os.path.join(workdir, "config.json")
            with open(config_path, "w") as handle:
                json.dump(protocol.config_to_dict(config), handle, sort_keys=True)
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.runner", "--role", "mix",
                 "--name", "mix-0", "--config", config_path],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            probe = None
            try:
                line = proc.stdout.readline().split()
                assert line and line[0] == READY_PREFIX, line
                address = (line[2], int(line[3]))
                # The same config builds the same group, so the handshake's
                # group-kind and config-digest checks both engage for real.
                reference = Deployment.create(config)
                probe = TcpTransport(
                    reference.group,
                    node_name="probe",
                    config_digest=protocol.config_digest(config),
                )
                probe.set_peers({"mix-0": address}, {"server-0": "mix-0"})
                assert probe.control(
                    "mix-0", protocol.encode_control(protocol.OP_PING)
                ) == b"pong"
                submission, envelope = submission_envelope(reference.group)
                assert probe.deliver(envelope) == submission
                assert probe.control(
                    "mix-0", protocol.encode_control(protocol.OP_SHUTDOWN)
                ) == b"ok"
                assert proc.wait(timeout=30) == 0
            finally:
                if probe is not None:
                    probe.close()
                if proc.poll() is None:
                    proc.kill()
                proc.stdout.close()
                proc.stderr.close()
