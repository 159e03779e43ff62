"""The distributed runner: control protocol, role handlers, and harness.

The heavyweight test here is the in-process distributed parity run: three
live :class:`~repro.runner.roles.RoleNode` replicas (two mix, one mailbox)
behind real TCP listeners, driven by :func:`~repro.runner.harness.
run_coordinator` through the acceptance scenario — tamper, blame, recovery
— and compared bit-for-bit against the ordinary in-process
:class:`~repro.faults.runner.ScenarioRunner`.  The subprocess flavour,
four OS processes held to the blame pin, is
``tests/test_engine_parity.py::test_localhost_processes_deliver_the_blame_pin``
(marked ``distributed``).
"""

import io
import json
import os
import socket
import tempfile
import threading
import time
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coordinator.adversary import install_tampering_server
from repro.coordinator.network import Deployment, DeploymentConfig
from repro.errors import ConfigurationError, DecodingError, TransportError
from repro.faults.plan import (
    MODE_TAMPER_CIPHERTEXT,
    USER_INVALID_PROOF,
    FaultPlan,
    ServerFault,
    UserFault,
    fault_key,
)
from repro.faults.runner import ScenarioRunner
from repro.faults.scenarios import tamper_and_recover
from repro.mixnet.ahs import MixChain
from repro.mixnet.messages import (
    FetchBatch,
    MailboxBatch,
    MailboxMessage,
    SubmissionBatch,
    submission_record,
)
from repro.registry import TransportKind
from repro.runner import protocol
from repro.runner.__main__ import _parse_listen, main
from repro.runner.harness import MAILBOX_ROLE, default_owners, run_coordinator
from repro.runner.remote import DistributedControl, RemoteMixEngine
from repro.runner.roles import MixRoleHandler, RoleNode
from repro.transport.envelope import (
    MAILBOX_DELIVERY,
    MAILBOX_FETCH_BATCH,
    SUBMISSION_BATCH,
    Envelope,
)
from repro.transport.faulty import DROP, LinkFault
from repro.transport.tcp import TcpTransport


def make_config(**kwargs):
    defaults = dict(num_servers=4, num_users=6, num_chains=3, chain_length=2, seed=42,
                    group_kind="modp")
    return DeploymentConfig(**{**defaults, **kwargs})


class TestControlCodec:
    def test_split_control_round_trip(self):
        assert protocol.split_control(protocol.encode_control(protocol.OP_MIX, b"xyz")) == (
            protocol.OP_MIX,
            b"xyz",
        )

    def test_split_control_empty_is_rejected(self):
        with pytest.raises(DecodingError, match="empty control body"):
            protocol.split_control(b"")

    def test_json_control_round_trip(self):
        op, payload = protocol.split_control(
            protocol.encode_json_control(protocol.OP_PEERS, {"b": 2, "a": 1})
        )
        assert op == protocol.OP_PEERS
        assert protocol.decode_json_payload(payload) == {"a": 1, "b": 2}

    def test_malformed_json_is_rejected(self):
        with pytest.raises(DecodingError, match="malformed control JSON"):
            protocol.decode_json_payload(b"{nope")
        with pytest.raises(DecodingError, match="malformed control JSON"):
            protocol.decode_json_payload(b"\xff\xfe")

    def test_mix_request_round_trip(self):
        wire = protocol.encode_mix_request(3, 17, b"batch-bytes")
        assert protocol.decode_mix_request(wire) == (3, 17, b"batch-bytes")
        wire = protocol.encode_mix_request(0, 1, b"")
        assert len(wire) == 12
        assert protocol.decode_mix_request(wire) == (0, 1, b"")

    def test_mix_request_truncation_is_rejected(self):
        wire = protocol.encode_mix_request(3, 17, b"")
        for cut in range(len(wire)):
            with pytest.raises(DecodingError, match="truncated mix request"):
                protocol.decode_mix_request(wire[:cut])


class TestRunSpecCodec:
    def test_config_round_trip(self):
        config = make_config(transport=TransportKind.TCP)
        data = json.loads(json.dumps(protocol.config_to_dict(config), sort_keys=True))
        rebuilt = protocol.config_from_dict(data)
        assert rebuilt == config
        assert rebuilt.transport is TransportKind.TCP

    def test_config_digest_is_stable_and_sensitive(self):
        digest = protocol.config_digest(make_config())
        assert digest == protocol.config_digest(make_config())
        assert len(digest) == 32
        assert digest != protocol.config_digest(make_config(seed=43))
        # Enum knob and its string spelling digest identically.
        assert protocol.config_digest(
            make_config(transport=TransportKind.INPROC)
        ) == protocol.config_digest(make_config(transport="inproc"))

    def test_plan_round_trip(self):
        plan = FaultPlan(
            name="round-trip",
            num_rounds=3,
            server_faults=(
                ServerFault(
                    round_number=2, chain_id=1, position=0, mode=MODE_TAMPER_CIPHERTEXT
                ),
            ),
            user_faults=(
                UserFault(
                    round_number=1, chain_id=0, sender="user-1", kind=USER_INVALID_PROOF
                ),
            ),
            link_faults=(
                LinkFault(behaviour=DROP, kind=SUBMISSION_BATCH, rounds=frozenset({2, 3})),
                LinkFault(behaviour=DROP, kind=SUBMISSION_BATCH, source="user-0"),
            ),
            conversations=(("user-0", "user-1"),),
            payloads={2: {"user-0": b"\x00\xffhello"}},
            offline={3: frozenset({"user-2", "user-0"})},
            seed=9,
        )
        data = json.loads(json.dumps(protocol.plan_to_dict(plan), sort_keys=True))
        assert protocol.plan_from_dict(data) == plan

    def test_acceptance_plan_survives_the_file_format(self):
        plan = tamper_and_recover()
        data = json.loads(json.dumps(protocol.plan_to_dict(plan), sort_keys=True))
        assert protocol.plan_from_dict(data) == plan


class TestScenarioSummary:
    def test_summary_carries_the_parity_instruments(self):
        config = make_config()
        with Deployment.create(config) as deployment:
            report = ScenarioRunner(deployment, tamper_and_recover()).run()
        summary = protocol.scenario_summary(report)
        assert summary["plan"] == report.plan_name
        assert summary["canonical"] == report.canonical_bytes().hex()
        assert len(summary["rounds"]) == len(report.rounds)
        for outcome, entry in zip(report.rounds, summary["rounds"]):
            assert entry["fingerprint"] == outcome.fingerprint.hex()
            assert entry["round"] == outcome.round_number
        assert summary["evicted_servers"] == ["server-0"]
        assert summary["recoveries"], "the acceptance plan must trigger a recovery"
        # The whole summary is a JSON value (the harness writes it to disk).
        json.dumps(summary)


class TestDefaultOwners:
    def test_standard_localhost_layout(self):
        config = make_config()
        owners = default_owners(config, num_mix=2)
        assert owners["server-0"] == "mix-0"
        assert owners["server-1"] == "mix-1"
        assert owners["server-2"] == "mix-0"
        assert owners["mailbox-hub"] == MAILBOX_ROLE
        for index in range(config.num_mailbox_servers):
            assert owners[f"mailbox-{index}"] == MAILBOX_ROLE
        # Users deliberately have no owner: fetch routing falls back to the
        # envelope's source, the authoritative mailbox side.
        assert not any(name.startswith("user-") for name in owners)

    def test_at_least_one_mix_role(self):
        with pytest.raises(ConfigurationError, match="at least one mix role"):
            default_owners(make_config(), num_mix=0)


class TestDeploymentContextManager:
    def test_enter_returns_self_and_exit_closes_the_transport(self):
        config = make_config(num_users=2, num_chains=1)
        with Deployment.create(config) as deployment:
            assert isinstance(deployment, Deployment)
            transport = TcpTransport(deployment.group, node_name="ctx")
            deployment.use_transport(transport)
        assert transport._closed
        with pytest.raises(TransportError, match="closed"):
            transport.request("ctx", 3, b"")


def in_process_cluster(config, num_mix=2):
    """Live RoleNodes for the standard layout; returns (nodes, peers, owners)."""
    nodes = [RoleNode(f"mix-{i}", config, "mix") for i in range(num_mix)]
    nodes.append(RoleNode(MAILBOX_ROLE, config, "mailbox"))
    peers = {node.name: node.address for node in nodes}
    return nodes, peers, default_owners(config, num_mix)


def remote_coordinator(config, peers, owners):
    """A coordinator replica wired to live roles as ``run_coordinator`` wires
    its own, for driving single rounds and stages."""
    deployment = Deployment.create(config)
    transport = TcpTransport(
        deployment.group, node_name="coordinator", config_digest=protocol.config_digest(config)
    )
    transport.set_peers(peers, owners)
    DistributedControl(transport, sorted(set(owners.values())), 0).send_peers(peers, owners)
    deployment.use_transport(transport)
    deployment.engine = RemoteMixEngine(
        deployment, transport, owners, backend=deployment.engine.backend
    )
    return deployment


class TestDistributedInProcess:
    def test_parity_with_the_scenario_runner_reference(self, monkeypatch):
        config = make_config()
        plan = tamper_and_recover()

        with Deployment.create(config) as reference_deployment:
            reference = ScenarioRunner(reference_deployment, plan).run()

        # Watch the distributed run's chain rounds live: every replica's
        # engine hands its chains the replica's own transport, so that
        # transport's node name says which process ran the round.
        mixed = []
        run_round = MixChain.run_round

        def recording_run_round(chain, round_number, transport):
            mixed.append((transport.node_name, chain.chain_id))
            return run_round(chain, round_number, transport)

        monkeypatch.setattr(MixChain, "run_round", recording_run_round)
        nodes, peers, owners = in_process_cluster(config)
        try:
            distributed = run_coordinator(config, plan, peers, owners)
        finally:
            for node in nodes:
                node.close()

        assert protocol.scenario_summary(distributed) == protocol.scenario_summary(
            reference
        )
        assert distributed.canonical_bytes() == reference.canonical_bytes()
        # The plan's whole arc survived distribution: a blame round halted
        # the tampered chain, and recovery evicted the tampering server.
        statuses = {
            outcome.round_number: outcome.statuses for outcome in distributed.rounds
        }
        assert statuses[2][0] == "halted-blame"
        assert distributed.evicted_servers == ["server-0"]
        # SHUTDOWN was broadcast: every role saw it.
        for node in nodes:
            assert node.wait_for_shutdown(timeout=5)
        # The coordinator never mixed locally: every chain round ran on a
        # mix role, and every mix role ran some, so the parity above is the
        # mix roles' own work.
        mix_roles = {node.name for node in nodes if node.kind == "mix"}
        assert {name for name, _ in mixed} == mix_roles
        assert {chain_id for _, chain_id in mixed} == set(range(config.num_chains))
        # They hold no round once it was delivered or its chain re-formed —
        # not even inner keys of chains they never mix.
        for node in nodes:
            if node.kind != "mix":
                continue
            for chain in node.deployment.chains:
                assert not chain._entries and not chain._aggregate_inner
                assert all(not member._rounds for member in chain.members)

    def test_every_role_re_derives_the_fault_key(self, monkeypatch):
        """Only the plan seed and the fault's identity cross the wire: the
        coordinator and each role key their tampering member identically."""
        from repro.coordinator import adversary

        keys = []
        real_init = adversary.TamperingMember.__init__

        def recording_init(wrapper, *args, **kwargs):
            real_init(wrapper, *args, **kwargs)
            keys.append(wrapper._stream_key)

        monkeypatch.setattr(adversary.TamperingMember, "__init__", recording_init)
        config, plan = make_config(), tamper_and_recover(seed=5)
        nodes, peers, owners = in_process_cluster(config)
        try:
            run_coordinator(config, plan, peers, owners)
        finally:
            for node in nodes:
                node.close()
        # The coordinator's replica and every role's.
        assert len(keys) == 1 + len(nodes)
        assert set(keys) == {fault_key(plan.seed, plan.server_faults[0])}

    def test_a_remote_halt_deletes_the_coordinator_replicas_inner_keys(self):
        """§6.4 on the replica that only announced the round: when the
        mixing role reports a halt, the coordinator's copy of the round's
        inner keys goes too."""
        config = make_config()
        nodes, peers, owners = in_process_cluster(config)
        for node in nodes:
            install_tampering_server(node.deployment, 0, 0, MODE_TAMPER_CIPHERTEXT)
        deployment = remote_coordinator(config, peers, owners)
        try:
            report = deployment.run_round()
        finally:
            deployment.close()
            for node in nodes:
                node.close()
        assert report.chain_results[0].status == "halted-blame"
        assert all(result.delivered for result in list(report.chain_results.values())[1:])
        mixer = next(
            node for node in nodes if node.name == owners[deployment.entry_servers[0]]
        )
        for replica in (mixer.deployment, deployment):
            for member in replica.chains[0].members:
                assert member.round_record(1).inner_secret is None

    def test_the_mix_stage_releases_every_submission_batch(self):
        """Both engines drop each chain's batch from the round context as
        its intake (or its ``MIX`` request) takes it."""
        config = make_config()
        nodes, peers, owners = in_process_cluster(config)
        local = Deployment.create(config)
        remote = remote_coordinator(config, peers, owners)
        try:
            for deployment in (local, remote):
                engine = deployment.engine
                ctx = engine.prepare(deployment.round_spec())
                for stage in (engine.collect, engine.finalize_collect, engine.precompute):
                    stage(ctx)
                assert sorted(ctx.per_chain) == list(range(config.num_chains))
                engine.mix(ctx)
                assert ctx.per_chain == {}
                assert sorted(ctx.chain_outcomes) == list(range(config.num_chains))
            assert isinstance(remote.engine, RemoteMixEngine)
        finally:
            local.close()
            remote.close()
            for node in nodes:
                node.close()

    def test_mix_rpc_on_the_mailbox_role_is_refused_over_the_wire(self):
        config = make_config(num_users=2, num_chains=1)
        with RoleNode(MAILBOX_ROLE, config, "mailbox") as node:
            client = TcpTransport(
                node.deployment.group,
                node_name="probe",
                config_digest=protocol.config_digest(config),
            )
            try:
                client.set_peers({MAILBOX_ROLE: node.address}, {})
                with pytest.raises(TransportError, match="does not execute chain mixing"):
                    client.control(
                        MAILBOX_ROLE,
                        protocol.encode_control(
                            protocol.OP_MIX, protocol.encode_mix_request(0, 1, b"")
                        ),
                    )
                with pytest.raises(TransportError, match="unknown control opcode"):
                    client.control(MAILBOX_ROLE, protocol.encode_control(200))
            finally:
                client.close()

    def test_mailbox_role_answers_fetches_from_its_own_state(self):
        config = make_config(num_users=2, num_chains=1)
        with RoleNode(MAILBOX_ROLE, config, "mailbox") as node:
            client_deployment = Deployment.create(config)
            client = TcpTransport(
                client_deployment.group,
                node_name="probe",
                config_digest=protocol.config_digest(config),
            )
            try:
                owners = {"mailbox-hub": MAILBOX_ROLE}
                for index in range(config.num_mailbox_servers):
                    owners[f"mailbox-{index}"] = MAILBOX_ROLE
                client.set_peers({MAILBOX_ROLE: node.address}, owners)
                user = client_deployment.users[0]
                message = MailboxMessage(
                    recipient=user.public_bytes, sealed_body=b"s" * 24
                )
                delivery = Envelope(
                    kind=MAILBOX_DELIVERY,
                    source="chain-0",
                    destination="mailbox-hub",
                    round_number=1,
                    payload=MailboxBatch.from_records([message.to_bytes()]),
                )
                client.deliver(delivery)
                # The client's own hub never saw the delivery…
                assert client_deployment.mailboxes.get(1, user.public_bytes) == []
                # …but a one-owner fetch through the socket returns it: the
                # reply came from the role's hub, not an echo of the request.
                fetch = Envelope(
                    kind=MAILBOX_FETCH_BATCH,
                    source="mailbox-hub",
                    destination="user-population",
                    round_number=1,
                    payload=FetchBatch.from_inboxes([(user.public_bytes, [])]),
                )

                def fetched():
                    return [(owner, list(batch)) for owner, batch in client.deliver(fetch)]

                assert fetched() == [(user.public_bytes, [message])]
                # The fetch consumed the round: the role's hub drained it.
                assert node.deployment.mailboxes.get(1, user.public_bytes) == []
                assert fetched() == [(user.public_bytes, [])]
            finally:
                client.close()
                client_deployment.close()

    def test_role_node_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown role kind"):
            RoleNode("x-0", make_config(), "auditor")


@pytest.fixture(scope="module")
def mix_handler():
    """A mix role's handler on a fresh replica; the refusals below must
    leave it as fresh as they found it."""
    deployment = Deployment.create(make_config())
    yield MixRoleHandler(deployment)
    deployment.close()


def replica_rounds(deployment):
    """Every round the replica's chains and members hold."""
    return [
        (set(chain._aggregate_inner), [set(member._rounds) for member in chain.members])
        for chain in deployment.chains
    ]


class TestMixRequestRefusal:
    """A malformed ``MIX`` is refused before the replica announces its round."""

    @settings(max_examples=25, deadline=None)
    @given(
        chain_id=st.integers(min_value=0, max_value=2),
        round_number=st.integers(min_value=1, max_value=2**64 - 1),
        records=st.lists(
            st.tuples(st.text(max_size=8), st.binary(max_size=24), st.integers(0, 2**64)),
            max_size=3,
        ),
    )
    def test_a_malformed_request_leaves_the_replica_untouched(
        self, mix_handler, chain_id, round_number, records
    ):
        deployment = mix_handler.deployment
        size = deployment.group.element_size
        batch = SubmissionBatch.from_records(deployment.group, [
            submission_record(chain_id, sender, b"\x01" * size, b"\x02" * size, response, body)
            for sender, body, response in records
        ]).to_wire()
        body = protocol.encode_mix_request(chain_id, round_number, batch)
        forged_count = body[:12] + (2**32 - 1).to_bytes(4, "big") + body[16:]
        before = replica_rounds(deployment)
        for malformed in [body[:cut] for cut in range(len(body))] + [body + b"\x00", forged_count]:
            with pytest.raises(DecodingError):
                mix_handler.handle_mix(malformed)
            assert replica_rounds(deployment) == before


class TestRecoverRefusal:
    """A malformed ``RECOVER`` is refused before the replica notes a conviction."""

    @pytest.mark.parametrize("body", [
        {"pending": [[1, 0, ["server-0"]], [2, 1]]},
        {"convictions": [[1, 0, ["server-0"]]]},
        {"pending": [[1, 0, ["server-0"]], [2, "1", ["server-1"]]]},
        {"pending": [[1, 0, ["server-0"]], [2, 1, [3]]]},
        {"pending": {"1": [0, ["server-0"]]}},
    ], ids=["two-fields", "missing-key", "wrong-type", "wrong-server-type", "not-a-list"])
    def test_a_malformed_request_changes_nothing(self, mix_handler, body):
        deployment = mix_handler.deployment

        def state():
            return (
                deployment.pending_recoveries,
                set(deployment.evicted_servers),
                [[member.server_name for member in chain.members] for chain in deployment.chains],
            )

        before = state()
        with pytest.raises(DecodingError):
            mix_handler.handle_control(protocol.encode_json_control(protocol.OP_RECOVER, body))
        assert state() == before


def malformed_bodies(op, body, wrong_typed):
    """Every proper prefix of ``op``'s control body, the body with one
    trailing byte, one with each wrong-typed field and one without each key."""
    encoded = protocol.encode_json_control(op, body)
    yield from (encoded[:cut] for cut in range(len(encoded)))
    yield encoded + b"\x00"
    for key, value in wrong_typed.items():
        yield protocol.encode_json_control(op, {**body, key: value})
    for key in body:
        yield protocol.encode_json_control(op, {k: v for k, v in body.items() if k != key})


def topologies(deployment):
    """Who holds every chain position, and as what (a fault wraps a member)."""
    return [
        [(type(member).__name__, member.server_name) for member in chain.members]
        for chain in deployment.chains
    ]


names_st = st.text(min_size=1, max_size=6)


class TestPeersRefusal:
    """A malformed ``PEERS`` is refused before the transport's maps change."""

    @settings(max_examples=15, deadline=None)
    @given(
        peers=st.dictionaries(
            names_st, st.tuples(names_st, st.integers(0, 2**16 - 1)), min_size=1, max_size=3
        ),
        owners=st.dictionaries(names_st, names_st, max_size=3),
    )
    def test_a_malformed_request_changes_nothing(self, mix_handler, peers, owners):
        transport = TcpTransport(mix_handler.deployment.group, start_server=False,
                                 handler_threads=1)
        mix_handler.transport = transport
        try:
            transport.set_peers({"before": ("127.0.0.1", 1)}, {"node": "before"})
            before = (dict(transport._peers), dict(transport._owners))
            body = {"peers": {name: list(address) for name, address in peers.items()},
                    "owners": owners}
            wrong_typed = {
                "owners": [1, 2, 3],
                "peers": {name: [host, str(port)] for name, (host, port) in peers.items()},
            }
            for malformed in malformed_bodies(protocol.OP_PEERS, body, wrong_typed):
                with pytest.raises(DecodingError):
                    mix_handler.handle_control(malformed)
                assert (transport._peers, transport._owners) == before
                assert topologies(mix_handler.deployment) == self.topology
            assert mix_handler.handle_control(
                protocol.encode_json_control(protocol.OP_PEERS, body)
            ) == b"ok"
            assert (transport._peers, transport._owners) == (peers, owners)
        finally:
            mix_handler.transport = None
            transport.close()

    @pytest.fixture(autouse=True)
    def _topology(self, mix_handler):
        self.topology = topologies(mix_handler.deployment)


class TestInstallFaultRefusal:
    """A malformed ``INSTALL_FAULT`` is refused before any member is wrapped."""

    @settings(max_examples=15, deadline=None)
    @given(
        fault=st.builds(
            ServerFault, round_number=st.integers(1, 5), chain_id=st.integers(0, 2),
            position=st.integers(0, 1), mode=st.just(MODE_TAMPER_CIPHERTEXT),
            target_index=st.integers(0, 3),
        ),
        seed=st.integers(0, 2**32),
        absolute_round=st.integers(1, 9),
    )
    def test_a_malformed_request_changes_nothing(self, mix_handler, fault, seed, absolute_round):
        deployment = mix_handler.deployment
        before = (topologies(deployment), replica_rounds(deployment))
        body = {
            "seed": seed, "round_number": fault.round_number, "chain_id": fault.chain_id,
            "position": fault.position, "mode": fault.mode, "target_index": fault.target_index,
            "absolute_round": absolute_round,
        }
        wrong_typed = {"chain_id": str(fault.chain_id), "mode": 3, "seed": None,
                       "round_number": 0}
        for malformed in malformed_bodies(protocol.OP_INSTALL_FAULT, body, wrong_typed):
            with pytest.raises(DecodingError):
                mix_handler.handle_control(malformed)
            assert (topologies(deployment), replica_rounds(deployment)) == before
        request = protocol.decode_install_fault_request(
            protocol.encode_json_control(protocol.OP_INSTALL_FAULT, body)[1:]
        )
        assert request == protocol.FaultRequest(fault, seed, absolute_round)


class TestCoordinatorCleanup:
    def test_unreachable_roles_leave_no_transport_running(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            closed = probe.getsockname()
        config = make_config()
        owners = default_owners(config, 1)
        peers = {role: closed for role in set(owners.values())}

        def tcp_threads():
            return {thread for thread in threading.enumerate() if thread.name.startswith("xrd-tcp-")}

        before = tcp_threads()
        with pytest.raises(TransportError):
            run_coordinator(config, tamper_and_recover(), peers, owners)
        assert tcp_threads() - before == set()


class TestLaunchCli:
    def test_role_process_body_and_coordinator_body(self):
        """Drive ``main()`` for both a role and the coordinator in-process.

        Role bodies run on threads with preassigned ports (``sys.stdout``
        is process-global, so the READY lines can't be read per-thread the
        way the subprocess harness reads per-child stdout); the coordinator
        body then drives the acceptance plan against them and its written
        report must match the in-process reference.
        """
        config = make_config()
        plan = tamper_and_recover(num_rounds=3)
        ports = {}
        for name in ("mix-0", "mix-1", MAILBOX_ROLE):
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            ports[name] = probe.getsockname()[1]
            probe.close()
        roles = [("mix-0", "mix"), ("mix-1", "mix"), (MAILBOX_ROLE, "mailbox")]
        with tempfile.TemporaryDirectory(prefix="xrd-cli-") as workdir:
            config_path = os.path.join(workdir, "config.json")
            with open(config_path, "w") as handle:
                json.dump(protocol.config_to_dict(config), handle)
            plan_path = os.path.join(workdir, "plan.json")
            with open(plan_path, "w") as handle:
                json.dump(protocol.plan_to_dict(plan), handle)
            peers_path = os.path.join(workdir, "peers.json")
            with open(peers_path, "w") as handle:
                json.dump(
                    {
                        "peers": {
                            name: ["127.0.0.1", port] for name, port in ports.items()
                        },
                        "owners": default_owners(config, 2),
                    },
                    handle,
                )
            report_path = os.path.join(workdir, "report.json")

            with redirect_stdout(io.StringIO()):
                threads = []
                for name, kind in roles:
                    thread = threading.Thread(
                        target=main,
                        args=(
                            ["--role", kind, "--name", name, "--config", config_path,
                             "--listen", f"127.0.0.1:{ports[name]}"],
                        ),
                        daemon=True,
                    )
                    thread.start()
                    threads.append(thread)

                deadline = time.monotonic() + 60
                for name, port in ports.items():
                    while True:
                        assert time.monotonic() < deadline, f"{name} never listened"
                        try:
                            socket.create_connection(("127.0.0.1", port), 0.5).close()
                            break
                        except OSError:
                            time.sleep(0.05)

                status = main(
                    ["--role", "coordinator", "--config", config_path,
                     "--spec", plan_path, "--peers", peers_path,
                     "--report", report_path]
                )
            assert status == 0
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "role thread survived SHUTDOWN"

            with open(report_path) as handle:
                summary = json.load(handle)

        with Deployment.create(config) as reference_deployment:
            reference = ScenarioRunner(reference_deployment, plan).run()
        assert summary == protocol.scenario_summary(reference)

    def test_bad_listen_spec_is_rejected(self):
        with pytest.raises(ConfigurationError, match="HOST:PORT"):
            _parse_listen("8080")
