"""Role processes: live deployment replicas behind a listening transport.

Every role holds a full :class:`~repro.coordinator.network.Deployment`
replica built from the shared config (same seed → bit-identical servers,
chains, mailboxes, users) and serves two kinds of inbound traffic on its
:class:`~repro.transport.tcp.TcpTransport` listener:

* **Envelopes** — the protocol's data plane.  A mix role reflects them
  (validate, then send the same bytes back), proving each server→server
  and client→server hop crossed the socket and parsed; the mailbox role *answers authoritatively*
  from its own hub state — deliveries mutate its shards, fetches are
  served from them — so the bytes the coordinator folds into its round
  reports are another process's state, not an echo.
* **Control messages** — the runner's management plane
  (:mod:`repro.runner.protocol`): peer wiring, the ``MIX`` RPC that runs
  the replica engine's own precompute and mix stages for one chain on the
  owning role, fault installation, and the recovery mirror.

Handlers run on the transport's worker thread pool; the mutating operations
(``MIX``, recovery, mailbox writes) serialise on one lock per role, so
concurrent RPCs cannot interleave on shared deployment state (the round
outputs must be bit-identical to the single-threaded reference).
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

from repro.coordinator.adversary import install_tampering_server
from repro.coordinator.network import Deployment, DeploymentConfig
from repro.engine.stages import RoundContext, RoundReport, RoundSpec
from repro.errors import ConfigurationError, TransportError
from repro.faults.plan import fault_key
from repro.runner import protocol
from repro.mixnet.messages import SubmissionBatch
from repro.transport.codec import encode_chain_outcome, encode_payload
from repro.transport.envelope import MAILBOX_DELIVERY, MAILBOX_FETCH_BATCH, Envelope
from repro.transport.tcp import ReflectingHandler, TcpTransport

__all__ = ["RoleHandler", "MixRoleHandler", "MailboxRoleHandler", "RoleNode"]


class RoleHandler(ReflectingHandler):
    """Control plumbing shared by every role; envelopes reflect by default.

    Its handlers take the role's lock and may call back into the transport
    (a ``MIX`` forwards batches to other roles), so they run on the
    transport's worker pool, never on the event loop.
    """

    runs_on_loop = False

    def __init__(self, deployment: Deployment) -> None:
        super().__init__(deployment.group)
        self.deployment = deployment
        #: The role's transport; wired by :class:`RoleNode` after the
        #: transport exists (the transport needs the handler first).
        self.transport: Optional[TcpTransport] = None
        #: Set when the coordinator broadcasts ``SHUTDOWN``.
        self.shutdown = threading.Event()
        self._lock = threading.Lock()

    def handle_control(self, body: bytes) -> bytes:
        op, payload = protocol.split_control(body)
        if op == protocol.OP_PING:
            return b"pong"
        if op == protocol.OP_PEERS:
            request = protocol.decode_peers_request(payload)
            self.transport.set_peers(request.peers, request.owners)
            return b"ok"
        if op == protocol.OP_MIX:
            return self.handle_mix(payload)
        if op == protocol.OP_INSTALL_FAULT:
            return self._handle_install_fault(payload)
        if op == protocol.OP_RECOVER:
            return self._handle_recover(payload)
        if op == protocol.OP_SHUTDOWN:
            self.shutdown.set()
            return b"ok"
        raise TransportError(f"unknown control opcode {op}")

    def handle_mix(self, payload: bytes) -> bytes:
        raise TransportError("this role does not execute chain mixing")

    def _handle_install_fault(self, payload: bytes) -> bytes:
        """Mirror a tampering-server installation on this replica.

        Broadcast to *every* role: inert on replicas that never mix the
        affected chain, but installing uniformly keeps all replicas
        structurally identical (and a post-recovery re-formation discards
        the wrapper everywhere at once).
        """
        request = protocol.decode_install_fault_request(payload)
        fault = request.fault
        with self._lock:
            install_tampering_server(
                self.deployment,
                fault.chain_id,
                fault.position,
                fault.mode,
                target_index=fault.target_index,
                stream_key=fault_key(request.seed, fault),
                rounds={request.absolute_round},
            )
        return b"ok"

    def _handle_recover(self, payload: bytes) -> bytes:
        """Mirror the coordinator's evict + re-form sequence.

        The convictions arrive in the exact order the coordinator's deliver
        stage recorded them; all of them parse before the first is noted.
        """
        pending = protocol.decode_recover_request(payload)
        with self._lock:
            deployment = self.deployment
            for round_number, chain_id, servers in pending:
                deployment.note_convictions(round_number, chain_id, servers)
            deployment.recover()
        return b"ok"


class MixRoleHandler(RoleHandler):
    """A mix role: runs the ``MIX`` RPC for its chains through its engine's stages."""

    def handle_mix(self, payload: bytes) -> bytes:
        chain_id, round_number, batch = protocol.decode_mix_request(payload)
        deployment = self.deployment
        with self._lock:
            # Parse the whole request before touching the replica: a
            # malformed one must leave no round behind.
            chain = deployment.chain(chain_id)
            submissions = SubmissionBatch.from_wire(deployment.group, batch)
            ctx = RoundContext(round_number, RoundSpec(), RoundReport(round_number))
            ctx.per_chain[chain_id] = submissions
            # Lazy idempotent announce: per-round inner keys derive from
            # per-(member, round) streams, so announcing only the (chain,
            # round) pairs this role actually mixes — possibly out of order
            # across recoveries — yields the same keys the coordinator
            # announced, and leaves no chain holding a round it never mixes.
            chain.begin_round(round_number)
            deployment.engine.precompute(ctx)
            deployment.engine.mix(ctx)
            outcome = ctx.chain_outcomes[chain_id]
            if outcome.result.delivered:
                # This replica's engine never runs ``deliver``; release the
                # round's chain state where the round ended.
                chain.release_round(round_number)
        return encode_chain_outcome(chain_id, outcome.accept_rejected, outcome.result)


class MailboxRoleHandler(RoleHandler):
    """The mailbox role: authoritative for the deployment's mailbox tier.

    One process owns *all* mailbox shards (the hub routes every delivery
    through the ``mailbox-hub`` name, so splitting shards across processes
    would starve all but the owner); deliveries mutate its hub, and fetch
    replies are built from that hub — not echoed from the request — so a
    user's round download demonstrably crossed from another process's state.
    Like delivery, a fetch is unauthenticated and it consumes the round
    (DESIGN.md §10.3): the roles assume a closed cluster of trusted peers.
    """

    def handle_envelope(self, envelope: Envelope) -> bytes:
        deployment = self.deployment
        if envelope.kind == MAILBOX_DELIVERY:
            with self._lock:
                deployment.mailboxes.deliver_batch(
                    envelope.round_number, envelope.payload
                )
            return encode_payload(self.group, envelope)
        if envelope.kind == MAILBOX_FETCH_BATCH:
            owners = envelope.payload.owners()
            with self._lock:
                fetched = deployment.mailboxes.fetch_batch(envelope.round_number, owners)
            return fetched.to_wire()
        return super().handle_envelope(envelope)


_HANDLERS = {"mix": MixRoleHandler, "mailbox": MailboxRoleHandler}


class RoleNode:
    """One live role: a deployment replica plus its listening transport.

    Usable both as the body of a ``python -m repro.runner --role ...`` child
    process and directly in-process (tests wire several RoleNodes and a
    coordinator inside one interpreter — three event loops on three daemon
    threads — to exercise the full RPC surface without subprocesses).
    """

    def __init__(
        self,
        name: str,
        config: DeploymentConfig,
        kind: str,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
    ) -> None:
        if kind not in _HANDLERS:
            raise ConfigurationError(
                f"unknown role kind {kind!r} (one of {sorted(_HANDLERS)})"
            )
        self.name = name
        self.kind = kind
        self.deployment = Deployment.create(config)
        self.handler = _HANDLERS[kind](self.deployment)
        self.transport = TcpTransport(
            self.deployment.group,
            node_name=name,
            handler=self.handler,
            listen_host=listen_host,
            listen_port=listen_port,
            config_digest=protocol.config_digest(config),
        )
        self.handler.transport = self.transport
        # The replica's chains deliver their server→server batches through
        # this role's sockets (routed to whichever role owns the successor).
        self.deployment.use_transport(self.transport)

    @property
    def address(self) -> Tuple[str, int]:
        return self.transport.local_address

    def wait_for_shutdown(self, timeout: Optional[float] = None) -> bool:
        return self.handler.shutdown.wait(timeout)

    def close(self) -> None:
        self.deployment.close()

    def __enter__(self) -> "RoleNode":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
