"""The coordinator's side of the distributed runtime.

:class:`RemoteMixEngine` is the coordinator's round engine: each chain's
round becomes one ``MIX`` control RPC to the role process owning the chain's
entry server, which runs the engine's own precompute and mix stages there.
The request carries the coordinator-assembled
:class:`~repro.mixnet.messages.SubmissionBatch` in the bytes a
``SUBMISSION_BATCH`` envelope would carry; the reply is the chain outcome in
its canonical wire encoding (:func:`repro.transport.codec.encode_chain_outcome`)
— so the distributed mix is, byte for byte, the same data flow as the
in-process one with a socket in the middle.

:class:`DistributedControl` is the :class:`~repro.faults.runner.ScenarioRunner`
``control`` hook: it broadcasts fault installation and recovery state to
every role so the replicas mirror the coordinator's state transitions at
exactly the points the in-process runner would apply them locally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.engine.backends import ParallelBackend
from repro.engine.round_engine import RoundEngine
from repro.engine.stages import ChainOutcome, RoundContext
from repro.errors import TransportError
from repro.runner import protocol
from repro.transport import frames
from repro.transport.codec import decode_chain_outcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.coordinator.network import Deployment
    from repro.faults.plan import ServerFault
    from repro.transport.tcp import TcpTransport

__all__ = ["DistributedControl", "RemoteMixEngine"]


class RemoteMixEngine(RoundEngine):
    """The coordinator's engine: each chain's round runs on its owning mix role."""

    def __init__(
        self, deployment: "Deployment", transport: "TcpTransport", owners: Dict[str, str],
        backend: Optional[ParallelBackend] = None,
    ) -> None:
        super().__init__(deployment, backend)
        self.transport = transport
        self.owners = dict(owners)

    def _owner_of_chain(self, chain_id: int) -> str:
        # Looked up per round, not cached: recovery re-forms chains, and the
        # re-formed chain's new entry server may live on a different role.
        entry_server = self.deployment.entry_servers[chain_id]
        owner = self.owners.get(entry_server)
        if owner is None:
            raise TransportError(
                f"no role owns entry server {entry_server!r} of chain {chain_id}"
            )
        return owner

    def precompute(self, ctx: RoundContext) -> None:
        """Nothing: the owning mix roles precompute inside ``MIX``, so the
        coordinator's members fill no table and its trace records no
        precompute stage."""

    precompute_collected = precompute

    def mix(self, ctx: RoundContext) -> None:
        """One ``MIX`` RPC per chain, all in flight concurrently.

        Each batch leaves ``ctx.per_chain`` as its request is encoded, and
        replies come back in chain order.  A chain that halted deleted its
        inner keys on its role; this replica, which announced the round
        too, deletes its copy here.
        """
        with ctx.report.trace.stage("mix"):
            items = []
            for chain in self._chains_of(ctx.per_chain):
                batch = ctx.per_chain.pop(chain.chain_id).to_wire()
                body = protocol.encode_mix_request(chain.chain_id, ctx.round_number, batch)
                items.append((self._owner_of_chain(chain.chain_id), frames.FRAME_CONTROL,
                              protocol.encode_control(protocol.OP_MIX, body)))
            for reply in self.transport.request_batch(items):
                chain_id, accept_rejected, result = decode_chain_outcome(reply)
                if not result.delivered:
                    self.deployment.chain(chain_id).delete_inner_secrets(ctx.round_number)
                ctx.chain_outcomes[chain_id] = ChainOutcome(chain_id, list(accept_rejected), result)


class DistributedControl:
    """Broadcasts scenario state transitions to every role replica."""

    def __init__(
        self, transport: "TcpTransport", role_peers: Sequence[str], plan_seed: int
    ) -> None:
        self.transport = transport
        self.role_peers = list(role_peers)
        self.plan_seed = plan_seed

    def broadcast(self, body: bytes) -> List[bytes]:
        return self.transport.request_batch(
            [(peer, frames.FRAME_CONTROL, body) for peer in self.role_peers]
        )

    def ping(self) -> None:
        replies = self.broadcast(protocol.encode_control(protocol.OP_PING))
        for peer, reply in zip(self.role_peers, replies):
            if reply != b"pong":
                raise TransportError(f"role {peer!r} failed the liveness probe")

    def send_peers(self, peers: Dict, owners: Dict[str, str]) -> None:
        self.broadcast(
            protocol.encode_json_control(
                protocol.OP_PEERS,
                {
                    "peers": {name: list(address) for name, address in peers.items()},
                    "owners": dict(owners),
                },
            )
        )

    # -- ScenarioRunner control hooks -------------------------------------------

    def install_server_fault(self, fault: "ServerFault", absolute_round: int) -> None:
        """Mirror one tampering-server installation on every role.

        Only the fault's identity crosses the wire; each role re-derives the
        fault's stream key from ``(plan seed, fault)`` via
        :func:`repro.faults.plan.fault_key`, exactly as the coordinator does.
        """
        self.broadcast(
            protocol.encode_json_control(
                protocol.OP_INSTALL_FAULT,
                {
                    "seed": self.plan_seed,
                    "round_number": fault.round_number,
                    "chain_id": fault.chain_id,
                    "position": fault.position,
                    "mode": fault.mode,
                    "target_index": fault.target_index,
                    "absolute_round": absolute_round,
                },
            )
        )

    def before_recover(self, deployment: "Deployment") -> None:
        """Ship the pending convictions, then the roles run the identical
        evict + re-form sequence on their replicas."""
        self.broadcast(
            protocol.encode_json_control(
                protocol.OP_RECOVER,
                {
                    "pending": [
                        [round_number, chain_id, list(servers)]
                        for round_number, chain_id, servers in deployment.pending_recoveries
                    ],
                },
            )
        )

    def shutdown(self) -> None:
        self.broadcast(protocol.encode_control(protocol.OP_SHUTDOWN))
