"""Deployment construction and round orchestration (Figure 1).

A :class:`Deployment` wires together every entity of the paper's Figure 1 —
users, mix servers organised into anytrust chains, and mailbox servers — and
drives communication rounds:

1. users send one onion-encrypted message to each of their assigned chains
   (plus cover messages for the next round),
2. each chain runs the aggregate hybrid shuffle,
3. the recovered mailbox messages are delivered to the mailbox servers, and
4. users fetch and decrypt their mailboxes.

Round execution itself lives in :mod:`repro.engine`: the deployment is a
thin facade that builds a :class:`~repro.engine.round_engine.RoundEngine`
and delegates :meth:`Deployment.run_round` to it.  Chains are built,
accepted, precomputed and mixed concurrently on the engine's thread pool
(or serially, on the helper-less pool :meth:`Deployment.use_backend`
installs), and consecutive rounds may be staggered
(:meth:`Deployment.run_rounds`), without any change to the protocol code.
The distributed coordinator swaps in an engine subclass
(:mod:`repro.runner.remote`); the deployment has no distributed mode.

The deployment is an in-process simulation, but every cross-node interaction
— submissions, server→server batches, mailbox delivery, mailbox fetch —
travels as a typed envelope over the deployment's one pluggable
:class:`~repro.transport.base.Transport` (see DESIGN.md §5); chains hold
none, the engine hands each chain round the current one.  The protocol
logic, message formats, and cryptography are exactly those a networked
implementation would use; the transports record one link per envelope in
the round's trace (DESIGN.md §13) — the TCP one with its real wire bytes,
carried over a loopback socket (DESIGN.md §3, §10).
"""

from __future__ import annotations

import warnings
from contextlib import suppress
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.client.chain_selection import ell_for_chains
from repro.client.user import ChainKeysView, User
from repro.crypto.group import Ed25519Group, ModPGroup
from repro.crypto.keys import KeyDirectory, KeyPair
from repro.crypto import stream
from repro.crypto.randomness import PublicRandomnessBeacon
from repro.engine import (
    ParallelBackend,
    RoundEngine,
    RoundReport,
    RoundSpec,
    StaggeredScheduler,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.mailbox import ShardedMailboxHub
from repro.mixnet.ahs import ChainMember, MixChain
from repro.mixnet.chain import ChainTopology, form_chains, required_chain_length
from repro.mixnet.messages import ClientSubmission, SubmissionBatch
from repro.population import UserPopulation
from repro.registry import TransportKind
from repro.transport import Transport, make_transport

__all__ = [
    "DeploymentConfig",
    "MixServerNode",
    "Deployment",
    "RecoveryAction",
    "RoundReport",
    "RoundSpec",
]


@dataclass(frozen=True)
class RecoveryAction:
    """One applied recovery: who was evicted and how the chain was re-formed."""

    round_number: int
    chain_id: int
    evicted: List[str]
    new_servers: List[str]


@dataclass
class DeploymentConfig:
    """Parameters of a simulated XRD deployment.

    ``num_chains`` defaults to ``num_servers`` (the paper sets ``n = N``) and
    ``chain_length`` defaults to the anytrust formula for the configured
    ``malicious_fraction`` and ``security_bits``.  ``group_kind`` selects the
    cryptographic group: ``"ed25519"`` for the real curve or ``"modp"`` for
    the small 96-bit test group (fast, insecure — test use only).
    """

    num_servers: int = 4
    num_users: int = 8
    num_chains: Optional[int] = None
    chain_length: Optional[int] = None
    malicious_fraction: float = 0.0
    security_bits: int = 16
    num_mailbox_servers: int = 1
    seed: Optional[int] = None
    use_cover_messages: bool = True
    group_kind: str = "ed25519"
    #: How cross-node messages travel: :class:`~repro.registry.TransportKind`
    #: ``INPROC`` (default, reference semantics — delivery is a hand-off) or
    #: ``TCP`` (every envelope's real wire encoding, its size recorded in
    #: the round's trace, crosses a loopback socket and is parsed back;
    #: observable behaviour is bit-identical — DESIGN.md §10;
    #: process-per-role deployments are wired by :mod:`repro.runner`
    #: instead of this knob).
    transport: Union[str, TransportKind] = TransportKind.INPROC

    def __post_init__(self) -> None:
        # A plain string is normalised to its enum member; an unknown name
        # is kept as given, and validate() is the loud gate.
        with suppress(ValueError):
            self.transport = TransportKind(self.transport)

    def resolved_num_chains(self) -> int:
        return self.num_chains if self.num_chains is not None else self.num_servers

    def resolved_chain_length(self) -> int:
        if self.chain_length is not None:
            return self.chain_length
        length = required_chain_length(
            self.malicious_fraction, self.resolved_num_chains(), self.security_bits
        )
        return min(length, self.num_servers)

    def validate(self) -> None:
        if self.num_servers < 1:
            raise ConfigurationError("a deployment needs at least one mix server")
        if self.num_users < 0:
            raise ConfigurationError("number of users must be non-negative")
        if self.num_mailbox_servers < 1:
            raise ConfigurationError("a deployment needs at least one mailbox server")
        if self.resolved_num_chains() < 1:
            raise ConfigurationError("a deployment needs at least one chain")
        if self.resolved_chain_length() < 1:
            raise ConfigurationError("chains need at least one server")
        if not 0.0 <= self.malicious_fraction < 1.0:
            raise ConfigurationError("malicious fraction must be in [0, 1)")
        if self.group_kind not in ("ed25519", "modp"):
            raise ConfigurationError("group_kind must be 'ed25519' or 'modp'")
        if not isinstance(self.transport, TransportKind):
            raise ConfigurationError(
                f"transport must be one of {[member.value for member in TransportKind]}, "
                f"got {self.transport!r}"
            )


class MixServerNode:
    """A physical mix server, holding one :class:`ChainMember` per chain it joins.

    Each member it creates gets its own stream key, derived from the
    server's by join count (:mod:`repro.crypto.stream`), so a server that
    rejoins a re-formed chain draws fresh keys.
    """

    def __init__(self, name: str, group, stream_key: Optional[bytes] = None) -> None:
        self.name = name
        self.group = group
        self._stream_key = stream_key if stream_key is not None else stream.stream_key()
        self._joins = 0
        self.chain_members: Dict[int, ChainMember] = {}

    def join_chain(self, chain_id: int, position: int) -> ChainMember:
        """Create this server's member state for one chain."""
        (member_key,) = stream.derive_keys(self._stream_key, stream.JOIN, [self._joins])
        self._joins += 1
        member = ChainMember(
            server_name=self.name,
            chain_id=chain_id,
            position=position,
            group=self.group,
            stream_key=member_key,
        )
        self.chain_members[chain_id] = member
        return member


class Deployment:
    """A complete simulated XRD network."""

    def __init__(
        self,
        config: DeploymentConfig,
        group,
        beacon: PublicRandomnessBeacon,
        directory: KeyDirectory,
        server_nodes: List[MixServerNode],
        topologies: List[ChainTopology],
        chains: List[MixChain],
        mailboxes: ShardedMailboxHub,
        users: List[User],
        transport: Optional[Transport] = None,
    ) -> None:
        self.config = config
        self.group = group
        self.beacon = beacon
        self.directory = directory
        self.server_nodes = server_nodes
        self.topologies = topologies
        self.chains = chains
        self.mailboxes = mailboxes
        self.users = users
        self.transport = (
            transport if transport is not None else make_transport(config.transport, group=group)
        )
        #: chain id → the server users submit to (the first server of the chain).
        self.entry_servers: Dict[int, str] = {
            topology.chain_id: topology.servers[0] for topology in topologies
        }
        #: Columnar batch views over the honest users: every build and fetch
        #: runs through them.  Chain assignments derive from public keys
        #: alone, so the views survive churn recovery and chain re-formation
        #: unchanged; per-round key material is always passed in fresh.
        self.population = UserPopulation(group, users, len(chains))
        self.next_round = 1
        self._users_by_name = {user.name: user for user in users}
        self._chains_by_id = {chain.chain_id: chain for chain in chains}
        self._nodes_by_name = {node.name: node for node in server_nodes}
        #: Banked next-round covers per user, as submission records (views
        #: into the uploaded cover batches).
        self._cover_store: Dict[str, List[memoryview]] = {}
        #: Servers removed from the coordinator's pool by blame convictions.
        self.evicted_servers: set = set()
        #: Convictions recorded by the engine's deliver stage, awaiting
        #: :meth:`recover` — ``(round_number, chain_id, server_names)``.
        self._pending_recoveries: List[tuple] = []
        self._reform_counts: Dict[int, int] = {}
        self.engine = RoundEngine(self)

    # -- construction -----------------------------------------------------------

    @classmethod
    def create(cls, config: DeploymentConfig) -> "Deployment":
        """Build a deployment: servers, chains (with key ceremony), mailboxes, users."""
        config.validate()
        if config.group_kind == "modp":
            group = ModPGroup()
        else:
            group = Ed25519Group()
        # One key per deployment, from the seed or drawn once from the OS;
        # every server's and user's stream key derives from it.
        master_key = stream.stream_key(config.seed)
        beacon_seed = (
            b"xrd-deployment-" + str(config.seed).encode()
            if config.seed is not None
            else b"xrd-deployment"
        )
        beacon = PublicRandomnessBeacon(seed=beacon_seed)
        directory = KeyDirectory(group=group)
        server_keys = stream.derive_keys(master_key, stream.SERVER, range(config.num_servers))
        server_nodes = [
            MixServerNode(name=f"server-{index}", group=group, stream_key=server_keys[index])
            for index in range(config.num_servers)
        ]
        nodes_by_name = {node.name: node for node in server_nodes}

        topologies = form_chains(
            [node.name for node in server_nodes],
            config.resolved_num_chains(),
            config.resolved_chain_length(),
            beacon=beacon,
            epoch=0,
        )
        chains: List[MixChain] = []
        for topology in topologies:
            members = [
                nodes_by_name[server_name].join_chain(topology.chain_id, position)
                for position, server_name in enumerate(topology.servers)
            ]
            chain = MixChain(chain_id=topology.chain_id, members=members, group=group)
            chain.setup()
            chains.append(chain)

        mailboxes = ShardedMailboxHub(num_servers=config.num_mailbox_servers)
        # A user is her stream key: the identity secret is its first draw.
        user_keys = stream.derive_keys(master_key, stream.USER, range(config.num_users))
        identity_secrets = stream.scalars(group, stream.blocks(
            user_keys, [stream.stream_nonce(stream.IDENTITY, 0)] * len(user_keys),
            [0] * len(user_keys),
        ))
        identity_publics = group.fixed_point_mult_batch(group.base(), identity_secrets)
        users: List[User] = []
        for index in range(config.num_users):
            public = identity_publics[index]
            keypair = KeyPair(
                secret=identity_secrets[index], public=public, public_bytes=group.encode(public)
            )
            user = User(
                name=f"user-{index}", group=group, keypair=keypair, stream_key=user_keys[index]
            )
            directory.register_user(user.name, user.public_bytes)
            mailboxes.create_mailbox(user.public_bytes)
            users.append(user)
        for node in server_nodes:
            directory.register_server(node.name, b"")

        return cls(
            config=config,
            group=group,
            beacon=beacon,
            directory=directory,
            server_nodes=server_nodes,
            topologies=topologies,
            chains=chains,
            mailboxes=mailboxes,
            users=users,
        )

    # -- lookups ------------------------------------------------------------------

    def user(self, name: str) -> User:
        if name not in self._users_by_name:
            raise ConfigurationError(f"unknown user {name!r}")
        return self._users_by_name[name]

    def chain(self, chain_id: int) -> MixChain:
        if chain_id not in self._chains_by_id:
            raise ConfigurationError(f"unknown chain {chain_id}")
        return self._chains_by_id[chain_id]

    @property
    def num_chains(self) -> int:
        return len(self.chains)

    def ell(self) -> int:
        """Number of chains each user sends to per round."""
        return ell_for_chains(self.num_chains)

    # -- conversations ----------------------------------------------------------------

    def start_conversation(self, name_a: str, name_b: str, round_number: Optional[int] = None) -> None:
        """Out-of-band agreement for two users to start talking (§3.1 / Alpenhorn)."""
        round_number = round_number if round_number is not None else self.next_round
        user_a = self.user(name_a)
        user_b = self.user(name_b)
        user_a.start_conversation(name_b, user_b.public_bytes, self.num_chains, round_number)
        user_b.start_conversation(name_a, user_a.public_bytes, self.num_chains, round_number)

    def end_conversation(self, name_a: str, name_b: str) -> None:
        self.user(name_a).end_conversation()
        self.user(name_b).end_conversation()

    # -- round orchestration -------------------------------------------------------------

    def _begin_round_on_chains(self, round_number: int) -> Dict[int, object]:
        """Announce (idempotently) the per-round inner keys on every chain."""
        return {chain.chain_id: chain.begin_round(round_number) for chain in self.chains}

    def chain_keys_view(self, round_number: int) -> Dict[int, ChainKeysView]:
        """The public key material users need to build submissions for a round."""
        aggregates = self._begin_round_on_chains(round_number)
        views = {}
        for chain in self.chains:
            if chain.public_keys is None:
                raise ProtocolError("chain setup has not completed")
            views[chain.chain_id] = ChainKeysView(
                chain_id=chain.chain_id,
                mixing_publics=chain.public_keys.mixing_publics,
                aggregate_inner_public=aggregates[chain.chain_id],
            )
        return views

    def round_spec(
        self,
        payloads: Optional[Dict[str, bytes]] = None,
        offline_users: Optional[Iterable[str]] = None,
        extra_submissions: Optional[List[ClientSubmission]] = None,
    ) -> RoundSpec:
        """Normalise ``run_round``-style arguments into a :class:`RoundSpec`."""
        return RoundSpec(
            payloads=dict(payloads or {}),
            offline_users=set(offline_users or []),
            extra_submissions=list(extra_submissions or []),
        )

    def run_round(
        self,
        payloads: Optional[Dict[str, bytes]] = None,
        offline_users: Optional[Iterable[str]] = None,
        extra_submissions: Optional[List[ClientSubmission]] = None,
    ) -> RoundReport:
        """Execute one full communication round through the round engine.

        ``payloads`` maps user names to the conversation payload they want to
        send this round (users in a conversation with no payload send an
        empty data message; users not in a conversation ignore the payload).
        ``offline_users`` did not show up this round: if cover messages are
        enabled and they submitted covers last round, the covers are played
        in their place (§5.3.3).  ``extra_submissions`` lets adversarial
        tests inject arbitrary (e.g., malformed) submissions.
        """
        spec = self.round_spec(payloads, offline_users, extra_submissions)
        return self.engine.execute_round(spec)

    def run_rounds(
        self,
        specs: Sequence[Union[RoundSpec, Dict[str, bytes]]],
        staggered: bool = False,
    ) -> List[RoundReport]:
        """Execute several rounds, optionally pipelined with the stagger trick.

        Each spec is either a :class:`RoundSpec` or a plain payload dict
        (shorthand for a round where everyone is online).  With
        ``staggered=True`` round *r + 1*'s submission collection overlaps
        round *r*'s mixing (§5.2.2); reports are bit-identical either way
        under a fixed seed.
        """
        normalised = [
            spec if isinstance(spec, RoundSpec) else self.round_spec(payloads=spec)
            for spec in specs
        ]
        if staggered:
            return StaggeredScheduler(self.engine).run_rounds(normalised)
        return [self.engine.execute_round(spec) for spec in normalised]

    # -- blame recovery: eviction and chain re-formation -------------------------

    def note_convictions(self, round_number: int, chain_id: int, servers: Sequence[str]) -> None:
        """Record a round's server convictions for a later :meth:`recover`.

        Called by the engine's deliver stage (in chain order, on the
        coordinating thread) whenever a chain's round outcome convicts a
        server — via a blame verdict or an aggregate-proof failure — so the
        recorded sequence is identical whatever the helper count and scheduler.
        """
        if servers:
            self._pending_recoveries.append((round_number, chain_id, tuple(servers)))

    @property
    def pending_recoveries(self) -> List[tuple]:
        """Convictions recorded but not yet acted on (read-only view)."""
        return list(self._pending_recoveries)

    def recover(self) -> List[RecoveryAction]:
        """Act on recorded convictions: evict the servers, re-form the chains.

        This is the recovery half the paper assumes after a blame verdict
        (§6.4: the honest servers delete their inner keys and the convicted
        server is removed): each convicted server leaves the coordinator's
        pool permanently, and every chain that produced a conviction is
        re-formed from the remaining pool — new beacon sample, fresh key
        ceremony, fresh per-round inner keys for any round already announced.
        Subsequent rounds run on the re-formed chain; banked covers built for
        the old chain's keys are discarded (their owners bank fresh covers
        the next time they are online).

        Recovery is an explicit coordinator action between rounds — never
        implicit inside a pipelined ``run_rounds`` — so staggered and
        sequential schedules see identical state at every stage boundary.
        """
        pending, self._pending_recoveries = self._pending_recoveries, []
        actions: List[RecoveryAction] = []
        # Apply *every* eviction before re-forming *any* chain: a chain
        # re-formed mid-batch could otherwise sample a server a later
        # pending conviction evicts, and would never be re-formed again.
        per_chain: Dict[int, List] = {}
        last_round = 0
        for round_number, chain_id, servers in pending:
            last_round = max(last_round, round_number)
            newly_evicted = [name for name in servers if name not in self.evicted_servers]
            self.evicted_servers.update(servers)
            entry = per_chain.setdefault(chain_id, [round_number, []])
            # A chain convicted in several rounds reports the *latest*
            # convicting round, matching the ``last_round`` the secondary
            # re-formations below use — not the first, which would make a
            # multi-conviction action sequence internally inconsistent.
            entry[0] = max(entry[0], round_number)
            entry[1].extend(name for name in newly_evicted if name not in entry[1])
        reformed: set = set()
        for chain_id, (round_number, newly_evicted) in per_chain.items():
            topology = self.reform_chain(chain_id)
            reformed.add(chain_id)
            actions.append(
                RecoveryAction(
                    round_number=round_number,
                    chain_id=chain_id,
                    evicted=newly_evicted,
                    new_servers=list(topology.servers),
                )
            )
        if pending:
            # §6.4 removes the convicted server from the *system*, not just
            # from the chain that caught it: every other chain it still sits
            # in is re-formed too (in chain order, so the action sequence is
            # deterministic).  Its eviction is already recorded above, so
            # these secondary actions carry an empty eviction list.
            for chain in list(self.chains):
                if chain.chain_id in reformed:
                    continue
                if any(
                    member.server_name in self.evicted_servers for member in chain.members
                ):
                    topology = self.reform_chain(chain.chain_id)
                    reformed.add(chain.chain_id)
                    actions.append(
                        RecoveryAction(
                            round_number=last_round,
                            chain_id=chain.chain_id,
                            evicted=[],
                            new_servers=list(topology.servers),
                        )
                    )
        return actions

    def reform_chain(self, chain_id: int) -> ChainTopology:
        """Re-form one chain from the non-evicted server pool.

        The new topology is sampled from the public randomness beacon (every
        participant derives the same chain) and the sampled servers run a
        fresh key ceremony.  Inner keys for rounds the old chain had already
        announced die with it: the next :meth:`chain_keys_view` announces
        them on the new chain, so users building submissions for those
        rounds see the new chain's key material, under any scheduler's
        announce horizon.
        """
        index = next(
            (i for i, chain in enumerate(self.chains) if chain.chain_id == chain_id), None
        )
        if index is None:
            raise ConfigurationError(f"unknown chain {chain_id}")
        old_chain = self.chains[index]
        pool = [
            node.name for node in self.server_nodes if node.name not in self.evicted_servers
        ]
        length = min(len(old_chain.members), len(pool))
        if length < 1:
            raise ConfigurationError("no servers left in the pool to re-form the chain")
        if length < len(old_chain.members):
            # The anytrust bound n·f^k ≤ 2^-λ weakens with every lost
            # position; shrink rather than halt, but never silently.
            warnings.warn(
                f"chain {chain_id} re-formed with {length} servers "
                f"(was {len(old_chain.members)}): the eviction-depleted pool "
                "no longer supports the configured chain length, weakening "
                "the anytrust security margin",
                RuntimeWarning,
                stacklevel=2,
            )
        generation = self._reform_counts.get(chain_id, 0) + 1
        self._reform_counts[chain_id] = generation
        servers = self.beacon.sample_without_replacement(
            generation, pool, length, purpose=f"reform-chain-{chain_id}"
        )
        topology = ChainTopology(chain_id=chain_id, servers=list(servers))

        old_names = {member.server_name for member in old_chain.members}
        members = [
            self._nodes_by_name[name].join_chain(chain_id, position)
            for position, name in enumerate(topology.servers)
        ]
        for name in sorted(old_names - set(topology.servers)):
            self._nodes_by_name[name].chain_members.pop(chain_id, None)
        chain = MixChain(chain_id=chain_id, members=members, group=self.group)
        chain.setup()
        self.chains[index] = chain
        self._chains_by_id[chain_id] = chain
        for position, existing in enumerate(self.topologies):
            if existing.chain_id == chain_id:
                self.topologies[position] = topology
        self.entry_servers[chain_id] = topology.servers[0]

        # Banked covers that target the re-formed chain were built for key
        # material that no longer exists; playing them would misauthenticate.
        stale = [
            user_name
            for user_name, covers in self._cover_store.items()
            if any(SubmissionBatch.record_chain_id(record) == chain_id for record in covers)
        ]
        for user_name in stale:
            del self._cover_store[user_name]
        return topology

    def use_backend(self, backend: ParallelBackend) -> None:
        """Swap the per-chain thread pool (closing the previous one) — how
        tests install the serial reference, ``ParallelBackend(helpers=0)``,
        or a pool with a pinned helper count."""
        self.engine.backend.close()
        self.engine.backend = backend

    def use_transport(self, transport: Transport, close_previous: bool = True) -> None:
        """Swap the deployment's transport (closing the previous one).

        The engine hands each chain round the deployment's current
        transport, so the swap moves the server→server batch links too.
        Pass ``close_previous=False`` when the new transport *wraps* the old
        one (e.g. :class:`~repro.transport.faulty.FaultyTransport`) and will
        keep delegating to it.
        """
        old = self.transport
        self.transport = transport
        if close_previous and old is not transport:
            old.close()

    def close(self) -> None:
        """Release engine and transport resources (thread pools).

        The deployment stays usable: the backend restarts its helpers on the
        next round.  A deployment dropped without closing stops its helpers
        when it is collected.
        """
        self.engine.close()
        self.transport.close()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
