"""Executes a :class:`~repro.faults.plan.FaultPlan` end to end.

The runner turns the declarative plan into real rounds through the
deployment's own engine — whichever execution backend and scheduler it is
configured with — and collects a structured :class:`ScenarioReport`.

Execution is segmented: the plan's blame-capable rounds (server and user
faults) end their segment, and between segments the runner applies the
recovery half of the protocol (:meth:`Deployment.recover
<repro.coordinator.network.Deployment.recover>`: evict convicted servers,
re-form the affected chains).  Segment boundaries come from the *plan*, not
from execution results, and recovery always runs on the coordinator thread
between ``run_rounds`` calls — so a staggered schedule never pipelines
across a recovery, and the scenario's canonical bytes are bit-identical
across {one thread, the helper pool} × {sequential, staggered} ×
{inproc, tcp}.

Reproducibility: every adversarial behaviour draws from the stream key
:func:`~repro.faults.plan.fault_key` derives from ``(plan.seed, fault
identity)``, matching the per-(member, round) determinism of honest
execution.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.client.chain_selection import intersection_chain
from repro.coordinator.adversary import (
    forge_invalid_proof_submission,
    forge_misauthenticated_submission,
    install_tampering_server,
)
from repro.errors import ConfigurationError
from repro.faults.plan import USER_MISAUTHENTICATED, FaultPlan, UserFault, fault_key
from repro.transport.faulty import FaultyTransport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.coordinator.network import Deployment, RecoveryAction
    from repro.engine.stages import RoundReport
    from repro.mixnet.blame import BlameVerdict

__all__ = ["RoundOutcome", "ScenarioReport", "ScenarioRunner"]


@dataclass
class RoundOutcome:
    """What one scenario round observably produced."""

    round_number: int
    statuses: Dict[int, str]
    verdicts: Dict[int, "BlameVerdict"]
    rejected_senders: List[str]
    delivered_messages: int
    fingerprint: bytes
    report: "RoundReport"

    @property
    def all_delivered(self) -> bool:
        return all(status == "delivered" for status in self.statuses.values())


@dataclass
class ScenarioReport:
    """Structured outcome of one executed fault scenario."""

    plan_name: str
    rounds: List[RoundOutcome] = field(default_factory=list)
    recoveries: List["RecoveryAction"] = field(default_factory=list)
    evicted_servers: List[str] = field(default_factory=list)

    def outcome_for(self, round_number: int) -> RoundOutcome:
        for outcome in self.rounds:
            if outcome.round_number == round_number:
                return outcome
        raise ConfigurationError(f"scenario did not execute round {round_number}")

    def convicted_servers(self) -> List[str]:
        """Every server any round's verdicts or proof failures convicted."""
        names: List[str] = []
        for outcome in self.rounds:
            for verdict in outcome.verdicts.values():
                for name in verdict.malicious_servers:
                    if name not in names:
                        names.append(name)
            for chain_id in outcome.statuses:
                result = outcome.report.chain_results[chain_id]
                if result.misbehaving_server and result.misbehaving_server not in names:
                    names.append(result.misbehaving_server)
        return names

    def convicted_users(self) -> List[str]:
        names: List[str] = []
        for outcome in self.rounds:
            for verdict in outcome.verdicts.values():
                for name in verdict.malicious_users:
                    if name not in names:
                        names.append(name)
        return names

    def canonical_bytes(self) -> bytes:
        """Deterministic digest of everything observable about the scenario.

        Covers each round's :meth:`RoundReport.canonical_bytes
        <repro.engine.stages.RoundReport.canonical_bytes>`, each blame
        verdict's wire encoding, and every recovery action — so equality
        proves the execution strategy unobservable end to end, *including*
        the detect → blame → evict → re-form path.
        """
        hasher = hashlib.sha256()

        def feed(data: bytes) -> None:
            hasher.update(len(data).to_bytes(8, "big"))
            hasher.update(data)

        for outcome in self.rounds:
            feed(b"round")
            feed(outcome.fingerprint)
            for chain_id in sorted(outcome.verdicts):
                feed(chain_id.to_bytes(4, "big"))
                feed(outcome.verdicts[chain_id].to_bytes())
        def feed_names(label: bytes, names) -> None:
            # Count-framed so adjacent lists cannot alias (['a'], ['b','c']
            # must hash differently from ['a','b'], ['c']).
            feed(label)
            feed(len(names).to_bytes(4, "big"))
            for name in names:
                feed(name.encode())

        for action in self.recoveries:
            feed(b"recovery")
            feed(action.round_number.to_bytes(8, "big"))
            feed(action.chain_id.to_bytes(4, "big"))
            feed_names(b"evicted", action.evicted)
            feed_names(b"servers", action.new_servers)
        feed_names(b"all-evicted", self.evicted_servers)
        return hasher.digest()


class ScenarioRunner:
    """Runs one fault plan against one deployment, segment by segment."""

    def __init__(
        self,
        deployment: "Deployment",
        plan: FaultPlan,
        staggered: bool = False,
        control=None,
    ) -> None:
        plan.validate()
        self.deployment = deployment
        self.plan = plan
        self.staggered = staggered
        #: Optional distributed-control hook (``repro.runner.remote``): told
        #: about fault installation and impending recovery so remote role
        #: replicas mirror the coordinator's state transitions.  ``None``
        #: in-process — the hooks are the *only* difference between the two
        #: code paths, which is what makes distributed parity by construction.
        self.control = control

    # -- setup ------------------------------------------------------------------

    def _absolute_link_faults(self, offset: int):
        """The plan's link faults as the transport matches them.

        A plan's round numbers are scenario-relative everywhere (server,
        user, *and* link faults); envelopes carry absolute round numbers, so
        the selectors are shifted before installation.  A plan names users,
        but a download frame addresses each of its users by mailbox, so a
        ``destination`` naming a user becomes the hex of her mailbox address.
        """
        mailboxes = {user.name: user.public_bytes.hex() for user in self.deployment.users}
        faults = []
        for fault in self.plan.link_faults:
            if offset and fault.rounds is not None:
                fault = dataclasses.replace(
                    fault, rounds=frozenset(offset + r for r in fault.rounds)
                )
            if fault.destination in mailboxes:
                fault = dataclasses.replace(fault, destination=mailboxes[fault.destination])
            faults.append(fault)
        return faults

    def _pick_conversation_pair(self, chain_id: int) -> Tuple[str, str]:
        """The first user pair (in deployment order) sharing ``chain_id``."""
        users = self.deployment.users
        for i, first in enumerate(users):
            for second in users[i + 1:]:
                shared = intersection_chain(
                    first.public_bytes, second.public_bytes, self.deployment.num_chains
                )
                if shared == chain_id:
                    return first.name, second.name
        raise ConfigurationError(f"no user pair intersects on chain {chain_id}")

    def _forge(self, fault: UserFault, absolute_round: int):
        deployment = self.deployment
        views = deployment.chain_keys_view(absolute_round)
        if fault.chain_id not in views:
            raise ConfigurationError(f"user fault targets unknown chain {fault.chain_id}")
        key = fault_key(self.plan.seed, fault)
        if fault.kind == USER_MISAUTHENTICATED:
            return forge_misauthenticated_submission(
                deployment.group,
                views[fault.chain_id],
                absolute_round,
                fault.sender,
                fail_at_position=fault.fail_at_position,
                stream_key=key,
            )
        return forge_invalid_proof_submission(
            deployment.group, views[fault.chain_id], absolute_round, fault.sender,
            stream_key=key,
        )

    # -- execution ----------------------------------------------------------------

    def run(self) -> ScenarioReport:
        plan = self.plan
        deployment = self.deployment

        # Scenario round r maps to absolute round offset + r.
        offset = deployment.next_round - 1
        link_faults = self._absolute_link_faults(offset)
        if isinstance(deployment.transport, FaultyTransport):
            # This plan is authoritative for its run: replace whatever a
            # previous scenario installed (possibly with nothing).
            deployment.transport.faults = list(link_faults)
        elif link_faults:
            deployment.use_transport(
                FaultyTransport(deployment.transport, link_faults),
                close_previous=False,  # the wrapper keeps delegating to it
            )

        chatters: Tuple[str, ...] = ()
        for first, second in plan.conversations:
            deployment.start_conversation(first, second)
        if plan.converse_on_chain is not None:
            pair = self._pick_conversation_pair(plan.converse_on_chain)
            deployment.start_conversation(*pair)
            chatters = pair

        report = ScenarioReport(plan_name=plan.name)
        for segment_start, segment_end in plan.segments():
            for fault in plan.server_faults:
                if segment_start <= fault.round_number <= segment_end:
                    if self.control is not None:
                        self.control.install_server_fault(
                            fault, offset + fault.round_number
                        )
                    install_tampering_server(
                        deployment,
                        fault.chain_id,
                        fault.position,
                        fault.mode,
                        target_index=fault.target_index,
                        stream_key=fault_key(plan.seed, fault),
                        rounds={offset + fault.round_number},
                    )
            specs = []
            for scenario_round in range(segment_start, segment_end + 1):
                absolute_round = offset + scenario_round
                extra = [
                    self._forge(fault, absolute_round)
                    for fault in plan.user_faults
                    if fault.round_number == scenario_round
                ]
                payloads = dict(plan.payloads.get(scenario_round, {}))
                offline = plan.offline.get(scenario_round, frozenset())
                for name in chatters:
                    if name not in offline:
                        payloads.setdefault(name, f"r{scenario_round}-{name}".encode())
                specs.append(
                    deployment.round_spec(
                        payloads=payloads,
                        offline_users=offline,
                        extra_submissions=extra,
                    )
                )
            for round_report in deployment.run_rounds(specs, staggered=self.staggered):
                report.rounds.append(self._outcome(round_report))
            if plan.recover:
                if self.control is not None:
                    self.control.before_recover(deployment)
                report.recoveries.extend(deployment.recover())
        # The plan's faults are scoped to its run: a deployment used after
        # the scenario must not keep dropping/replaying envelopes.
        if isinstance(deployment.transport, FaultyTransport):
            deployment.transport.faults = []
        report.evicted_servers = sorted(deployment.evicted_servers)
        return report

    @staticmethod
    def _outcome(round_report: "RoundReport") -> RoundOutcome:
        statuses = {
            chain_id: result.status
            for chain_id, result in sorted(round_report.chain_results.items())
        }
        verdicts = {
            chain_id: result.blame_verdict
            for chain_id, result in sorted(round_report.chain_results.items())
            if result.blame_verdict is not None
        }
        delivered = sum(
            len(messages) for messages in round_report.delivered.values()
        )
        return RoundOutcome(
            round_number=round_report.round_number,
            statuses=statuses,
            verdicts=verdicts,
            rejected_senders=list(round_report.rejected_senders),
            delivered_messages=delivered,
            fingerprint=round_report.canonical_bytes(),
            report=round_report,
        )
