"""Control-plane protocol and run-spec serialisation for the runner.

Everything the coordinator tells a role process travels as a ``CONTROL``
frame (:mod:`repro.transport.frames`) whose body is one opcode byte plus an
op-specific payload.  Two payload styles are used:

* JSON (sorted keys, UTF-8) for structural data — peer maps, fault
  descriptions, recovery state.  Control messages are not parity
  instruments, so readability wins over compactness.
* The binary wire codecs of :mod:`repro.transport.codec` for the ``MIX``
  request/response, whose submission batches and chain outcomes already
  have canonical encodings that *are* parity instruments.

This module also serialises the run spec itself — the
:class:`~repro.coordinator.network.DeploymentConfig` and the
:class:`~repro.faults.plan.FaultPlan` — to JSON files the launch CLI hands
to each process, plus the config digest the TCP handshake compares so two
processes launched from different configs refuse to talk.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Dict, List, Tuple

from repro.coordinator.network import DeploymentConfig
from repro.errors import DecodingError
from repro.faults.plan import FaultPlan, ServerFault, UserFault
from repro.transport.faulty import LinkFault

__all__ = [
    "OP_PING",
    "OP_PEERS",
    "OP_MIX",
    "OP_INSTALL_FAULT",
    "OP_RECOVER",
    "OP_SHUTDOWN",
    "encode_control",
    "split_control",
    "encode_json_control",
    "decode_json_payload",
    "encode_mix_request",
    "decode_mix_request",
    "decode_recover_request",
    "config_to_dict",
    "config_from_dict",
    "config_digest",
    "plan_to_dict",
    "plan_from_dict",
    "scenario_summary",
]

#: Liveness probe; reply ``b"pong"``.
OP_PING = 1
#: Install the peer-address and node-ownership maps on a role's transport.
OP_PEERS = 2
#: Execute one chain's round on the owning mix role; binary payload.
OP_MIX = 3
#: Install a deterministic tampering server on every role replica.
OP_INSTALL_FAULT = 4
#: Mirror the coordinator's pending convictions and run recovery.
OP_RECOVER = 5
#: Leave the serve loop; the role process exits.
OP_SHUTDOWN = 6


def encode_control(op: int, payload: bytes = b"") -> bytes:
    return bytes([op]) + payload


def split_control(body: bytes) -> Tuple[int, bytes]:
    if not body:
        raise DecodingError("empty control body")
    return body[0], body[1:]


def encode_json_control(op: int, obj: object) -> bytes:
    return encode_control(op, json.dumps(obj, sort_keys=True).encode())


def decode_json_payload(payload: bytes) -> Any:
    try:
        return json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DecodingError(f"malformed control JSON: {exc}") from exc


# -- the MIX request ------------------------------------------------------------
#
# ``chain_id (4B) || round (8B) || submission batch``
# where the batch is the coordinator-assembled per-chain
# ``SubmissionBatch.to_wire()`` (a ``SUBMISSION_BATCH`` payload).  The reply is
# :func:`repro.transport.codec.encode_chain_outcome`.


def encode_mix_request(chain_id: int, round_number: int, batch: bytes) -> bytes:
    return b"".join((chain_id.to_bytes(4, "big"), round_number.to_bytes(8, "big"), batch))


def decode_mix_request(payload: bytes) -> Tuple[int, int, bytes]:
    if len(payload) < 12:
        raise DecodingError("truncated mix request")
    chain_id = int.from_bytes(payload[:4], "big")
    round_number = int.from_bytes(payload[4:12], "big")
    return chain_id, round_number, payload[12:]


# -- the RECOVER request ----------------------------------------------------------
#
# JSON ``{"pending": [[round, chain id, [server, ...]], ...]}``: the
# coordinator's pending convictions, in the order its deliver stage noted them.


def decode_recover_request(payload: bytes) -> List[Tuple[int, int, Tuple[str, ...]]]:
    """The pending convictions of a ``RECOVER`` body, every entry checked
    before any is returned, so a refused request changes nothing."""
    data = decode_json_payload(payload)
    pending = data.get("pending") if isinstance(data, dict) else None
    if not isinstance(pending, list):
        raise DecodingError("a RECOVER body needs a list of pending convictions")
    parsed = []
    for entry in pending:
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and all(type(field) is int for field in entry[:2])
            and isinstance(entry[2], list)
            and all(isinstance(server, str) for server in entry[2])
        ):
            raise DecodingError(f"malformed pending conviction {entry!r}")
        parsed.append((entry[0], entry[1], tuple(entry[2])))
    return parsed


# -- config serialisation --------------------------------------------------------

def config_to_dict(config: DeploymentConfig) -> Dict:
    """A JSON-serialisable dict of the config (enum knobs as their values)."""
    data = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, enum.Enum):
            value = value.value
        data[field.name] = value
    return data


def config_from_dict(data: Dict) -> DeploymentConfig:
    """Rebuild a config (``__post_init__`` turns knob strings back into members)."""
    return DeploymentConfig(**data)


def config_digest(config: DeploymentConfig) -> bytes:
    """The handshake digest: sha256 of the canonical config JSON."""
    canonical = json.dumps(config_to_dict(config), sort_keys=True).encode()
    return hashlib.sha256(canonical).digest()


# -- fault-plan serialisation ----------------------------------------------------


def plan_to_dict(plan: FaultPlan) -> Dict:
    def link_fault_dict(fault: LinkFault) -> Dict:
        data = dataclasses.asdict(fault)
        data["rounds"] = sorted(fault.rounds) if fault.rounds is not None else None
        return data

    return {
        "name": plan.name,
        "num_rounds": plan.num_rounds,
        "server_faults": [dataclasses.asdict(f) for f in plan.server_faults],
        "user_faults": [dataclasses.asdict(f) for f in plan.user_faults],
        "link_faults": [link_fault_dict(f) for f in plan.link_faults],
        "conversations": [list(pair) for pair in plan.conversations],
        "converse_on_chain": plan.converse_on_chain,
        "payloads": {
            str(round_number): {name: payload.hex() for name, payload in per_user.items()}
            for round_number, per_user in plan.payloads.items()
        },
        "offline": {
            str(round_number): sorted(names)
            for round_number, names in plan.offline.items()
        },
        "recover": plan.recover,
        "seed": plan.seed,
    }


def plan_from_dict(data: Dict) -> FaultPlan:
    def link_fault(entry: Dict) -> LinkFault:
        entry = dict(entry)
        if entry.get("rounds") is not None:
            entry["rounds"] = frozenset(entry["rounds"])
        return LinkFault(**entry)

    return FaultPlan(
        name=data["name"],
        num_rounds=data["num_rounds"],
        server_faults=tuple(ServerFault(**entry) for entry in data["server_faults"]),
        user_faults=tuple(UserFault(**entry) for entry in data["user_faults"]),
        link_faults=tuple(link_fault(entry) for entry in data["link_faults"]),
        conversations=tuple(tuple(pair) for pair in data["conversations"]),
        converse_on_chain=data["converse_on_chain"],
        payloads={
            int(round_number): {
                name: bytes.fromhex(payload) for name, payload in per_user.items()
            }
            for round_number, per_user in data["payloads"].items()
        },
        offline={
            int(round_number): frozenset(names)
            for round_number, names in data["offline"].items()
        },
        recover=data["recover"],
        seed=data["seed"],
    )


# -- report serialisation --------------------------------------------------------


def scenario_summary(report: Any) -> Dict:
    """A JSON-able summary of a :class:`~repro.faults.runner.ScenarioReport`.

    Carries the parity instruments — the per-round
    :meth:`~repro.engine.stages.RoundReport.canonical_bytes` fingerprints
    and the scenario's canonical digest, as hex — plus the human-readable
    outcome.  The distributed parity test compares the summary a
    coordinator subprocess wrote against one computed from an in-process
    reference run.
    """
    return {
        "plan": report.plan_name,
        "canonical": report.canonical_bytes().hex(),
        "rounds": [
            {
                "round": outcome.round_number,
                "fingerprint": outcome.fingerprint.hex(),
                "statuses": {
                    str(chain_id): status
                    for chain_id, status in outcome.statuses.items()
                },
                "delivered_messages": outcome.delivered_messages,
                "rejected_senders": list(outcome.rejected_senders),
            }
            for outcome in report.rounds
        ],
        "recoveries": [
            {
                "round": action.round_number,
                "chain": action.chain_id,
                "evicted": list(action.evicted),
                "new_servers": list(action.new_servers),
            }
            for action in report.recoveries
        ],
        "evicted_servers": list(report.evicted_servers),
        "convicted_servers": report.convicted_servers(),
    }
