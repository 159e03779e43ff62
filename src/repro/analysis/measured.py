"""Measured-from-traffic companions to the analytic figures.

The analytic models in :mod:`repro.simulation` *predict* XRD's costs from
closed forms; a deployment on the instrumented transport *measures* them
from the wire bytes its envelopes actually carried.  This module puts the
two side by side:

* :func:`measured_vs_model_bandwidth` — the Figure 2 companion: mean
  per-user upload/download bytes per round from the traffic ledger against
  :func:`repro.simulation.bandwidth.deployment_user_bandwidth` anchored to
  the same chain parameters.  The acceptance bar is agreement within 5%.
* :func:`measured_vs_model_latency` — the Figure 4/5 companion: the
  modelled time of the measured critical path (submission → slowest chain's
  hops → delivery → fetch) next to the network leg predicted from the
  configuration, and the closed-form end-to-end estimate (which also prices
  compute, so it is reported for context rather than compared).
"""

from __future__ import annotations

from typing import Dict, List

from repro.constants import AEAD_TAG_SIZE, GROUP_ELEMENT_SIZE, PAYLOAD_SIZE
from repro.crypto.onion import onion_size
from repro.errors import SimulationError
from repro.mixnet.messages import mailbox_message_size
from repro.simulation.bandwidth import deployment_user_bandwidth, submission_wire_size
from repro.simulation.latency import messages_per_chain

#: The codec's framing: each batch blob carries a 4-byte count, each framed
#: item a 4-byte length prefix (see ``repro.transport.codec``).
_FRAME_PREFIX = 4

__all__ = ["measured_vs_model_bandwidth", "measured_vs_model_latency"]


def _ledger_or_raise(deployment):
    ledger = deployment.traffic_ledger
    if ledger is None:
        raise SimulationError(
            "measured figures need a deployment on the instrumented transport"
        )
    return ledger


def _per_user_frame_bytes(deployment, round_number: int) -> Dict:
    """Per-user upload/download bytes reconstructed from batch frames.

    The population uploads one framed ``SUBMISSION_BATCH`` per
    (chain, round) and downloads one ``MAILBOX_FETCH_BATCH`` per shard, so
    the ledger carries frame totals rather than per-user records.  The
    split is exact under the same full-attendance assumption the mean
    comparison already makes: every submission of a deployment has the same
    wire size, so a chain frame divides evenly over its roster, and every
    online user downloads ℓ same-size messages, so a shard's fetch frame
    divides evenly over the owners that shard holds.
    """
    from repro.transport import (
        COVER_SUBMISSION_BATCH,
        MAILBOX_FETCH_BATCH,
        SUBMISSION_BATCH,
    )

    ledger = _ledger_or_raise(deployment)
    population = deployment.population
    shard_rosters: Dict[str, List[str]] = {}
    for user in population.users:
        shard = deployment.mailboxes.server_name_for(user.public_bytes)
        shard_rosters.setdefault(shard, []).append(user.name)
    uploads: Dict[str, float] = {}
    downloads: Dict[str, float] = {}
    for record in ledger.records_for_round(round_number):
        if record.kind in (SUBMISSION_BATCH, COVER_SUBMISSION_BATCH):
            roster, totals = population.chain_rosters.get(record.chain_id, []), uploads
        elif record.kind == MAILBOX_FETCH_BATCH:
            roster, totals = shard_rosters.get(record.source, []), downloads
        else:
            continue
        if roster:
            share = record.num_bytes / len(roster)
            for name in roster:
                totals[name] = totals.get(name, 0.0) + share
    return {
        user: (uploads.get(user, 0.0), downloads.get(user, 0.0))
        for user in set(uploads) | set(downloads)
    }


def measured_vs_model_bandwidth(deployment, round_number: int) -> Dict:
    """Mean measured per-user bytes for one round vs. the analytic prediction.

    The comparison is only meaningful for a round in which every user was
    online (offline users upload nothing, pulling the measured mean down).
    The per-user split is reconstructed from the population's batch frames
    (:func:`_per_user_frame_bytes`); the frames carry a length prefix
    per submission and the owner key on the download wire, so measured
    bytes sit slightly above the model's.
    """
    per_user = _per_user_frame_bytes(deployment, round_number)
    if not per_user:
        raise SimulationError(f"no traffic recorded for round {round_number}")
    uploads = [upload for upload, _ in per_user.values()]
    downloads = [download for _, download in per_user.values()]
    config = deployment.config
    model = deployment_user_bandwidth(
        deployment.num_chains,
        config.resolved_chain_length(),
        payload_size=PAYLOAD_SIZE,
        cover_messages=config.use_cover_messages,
        num_servers=config.num_servers,
    )
    measured_upload = sum(uploads) / len(uploads)
    measured_download = sum(downloads) / len(downloads)
    return {
        "round": round_number,
        "users_measured": len(per_user),
        "measured_upload_bytes": measured_upload,
        "measured_download_bytes": measured_download,
        "model_upload_bytes": model.upload_bytes,
        "model_download_bytes": model.download_bytes,
        "upload_ratio": measured_upload / model.upload_bytes,
        "download_ratio": measured_download / model.download_bytes,
    }


def measured_vs_model_latency(deployment, round_number: int) -> Dict:
    """The measured critical path's link time vs. the configured network model.

    ``modelled_network_seconds`` rebuilds the same critical path from the
    configuration alone (uniform chain load ``R = M·ℓ/n``, per-hop batch
    sizes shrinking by one AEAD tag per layer), so measured vs. modelled
    quantifies how far real chain loads deviate from the uniform-load
    assumption — the network share of the Figure 4/5 analytic curves.
    """
    ledger = _ledger_or_raise(deployment)
    cost_model = getattr(deployment.transport, "cost_model", None)
    if cost_model is None:
        raise SimulationError("the deployment's transport carries no link cost model")
    config = deployment.config
    num_chains = deployment.num_chains
    chain_length = config.resolved_chain_length()
    ell = deployment.ell()
    load = messages_per_chain(config.num_users, num_chains)
    # Entry ciphertexts start at onion size minus the separately-carried DH
    # key and lose one AEAD tag per hop; each batch entry adds the key back
    # plus a length prefix, each batch blob a count prefix.
    first_ciphertext = onion_size(chain_length, PAYLOAD_SIZE) - GROUP_ELEMENT_SIZE
    hops = 0.0
    for hop in range(1, chain_length):
        entry_bytes = GROUP_ELEMENT_SIZE + _FRAME_PREFIX + (first_ciphertext - hop * AEAD_TAG_SIZE)
        hops += cost_model.link_time(_FRAME_PREFIX + load * entry_bytes)
    framed_mailbox = _FRAME_PREFIX + mailbox_message_size(PAYLOAD_SIZE)
    delivery = cost_model.link_time(_FRAME_PREFIX + load * framed_mailbox)
    submission = cost_model.link_time(submission_wire_size(chain_length))
    fetch = cost_model.link_time(_FRAME_PREFIX + ell * framed_mailbox)
    return {
        "round": round_number,
        "measured_seconds": ledger.round_latency_seconds(round_number),
        "modelled_network_seconds": submission + hops + delivery + fetch,
        "chain_hop_seconds": ledger.chain_hop_seconds(round_number),
    }
