"""Measured-from-traffic companions to the analytic figures.

The analytic models in :mod:`repro.simulation` *predict* XRD's costs from
closed forms; a round on the TCP transport *measures* them: its
report's trace (:mod:`repro.trace`) holds one link record per envelope,
with the wire bytes it actually carried.  This module puts the two side by
side, pricing each link with its own
:class:`~repro.simulation.costmodel.CostModel`:

* :func:`measured_vs_model_bandwidth` — the Figure 2 companion: mean
  per-user upload/download bytes of one round against
  :func:`repro.simulation.bandwidth.deployment_user_bandwidth` anchored to
  the same chain parameters.  The acceptance bar is agreement within 5%.
* :func:`measured_vs_model_latency` — the Figure 4/5 companion: the
  modelled time of the measured critical path (submission → slowest chain's
  hops → delivery → fetch, :func:`round_latency_seconds`) next to the
  network leg predicted from the configuration.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.constants import AEAD_TAG_SIZE, GROUP_ELEMENT_SIZE, PAYLOAD_SIZE
from repro.crypto.onion import onion_size
from repro.errors import SimulationError
from repro.mixnet.messages import mailbox_message_size
from repro.simulation.bandwidth import deployment_user_bandwidth, submission_wire_size
from repro.simulation.costmodel import CostModel
from repro.simulation.latency import messages_per_chain
from repro.trace import Link
from repro.transport import envelope as ev

#: The codec's framing: each batch blob carries a 4-byte count, each framed
#: item a 4-byte length prefix (see ``repro.transport.codec``).
_FRAME_PREFIX = 4

__all__ = [
    "measured_vs_model_bandwidth",
    "measured_vs_model_latency",
    "round_latency_seconds",
    "chain_hop_seconds",
]


def _measured_links(report) -> List[Link]:
    links = report.trace.links
    if not links or any(record.wire_bytes is None for record in links):
        raise SimulationError(
            f"round {report.round_number} has no wire bytes: measured figures need "
            "a deployment on a transport that encodes its payloads"
        )
    return links


def _seconds(record: Link, cost_model: CostModel) -> float:
    """A link's modelled one-way time: its bytes at the model's link speed, plus any delay."""
    return cost_model.link_time(record.wire_bytes or 0) + record.delay_seconds


def round_latency_seconds(links: List[Link], cost_model: CostModel) -> float:
    """Modelled end-to-end time of a round's critical path through ``links``.

    The round's data flow is: the submissions reach their entry servers
    (``SUBMISSION_BATCH`` frames, per chain from the population and per
    chain for any injected submissions; frames cross their links in
    parallel, so the slowest upload gates the start), the chains mix (each
    chain's batches traverse its hops *sequentially*; chains run in
    parallel, so the slowest chain gates delivery), the recovered records
    reach the mailbox servers (``MAILBOX_DELIVERY``, on the chain's path),
    and the users fetch (framed per shard, ``MAILBOX_FETCH_BATCH`` — the
    slowest fetch gates the end).  Banked covers stay off the critical
    path — they are uploads *for the next round*.
    """
    submission_max = fetch_max = 0.0
    chain_path: Dict[Optional[int], float] = {}
    for record in links:
        seconds = _seconds(record, cost_model)
        if record.kind == ev.SUBMISSION_BATCH:
            submission_max = max(submission_max, seconds)
        elif record.kind == ev.MAILBOX_FETCH_BATCH:
            fetch_max = max(fetch_max, seconds)
        elif record.kind in (ev.BATCH, ev.MAILBOX_DELIVERY):
            chain_path[record.chain_id] = chain_path.get(record.chain_id, 0.0) + seconds
    return submission_max + max(chain_path.values(), default=0.0) + fetch_max


def chain_hop_seconds(links: List[Link], cost_model: CostModel) -> Dict[int, float]:
    """Per-chain summed batch-hop time through ``links`` (mix stage only)."""
    totals: Dict[int, float] = {}
    for record in links:
        if record.kind == ev.BATCH and record.chain_id is not None:
            totals[record.chain_id] = (
                totals.get(record.chain_id, 0.0) + _seconds(record, cost_model)
            )
    return totals


def _per_user_frame_bytes(deployment, report) -> Dict:
    """Per-user upload/download bytes reconstructed from batch frames.

    The population uploads one framed ``SUBMISSION_BATCH`` per
    (chain, round) and downloads one ``MAILBOX_FETCH_BATCH`` per shard, so
    the trace carries frame totals rather than per-user records.  The
    split is exact under the same full-attendance assumption the mean
    comparison already makes: every submission of a deployment has the same
    wire size, so a chain frame divides evenly over its roster, and every
    online user downloads ℓ same-size messages, so a shard's fetch frame
    divides evenly over the owners that shard holds.  A frame of injected
    submissions (source ``INJECTED``) carries no honest user's bytes.
    """
    population = deployment.population
    shard_rosters: Dict[str, List[str]] = {}
    for user in population.users:
        shard = deployment.mailboxes.server_name_for(user.public_bytes)
        shard_rosters.setdefault(shard, []).append(user.name)
    uploads: Dict[str, float] = {}
    downloads: Dict[str, float] = {}
    for record in _measured_links(report):
        uploaded = record.kind in (ev.SUBMISSION_BATCH, ev.COVER_SUBMISSION_BATCH)
        if uploaded and record.source == ev.POPULATION:
            roster, totals = population.chain_rosters.get(record.chain_id, []), uploads
        elif record.kind == ev.MAILBOX_FETCH_BATCH:
            roster, totals = shard_rosters.get(record.source, []), downloads
        else:
            continue
        if roster:
            share = (record.wire_bytes or 0) / len(roster)
            for name in roster:
                totals[name] = totals.get(name, 0.0) + share
    return {
        user: (uploads.get(user, 0.0), downloads.get(user, 0.0))
        for user in set(uploads) | set(downloads)
    }


def measured_vs_model_bandwidth(deployment, report) -> Dict:
    """Mean measured per-user bytes of one round (its report) vs. the analytic prediction.

    The comparison is only meaningful for a round in which every user was
    online (offline users upload nothing, pulling the measured mean down).
    The per-user split is reconstructed from the population's batch frames
    (:func:`_per_user_frame_bytes`); the frames carry a length prefix
    per submission and the owner key on the download wire, so measured
    bytes sit slightly above the model's.
    """
    per_user = _per_user_frame_bytes(deployment, report)
    if not per_user:
        raise SimulationError(f"no traffic recorded for round {report.round_number}")
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
        "round": report.round_number,
        "users_measured": len(per_user),
        "measured_upload_bytes": measured_upload,
        "measured_download_bytes": measured_download,
        "model_upload_bytes": model.upload_bytes,
        "model_download_bytes": model.download_bytes,
        "upload_ratio": measured_upload / model.upload_bytes,
        "download_ratio": measured_download / model.download_bytes,
    }


def measured_vs_model_latency(deployment, report) -> Dict:
    """The measured critical path's link time vs. the configured network model.

    Links are priced with the paper's testbed (:meth:`CostModel.paper_testbed`).

    ``modelled_network_seconds`` rebuilds the same critical path from the
    configuration alone (uniform chain load ``R = M·ℓ/n``, per-hop batch
    sizes shrinking by one AEAD tag per layer), so measured vs. modelled
    quantifies how far real chain loads deviate from the uniform-load
    assumption — the network share of the Figure 4/5 analytic curves.
    """
    links = _measured_links(report)
    cost_model = CostModel.paper_testbed()
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
        "round": report.round_number,
        "measured_seconds": round_latency_seconds(links, cost_model),
        "modelled_network_seconds": submission + hops + delivery + fetch,
        "chain_hop_seconds": chain_hop_seconds(links, cost_model),
    }
