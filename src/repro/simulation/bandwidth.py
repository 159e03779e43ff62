"""User-side cost models: bandwidth (Figure 2) and computation (Figure 3).

A user's per-round traffic is ``2·ℓ`` uploads (current-round messages plus
the cover set for the next round, §5.3.3) of one onion each, plus the
download of her ℓ-message mailbox.  Both grow as ``√(2N)`` because ℓ does —
the cost XRD pays for horizontal scalability (§8.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.client.chain_selection import ell_for_chains
from repro.constants import (
    CHAIN_SECURITY_BITS,
    DEFAULT_MALICIOUS_FRACTION,
    PAYLOAD_SIZE,
    ROUND_DURATION_SECONDS,
    SUBMISSION_OVERHEAD,
)
from repro.crypto.onion import onion_size
from repro.errors import SimulationError
from repro.mixnet.chain import required_chain_length
from repro.mixnet.messages import mailbox_message_size
from repro.simulation.costmodel import CostModel

__all__ = [
    "UserCost",
    "xrd_user_bandwidth",
    "xrd_user_compute",
    "submission_wire_size",
    "deployment_user_bandwidth",
]

#: Serialisation overhead of one submission beyond the onion itself: chain
#: id + sender length prefix (6), the fixed-width sender field, and the
#: Schnorr proof (element commitment + scalar response).  The onion size
#: already counts the outer DH key ``X``.  This is exactly
#: ``repro.constants.SUBMISSION_OVERHEAD``, the overhead of
#: ``ClientSubmission.to_bytes`` — the TCP transport measures the
#: same bytes this model predicts.
_SUBMISSION_HEADER_BYTES = SUBMISSION_OVERHEAD


@dataclass(frozen=True)
class UserCost:
    """Per-round, per-user cost summary."""

    num_servers: int
    ell: int
    chain_length: int
    upload_bytes: int
    download_bytes: int
    compute_seconds: float

    @property
    def total_bytes(self) -> int:
        return self.upload_bytes + self.download_bytes

    def bandwidth_kbps(self, round_duration: float = ROUND_DURATION_SECONDS) -> float:
        """Average sustained bandwidth in kilobits per second."""
        if round_duration <= 0:
            raise SimulationError("round duration must be positive")
        return self.total_bytes * 8 / round_duration / 1000


def submission_wire_size(
    chain_length: int, payload_size: int = PAYLOAD_SIZE, ahs: bool = True
) -> int:
    """Wire size in bytes of one client submission (onion + proof + header)."""
    return onion_size(chain_length, payload_size, ahs=ahs) + _SUBMISSION_HEADER_BYTES


def deployment_user_bandwidth(
    num_chains: int,
    chain_length: int,
    payload_size: int = PAYLOAD_SIZE,
    cover_messages: bool = True,
    num_servers: Optional[int] = None,
) -> UserCost:
    """Per-round user bandwidth from explicit chain parameters.

    This is the arithmetic core of :func:`xrd_user_bandwidth`, exposed so a
    prediction can be anchored to a *concrete* deployment (whose chain
    length may be capped at its server count) and compared against the
    bytes the TCP transport actually measured — see
    :func:`repro.analysis.measured.measured_vs_model_bandwidth`.
    """
    ell = ell_for_chains(num_chains)
    per_message = submission_wire_size(chain_length, payload_size)
    multiplier = 2 if cover_messages else 1
    upload = multiplier * ell * per_message
    download = ell * mailbox_message_size(payload_size)
    return UserCost(
        num_servers=num_servers if num_servers is not None else num_chains,
        ell=ell,
        chain_length=chain_length,
        upload_bytes=upload,
        download_bytes=download,
        compute_seconds=0.0,
    )


def xrd_user_bandwidth(
    num_servers: int,
    malicious_fraction: float = DEFAULT_MALICIOUS_FRACTION,
    num_chains: Optional[int] = None,
    payload_size: int = PAYLOAD_SIZE,
    cover_messages: bool = True,
    security_bits: int = CHAIN_SECURITY_BITS,
) -> UserCost:
    """Per-round user bandwidth for a network of ``num_servers`` servers (Figure 2)."""
    num_chains = num_chains if num_chains is not None else num_servers
    chain_length = required_chain_length(malicious_fraction, num_chains, security_bits)
    return deployment_user_bandwidth(
        num_chains,
        chain_length,
        payload_size=payload_size,
        cover_messages=cover_messages,
        num_servers=num_servers,
    )


def xrd_user_compute(
    num_servers: int,
    malicious_fraction: float = DEFAULT_MALICIOUS_FRACTION,
    num_chains: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
    cover_messages: bool = True,
    security_bits: int = CHAIN_SECURITY_BITS,
) -> UserCost:
    """Per-round single-core user computation (Figure 3).

    Building one submission costs roughly one scalar multiplication per outer
    layer (the per-layer Diffie-Hellman), two for the inner envelope, two for
    the ephemeral keys, the layered AEAD work, and one NIZK; the cover set
    doubles it.  Decrypting the mailbox costs one AEAD per received message.
    """
    cost_model = cost_model or CostModel.paper_testbed()
    num_chains = num_chains if num_chains is not None else num_servers
    ell = ell_for_chains(num_chains)
    chain_length = required_chain_length(malicious_fraction, num_chains, security_bits)
    multiplier = 2 if cover_messages else 1
    compute = multiplier * ell * cost_model.client_message_cost(chain_length)
    compute += ell * cost_model.aead_fixed
    bandwidth = xrd_user_bandwidth(
        num_servers,
        malicious_fraction,
        num_chains,
        cover_messages=cover_messages,
        security_bits=security_bits,
    )
    return UserCost(
        num_servers=num_servers,
        ell=ell,
        chain_length=chain_length,
        upload_bytes=bandwidth.upload_bytes,
        download_bytes=bandwidth.download_bytes,
        compute_seconds=compute,
    )
