"""Pung (OSDI'16 / SealPIR follow-up) — a calibrated cost model.

Pung provides metadata-private messaging with *cryptographic* privacy against
an adversary controlling **all** servers, by storing every message in a
key-value store that clients read through computational PIR.  The price is
that per-user work grows with the total number of users, so total work grows
super-linearly and throughput is limited by PIR computation (§2, §8.2).

:class:`PungModel` gives latency / bandwidth / computation estimators for
the XPIR and SealPIR variants, calibrated to the comparison points the paper
reports (272 s @ 1M and 927 s @ 2M users on 100 servers; 5.8 MB per user per
round of XPIR bandwidth at 1M users).
"""

from __future__ import annotations

import math

from repro.baselines.common import SystemModel
from repro.errors import ConfigurationError

__all__ = ["PungModel"]


class PungModel(SystemModel):
    """Calibrated Pung estimator (XPIR or SealPIR variant)."""

    name = "Pung"
    privacy = "cryptographic"
    threat_model = "all servers may be malicious (CPIR)"

    #: Quadratic latency fit through the paper's N = 100 anchors:
    #: 272 s @ 1M users and 927 s @ 2M users.
    LINEAR_COEFF = 8.05e-5  # seconds per user
    QUADRATIC_COEFF = 1.915e-10  # seconds per user^2

    #: XPIR per-user bandwidth: ≈5.8 MB at 1M users, growing as √M (§8.1).
    XPIR_BANDWIDTH_AT_1M = 5.8e6
    #: SealPIR compresses queries; per-user traffic is comparable to XRD's.
    SEALPIR_BANDWIDTH_BYTES = 96e3

    #: Client-side CPU for query generation / answer decoding (Figure 3).
    XPIR_COMPUTE_AT_1M = 0.18
    SEALPIR_COMPUTE_SECONDS = 0.04

    def __init__(self, variant: str = "xpir") -> None:
        if variant not in ("xpir", "sealpir"):
            raise ConfigurationError("Pung variant must be 'xpir' or 'sealpir'")
        self.variant = variant
        self.name = "Pung (XPIR)" if variant == "xpir" else "Pung (SealPIR)"

    def latency(self, num_users: int, num_servers: int) -> float:
        at_100 = self.LINEAR_COEFF * num_users + self.QUADRATIC_COEFF * num_users**2
        return at_100 * (100.0 / num_servers)

    def user_bandwidth(self, num_users: int, num_servers: int) -> float:
        if self.variant == "sealpir":
            return self.SEALPIR_BANDWIDTH_BYTES
        return self.XPIR_BANDWIDTH_AT_1M * math.sqrt(max(num_users, 1) / 1e6)

    def user_compute(self, num_users: int, num_servers: int) -> float:
        if self.variant == "sealpir":
            return self.SEALPIR_COMPUTE_SECONDS
        return self.XPIR_COMPUTE_AT_1M * math.sqrt(max(num_users, 1) / 1e6)

