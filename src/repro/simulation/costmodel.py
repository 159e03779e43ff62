"""Per-operation cost models.

Two flavours of :class:`CostModel` are provided:

* :meth:`CostModel.paper_testbed` — constants calibrated so that the model
  reproduces the latency anchors the paper reports for its c4.8xlarge / Go /
  NaCl testbed (e.g., 2M users on 100 servers in ≈251 s, Figure 4/5).  This
  is what the figure benchmarks use.
* :meth:`CostModel.measured` — constants measured from this library's own
  primitives on the active kernel tier (see
  :mod:`repro.simulation.microbench`), useful to show how far this substrate
  is from the testbed's and to sanity-check that the model structure (not
  just the constants) is right.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import SimulationError

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Costs (in seconds) of the primitive operations the latency model composes."""

    #: One variable-base scalar multiplication / group exponentiation.
    scalar_mult: float
    #: Fixed cost of one authenticated encryption or decryption call.
    aead_fixed: float
    #: Additional AEAD cost per byte of plaintext.
    aead_per_byte: float
    #: Proving one Schnorr / Chaum-Pedersen NIZK (≈ 2 scalar mults + hashing).
    nizk_prove: float
    #: Verifying one NIZK (≈ 4 scalar mults + hashing).
    nizk_verify: float
    #: Effective per-message, per-hop processing cost on the mixing critical
    #: path (decrypt + blind + share of aggregate proof work).  For the
    #: paper-calibrated model this single constant is fit to the reported
    #: end-to-end numbers; for the measured model it is derived from the
    #: primitive costs above.
    mix_per_message_per_hop: float
    #: Server-to-server round-trip latency (the paper injects 40–100 ms).
    network_rtt: float = 0.07
    #: Link bandwidth in bytes per second (10 Gbps in the paper's testbed).
    link_bandwidth: float = 10e9 / 8
    #: Cores available per server (c4.8xlarge has 36 vCPUs).
    cores_per_server: int = 36
    #: Human-readable provenance of the constants.
    source: str = "unspecified"

    def __post_init__(self) -> None:
        for name in (
            "scalar_mult",
            "aead_fixed",
            "aead_per_byte",
            "nizk_prove",
            "nizk_verify",
            "mix_per_message_per_hop",
            "network_rtt",
            "link_bandwidth",
        ):
            if getattr(self, name) < 0:
                raise SimulationError(f"cost model field {name} must be non-negative")
        if self.cores_per_server < 1:
            raise SimulationError("cores_per_server must be at least 1")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def paper_testbed(cls) -> "CostModel":
        """Constants calibrated against the paper's reported measurements.

        The headline calibration point is Figure 4: 2M users, 100 servers,
        f = 0.2 (k ≈ 32 hops) completing in ≈251 s.  With each chain handling
        ``R = M·ℓ/n`` messages and the critical path being ``k`` sequential
        stages, ``251 ≈ k · (R · c + RTT)`` gives ``c ≈ 26-28 µs`` per
        message per hop; the same constant then predicts the paper's 1M, 4M
        and 8M points within a few percent.
        """
        scalar_mult = 80e-6  # a Curve25519 operation on one Xeon core, in Go
        return cls(
            scalar_mult=scalar_mult,
            aead_fixed=1e-6,
            aead_per_byte=2e-9,
            nizk_prove=2 * scalar_mult,
            nizk_verify=4 * scalar_mult,
            mix_per_message_per_hop=27.8e-6,
            network_rtt=0.07,
            link_bandwidth=10e9 / 8,
            cores_per_server=36,
            source="paper-calibrated (c4.8xlarge testbed anchors)",
        )

    @classmethod
    def from_primitive_costs(
        cls,
        scalar_mult: float,
        aead_fixed: float,
        aead_per_byte: float,
        payload_size: int = 256,
        cores_per_server: int = 1,
        network_rtt: float = 0.07,
        source: str = "measured",
    ) -> "CostModel":
        """Build a model from primitive costs (e.g., microbenchmarks of this library).

        The per-message per-hop cost is derived structurally: one DH scalar
        multiplication for the layer key, one scalar multiplication for
        blinding, and one AEAD decryption of roughly the onion size, divided
        by the cores available for the embarrassingly parallel per-message
        work.
        """
        per_message = (
            2 * scalar_mult + aead_fixed + aead_per_byte * (payload_size + 128)
        ) / max(1, cores_per_server)
        return cls(
            scalar_mult=scalar_mult,
            aead_fixed=aead_fixed,
            aead_per_byte=aead_per_byte,
            nizk_prove=2 * scalar_mult,
            nizk_verify=4 * scalar_mult,
            mix_per_message_per_hop=per_message,
            network_rtt=network_rtt,
            cores_per_server=cores_per_server,
            source=source,
        )

    # -- derived helpers ------------------------------------------------------------

    def with_rtt(self, network_rtt: float) -> "CostModel":
        """Return a copy with a different server-to-server RTT."""
        return replace(self, network_rtt=network_rtt)

    def transmit_time(self, num_bytes: float) -> float:
        """Time to push ``num_bytes`` over one link."""
        return num_bytes / self.link_bandwidth

    def link_time(self, num_bytes: float) -> float:
        """One-way time for ``num_bytes`` to cross one link.

        Half the round-trip time (propagation) plus the transmission time at
        the link bandwidth.  This is the price
        :mod:`repro.analysis.measured` puts on each link a round's trace
        recorded, built from the same constants the analytic latency model
        composes — so measured-from-traffic and modelled figures are
        directly comparable.
        """
        return self.network_rtt / 2 + self.transmit_time(num_bytes)

    def client_message_cost(self, chain_length: int) -> float:
        """Client-side cost of building one AHS onion for a chain of ``chain_length``.

        One scalar multiplication per outer layer plus two for the inner
        envelope, two for the ephemeral public keys, the AEAD work, and the
        submission NIZK.
        """
        return (
            (chain_length + 4) * self.scalar_mult
            + (chain_length + 2) * self.aead_fixed
            + self.nizk_prove
        )

    def blame_per_message_per_layer(self) -> float:
        """Cost of one blame-protocol step: two DLEQ verifications plus a decryption.

        Per flagged ciphertext and per hop walked — the paper's unit (§8.2),
        and what the executed protocol spends: the hop-wise walk of
        ``mixnet/blame.py`` batches a hop's checks over the flagged set
        (one proof batch, one key batch, one open batch) but does the same
        two verifications and one open per ciphertext.
        """
        return 2 * self.nizk_verify + self.aead_fixed
