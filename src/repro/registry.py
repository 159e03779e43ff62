"""The two typed enums naming the deployment's seams (DESIGN.md §10.1).

The transport and the crypto kernel tier each have a fixed set of built-in
implementations, named by one :class:`str` :class:`~enum.Enum` per seam.
The enums subclass ``str``, so a plain string (``transport="tcp"``) compares
equal to its member, and :class:`~repro.coordinator.network.DeploymentConfig`
normalises it to the member on construction.  ``make_transport`` maps each
member straight to its constructor; there is no third-party extension
point — KISS (PAPERS.md): a seam with no runtime registration is a
configuration that cannot be half-wired.  (Execution has no seam: the
thread pool is the one production backend, DESIGN.md §2.2.)
"""

from __future__ import annotations

from enum import Enum

__all__ = ["TransportKind", "CryptoKernelKind"]


class TransportKind(str, Enum):
    """How cross-node envelopes travel (DESIGN.md §5, §10)."""

    INPROC = "inproc"
    TCP = "tcp"


class CryptoKernelKind(str, Enum):
    """Which implementation tier runs the batched crypto hot loops
    (DESIGN.md §11).

    ``PYTHON`` is the scalar reference everywhere, ``NATIVE`` adds the
    ``_xrdkernels`` C extension with transparent per-function fallback to
    the python tier.  Both are bit-identical; the parity matrix enforces it.
    The tier is process-global: ``XRD_CRYPTO_KERNEL`` or
    :func:`repro.crypto.kernels.set_active_kernel` selects it.
    """

    PYTHON = "python"
    NATIVE = "native"
