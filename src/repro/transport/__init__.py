"""The message-passing transport layer (DESIGN.md §5, §10).

Every cross-node interaction of the deployment — client→entry-server
submission, server→server batch flow inside a chain, chain→mailbox
delivery, and the user's mailbox fetch — travels as a typed
:class:`Envelope` over a pluggable :class:`Transport`:

* :class:`InProcTransport` — reference semantics: delivery hands the
  payload object through unchanged (bit-identical to the pre-transport
  in-process simulation).
* :class:`InstrumentedTransport` — serialises each payload to its real
  wire encoding, accounts bytes and modelled per-link latency in a
  :class:`TrafficLedger`, and delivers the *decoded* payload, proving the
  codecs lossless.
* :class:`~repro.transport.tcp.TcpTransport` — sends the wire encoding
  over real TCP sockets as length-prefixed frames
  (:mod:`repro.transport.frames`); the process-per-role runner
  (:mod:`repro.runner`) deploys it across OS processes, and the standalone
  ``transport="tcp"`` knob runs it against a loopback reflector.

Transports are registered in the typed component registry
(:data:`repro.registry.TRANSPORTS`); :func:`make_transport` is a thin
wrapper over it, and external transports register there without touching
this package.
"""

from typing import Any

from repro.registry import TRANSPORTS, TransportKind
from repro.transport.base import Transport
from repro.transport.envelope import (
    BATCH,
    COVER_SUBMISSION,
    COVER_SUBMISSION_BATCH,
    ENVELOPE_KINDS,
    MAILBOX_DELIVERY,
    MAILBOX_FETCH_BATCH,
    SUBMISSION,
    SUBMISSION_BATCH,
    Envelope,
)
from repro.transport.faulty import FaultyTransport, LinkFault
from repro.transport.inproc import InProcTransport
from repro.transport.instrumented import InstrumentedTransport
from repro.transport.metrics import LinkRecord, TrafficLedger

__all__ = [
    "Transport",
    "InProcTransport",
    "InstrumentedTransport",
    "FaultyTransport",
    "LinkFault",
    "TrafficLedger",
    "LinkRecord",
    "Envelope",
    "SUBMISSION",
    "COVER_SUBMISSION",
    "BATCH",
    "MAILBOX_DELIVERY",
    "SUBMISSION_BATCH",
    "COVER_SUBMISSION_BATCH",
    "MAILBOX_FETCH_BATCH",
    "ENVELOPE_KINDS",
    "make_transport",
]


def _make_inproc(group: Any = None, cost_model: Any = None) -> Transport:
    return InProcTransport()


def _make_instrumented(group: Any = None, cost_model: Any = None) -> Transport:
    from repro.errors import ConfigurationError

    if group is None:
        raise ConfigurationError("the instrumented transport needs the deployment's group")
    return InstrumentedTransport(group, cost_model=cost_model)


def _make_tcp(group: Any = None, cost_model: Any = None) -> Transport:
    """The standalone knob: a loopback reflector in this process."""
    from repro.errors import ConfigurationError
    from repro.transport.tcp import TcpTransport

    if group is None:
        raise ConfigurationError("the tcp transport needs the deployment's group")
    return TcpTransport(group, node_name="loopback")


if not TRANSPORTS.is_known(TransportKind.INPROC):  # tolerate module re-import
    TRANSPORTS.register(TransportKind.INPROC, _make_inproc)
    TRANSPORTS.register(TransportKind.INSTRUMENTED, _make_instrumented)
    TRANSPORTS.register(TransportKind.TCP, _make_tcp)


def make_transport(kind: Any, group: Any = None, cost_model: Any = None) -> Transport:
    """Build a transport from a :class:`~repro.registry.TransportKind` (or a
    registered name) via the component registry."""
    return TRANSPORTS.create(kind, group=group, cost_model=cost_model)
