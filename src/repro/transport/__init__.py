"""The message-passing transport layer (DESIGN.md §5, §10).

Every cross-node interaction of the deployment — client→entry-server
submission batch, server→server batch flow inside a chain, chain→mailbox
delivery, and the users' mailbox fetch — travels as a typed
:class:`Envelope` over a pluggable :class:`Transport`:

* :class:`InProcTransport` — reference semantics: delivery hands the
  payload object through unchanged (bit-identical to the pre-transport
  in-process simulation).
* :class:`~repro.transport.tcp.TcpTransport` — production: sends each
  payload's real wire encoding over TCP sockets as length-prefixed frames
  (:mod:`repro.transport.frames`) and delivers the payload *decoded* from
  the reply, so its parity with the reference proves the codecs lossless.
  The process-per-role runner (:mod:`repro.runner`) deploys it across OS
  processes, and the standalone ``transport="tcp"`` knob runs it against a
  loopback reflector.

Every transport records one link per envelope it carries — with its wire
bytes, where it encodes the payload — in the round's trace
(:mod:`repro.trace`, DESIGN.md §13).  :func:`make_transport` maps each
:class:`~repro.registry.TransportKind` straight to its constructor.
"""

from typing import Any, Callable, Dict, Union

from repro.errors import ConfigurationError
from repro.registry import TransportKind
from repro.transport.base import Transport
from repro.transport.envelope import (
    BATCH,
    COVER_SUBMISSION_BATCH,
    ENVELOPE_KINDS,
    MAILBOX_DELIVERY,
    MAILBOX_FETCH_BATCH,
    SUBMISSION_BATCH,
    Envelope,
)
from repro.transport.faulty import FaultyTransport, LinkFault
from repro.transport.inproc import InProcTransport

__all__ = [
    "Transport",
    "InProcTransport",
    "FaultyTransport",
    "LinkFault",
    "Envelope",
    "BATCH",
    "MAILBOX_DELIVERY",
    "SUBMISSION_BATCH",
    "COVER_SUBMISSION_BATCH",
    "MAILBOX_FETCH_BATCH",
    "ENVELOPE_KINDS",
    "make_transport",
]


def _loopback_tcp(group: Any) -> Transport:
    """The standalone knob: a loopback reflector in this process."""
    from repro.transport.tcp import TcpTransport

    return TcpTransport(group, node_name="loopback")


#: Each kind's constructor, called with the deployment's group.
_CONSTRUCTORS: Dict[TransportKind, Callable[[Any], Transport]] = {
    TransportKind.INPROC: lambda group: InProcTransport(),
    TransportKind.TCP: _loopback_tcp,
}


def make_transport(kind: Union[str, TransportKind], group: Any = None) -> Transport:
    """Build the transport a :class:`~repro.registry.TransportKind` (or its
    string) names; an unknown name raises :class:`ValueError`."""
    kind = TransportKind(kind)
    if group is None and kind is not TransportKind.INPROC:
        raise ConfigurationError(f"the {kind.value} transport needs the deployment's group")
    return _CONSTRUCTORS[kind](group)
