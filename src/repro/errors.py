"""Exception hierarchy for the XRD reproduction.

Every error raised by the library derives from :class:`XRDError` so that
applications embedding the library can catch a single base class.  The
sub-classes mirror the failure modes the paper describes: malformed or
misauthenticated ciphertexts, failed zero-knowledge proofs, protocol-state
violations, and blame-protocol outcomes.
"""

from __future__ import annotations


class XRDError(Exception):
    """Base class for all errors raised by this library."""


class CryptoError(XRDError):
    """Base class for failures inside the cryptographic substrate."""


class DecodingError(CryptoError):
    """A byte string could not be decoded into a group element or scalar."""


class ProofError(CryptoError):
    """A zero-knowledge proof failed to verify."""


class ProtocolError(XRDError):
    """A participant deviated from the expected protocol state machine."""


class ConfigurationError(XRDError):
    """A deployment or protocol parameter is invalid or inconsistent."""


class ChainSelectionError(XRDError):
    """The chain-selection algorithm was invoked with invalid arguments."""


class BlameError(ProtocolError):
    """The blame protocol could not complete or produced an inconsistency."""


class MailboxError(XRDError):
    """A mailbox operation referenced an unknown mailbox or malformed data."""


class TransportError(XRDError):
    """A transport could not carry a message (peer unreachable, rejected
    handshake, connection lost, or the transport was already closed)."""


class SimulationError(XRDError):
    """The analytic/Monte-Carlo simulation was configured inconsistently."""
