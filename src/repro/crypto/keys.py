"""Key pairs and the public-key directory (PKI stand-in).

XRD assumes "a public key infrastructure that can be used to securely share
public keys of online servers and users with all participants" (§3.1).  The
:class:`KeyDirectory` plays that role inside a simulation: users and servers
register their public keys and every participant reads from the same
directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.crypto import stream
from repro.crypto.group import Ed25519Group
from repro.errors import ConfigurationError

__all__ = ["KeyPair", "KeyDirectory"]


@dataclass(frozen=True)
class KeyPair:
    """A Diffie-Hellman key pair ``(pk = sk·B, sk)`` over the protocol group."""

    secret: int = field(repr=False)
    public: object = field(repr=False)
    public_bytes: bytes = field(repr=False)

    @classmethod
    def generate(cls, group=None, stream_key: Optional[bytes] = None) -> "KeyPair":
        """The key pair of ``stream_key`` on ``group`` (default: edwards25519).

        The secret is the key's ``IDENTITY`` draw — the identity a deployment
        gives the user holding that stream key.  Without a key the pair is
        fresh: a key pair has no call context to derive one from.
        """
        group = group or Ed25519Group()
        key = stream_key if stream_key is not None else stream.stream_key()
        (secret,) = stream.draw_scalars(group, key, stream.IDENTITY, 0, 0, 1)
        public = group.base_mult(secret)
        return cls(secret=secret, public=public, public_bytes=group.encode(public))

    @classmethod
    def from_secret(cls, secret: int, group=None) -> "KeyPair":
        """Reconstruct a key pair from an existing secret scalar."""
        group = group or Ed25519Group()
        secret %= group.order
        if secret == 0:
            raise ConfigurationError("secret scalar must be non-zero")
        public = group.base_mult(secret)
        return cls(secret=secret, public=public, public_bytes=group.encode(public))

    def identity_secret_bytes(self) -> bytes:
        """Secret bytes used to derive per-chain loopback keys."""
        return self.secret.to_bytes(32, "little")


@dataclass
class KeyDirectory:
    """In-memory public-key directory shared by all simulated participants.

    The directory maps an opaque participant name to its encoded public key,
    and keeps users and servers in separate namespaces.  It also hands out
    deterministic registration order, which the chain-selection algorithm
    uses to place users into groups reproducibly.
    """

    group: object = field(default_factory=Ed25519Group)
    _users: Dict[str, bytes] = field(default_factory=dict)
    _servers: Dict[str, bytes] = field(default_factory=dict)

    def register_user(self, name: str, public_bytes: bytes) -> None:
        """Register (or re-register) a user's public key."""
        self._users[name] = bytes(public_bytes)

    def register_server(self, name: str, public_bytes: bytes) -> None:
        """Register (or re-register) a server's long-term public key."""
        self._servers[name] = bytes(public_bytes)

    def user_public_key(self, name: str) -> bytes:
        if name not in self._users:
            raise ConfigurationError(f"unknown user {name!r}")
        return self._users[name]

    def server_public_key(self, name: str) -> bytes:
        if name not in self._servers:
            raise ConfigurationError(f"unknown server {name!r}")
        return self._servers[name]

    def users(self) -> List[str]:
        """Return the registered user names in registration order."""
        return list(self._users)

    def servers(self) -> List[str]:
        """Return the registered server names in registration order."""
        return list(self._servers)

    def __contains__(self, name: str) -> bool:
        return name in self._users or name in self._servers

    def __len__(self) -> int:
        return len(self._users) + len(self._servers)
