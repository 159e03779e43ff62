"""Typed pluggable-component registry (DESIGN.md §10.1).

The deployment's three pluggable seams — the transport, the mix-stage
execution backend, and the crypto kernel tier — used to be selected by
bare strings on :class:`~repro.coordinator.network.DeploymentConfig`.  Each
new component meant another string compared in another ``if`` ladder; the
KISS principle the control-plane literature argues for (PAPERS.md) is the
opposite: a small, explicit, *typed* contract.

This module provides that contract:

* one :class:`enum.Enum` per seam (:class:`TransportKind`,
  :class:`ExecutionBackendKind`, :class:`CryptoKernelKind`) naming the
  built-in components.  The enums subclass :class:`str`, so existing code
  comparing ``config.transport == "inproc"`` keeps working unchanged;
* one :class:`ComponentRegistry` per seam mapping keys to factory
  callables.  Built-ins register here too — ``make_transport`` and
  ``make_backend`` are thin wrappers over :meth:`ComponentRegistry.create`
  — and third-party components register under their own string keys
  (``TRANSPORTS.register("quic", factory)``) without touching this package;
* both spellings of a built-in are first class: a plain string assigned to
  a config knob (``transport="tcp"``) is normalised to its enum member, so
  the config always holds the typed value.

Registration happens in the module that owns the component (the transport
package registers the transports, and so on), so importing a component's
home package is what makes it available — there is no central import list
to maintain.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, List, Optional, Union

from repro.errors import ConfigurationError

__all__ = [
    "TransportKind",
    "ExecutionBackendKind",
    "CryptoKernelKind",
    "ComponentRegistry",
    "TRANSPORTS",
    "EXECUTION_BACKENDS",
    "CRYPTO_KERNELS",
]


class TransportKind(str, Enum):
    """How cross-node envelopes travel (DESIGN.md §5, §10)."""

    INPROC = "inproc"
    INSTRUMENTED = "instrumented"
    TCP = "tcp"


class ExecutionBackendKind(str, Enum):
    """How the mix stage executes the per-chain work (DESIGN.md §2.2)."""

    SERIAL = "serial"
    PARALLEL = "parallel"


class CryptoKernelKind(str, Enum):
    """Which implementation tier runs the batched crypto hot loops
    (DESIGN.md §11).

    ``PYTHON`` is the scalar reference everywhere, ``NATIVE`` adds the
    ``_xrdkernels`` C extension with transparent per-function fallback to
    the python tier.  Both are bit-identical; the parity matrix enforces it.
    """

    PYTHON = "python"
    NATIVE = "native"


#: A config knob value: the typed enum member, or a plain string key (a
#: built-in's value, or a third-party component's registered name).
ComponentKey = Union[str, Enum]


class ComponentRegistry:
    """Factories for one pluggable seam, keyed by enum member or string."""

    def __init__(self, domain: str, kind_enum: type) -> None:
        self.domain = domain
        self.kind_enum = kind_enum
        self._factories: Dict[str, Callable] = {}

    # -- registration ---------------------------------------------------------

    def register(self, key: ComponentKey, factory: Callable, replace: bool = False) -> None:
        """Register ``factory`` under ``key`` (an enum member or a new name).

        Built-in components register under their enum member; external
        components register under any unused string.  Re-registration is an
        error unless ``replace=True`` — silently shadowing a component is
        exactly the kind of spooky action a typed registry exists to stop.
        """
        name = str(key.value) if isinstance(key, Enum) else str(key)
        if not replace and name in self._factories:
            raise ConfigurationError(
                f"{self.domain} component {name!r} is already registered "
                "(pass replace=True to override)"
            )
        if not callable(factory):
            raise ConfigurationError(f"{self.domain} factory for {name!r} is not callable")
        self._factories[name] = factory

    def keys(self) -> List[str]:
        """Every registered key, built-ins first (registration order)."""
        return list(self._factories)

    # -- lookup ----------------------------------------------------------------

    def _name_of(self, key: ComponentKey) -> str:
        return str(key.value) if isinstance(key, Enum) else str(key)

    def is_known(self, key: ComponentKey) -> bool:
        return self._name_of(key) in self._factories

    def coerce(self, value: Optional[ComponentKey]) -> Optional[ComponentKey]:
        """Normalise a config knob value to its typed form.

        Enum members pass through; a plain string naming a built-in becomes
        its enum member; any other value (``None`` included) is returned
        unchanged — a string may name a registered external component, and
        :meth:`ensure_known` is the validation gate.
        """
        try:
            return self.kind_enum(value)
        except ValueError:
            return value

    def ensure_known(self, value: ComponentKey, field: str) -> None:
        """Raise :class:`ConfigurationError` unless ``value`` is resolvable."""
        if isinstance(value, self.kind_enum):
            return
        if isinstance(value, str) and self.is_known(value):
            return
        raise ConfigurationError(
            f"{field} must be a {self.kind_enum.__name__} or a registered "
            f"{self.domain} name (one of {self.keys()}), got {value!r}"
        )

    def create(self, key: ComponentKey, **kwargs: object) -> object:
        """Instantiate the component registered under ``key``."""
        name = self._name_of(key)
        factory = self._factories.get(name)
        if factory is None:
            raise ConfigurationError(
                f"unknown {self.domain} {name!r} (registered: {self.keys()})"
            )
        return factory(**kwargs)


TRANSPORTS = ComponentRegistry("transport", TransportKind)
EXECUTION_BACKENDS = ComponentRegistry("execution backend", ExecutionBackendKind)
CRYPTO_KERNELS = ComponentRegistry("crypto kernel", CryptoKernelKind)
