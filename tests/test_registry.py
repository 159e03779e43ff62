"""The typed component registry and its two spellings of a built-in."""

import warnings

import pytest

from repro.coordinator.network import Deployment, DeploymentConfig
from repro.errors import ConfigurationError
from repro.registry import (
    CRYPTO_KERNELS,
    EXECUTION_BACKENDS,
    TRANSPORTS,
    CryptoKernelKind,
    ExecutionBackendKind,
    TransportKind,
)
from repro.transport import InProcTransport, make_transport


def make_config(**kwargs):
    defaults = dict(
        num_servers=4,
        num_users=4,
        num_chains=2,
        chain_length=2,
        seed=3,
        group_kind="modp",
    )
    defaults.update(kwargs)
    return DeploymentConfig(**defaults)


class TestEnums:
    def test_str_subclass_equality_keeps_old_comparisons_working(self):
        assert TransportKind.INPROC == "inproc"
        assert ExecutionBackendKind.PARALLEL == "parallel"
        assert CryptoKernelKind.NATIVE == "native"
        assert TransportKind.TCP.value == "tcp"

    def test_builtins_are_registered(self):
        for kind in TransportKind:
            assert TRANSPORTS.is_known(kind)
        for kind in ExecutionBackendKind:
            assert EXECUTION_BACKENDS.is_known(kind)
        for kind in CryptoKernelKind:
            assert CRYPTO_KERNELS.is_known(kind)

    def test_keys_lists_the_builtins(self):
        assert set(k.value for k in TransportKind) <= set(TRANSPORTS.keys())


class TestStringSpelling:
    def test_builtin_strings_are_normalised_without_a_warning(self):
        """``-W error``: the plain spelling is first class, not a deprecation."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert DeploymentConfig(transport="tcp").transport is TransportKind.TCP
            config = make_config(execution_backend="parallel", crypto_kernel="python")
            assert TRANSPORTS.coerce("inproc") is TransportKind.INPROC
        assert config.execution_backend is ExecutionBackendKind.PARALLEL
        assert config.crypto_kernel is CryptoKernelKind.PYTHON
        assert config.transport is TransportKind.INPROC  # members pass through

    def test_strings_build_a_working_deployment(self):
        config = make_config(transport="inproc", execution_backend="serial")
        deployment = Deployment.create(config)
        report = deployment.run_round()
        assert report.round_number == 1
        deployment.close()

    def test_unknown_string_passes_coerce_but_fails_validate(self):
        # Not a builtin: passes through (might be third-party)…
        assert TRANSPORTS.coerce("carrier-pigeon") == "carrier-pigeon"
        # …but the validation gate rejects it if nothing registered it.
        with pytest.raises(ConfigurationError, match="transport"):
            make_config(transport="carrier-pigeon").validate()


class TestRegistration:
    def test_custom_component_end_to_end(self):
        calls = []

        def factory(**kwargs):
            calls.append(kwargs)
            return InProcTransport()

        TRANSPORTS.register("test-custom-transport", factory)
        try:
            assert TRANSPORTS.is_known("test-custom-transport")
            # A registered third-party name is accepted by the config as is.
            config = make_config(transport="test-custom-transport")
            assert config.transport == "test-custom-transport"
            transport = make_transport(config.transport, group=None)
            assert isinstance(transport, InProcTransport)
            assert calls, "the registered factory was never invoked"
        finally:
            TRANSPORTS._factories.pop("test-custom-transport", None)

    def test_duplicate_registration_is_refused(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            TRANSPORTS.register(TransportKind.INPROC, lambda **kwargs: None)

    def test_replace_true_allows_override(self):
        original = TRANSPORTS._factories[TransportKind.INPROC.value]
        try:
            TRANSPORTS.register(
                TransportKind.INPROC, lambda **kwargs: InProcTransport(), replace=True
            )
        finally:
            TRANSPORTS.register(TransportKind.INPROC, original, replace=True)

    def test_non_callable_factory_is_refused(self):
        with pytest.raises(ConfigurationError, match="not callable"):
            TRANSPORTS.register("test-not-callable", "nope")

    def test_create_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="unknown transport"):
            TRANSPORTS.create("never-registered")

    def test_ensure_known_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="registered"):
            EXECUTION_BACKENDS.ensure_known("never-registered", field="execution_backend")
