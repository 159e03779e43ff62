"""``DeploymentConfig``: eleven fields, one enum knob, one validation gate."""

import dataclasses
import json
import re
import warnings

import pytest

from repro.coordinator.network import Deployment, DeploymentConfig
from repro.crypto import kernels
from repro.errors import ConfigurationError
from repro.registry import CryptoKernelKind, TransportKind
from repro.runner import protocol

FIELDS = [
    "num_servers", "num_users", "num_chains", "chain_length", "malicious_fraction",
    "security_bits", "num_mailbox_servers", "seed", "use_cover_messages", "group_kind",
    "transport",
]


def test_the_config_has_exactly_these_fields():
    assert [field.name for field in dataclasses.fields(DeploymentConfig)] == FIELDS


@pytest.mark.parametrize("member", list(TransportKind), ids=lambda member: member.value)
def test_plain_strings_become_enum_members_without_a_warning(member):
    """``-W error``: the plain spelling is first class, not a deprecation."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = DeploymentConfig(transport=member.value)
        config.validate()
    assert config.transport is member and config.transport == member.value
    assert DeploymentConfig(transport=member).transport is member  # members pass through


@pytest.mark.parametrize(
    "knob", ["precompute", "max_workers", "crypto_kernel", "execution_backend"]
)
def test_a_dict_naming_a_dropped_knob_is_refused(knob):
    """A role handed a config that still carries a removed knob fails loudly
    instead of silently running without it."""
    data = protocol.config_to_dict(DeploymentConfig(group_kind="modp"))
    data[knob] = None
    with pytest.raises(TypeError, match=knob):
        protocol.config_from_dict(data)


def test_creating_a_deployment_leaves_the_kernel_tier_alone(tier):
    """The tier is process state (``XRD_CRYPTO_KERNEL``/``set_active_kernel``);
    no config field can switch it behind the caller's back."""
    with Deployment.create(DeploymentConfig(num_users=2, seed=1, group_kind="modp")) as deployment:
        assert deployment.run_round().all_chains_delivered()
    assert kernels.active_kernel() is CryptoKernelKind(tier)


def test_unknown_names_fail_validate_listing_the_valid_values():
    valid = ["inproc", "tcp"]
    for name in ("carrier-pigeon", "instrumented"):
        config = DeploymentConfig(transport=name)
        assert config.transport == name  # kept as given
        with pytest.raises(ConfigurationError, match=re.escape(f"transport must be one of {valid}")):
            config.validate()


@pytest.mark.parametrize("count", (0, -1))
def test_a_deployment_needs_a_mailbox_server(count):
    config = DeploymentConfig(num_mailbox_servers=count, group_kind="modp")
    with pytest.raises(ConfigurationError, match="at least one mailbox server"):
        config.validate()
    with pytest.raises(ConfigurationError):  # before the hub could raise MailboxError
        Deployment.create(config)


def test_dict_round_trip():
    config = DeploymentConfig(
        num_servers=3, seed=5, group_kind="modp",
        transport="tcp",
    )
    data = json.loads(json.dumps(protocol.config_to_dict(config)))
    assert data["transport"] == "tcp"  # enum knobs travel as their values
    rebuilt = protocol.config_from_dict(data)
    assert rebuilt == config
    assert rebuilt.transport is TransportKind.TCP
