"""Shared fixtures for the XRD reproduction test suite.

Most protocol tests run on the small ``ModPGroup`` (fast, insecure — test
only); the Ed25519 group is exercised directly by the crypto tests and by one
end-to-end integration test so the default production path is covered too.
"""

from __future__ import annotations

import contextlib
import os
import random
import sys
import threading
import time
import weakref
from unittest import mock

import pytest

from repro.coordinator.network import Deployment, DeploymentConfig
from repro.crypto import kernels
from repro.crypto.group import Ed25519Group, ModPGroup
from repro.engine import ParallelBackend
from repro.population import streaming
from repro.trace import Trace
from repro.transport import BATCH, Transport

needs_native = pytest.mark.skipif(
    not kernels.native_available(), reason="_xrdkernels extension not built (no C compiler?)"
)
#: The kernel tiers a tier-sensitive test runs under.
TIERS = ("python", pytest.param("native", marks=needs_native))


#: The pools a backend-sensitive test runs under, besides production's
#: default: the serial reference (no helper thread), and one pinned helper —
#: two threads even on a one-CPU runner.
BACKENDS = ("serial", "parallel")


def install_backend(deployment, backend: str):
    """Install a :data:`BACKENDS` entry; ``"production"`` keeps the default."""
    if backend == "serial":
        deployment.use_backend(ParallelBackend(helpers=0))
    elif backend == "parallel":
        deployment.use_backend(ParallelBackend(helpers=1))
    elif backend != "production":
        raise ValueError(f"unknown test backend {backend!r}")
    return deployment


@contextlib.contextmanager
def selected_tier(name):
    """Run the block under kernel tier ``name``, then restore lazy
    resolution; ``None`` leaves the process's tier as it is."""
    if name is None:
        yield
        return
    kernels.reset_kernel_for_tests()
    kernels.set_active_kernel(name)
    try:
        yield
    finally:
        kernels.reset_kernel_for_tests()


def chunk_users(size: int):
    """Run the block with population chunks of ``size`` users (DESIGN.md §9):
    the chunk size is a module constant, patched here so a dozen users span
    several chunks."""
    return mock.patch.object(streaming, "CHUNK_USERS", size)


@pytest.fixture(params=TIERS)
def tier(request):
    """Run under each kernel tier, then restore lazy resolution."""
    with selected_tier(request.param):
        yield request.param


def forbid(monkeypatch, *functions):
    """Make every ``repro`` module's binding of the given functions raise."""
    for function in functions:
        def forbidden(*args, _name=function.__name__, **kwargs):
            raise AssertionError(f"per-item {_name}() called from a batched path")

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("repro") and getattr(module, function.__name__, None) is function:
                monkeypatch.setattr(module, function.__name__, forbidden)


@contextlib.contextmanager
def native_dispatches():
    """Run the block on the native tier; on exit, the dict it yields holds
    the kernel calls that ran, by entry point, as the block's trace counted
    them."""
    counts = {}
    with selected_tier("native"), Trace().stage("counted") as recorded:
        yield counts
    counts.update(
        (name[len("dispatch."):], total) for name, total in recorded.counters.items()
        if name.startswith("dispatch.")
    )


class RecordingTransport(Transport):
    """Wraps a transport and keeps ``(envelope, delivered payload)`` for
    everything it carried — a round observed live, hop by hop, instead of
    from state the chains keep after the round is over."""

    name = "recording"

    def __init__(self, inner: Transport) -> None:
        self.inner = inner
        self.carried = []

    def deliver(self, envelope):
        delivered = self.inner.deliver(envelope)
        self.carried.append((envelope, delivered))
        return delivered

    def deliver_many(self, envelopes):
        delivered = self.inner.deliver_many(envelopes)
        self.carried.extend(zip(envelopes, delivered))
        return delivered

    def close(self) -> None:
        self.inner.close()

    def batches(self, chain_id):
        """What each hop of ``chain_id`` received, in order."""
        return [
            payload for envelope, payload in self.carried
            if envelope.kind == BATCH and envelope.chain_id == chain_id
        ]


@pytest.fixture(scope="session")
def group():
    """The fast modular test group used by most protocol tests."""
    return ModPGroup(bits=96)

@pytest.fixture(scope="session")
def ed_group():
    """The real edwards25519 group."""
    return Ed25519Group()


@pytest.fixture
def rng():
    """A deterministic PRNG for reproducible tests."""
    return random.Random(1234)


def make_deployment(
    num_servers: int = 4,
    num_users: int = 6,
    num_chains: int = 3,
    chain_length: int = 2,
    seed: int = 42,
    group_kind: str = "modp",
    **kwargs,
) -> Deployment:
    """Build a small deterministic deployment on the fast test group."""
    config = DeploymentConfig(
        num_servers=num_servers,
        num_users=num_users,
        num_chains=num_chains,
        chain_length=chain_length,
        seed=seed,
        group_kind=group_kind,
        **kwargs,
    )
    deployment = Deployment.create(config)
    _MADE.append(weakref.ref(deployment))
    return deployment


#: Every deployment :func:`make_deployment` built, weakly: the test that
#: built one closes it when it ends (:func:`_census`), if it is still alive.
_MADE = []
#: How long a closed pool's or transport's threads get to finish exiting.
CENSUS_GRACE_S = 2.0


def _owned_threads():
    """The threads the system starts: TCP loops and handlers, chain pools."""
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith(("xrd-tcp-", "xrd-chain-"))
    }


def _children():
    """Process ids of this process's children, whichever thread forked them."""
    pids = set()
    for task in os.listdir("/proc/self/task"):
        with contextlib.suppress(OSError):  # the thread exited meanwhile
            with open(f"/proc/self/task/{task}/children") as listing:
                pids.update(listing.read().split())
    return pids


def _open_fds():
    """This process's open file descriptors: number → what it refers to."""
    fds = {}
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):  # the listing's own, closed by now
            fds[fd] = os.readlink(f"/proc/self/fd/{fd}")
    return fds


@pytest.fixture(autouse=True)
def _census():
    """Fail a test that leaves behind a thread of the system's own, a child
    process or an open file descriptor.

    The deployments :func:`make_deployment` built during the test are
    closed first, which joins their chain pools and stops their transports.
    One built another way is the test's to close: its pool otherwise runs
    until the garbage collector finds it.
    """
    made = len(_MADE)
    threads, children, fds = _owned_threads(), _children(), _open_fds()
    yield
    for deployment in filter(None, (made_ref() for made_ref in _MADE[made:])):
        deployment.close()
    del _MADE[made:]
    deadline = time.monotonic() + CENSUS_GRACE_S
    for thread in _owned_threads() - threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    left = {
        "threads": sorted(thread.name for thread in _owned_threads() - threads),
        "child processes": sorted(_children() - children),
        "file descriptors": sorted(
            f"{fd} -> {target}" for fd, target in _open_fds().items() if fds.get(fd) != target
        ),
    }
    left = {kind: items for kind, items in left.items() if items}
    if left:
        pytest.fail(f"the test left behind {left}")


@pytest.fixture
def deployment():
    """A default small deployment (4 servers, 3 chains of length 2, 6 users)."""
    return make_deployment()
