"""What one user costs at rest: the term that grows with the population.

A user is her identity key pair, her 32-byte stream key
(:mod:`repro.crypto.stream`) and her rows in the population's views — no
generator object (a generator alone was 2.5 KB of the 3.9 KB a user took
before the keyed stream), no second copy of her chain assignment in a
module-level cache (≈ 140 B more), and no assignment tuple or fetch
trial-order tuple of her own: her group's are shared (≈ 56 B more each).
The count is of traced allocations, with no clock in it, so the bound is
deterministic: ≈ 773 B a user.
"""

import gc
import tracemalloc

from repro.coordinator.network import Deployment, DeploymentConfig
from repro.crypto import kernels

from tests.conftest import selected_tier

USERS = 5000
BYTES_PER_USER = 1000


def test_a_user_at_rest_costs_at_most_1000_bytes():
    config = DeploymentConfig(
        num_servers=3, num_users=USERS, num_chains=3, chain_length=2, seed=7, group_kind="modp",
    )
    # The tier changes only how long the traced build takes (the python
    # tier's ChaCha20 allocates an int per operation, each one traced).
    with selected_tier("native" if kernels.native_available() else None):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            deployment = Deployment.create(config)
            gc.collect()
            per_user = (tracemalloc.get_traced_memory()[0] - before) / USERS
        finally:
            tracemalloc.stop()
        deployment.close()
    assert per_user <= BYTES_PER_USER, f"{per_user:.0f} B per user at rest"
