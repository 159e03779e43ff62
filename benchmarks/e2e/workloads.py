"""The four workloads, the one configuration table, and the measured pass.

Everything here runs inside the per-workload subprocess started by
``__main__``.  It drives ``Deployment``'s public API only: ``create``,
``start_conversation``, ``chain_keys_view``, ``run_rounds`` and the
``RoundReport`` it returns.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import platform
import random
import resource
import subprocess
import time
import warnings
from collections import Counter
from typing import Any, Dict, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: The production path, as one table.  ``build_config`` keeps the rows
#: ``DeploymentConfig`` still has a field for and reports the rest, so a
#: later PR that deletes a knob does not break the harness.
PRODUCTION = {
    "num_servers": 6,
    "num_chains": 4,
    "chain_length": 3,
    "group_kind": "modp",
    "modp_bits": 96,
    "use_cover_messages": False,
    "population": "batched",
    "population_chunk_size": 250,
    "stream_mix": True,
    "precompute": True,
    "crypto_kernel": "native",
    "transport": "inproc",
}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    users: int
    toy_users: int
    #: Rows of :data:`PRODUCTION` this workload replaces.
    config: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Rounds per timed ``run_rounds`` call; above 1 the call is staggered.
    rounds_per_window: int = 1
    #: Share of users offline in each round (their banked covers are played).
    offline_share: float = 0.0
    #: Misauthenticated submissions injected per chain per round.
    forged_per_chain: int = 0
    toy_forged_per_chain: int = 0


#: Why each workload is here is recorded once, in BENCHMARK.json (and at
#: length in README.md).  Sizes fit a run — three set-ups plus 20 s of
#: half-second rounds — into the driver's 37 s per run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("steady", users=800, toy_users=24),
        Workload(
            "churn",
            users=400,
            toy_users=24,
            config={"use_cover_messages": True, "transport": "tcp"},
            rounds_per_window=3,
            offline_share=0.05,
        ),
        Workload("blame", users=480, toy_users=24, forged_per_chain=40, toy_forged_per_chain=2),
        Workload("ed25519", users=16, toy_users=6, config={"group_kind": "ed25519"}),
    )
}

#: A run measures for ``--seconds`` but never fewer windows than this.  Peak
#: RSS is read after exactly this many: the chains keep every round's batches,
#: so the high-water mark grows with however many rounds a run fits in.
MIN_WINDOWS = 5
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


def build_config(workload: Workload, seed: int, users: int) -> Tuple[Any, List[str]]:
    """``DeploymentConfig`` for a workload, and the table rows it no longer has."""
    from repro import DeploymentConfig

    wanted = {**PRODUCTION, **workload.config, "num_users": users, "seed": seed}
    known = {field.name for field in dataclasses.fields(DeploymentConfig)}
    dropped = sorted(set(wanted) - known)
    with warnings.catch_warnings():
        # Plain strings are the one spelling every version of the registry
        # accepts; the shim's DeprecationWarning is not news here.
        warnings.simplefilter("ignore", DeprecationWarning)
        config = DeploymentConfig(**{k: v for k, v in wanted.items() if k in known})
    return config, dropped


def commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    if not os.path.exists(os.path.join(REPO_ROOT, ".git")):
        return "unknown"
    done = subprocess.run(
        ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() or "unknown"


def stamp(deployment: Any, seed: int) -> Dict[str, Any]:
    """Where a result came from; results whose stamps differ are not compared.

    The parent adds the commit: a ``git`` child here would count towards
    this process's ``peak_rss_mb``.
    """
    from repro.crypto import kernels

    return {
        "kernel": kernels.active_kernel().value,
        "group": type(deployment.group).__name__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# -- inputs and the expected outcome of each round -------------------------------


def _payload(seed: int, round_index: int, name: str) -> bytes:
    return hashlib.sha256(f"{seed}|{round_index}|{name}".encode()).digest()[:24]


class Conversations:
    """The harness's model of who is talking to whom (paper sec. 5.3.3).

    It predicts every mailbox delivery of a round from the round's inputs
    alone, so the check does not trust the program's own bookkeeping.  A
    user's conversation ends when her banked cover is played (she went
    offline) or when she reads her partner's offline notice; a cover holds
    a notice iff its owner was in the conversation when she banked it.
    """

    def __init__(self, deployment: Any) -> None:
        self.deployment = deployment
        names = [user.name for user in deployment.users]
        self.partner = {}
        for left, right in zip(names[0::2], names[1::2]):
            self.partner[left], self.partner[right] = right, left
        self.active = dict.fromkeys(names, False)
        #: Whether the banked cover carries an offline notice; absent = no cover.
        self.cover_notice: Dict[str, bool] = {}
        self.covers = deployment.config.use_cover_messages
        self.ell = deployment.ell()
        self.pair_all()

    def pair_all(self) -> None:
        """(Re-)establish every conversation that has ended; outside timed windows."""
        for name, partner in self.partner.items():
            if name < partner and not (self.active[name] and self.active[partner]):
                self.deployment.start_conversation(name, partner)
                self.active[name] = self.active[partner] = True

    def expect(self, payloads: Dict[str, bytes], offline: set) -> Dict[str, Counter]:
        """Expected ``(kind, content)`` deliveries per online user; advances the model."""
        expected: Dict[str, Counter] = {}
        sends_notice = {name for name in offline if self.cover_notice.get(name)}
        for name, active in self.active.items():
            if name in offline:
                continue
            got = Counter({("loopback", b""): self.ell - (1 if active else 0)})
            partner = self.partner.get(name)
            if partner in sends_notice:
                got[("offline-notice", b"")] += 1
            elif partner is not None and partner not in offline and self.active[partner]:
                got[("conversation", payloads[partner])] += 1
            expected[name] = +got
        for name in self.active:
            if name in offline:
                if self.cover_notice.pop(name, None) is not None:
                    self.active[name] = False
            else:
                if self.covers:
                    self.cover_notice[name] = self.active[name]
                if self.partner.get(name) in sends_notice:
                    self.active[name] = False
        return expected


@dataclasses.dataclass
class PlannedRound:
    spec: Any
    expected: Dict[str, Counter]
    forged: List[str]


class Driver:
    """Plans rounds from the seed, runs them in timed windows, checks the reports."""

    def __init__(self, workload: Workload, seed: int, toy: bool) -> None:
        from repro import Deployment

        self.workload = workload
        self.seed = seed
        self.forged_per_chain = workload.toy_forged_per_chain if toy else workload.forged_per_chain
        users = workload.toy_users if toy else workload.users
        config, self.dropped_knobs = build_config(workload, seed, users)
        started = time.perf_counter()
        self.deployment = Deployment.create(config)
        self.create_s = time.perf_counter() - started
        self.names = [user.name for user in self.deployment.users]
        self.conversations = Conversations(self.deployment)
        self.rounds_planned = 0
        self.last_offline: set = set()
        self.attempted = self.failed = 0
        self.windows: List[dict] = []

    def _plan(self, round_number: int) -> PlannedRound:
        deployment, workload = self.deployment, self.workload
        index = self.rounds_planned
        self.rounds_planned += 1
        rng = random.Random(f"{self.seed}|{workload.name}|{index}")
        payloads = {name: _payload(self.seed, index, name) for name in self.names}
        offline: set = set()
        if workload.offline_share and index:
            # Only someone online in the round before has a cover banked to play.
            candidates = [name for name in self.names if name not in self.last_offline]
            offline = set(rng.sample(candidates, round(workload.offline_share * len(self.names))))
        self.last_offline = offline
        forged = []
        if self.forged_per_chain:
            from repro.coordinator.adversary import forge_misauthenticated_submission

            for chain_id, view in sorted(deployment.chain_keys_view(round_number).items()):
                for slot in range(self.forged_per_chain):
                    forged.append(
                        forge_misauthenticated_submission(
                            deployment.group, view, round_number,
                            f"forger-{self.seed}-{chain_id}-{slot}",
                        )
                    )
        spec = deployment.round_spec(
            payloads=payloads, offline_users=offline, extra_submissions=forged
        )
        expected = self.conversations.expect(payloads, offline)
        return PlannedRound(spec, expected, [submission.sender for submission in forged])

    def window(self, warm_up: bool = False) -> float:
        """Plan, run and check one window; returns wall seconds per round.

        The warm-up window is a single untimed round.
        """
        rounds = 1 if warm_up else self.workload.rounds_per_window
        self.conversations.pair_all()
        first = self.deployment.next_round
        planned = [self._plan(first + offset) for offset in range(rounds)]
        gc.collect()
        start = time.perf_counter()
        reports = self.deployment.run_rounds(
            [plan.spec for plan in planned], staggered=self.workload.rounds_per_window > 1
        )
        end = time.perf_counter()
        for plan, report in zip(planned, reports):
            self._check(plan, report)
        if not warm_up:
            self.windows.append({"start": start, "end": end, "rounds": rounds})
        return (end - start) / rounds

    def _check(self, plan: PlannedRound, report: Any) -> None:
        ops = sum(sum(counter.values()) for counter in plan.expected.values()) + len(plan.forged)
        self.attempted += ops
        if not report.all_chains_delivered():
            self.failed += ops
            return
        wrong = 0
        for name, expected in plan.expected.items():
            got = Counter((m.kind, m.content) for m in report.delivered.get(name, []))
            wrong += sum(((expected - got) + (got - expected)).values())
        rejected, forged = Counter(report.rejected_senders), Counter(plan.forged)
        wrong += sum(((forged - rejected) + (rejected - forged)).values())
        self.failed += min(wrong, ops)


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child, in MB."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def kernel_microbench(toy: bool) -> Dict[str, float]:
    """Microseconds per operation of the four kernels, at a fixed batch size.

    Direct calls to the batch entry points the round itself uses, so the
    kernel's share of a stage can be told from the Python around it.
    """
    from repro.crypto.aead import adec_batch, aenc_batch
    from repro.crypto.chacha20 import chacha20_blocks_batch
    from repro.crypto.group import Ed25519Group, ModPGroup

    rng = random.Random(20)
    batch, curve_batch, repeats = (32, 2, 1) if toy else (2048, 12, 5)

    def best_us(call: Any, operations: int) -> float:
        samples = []
        for repeat in range(repeats):
            start = time.perf_counter()
            call(repeat)
            samples.append(time.perf_counter() - start)
        return min(samples) / operations * 1e6

    modp = ModPGroup(bits=PRODUCTION["modp_bits"])
    elements = [modp.base_mult(modp.random_scalar(rng)) for _ in range(batch)]
    scalar = modp.random_scalar(rng)
    keys = [rng.randbytes(32) for _ in range(batch)]
    nonces = [rng.randbytes(12) for _ in range(batch)]
    sealed = aenc_batch(keys, 1, [rng.randbytes(320) for _ in range(batch)])
    curve = Ed25519Group()
    # Fresh points per repeat: a point seen twice earns a cached window table,
    # which a round's one-shot DH keys never do.
    points = [
        [curve.base_mult(curve.random_scalar(rng)) for _ in range(curve_batch)]
        for _ in range(repeats)
    ]
    curve_scalar = curve.random_scalar(rng)
    return {
        "crypto.modp_exp_us": best_us(lambda _: modp.scalar_mult_batch(elements, scalar), batch),
        "crypto.aead_open_us": best_us(lambda _: adec_batch(keys, 1, sealed), batch),
        "crypto.chacha_block_us": best_us(
            lambda _: chacha20_blocks_batch(keys, nonces, [0] * batch), batch
        ),
        "crypto.ed25519_mult_us": best_us(
            lambda repeat: curve.scalar_mult_batch(points[repeat], curve_scalar), curve_batch
        ),
    }
