"""Engine parity: every way of running a round delivers the pinned bytes.

With a fixed deployment seed, the six rounds of :func:`conversation_script`
(payloads, an offline user's cover, an idle round) and the
``tamper_and_recover()`` scenario (tamper → blame → evict → re-form → resume)
produce canonical bytes that do not depend on how they were run.
``RoundReport.canonical_bytes`` hashes everything observable about a round —
delivered messages, mailbox counts and bytes, per-chain statuses,
rejections, cover plays — and ``ScenarioReport.canonical_bytes`` adds every
blame verdict's wire encoding and every recovery action.

:data:`GOLDEN` pins those bytes, and the per-user client path of
``tests/user_oracle.py`` still reproduces them.  Each row of :data:`HONEST`
and :data:`BLAME` is one (group, transport, backend, schedule, chunk size,
kernel tier, precompute) combination held to its pin, never to another run
of its own.  On the TCP transport every payload is re-decoded from its wire
bytes, so those rows also prove the codecs of :mod:`repro.transport.codec`
lossless.  The precompute-off rows are the online-only arm
(:func:`~benchmarks.conftest.online_only`): every member fills its key table
inside the mix.
"""

import dataclasses
import functools
import hashlib
import itertools
from typing import NamedTuple, Optional

import pytest

from repro.coordinator.network import DeploymentConfig
from repro.crypto import kernels
from repro.population.streaming import CHUNK_USERS
from repro.registry import TransportKind

from benchmarks.conftest import online_only
from tests import user_oracle
from tests.conftest import (
    BACKENDS, chunk_users, install_backend, make_deployment, needs_native, selected_tier,
)
from tests.test_ahs_protocol import make_submission

#: sha256[:16] of ``canonical_bytes()`` for :func:`build` (group swapped):
#: the six reports of :func:`conversation_script` and the
#: :class:`~repro.faults.runner.ScenarioReport` of ``tamper_and_recover()``.
GOLDEN = {
    "modp": {
        "honest": [
            "134cedfb46d02a46", "26111b80e31b4644", "24e7d9994867bb22",
            "45496b81e191325c", "0ff91bddf87409f6", "e7017fa62b4c7ca7",
        ],
        "blame": "f5a9250b3402168a",
    },
    "ed25519": {
        "honest": [
            "90a0313248ed698f", "db06e51d980b5378", "1744712c9cbce0c7",
            "27a67703a13ac6e5", "2b5d11a322b5f885", "db3555a5da648ad4",
        ],
        "blame": "518f8940b6d1afe0",
    },
}

#: The modp script's six rounds on the TCP loopback transport, sequential,
#: in one population chunk and precomputed, as their traces count them (DESIGN.md
#: §13): each counter's value in each round, on every backend.  Envelopes,
#: wire bytes and hop entries hold on every tier; the native dispatches, by
#: entry point, on the native tier (the python tier makes none).
COUNTERS = {
    # One open per call site: a member mix step each (3 chains x 2 hops),
    # each chain's final decryption (3), and one per fetch envelope (1).
    "dispatch.xrd_aead_open_spans": [10] * 6,
    # Keyed draws: a (chain, build) call each for the round's submissions
    # and banked covers (3 + 3), one per member mix step (6), one per member
    # announcing the next round (6) — and round 1 announces itself too (+6).
    "dispatch.xrd_chacha20_blocks": [24] + [18] * 5,
    "dispatch.xrd_hkdf_sha256_batch": [9] * 6,
    "dispatch.xrd_modp_accumulate_rows": [15, 12, 12, 12, 12, 12],
    "dispatch.xrd_modp_onion_build": [6] * 6,
    "dispatch.xrd_modp_scalar_mult_batch": [15] * 6,
    "entries.hop0": [12] * 6, "entries.hop1": [12] * 6,
    **{f"envelopes.{kind}": [3] * 6 for kind in (
        "batch", "cover-submission-batch", "mailbox-delivery", "submission-batch"
    )},
    "envelopes.mailbox-fetch-batch": [1] * 6,
    "wire_bytes.batch": [4860] * 6,
    "wire_bytes.cover-submission-batch": [6276, 5232, 6276, 5232, 6276, 6276],
    "wire_bytes.mailbox-delivery": [3708] * 6,
    "wire_bytes.mailbox-fetch-batch": [3940, 3284, 3940, 3284, 3940, 3940],
    "wire_bytes.submission-batch": [6276, 5232, 6276, 5232, 6276, 6276],
}

TRANSPORTS = tuple(kind.value for kind in TransportKind)
SCHEDULES = ("sequential", "staggered")
TIERS = ("python", "native")


def build(backend="production", seed=42, transport="inproc", **kwargs):
    return install_backend(make_deployment(seed=seed, transport=transport, **kwargs), backend)


def conversation_script(deployment):
    """A six-round script exercising payloads, idle rounds, and churn."""
    a, b = deployment.users[0].name, deployment.users[1].name
    c, d = deployment.users[2].name, deployment.users[3].name
    deployment.start_conversation(a, b)
    deployment.start_conversation(c, d)
    return [
        deployment.round_spec(payloads={a: b"r1-a", b: b"r1-b", c: b"r1-c"}),
        # b vanishes: her banked cover is played and a receives the offline
        # notice in this round's fetch — the data dependency the staggered
        # scheduler must honour.
        deployment.round_spec(payloads={a: b"r2-a"}, offline_users={b}),
        deployment.round_spec(payloads={c: b"r3-c", d: b"r3-d"}),
        deployment.round_spec(offline_users={d}),
        deployment.round_spec(payloads={a: b"r5-a"}),
        deployment.round_spec(),
    ]


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def fingerprints(reports):
    return [digest(report.canonical_bytes()) for report in reports]


def blame_fingerprint(deployment, staggered=False):
    """``tamper_and_recover()`` on ``deployment`` (closed after), digested."""
    from repro.faults.runner import ScenarioRunner
    from repro.faults.scenarios import tamper_and_recover

    with deployment:
        report = ScenarioRunner(deployment, tamper_and_recover(), staggered=staggered).run()
    return digest(report.canonical_bytes())


class Row(NamedTuple):
    """One way of running a round."""

    group: str = "modp"
    transport: str = "inproc"
    #: A :data:`~tests.conftest.BACKENDS` entry or ``"production"``.
    backend: str = "production"
    schedule: str = "sequential"
    #: Users per population chunk (``streaming.CHUNK_USERS``, patched
    #: around the test): the production size is one chunk of the 12 users.
    chunk: int = CHUNK_USERS
    #: ``None`` runs the process's tier (``XRD_CRYPTO_KERNEL``, else the
    #: best available), which is how the CI tier jobs re-run every row.
    tier: Optional[str] = None
    precompute: bool = True

    @property
    def staggered(self):
        return self.schedule == "staggered"

    def deploy(self, **kwargs):
        deployment = build(
            self.backend, transport=self.transport, group_kind=self.group, **kwargs,
        )
        return deployment if self.precompute else online_only(deployment)


def rows(**axes):
    """Every combination of the given axis values, the other axes at their defaults."""
    return [Row(**dict(zip(axes, values))) for values in itertools.product(*axes.values())]


HONEST = list(dict.fromkeys(
    # The pins themselves: each group on each tier.
    rows(group=tuple(GOLDEN), tier=TIERS)
    # Both wire-decoding and in-process hand-offs, both backends, both
    # schedules; one chunk, three even chunks a round, and a full chunk
    # followed by a short one.
    + rows(transport=TRANSPORTS, backend=BACKENDS, schedule=SCHEDULES, chunk=(CHUNK_USERS, 2, 4))
    # The production pool staggered on every transport.
    + rows(transport=TRANSPORTS, schedule=("staggered",))
    # One user per frame, and one chunk larger than the population.
    + rows(chunk=(1, 100))
    # The online-only arm.
    + rows(transport=TRANSPORTS, backend=BACKENDS, schedule=SCHEDULES, precompute=(False,))
    # Each tier and each group behind the wire codecs.
    + rows(transport=("tcp",), tier=TIERS)
    + rows(group=tuple(GOLDEN), transport=("tcp",))
))

BLAME = list(dict.fromkeys(
    rows(group=tuple(GOLDEN), tier=TIERS)
    # Eviction and re-formation under every backend and schedule, streamed
    # builds included.
    + rows(backend=BACKENDS, schedule=SCHEDULES, chunk=(CHUNK_USERS, 2, 4))
    + rows(transport=TRANSPORTS)
    # Re-formation behind the wire codecs: each group, streamed builds under
    # each schedule, and the online-only arm.
    + rows(group=tuple(GOLDEN), transport=("tcp",))
    + rows(transport=("tcp",), schedule=SCHEDULES, chunk=(2, 4))
    + rows(transport=("tcp",), precompute=(False,))
    + rows(precompute=(True, False))
    + rows(backend=BACKENDS, tier=TIERS)
    + rows(backend=("parallel",), schedule=("staggered",), tier=TIERS)
))


def params(table):
    return [
        pytest.param(
            row,
            id="-".join((
                row.group, row.transport, row.backend, row.schedule,
                f"chunk{row.chunk}", row.tier or "env",
                "precompute" if row.precompute else "online-only",
            )),
            marks=needs_native if row.tier == "native" else (),
        )
        for row in table
    ]


@pytest.fixture
def row(request):
    """The row under test, with its kernel tier and chunk size selected
    around the test."""
    with selected_tier(request.param.tier), chunk_users(request.param.chunk):
        yield request.param


@pytest.mark.parametrize("row", params(HONEST), indirect=True)
def test_honest_rounds(row):
    deployment = row.deploy()
    reports = deployment.run_rounds(conversation_script(deployment), staggered=row.staggered)
    deployment.close()
    assert fingerprints(reports) == GOLDEN[row.group]["honest"]
    assert all(("precompute" in report.trace.stages()) == row.precompute for report in reports)
    if row._replace(backend="serial", tier=None) == Row(transport="tcp", backend="serial"):
        native = kernels.native_enabled()
        assert {
            name: [report.trace.counters.get(name, 0) for report in reports]
            for name in {name for report in reports for name in report.trace.counters}
        } == {
            name: values for name, values in COUNTERS.items()
            if native or not name.startswith("dispatch.")
        }


@pytest.mark.parametrize("row", params(BLAME), indirect=True)
def test_blame_scenario(row):
    assert blame_fingerprint(row.deploy(), row.staggered) == GOLDEN[row.group]["blame"]


def test_every_axis_value_has_a_row():
    def values(table, axis):
        return {getattr(row, axis) for row in table}

    assert values(HONEST, "transport") == set(TRANSPORTS)
    assert values(HONEST, "backend") == set(BACKENDS) | {"production"}
    assert values(HONEST, "schedule") == set(SCHEDULES)
    assert {CHUNK_USERS, 1, 2, 4, 100} == values(HONEST, "chunk")
    assert values(HONEST, "tier") == set(TIERS) | {None}
    assert values(HONEST, "precompute") == {True, False}
    assert values(HONEST, "group") == values(BLAME, "group") == set(GOLDEN)
    assert len(set(HONEST)) == len(HONEST) and len(set(BLAME)) == len(BLAME)


@pytest.mark.parametrize("group_kind", sorted(GOLDEN))
def test_user_oracle_reproduces_the_pins(group_kind):
    """The digests are the per-user path's: the oracle, run through the
    engine user by user, lands on every one of them."""
    deployment = build(group_kind=group_kind)
    user_oracle.install(deployment)
    actual = fingerprints(deployment.run_rounds(conversation_script(deployment)))
    deployment.close()
    assert actual == GOLDEN[group_kind]["honest"]
    oracle = build(group_kind=group_kind)
    user_oracle.install(oracle)
    assert blame_fingerprint(oracle) == GOLDEN[group_kind]["blame"]


# -- the two scripts GOLDEN does not pin, held to the per-user oracle ----------


def without_covers(row, oracle=False):
    deployment = row.deploy(use_cover_messages=False)
    if oracle:
        user_oracle.install(deployment)
    reports = deployment.run_rounds(conversation_script(deployment), staggered=row.staggered)
    deployment.close()
    return reports


def with_extra_submission(row, oracle=False):
    """Two rounds; the first carries an injected submission with a bogus proof."""
    deployment = row.deploy(seed=9)
    if oracle:
        user_oracle.install(deployment)
    deployment.engine.announce(1)
    forged = make_submission(
        deployment.group, deployment.chains[0], 1, "mallory",
        deployment.users[0].public_bytes, b"\x07" * 32,
    )
    bad = dataclasses.replace(forged, proof=dataclasses.replace(forged.proof, response=1))
    reports = deployment.run_rounds(
        [deployment.round_spec(extra_submissions=[bad]), deployment.round_spec()],
        staggered=row.staggered,
    )
    deployment.close()
    return reports


@functools.lru_cache(maxsize=None)
def oracle_run(script):
    """``script`` through the per-user client path: its digests and its
    first round's rejections."""
    reports = script(Row(), oracle=True)
    return fingerprints(reports), reports[0].rejected_senders


ORACLE_ROWS = [
    Row(), Row(backend="parallel"), Row(backend="serial", schedule="staggered"),
    Row(backend="parallel", schedule="staggered"),
    Row(transport="tcp", backend="serial"),
    Row(transport="tcp", backend="parallel", schedule="staggered"),
]


@pytest.mark.parametrize("row", params(ORACLE_ROWS), indirect=True)
@pytest.mark.parametrize("script", (without_covers, with_extra_submission),
                         ids=("no-covers", "extra-submission"))
def test_matches_the_user_oracle(script, row):
    """Covers off, and an adversarial extra submission riding the
    per-submission path while honest traffic is batched."""
    expected, rejected = oracle_run(script)
    reports = script(row)
    assert (fingerprints(reports), reports[0].rejected_senders) == (expected, rejected)
    assert rejected == (["mallory"] if script is with_extra_submission else [])


@pytest.mark.distributed
@pytest.mark.parametrize("env_tier", (None, "native"), ids=("inherited", "native"))
def test_localhost_processes_deliver_the_blame_pin(env_tier, monkeypatch):
    """The process-per-role cell (DESIGN.md §10.5): coordinator, two mix
    roles and one mailbox role, four OS processes over real sockets, run
    ``tamper_and_recover()`` and land on the blame pin.  The native cell
    pins the role processes' tier through the environment they inherit
    (the tier is process-global, not config)."""
    from repro.faults.scenarios import tamper_and_recover
    from repro.runner.harness import run_localhost

    config = DeploymentConfig(
        num_servers=4, num_users=6, num_chains=3, chain_length=2, seed=42, group_kind="modp",
    )
    if env_tier is not None:
        monkeypatch.setenv("XRD_CRYPTO_KERNEL", env_tier)
    summary = run_localhost(config, tamper_and_recover(), num_mix=2, timeout=240.0)

    assert digest(bytes.fromhex(summary["canonical"])) == GOLDEN["modp"]["blame"]
    statuses = {entry["round"]: entry["statuses"] for entry in summary["rounds"]}
    assert statuses[2]["0"] == "halted-blame"
    assert summary["evicted_servers"] == ["server-0"]
    assert summary["recoveries"], "the scenario must include a recovery round"
