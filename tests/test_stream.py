"""The keyed draw stream (``repro.crypto.stream``, DESIGN.md §2.2).

Every draw — a user's or chain member's scalar, an adversary's or a fault's
— is one ChaCha20 block of a stream key, addressed by (label, round,
index).  These tests pin the derivation (known answers, both groups, both
tiers and a no-extension process), and prove that no run ever consumes the
same block twice — live submissions against banked covers, blame reruns,
re-formed chains, and the adversaries and faults beside them.
"""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from repro.coordinator.adversary import forge_misauthenticated_submission
from repro.crypto import stream
from repro.crypto.group import Ed25519Group, ModPGroup
from repro.crypto.aead import adec
from repro.crypto.onion import InnerEnvelope, outer_layer_key

from tests.conftest import make_deployment, selected_tier

KEY = bytes(range(32))

#: ``draw_scalars(group, KEY, MEMBER_ROUND, 7, 0, 3)`` and the identity
#: draw of ``KEY``, per group.
KNOWN_ANSWERS = {
    "modp": {
        "round": [
            8554409212114314006395108274,
            29658199245443688479654246114,
            15130325559486676422515205975,
        ],
        "identity": 18064343000986970170070295645,
    },
    "ed25519": {
        "round": [
            3231732178368469350551091332051444428264048986070616756833118521978519415246,
            6534549457539859782061180421669296155653324313348951630501675963182010876214,
            5099880670752531199369067920446838372186967698964168900124944364576391379267,
        ],
        "identity": 3477063710164854213604627968386888615677797575100983430893710121976915171389,
    },
}

GROUPS = {"modp": ModPGroup(bits=96), "ed25519": Ed25519Group()}


#: Canned scenarios whose adversary or fault draws (``DERIVED`` blocks).
ADVERSARIAL_SCENARIOS = (
    "aggregate-attack-and-recover", "misauthenticating-user", "reordered-mailbox-delivery",
)


def scenario_digest(name):
    """sha256 of the canned scenario's canonical bytes on a seed-9 deployment."""
    from repro.faults.runner import ScenarioRunner
    from repro.faults.scenarios import CANNED_SCENARIOS

    with make_deployment(seed=9) as deployment:
        report = ScenarioRunner(deployment, CANNED_SCENARIOS[name]()).run()
    return hashlib.sha256(report.canonical_bytes()).hexdigest()


def without_the_extension(script):
    """``script``'s stdout, run where the extension is ruled out (pure-Python ChaCha20)."""
    env = dict(os.environ, XRD_NATIVE_DISABLE="1", XRD_CRYPTO_KERNEL="python")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ("src", ".", env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True, cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ).stdout


def draws(group):
    return {
        "round": stream.draw_scalars(group, KEY, stream.MEMBER_ROUND, 7, 0, 3),
        "identity": stream.draw_scalars(group, KEY, stream.IDENTITY, 0, 0, 1)[0],
    }


class TestDerivation:
    @pytest.mark.parametrize("group_name", sorted(GROUPS))
    def test_known_answers(self, group_name, tier):
        assert draws(GROUPS[group_name]) == KNOWN_ANSWERS[group_name]

    def test_a_draw_is_its_rfc_8439_block_reduced(self, tier):
        from repro.crypto.chacha20 import chacha20_block

        group = GROUPS["ed25519"]
        block = chacha20_block(KEY, 2, stream.stream_nonce(stream.MEMBER_ROUND, 7))
        expected = 1 + int.from_bytes(block, "little") % (group.order - 1)
        assert draws(group)["round"][2] == expected

    def test_batching_and_order_do_not_change_a_draw(self, tier):
        group = GROUPS["modp"]
        whole = stream.draw_scalars(group, KEY, stream.MEMBER_ROUND, 3, 0, 6)
        one_by_one = [
            stream.draw_scalars(group, KEY, stream.MEMBER_ROUND, 3, index, 1)[0]
            for index in reversed(range(6))
        ]
        assert whole == one_by_one[::-1]
        y, x, k = stream.submission_scalars(group, [KEY, KEY], [1, 0], 3, cover=False)
        assert (y[1], x[1], k[1]) == tuple(
            stream.draw_scalars(group, KEY, label, 3, 0, 1)[0] for label in stream.LIVE
        )

    def test_the_python_tier_without_the_extension_derives_the_same_draws(self):
        """A process with the extension ruled out (pure-Python ChaCha20)
        lands on this process's draws, whichever tier this one runs."""
        script = (
            "import json\n"
            "from repro.crypto import kernels\n"
            "from tests.test_stream import GROUPS, draws\n"
            "assert kernels.active_kernel().value == 'python'\n"
            "print(json.dumps({name: draws(group) for name, group in GROUPS.items()}))\n"
        )
        expected = {name: draws(group) for name, group in GROUPS.items()}
        assert json.loads(without_the_extension(script)) == expected
        with selected_tier("python"):
            assert {name: draws(group) for name, group in GROUPS.items()} == expected

    def test_permutation_is_a_permutation_of_its_blocks(self):
        for size in (0, 1, 2, 5, 9, 64):
            blob = stream.blocks(
                [KEY] * stream.shuffle_blocks(size),
                [stream.stream_nonce(stream.MEMBER_ROUND, 1)] * stream.shuffle_blocks(size),
                range(stream.shuffle_blocks(size)),
            )
            assert sorted(stream.permutation(blob, size)) == list(range(size))

    def test_seeded_keys_are_stable_and_unseeded_keys_fresh(self):
        assert stream.stream_key(42) == stream.stream_key(42) != stream.stream_key(43)
        assert stream.stream_key() != stream.stream_key()
        assert len(stream.stream_key()) == stream.KEY_SIZE


# -- no block is ever consumed twice --------------------------------------------


@pytest.fixture
def consumed(monkeypatch):
    """Every (key, nonce, counter) the stream hands out while the test runs."""
    seen = []
    real = stream.blocks

    def recording(keys, nonces, counters):
        counters = list(counters)
        seen.extend(zip(keys, nonces, counters))
        return real(keys, nonces, counters)

    monkeypatch.setattr(stream, "blocks", recording)
    return seen


def assert_no_block_repeats(consumed):
    repeats = [block for block, count in Counter(consumed).items() if count > 1]
    assert not repeats, f"{len(repeats)} stream blocks consumed twice, e.g. {repeats[:3]}"


def test_churn_rounds_consume_every_block_once(consumed):
    """Covers on and users going offline, staggered: every live submission,
    banked cover, inner key, shuffle and proof nonce is its own block."""
    deployment = make_deployment(num_users=12, seed=5)
    names = [user.name for user in deployment.users]
    for left, right in zip(names[0:8:2], names[1:8:2]):
        deployment.start_conversation(left, right)
    specs = [
        deployment.round_spec(payloads={names[0]: b"one"}),
        deployment.round_spec(offline_users={names[1], names[9]}),
        deployment.round_spec(offline_users={names[3]}, payloads={names[2]: b"three"}),
        deployment.round_spec(offline_users={names[1], names[4]}),
        deployment.round_spec(),
    ]
    reports = deployment.run_rounds(specs, staggered=True)
    deployment.close()
    assert sum(len(report.used_cover_for) for report in reports) >= 4
    assert len(consumed) > 500
    assert_no_block_repeats(consumed)


def test_blame_reruns_and_reformed_chains_consume_every_block_once(consumed):
    """Forged submissions convict their senders and the chain re-mixes the
    same round (fresh shuffle and nonces from the advanced counter); then a
    tampering server is convicted and its chains re-formed."""
    from repro.faults.runner import ScenarioRunner
    from repro.faults.scenarios import tamper_and_recover

    deployment = make_deployment(seed=6)
    for round_number in (1, 2):
        views = deployment.chain_keys_view(round_number)
        forged = [
            forge_misauthenticated_submission(
                deployment.group, view, round_number, f"forger-{chain_id}"
            )
            for chain_id, view in sorted(views.items())
        ]
        report = deployment.run_round(extra_submissions=forged)
        assert sorted(report.rejected_senders) == sorted(s.sender for s in forged)
        # Every chain convicted its forger and re-mixed the round.
        assert all(
            result.delivered and result.blame_verdict is not None
            for result in report.chain_results.values()
        )
    with make_deployment(seed=7) as scenario:
        summary = ScenarioRunner(scenario, tamper_and_recover()).run()
    deployment.close()
    assert summary.recoveries
    assert_no_block_repeats(consumed)


@pytest.mark.parametrize("name", ADVERSARIAL_SCENARIOS)
def test_adversary_and_fault_draws_never_repeat_an_honest_block(consumed, name):
    """A tampering member's, a forger's and a reorder fault's blocks come
    off keys of their own: none is a block the honest run also drew."""
    scenario_digest(name)
    adversarial = {block for block in consumed if block[1].startswith(stream.DERIVED)}
    honest = {block for block in consumed if not block[1].startswith(stream.DERIVED)}
    assert adversarial and honest
    assert not adversarial & honest
    assert_no_block_repeats(consumed)


def test_adversarial_scenarios_digest_alike_without_the_extension():
    """The adversaries' and faults' draws are tier-independent too: a
    no-extension process lands on this process's scenario bytes."""
    script = (
        "import json\n"
        "from tests.test_stream import ADVERSARIAL_SCENARIOS, scenario_digest\n"
        "print(json.dumps({name: scenario_digest(name) for name in ADVERSARIAL_SCENARIOS}))\n"
    )
    expected = {name: scenario_digest(name) for name in ADVERSARIAL_SCENARIOS}
    assert json.loads(without_the_extension(script)) == expected


def peel(deployment, chain_id, round_number, submission):
    """The inner envelope's ephemeral public under ``submission``'s outer layers."""
    group = deployment.group
    element = group.decode(submission.dh_public)
    ciphertext = submission.ciphertext
    for member in deployment.chain(chain_id).members:
        key = outer_layer_key(group, group.scalar_mult(element, member.mixing_secret))
        ok, ciphertext = adec(key, round_number, ciphertext)
        assert ok
        element = group.scalar_mult(element, member.blinding_secret)
    return InnerEnvelope.from_bytes(ciphertext).ephemeral_public


def test_a_banked_cover_shares_nothing_with_the_live_submission(tier):
    """Both go to the same entry server for the same (user, round, chain
    slot); a shared x or k would repeat every layer key and nonce."""
    deployment = make_deployment(seed=8)
    names = [user.name for user in deployment.users]
    deployment.start_conversation(names[0], names[1])
    round_number = 2
    views = deployment.chain_keys_view(round_number)
    population, users = deployment.population, deployment.users
    live = population.build_round_submissions_batch(round_number, views, users)
    cover = population.build_round_submissions_batch(
        round_number, views, users, offline_notice=True, cover=True
    )
    pairs = [
        (chain_id, left, right)
        for chain_id in sorted(live)
        for left, right in zip(live[chain_id], cover[chain_id])
    ]
    assert pairs and all(left.sender == right.sender for _, left, right in pairs)
    for chain_id, left, right in pairs:
        assert left.dh_public != right.dh_public
        assert left.proof.commitment != right.proof.commitment
        assert peel(deployment, chain_id, round_number, left) != peel(
            deployment, chain_id, round_number, right
        )
    publics = [submission.dh_public for _, left, right in pairs for submission in (left, right)]
    assert len(set(publics)) == len(publics)
    deployment.close()
