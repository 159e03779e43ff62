"""The streaming population pipeline (DESIGN.md §9): the chunk size is unobservable.

Properties under test:

* **bit-identity** — for *random* chunk sizes (including 1 and larger than
  the population), a round's reports equal those of the one-chunk round,
  for submissions, banked covers, and mailbox decryption alike
  (``RoundReport.canonical_bytes`` hashes all three observables);
* **chunk mechanics** — :func:`repro.population.streaming.chunk_spans`
  partitions without loss, and a round one user past
  :data:`~repro.population.streaming.CHUNK_USERS` frames its population
  flows in two chunks, unpatched.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coordinator.adversary import forge_invalid_proof_submission
from repro.population.streaming import CHUNK_USERS, chunk_spans
from repro.transport.envelope import BATCH, INJECTED, MAILBOX_FETCH_BATCH, SUBMISSION_BATCH

from tests.conftest import chunk_users, make_deployment

NUM_USERS = 6

_REFERENCE = None


def two_round_script(deployment):
    """Conversation payloads, an offline round spending banked covers, and a
    plain round — together touching every streamed flow (build, cover bank,
    delivery, fetch/decrypt, §5.3.3 offline notices)."""
    a, b = deployment.users[0].name, deployment.users[1].name
    deployment.start_conversation(a, b)
    return [
        deployment.round_spec(payloads={a: b"ping", b: b"pong"}),
        deployment.round_spec(offline_users={b}),
        deployment.round_spec(payloads={a: b"again"}),
    ]


def run_script(chunk=CHUNK_USERS):
    """The script's canonical bytes, in chunks of ``chunk`` users (by
    default the production size: one chunk at this population)."""
    deployment = make_deployment(num_users=NUM_USERS, seed=77)
    with chunk_users(chunk):
        reports = deployment.run_rounds(two_round_script(deployment))
    fingerprints = [report.canonical_bytes() for report in reports]
    deployment.close()
    return fingerprints


def reference_fingerprints():
    global _REFERENCE
    if _REFERENCE is None:
        _REFERENCE = run_script()
    return _REFERENCE


class TestChunkSpans:
    def test_partition_is_lossless_and_ordered(self):
        with chunk_users(3):
            spans = list(chunk_spans(list(range(10))))
        assert spans == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_chunk_larger_than_items(self):
        with chunk_users(100):
            assert list(chunk_spans([1, 2])) == [[1, 2]]

    def test_empty_items_yield_one_empty_span(self):
        with chunk_users(4):
            assert list(chunk_spans([])) == [[]]

    def test_production_chunks_hold_250_users(self):
        assert [len(span) for span in chunk_spans(range(501))] == [250, 250, 1]


class TestChunkedBitIdentity:
    """Hypothesis: any chunk size is unobservable."""

    @settings(max_examples=8, deadline=None)
    @given(chunk_size=st.integers(min_value=1, max_value=NUM_USERS + 3))
    def test_random_chunking_matches_one_chunk(self, chunk_size):
        assert run_script(chunk_size) == reference_fingerprints()

    def test_chunk_of_one_matches(self):
        assert run_script(1) == reference_fingerprints()

    def test_chunk_beyond_population_matches(self):
        assert run_script(NUM_USERS + 50) == reference_fingerprints()


def test_one_user_past_a_chunk_frames_two_chunks():
    """At the production chunk size, unpatched: 251 users are two chunks.
    The last user rides both chains, so each chain's upload is two frames;
    each mailbox shard is fetched once per chunk whose users it holds; hops
    carry the whole chain batch and belong to no chunk."""
    deployment = make_deployment(
        num_servers=3, num_users=CHUNK_USERS + 1, num_chains=2, num_mailbox_servers=2, seed=1,
    )
    assert set(deployment.population.chain_assignments[deployment.users[-1].name]) == {0, 1}
    links = deployment.run_round().trace.links
    chunks = [deployment.users[:CHUNK_USERS], deployment.users[CHUNK_USERS:]]
    fetched = {
        (server.name, part)
        for part, span in enumerate(chunks)
        for server, _ in deployment.mailboxes.shard_owners([user.public_bytes for user in span])
    }
    deployment.close()

    uploads = sorted((link.chain_id, link.part) for link in links if link.kind == SUBMISSION_BATCH)
    assert uploads == [(chain, part) for chain in (0, 1) for part in (0, 1)]
    fetches = Counter((link.source, link.part) for link in links if link.kind == MAILBOX_FETCH_BATCH)
    assert set(fetches) == fetched and set(fetches.values()) == {1}
    hops = [link for link in links if link.kind == BATCH]
    assert hops and all(link.part is None for link in hops)


def test_only_hops_and_injected_uploads_belong_to_no_chunk():
    """Every population flow — uploads, banked covers, mailbox deliveries,
    fetches — carries its chunk's index; a hop moves the whole chain batch
    and an injected upload comes from no user, so their ``part`` is None."""
    deployment = make_deployment(num_users=NUM_USERS, seed=77)
    deployment.engine.announce(1)
    forged = forge_invalid_proof_submission(
        deployment.group, deployment.chain_keys_view(1)[0], 1, "mallory"
    )
    with chunk_users(2):
        report = deployment.run_round(extra_submissions=[forged])
    deployment.close()
    assert report.rejected_senders == ["mallory"]
    links = report.trace.links
    assert {link.source for link in links} >= {INJECTED}
    for link in links:
        assert (link.part is None) == (link.kind == BATCH or link.source == INJECTED), link
    assert {link.part for link in links if link.kind == MAILBOX_FETCH_BATCH} == {0, 1, 2}
