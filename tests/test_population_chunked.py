"""The streaming population pipeline (DESIGN.md §9): chunked == monolithic.

Properties under test, per ISSUE 6:

* **bit-identity** — for *random* chunk sizes (including 1 and larger than
  the population), a chunked deployment's round reports equal the
  monolithic batched path's, for submissions, banked covers, and mailbox
  decryption alike (``RoundReport.canonical_bytes`` hashes all three
  observables);
* **chunk mechanics** — :func:`repro.population.streaming.chunk_spans`
  partitions without loss; a chunked build leaves every user's RNG stream
  exactly where the monolithic build does;
* **configuration** — a non-positive chunk size is rejected at
  ``DeploymentConfig.validate`` time with an actionable error.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coordinator.network import DeploymentConfig
from repro.errors import ConfigurationError
from repro.population.streaming import chunk_spans

from tests.conftest import make_deployment

NUM_USERS = 6

_REFERENCE = None


def build(**kwargs):
    return make_deployment(**{"num_users": NUM_USERS, "seed": 77, **kwargs})


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


def run_script(**kwargs):
    deployment = build(**kwargs)
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
    def test_none_is_one_monolithic_span(self):
        assert list(chunk_spans([1, 2, 3], None)) == [[1, 2, 3]]
        assert list(chunk_spans([], None)) == [[]]

    def test_partition_is_lossless_and_ordered(self):
        spans = list(chunk_spans(list(range(10)), 3))
        assert spans == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_chunk_larger_than_items(self):
        assert list(chunk_spans([1, 2], 100)) == [[1, 2]]

    def test_empty_items_yield_one_empty_span(self):
        assert list(chunk_spans([], 4)) == [[]]

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            list(chunk_spans([1], 0))


class TestChunkedBitIdentity:
    """Hypothesis: any chunk size is unobservable."""

    @settings(max_examples=8, deadline=None)
    @given(chunk_size=st.integers(min_value=1, max_value=NUM_USERS + 3))
    def test_random_chunking_matches_monolithic(self, chunk_size):
        actual = run_script(population_chunk_size=chunk_size)
        assert actual == reference_fingerprints()

    def test_chunk_of_one_matches(self):
        assert run_script(population_chunk_size=1) == reference_fingerprints()

    def test_chunk_beyond_population_matches(self):
        assert (
            run_script(population_chunk_size=NUM_USERS + 50)
            == reference_fingerprints()
        )


class TestStreamingConfiguration:
    def test_nonpositive_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            DeploymentConfig(population_chunk_size=0).validate()

    def test_coherent_streaming_config_accepted(self):
        DeploymentConfig(population_chunk_size=10).validate()
