"""The per-round trace (DESIGN.md §13) on any thread; its counters are
pinned next to ``GOLDEN`` (``tests/test_engine_parity.py::COUNTERS``)."""

import threading

import pytest

from repro.analysis.measured import chain_hop_seconds, round_latency_seconds
from repro.engine import ParallelBackend
from repro.runner.remote import RemoteMixEngine
from repro.simulation.costmodel import CostModel
from repro.trace import Link, Trace, count, delay, link
from repro.transport import Envelope
from repro.transport import envelope as ev

from tests.conftest import chunk_users
from tests.test_engine_parity import build, conversation_script


def test_links_feed_the_counters_and_a_delay_its_own_record():
    def envelope(kind, round_number=1, chain_id=None):
        return Envelope(kind=kind, payload=None, source="u", destination="s",
                        round_number=round_number, chain_id=chain_id)

    first, second = envelope(ev.BATCH, chain_id=0), envelope(ev.BATCH, chain_id=1)
    link(first, 10)  # outside a stage: recorded nowhere
    with Trace().stage("mix") as recorded:
        link(first, 10)
        link(second, 20)
        link(envelope(ev.SUBMISSION_BATCH), None)  # handed through, not encoded
        delay(first, 0.5)
        delay(envelope(ev.BATCH, round_number=2), 9.0)  # no such record
    assert recorded.counters == {
        f"envelopes.{ev.BATCH}": 2, f"wire_bytes.{ev.BATCH}": 30,
        f"envelopes.{ev.SUBMISSION_BATCH}": 1,
    }
    assert [record.delay_seconds for record in recorded.links] == [0.5, 0.0, 0.0]
    assert recorded.stages() == {"mix"}


def test_the_trace_stays_out_of_the_canonical_bytes():
    deployment = build(transport="tcp")
    report = deployment.run_round()
    deployment.close()
    before = report.canonical_bytes()
    assert report.trace.links and report.trace.spans and report.trace.counters
    report.trace.count("extra", 7)
    report.trace.links.clear()
    report.trace.spans.clear()
    assert report.canonical_bytes() == before


def test_a_pool_helper_charges_the_callers_trace():
    backend, both = ParallelBackend(helpers=1), threading.Barrier(2, timeout=30)

    def run(chain):
        both.wait()  # the caller and the helper take one chain each
        count(f"thread.{threading.get_ident()}", chain)

    with Trace().stage("mix") as recorded:
        backend.map_chains(run, (1, 2))
    backend.map_chains(run, (1, 2))  # outside a round: recorded nowhere
    backend.close()
    assert sorted(recorded.counters.values()) == [1, 2]


def test_staggered_counters_are_exact_on_the_pool():
    """Three helpers, and round r − 1 mixing while round r builds: each round
    counts what the serial run counts, so no work went to the wrong round."""

    def counters(backend):
        deployment = build(transport="tcp")
        deployment.use_backend(backend)
        reports = deployment.run_rounds(conversation_script(deployment), staggered=True)
        deployment.close()
        for report in reports:
            assert {link.round_number for link in report.trace.links} == {report.round_number}
        return [report.trace.counters for report in reports]

    serial = counters(ParallelBackend(helpers=0))
    assert all(serial)
    assert counters(ParallelBackend(helpers=3)) == serial


def test_the_record_count_does_not_grow_with_the_users():
    """Records are per stage, chain, hop, chunk and link, never per user: at
    three chunks, 20× the users move only a chain's mailbox delivery parts."""

    def records(num_users):
        deployment = build(num_users=num_users)
        with chunk_users(num_users // 3):
            trace = deployment.run_round().trace
        deployment.close()
        return len(trace.links), len(trace.spans), sorted(trace.counters)

    links, spans, counters = records(24)
    many_links, many_spans, many_counters = records(480)
    assert (many_spans, many_counters) == (spans, counters)
    assert abs(many_links - links) <= 3  # one delivery part per chain at most


def test_the_remote_coordinator_records_no_precompute_work():
    """Under the distributed runtime the owning mix roles precompute inside
    the ``MIX`` RPC: the coordinator's replica runs no chain's precompute
    and fills no member's table.  (Its stages before mix send nothing, so
    the remote engine needs no live roles here.)"""
    deployment = build()
    remote_engine = RemoteMixEngine(deployment, None, {}, backend=deployment.engine.backend)
    for engine in (deployment.engine, remote_engine):
        remote = engine is remote_engine
        ctx = engine.prepare(deployment.round_spec())
        for stage in (engine.collect, engine.precompute_collected,
                      engine.finalize_collect, engine.precompute):
            stage(ctx)
        trace = ctx.report.trace
        chains = {span.chain_id for span in trace.spans if span.stage == "precompute"}
        tables = [member.round_record(ctx.round_number).precomputed
                  for chain in deployment.chains for member in chain.members]
        if remote:
            assert "precompute" not in trace.stages() and trace.seconds("precompute") == 0
            assert not any(tables)  # every member's table is empty
        else:
            assert chains == {None, 0, 1, 2} and all(tables)
    deployment.close()


def test_round_latency_critical_path():
    """Slowest upload + slowest chain (hops and delivery) + slowest fetch."""
    links = [
        Link(1, kind, "u", "s", chain_id, None, 0, seconds)
        for kind, chain_id, seconds in (
            (ev.SUBMISSION_BATCH, None, 0.2), (ev.SUBMISSION_BATCH, None, 0.1),
            (ev.BATCH, 0, 0.3), (ev.BATCH, 0, 0.3), (ev.BATCH, 1, 0.5),
            (ev.MAILBOX_DELIVERY, 1, 0.2), (ev.MAILBOX_FETCH_BATCH, None, 0.4),
        )
    ]
    model = CostModel.paper_testbed().with_rtt(0.0)  # a zero-byte link costs its delay
    # slowest upload (0.2) + slowest chain (0.5 + 0.2 delivery) + fetch (0.4)
    assert round_latency_seconds(links, model) == pytest.approx(1.3)
    assert chain_hop_seconds(links, model) == {0: pytest.approx(0.6), 1: pytest.approx(0.5)}
