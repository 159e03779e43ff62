"""Real-socket transport overhead: TCP loopback vs. the in-process transport.

The distributed runtime's parity tests prove the TCP transport changes
*nothing observable*; this companion measures what it costs.  A loopback
reflector (one live listener, real length-prefixed frames: encode →
socket → the listener parses and validates the payload and sends its bytes
back → socket → the requester parses and validates it again) is timed
against the function-call transport on identical envelopes, and the
pipelined ``deliver_many`` path is compared against the same envelopes
delivered one blocking request at a time — the reason the engine's batch
fan-outs go through ``request_batch`` rather than a loop.
"""

import time

import pytest

from repro.crypto.group import ModPGroup
from repro.mixnet.messages import SubmissionBatch
from repro.transport import InProcTransport
from repro.transport.envelope import SUBMISSION_BATCH, Envelope
from repro.transport.tcp import TcpTransport

from benchmarks.conftest import save_result
from tests.test_transport import make_submission

BATCH = 32


def submission_envelopes(group, count):
    envelopes = []
    for index in range(count):
        submission = make_submission(group, chain_id=1, sender=f"user-{index}")
        envelopes.append(
            Envelope(
                kind=SUBMISSION_BATCH,
                source=f"user-{index}",
                destination="server-0",
                round_number=1,
                payload=SubmissionBatch.from_submissions(group, [submission]),
                chain_id=1,
            )
        )
    return envelopes


def test_tcp_loopback_roundtrip(benchmark):
    group = ModPGroup(bits=96)
    transport = TcpTransport(group, node_name="bench")
    [envelope] = submission_envelopes(group, 1)
    try:
        reply = benchmark(transport.deliver, envelope)
        assert reply == envelope.payload
    finally:
        transport.close()


@pytest.mark.wallclock
def test_pipelined_batch_vs_sequential_requests():
    group = ModPGroup(bits=96)
    envelopes = submission_envelopes(group, BATCH)
    inproc = InProcTransport()
    tcp = TcpTransport(group, node_name="bench-batch")
    try:
        expected = [inproc.deliver(envelope) for envelope in envelopes]

        started = time.perf_counter()
        sequential = [tcp.deliver(envelope) for envelope in envelopes]
        sequential_seconds = time.perf_counter() - started

        started = time.perf_counter()
        pipelined = tcp.deliver_many(envelopes)
        pipelined_seconds = time.perf_counter() - started

        started = time.perf_counter()
        for envelope in envelopes:
            inproc.deliver(envelope)
        inproc_seconds = time.perf_counter() - started
    finally:
        tcp.close()
        inproc.close()

    assert sequential == expected
    assert pipelined == expected
    # The hard bar is correctness-parity, measured elsewhere; here we only
    # require pipelining not to regress sequential delivery (it is usually
    # several times faster, but CI timing noise gets a wide allowance).
    assert pipelined_seconds < sequential_seconds * 1.25

    lines = [
        "TCP loopback transport overhead "
        f"({BATCH} submission envelopes, one connection)",
        f"  in-process function call : {inproc_seconds * 1e3:8.2f} ms total",
        f"  tcp, sequential requests : {sequential_seconds * 1e3:8.2f} ms total "
        f"({sequential_seconds / BATCH * 1e6:7.0f} us/envelope)",
        f"  tcp, pipelined batch     : {pipelined_seconds * 1e3:8.2f} ms total "
        f"({pipelined_seconds / BATCH * 1e6:7.0f} us/envelope, "
        f"{sequential_seconds / max(pipelined_seconds, 1e-9):.1f}x vs sequential)",
    ]
    save_result("tcp_loopback_roundtrip", "\n".join(lines))
