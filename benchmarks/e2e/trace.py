"""In-memory span tracer for the traced benchmark pass.

Spans are recorded from the harness's side of each layer boundary: the
tracer replaces *instance* attributes (never class attributes, never a
file under ``src/``) with timing wrappers, so ``self.prepare(...)`` inside
the engine and ``engine.mix`` handed to the stagger thread both resolve to
the wrapper.  A span's parent is the span open on the same thread when it
started (a thread-local stack), and its self time is its duration minus
its direct children — so the self times of one thread's spans add up to
that thread's covered wall time, with nothing counted twice.

Only the traced pass imports this module; end-to-end metrics are measured
with it absent.
"""

from __future__ import annotations

import itertools
import threading
import time
from statistics import fmean
from typing import Any, Callable, Dict, List, Optional

ENGINE_STAGES = (
    "announce",
    "prepare",
    "collect",
    "precompute_collected",
    "finalize_collect",
    "precompute",
    "mix",
    "deliver",
    "fetch",
)


def _round_of(args: tuple) -> Optional[int]:
    """The round a call names: an int first argument, or ``round_number`` on
    the first argument (a RoundContext or an Envelope)."""
    if not args:
        return None
    first = args[0]
    if isinstance(first, int):
        return first
    return getattr(first, "round_number", None)


class Tracer:
    """Records spans around wrapped bound methods; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.absent: List[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, obj: Any, attr: str, name: str,
             count: Optional[Callable[[tuple, Any], Dict[str, int]]] = None,
             **tags: Any) -> None:
        """Replace ``obj.attr`` with a span-recording wrapper.

        A missing attribute is noted in :attr:`absent` instead of raised, so
        a renamed method blinds one layer (which the tier-1 smoke then
        reports) instead of breaking the benchmark.  ``count`` turns a
        call's arguments and result into counters stored on the span.
        """
        inner = getattr(obj, attr, None)
        if not callable(inner):
            self.absent.append(f"{type(obj).__name__}.{attr}")
            return

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            # span id, time spent in children, round (inherited when the
            # call itself does not name one)
            frame = [next(self._ids), 0.0, _round_of(args) or (parent and parent[2])]
            stack.append(frame)
            result, completed = None, False
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
                completed = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                span = {
                    "id": frame[0],
                    "name": name,
                    "start": start,
                    "end": end,
                    "self": end - start - frame[1],
                    "parent": parent[0] if parent is not None else None,
                    "thread": threading.get_ident(),
                    "round": frame[2] or getattr(result, "round_number", None),
                }
                span.update(tags)
                if count is not None and completed:
                    span.update(count(args, result))
                self.spans.append(span)

        setattr(obj, attr, traced)


def _wire_count(args: tuple, reply: Any) -> Dict[str, int]:
    # TcpTransport.request(peer, frame_type, body) -> reply bytes
    return {"wire_bytes": len(args[2]) + len(reply)}


def _wire_count_batch(args: tuple, replies: Any) -> Dict[str, int]:
    # TcpTransport.request_batch([(peer, frame_type, body), ...]) -> [reply, ...]
    return {"wire_bytes": sum(len(item[2]) for item in args[0]) + sum(map(len, replies))}


def install(tracer: Tracer, deployment: Any) -> None:
    """Wrap the public bound methods of every layer of ``deployment``."""
    engine = deployment.engine
    for stage in ENGINE_STAGES:
        tracer.wrap(engine, stage, f"engine.{stage}")
    transport = deployment.transport
    tracer.wrap(transport, "deliver", "transport.deliver",
                count=lambda args, result: {"envelopes": 1})
    tracer.wrap(transport, "deliver_many", "transport.deliver_many",
                count=lambda args, result: {"envelopes": len(args[0])})
    # Real sockets only: the in-process hand-off has no request layer, which
    # is why wire_bytes reads 0 there.
    if hasattr(transport, "request"):
        tracer.wrap(transport, "request", "transport.request", count=_wire_count)
        tracer.wrap(transport, "request_batch", "transport.request_batch",
                    count=_wire_count_batch)
    for chain in deployment.chains:
        tracer.wrap(chain, "accept_submissions", "mixnet.accept", chain=chain.chain_id)
        tracer.wrap(chain, "precompute_round", "mixnet.precompute", chain=chain.chain_id)
        tracer.wrap(chain, "run_round", "mixnet.run_round", chain=chain.chain_id)
        for member in chain.members:
            tracer.wrap(member, "process_round", "mixnet.hop",
                        chain=chain.chain_id, position=member.position)
    tracer.wrap(deployment.mailboxes, "deliver_batch", "mailbox.deliver")
    tracer.wrap(deployment.mailboxes, "fetch_batch", "mailbox.fetch")
    tracer.wrap(deployment.population, "decrypt_mailboxes_batch", "population.decrypt")


# -- per-layer metrics ---------------------------------------------------------

#: The layer each span's self time is charged to.  ``mixnet.run_round`` is
#: split when read: an attempt that halted and re-ran the round after blame
#: is ``mixnet.blame_s``; a completed one (aggregate proofs, inner-key
#: reveal, final decryption) belongs to ``mixnet.mix_s``.
_LAYER_OF = {
    "engine.collect": "population.build_s",
    "engine.finalize_collect": "population.build_s",
    "population.decrypt": "population.decrypt_s",
    "mailbox.deliver": "mailbox.deliver_s",
    "mailbox.fetch": "mailbox.fetch_s",
    "transport.deliver": "transport.wire_s",
    "transport.deliver_many": "transport.wire_s",
    "transport.request": "transport.wire_s",
    "transport.request_batch": "transport.wire_s",
    "engine.precompute": "mixnet.precompute_s",
    "engine.precompute_collected": "mixnet.precompute_s",
    "mixnet.precompute": "mixnet.precompute_s",
    "mixnet.accept": "mixnet.mix_s",
    "mixnet.run_round": "mixnet.mix_s",
    "mixnet.hop": "mixnet.mix_s",
    "engine.announce": "engine.self_s",
    "engine.prepare": "engine.self_s",
    "engine.mix": "engine.self_s",
    "engine.deliver": "engine.self_s",
    "engine.fetch": "engine.self_s",
}

#: The layers whose self times partition the traced round.
TIME_LAYERS = (
    "population.build_s",
    "population.decrypt_s",
    "mailbox.deliver_s",
    "mailbox.fetch_s",
    "transport.wire_s",
    "mixnet.precompute_s",
    "mixnet.mix_s",
    "mixnet.blame_s",
    "engine.self_s",
)

#: Every workload runs chains of this length; one ``mixnet.hop<p>_s`` each.
CHAIN_LENGTH = 3


def layer_metrics(spans: List[dict], windows: List[dict], main_thread: int) -> Dict[str, float]:
    """Fold the spans inside the timed ``windows`` into per-round metrics.

    Each window is ``{"start", "end", "rounds"}``.  Seconds are per
    completed round and summed over threads.  ``trace.coverage`` is the
    share of the windows' wall time the coordinating thread spent inside a
    span or waiting for a mix on the stagger thread: where it falls short
    of 1, a stage the tracer does not know has appeared.
    """
    rounds = sum(window["rounds"] for window in windows)
    wall = sum(window["end"] - window["start"] for window in windows)
    timed = [
        span for span in spans
        if any(w["start"] <= span["start"] and span["end"] <= w["end"] for w in windows)
    ]
    attempts = {span["id"]: span for span in timed if span["name"] == "mixnet.run_round"}
    halted = {span["parent"] for span in attempts.values()} & set(attempts)

    totals: Dict[str, float] = dict.fromkeys(TIME_LAYERS, 0.0)
    hops = [0.0] * CHAIN_LENGTH
    accept = 0.0
    envelopes = wire_bytes = 0
    chain_seconds: Dict[tuple, float] = {}
    for span in timed:
        name = span["name"]
        layer = "mixnet.blame_s" if span["id"] in halted else _LAYER_OF[name]
        totals[layer] += span["self"]
        if name == "mixnet.hop":
            hops[span["position"]] += span["self"]
        elif name == "mixnet.accept":
            accept += span["self"]
        envelopes += span.get("envelopes", 0)
        wire_bytes += span.get("wire_bytes", 0)
        if name == "mixnet.accept" or (name == "mixnet.run_round" and span["parent"] not in attempts):
            key = (span["round"], span["chain"])
            chain_seconds[key] = chain_seconds.get(key, 0.0) + span["end"] - span["start"]
    skews = []
    for number in {key[0] for key in chain_seconds}:
        per_chain = [seconds for key, seconds in chain_seconds.items() if key[0] == number]
        skews.append(max(per_chain) / fmean(per_chain))

    # The coordinating thread's view: its top-level spans, and for every mix
    # that ran on the stagger thread, how much of it the coordinator spent
    # working (overlap) and how much waiting to join it.
    main_top = [
        (span["start"], span["end"]) for span in timed
        if span["thread"] == main_thread and span["parent"] is None
    ]
    covered = sum(end - start for start, end in main_top)
    mix_seconds = overlap = 0.0
    for mix in timed:
        if mix["name"] == "engine.mix" and mix["thread"] != main_thread:
            mix_seconds += mix["end"] - mix["start"]
            overlap += sum(
                max(0.0, min(mix["end"], end) - max(mix["start"], start))
                for start, end in main_top
            )
    join_wait = mix_seconds - overlap

    metrics = {layer: total / rounds for layer, total in totals.items()}
    for position, total in enumerate(hops):
        metrics[f"mixnet.hop{position}_s"] = total / rounds
    metrics["mixnet.accept_s"] = accept / rounds
    metrics["mixnet.chain_skew"] = fmean(skews) if skews else 1.0
    metrics["transport.envelopes"] = envelopes / rounds
    metrics["transport.wire_bytes"] = wire_bytes / rounds
    metrics["engine.overlap_share"] = overlap / mix_seconds if mix_seconds else 0.0
    metrics["engine.join_wait_s"] = join_wait / rounds
    metrics["trace.round_s"] = wall / rounds
    metrics["trace.coverage"] = (covered + join_wait) / wall
    return metrics
