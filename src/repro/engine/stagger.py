"""The stagger optimisation, end to end (§5.2.2 / DESIGN.md §2.3).

The paper pipelines consecutive rounds: while the chains mix round *r*, the
users already build and submit their round *r + 1* messages, hiding client
submission time behind server mixing time.  The analytic latency model
(:func:`repro.simulation.latency.xrd_latency_pipeline`) prices this; the
:class:`StaggeredScheduler` here actually *executes* it against the real
protocol stack.

Schedule for round *r* in the steady state::

    coordinator thread                     mix worker
    ------------------                     ----------
    prepare(r)      (cached key views)
    collect(r)                             mix(r-1)      ← overlapped
    precompute(r)   (collected users)      mix(r-1)      ← overlapped
    join mix(r-1); deliver(r-1); fetch(r-1)
    finalize_collect(r)  (deferred users)
    precompute(r) top-up (only if deferred/extras); announce(r+1 [, r+2])
    dispatch mix(r) ────────────────────►  mix(r)

Only *collect* (user state, cover store) and *precompute* (round *r*'s
per-round tables, §5.2.1 / DESIGN.md §8) ever overlap *mix* (round *r − 1*'s
chain state) — disjoint by construction, see DESIGN.md §2.3.  Round *r*'s
public-key work (DH blinding, layer-key derivation) therefore hides behind
round *r − 1*'s online phase; the deferred users and injected extras the
overlap window cannot see are topped up in the same coordinator-thread
window that handles ``announce``.  Inner keys for future rounds are
announced on the coordinator thread between joins (``announce``), so the
overlapped collect never touches chain state; the overlapped precompute
writes only its own round's tables, which no other round reads.

Two properties make staggered output bit-identical to serial execution under
a fixed seed.  First, every member's per-round randomness is an independent
derived stream, so announcing a future round's inner keys early changes no
output.  Second, the one real data dependency between consecutive rounds —
an offline notice delivered in round *r*'s fetch ends the recipient's
conversation and changes what she sends in round *r + 1* — is honoured by
deferral: the engine reports who may receive a notice
(``ctx.notice_targets``, known to the coordinator because it played the
covers), and the scheduler builds exactly those users' round *r + 1*
submissions after round *r*'s fetch, in :meth:`RoundEngine.finalize_collect`.
Everyone else's submissions are built during the overlap.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Iterable, List, Optional, Tuple

from repro.engine.round_engine import RoundEngine
from repro.engine.stages import RoundContext, RoundReport, RoundSpec

__all__ = ["StaggeredScheduler"]


class StaggeredScheduler:
    """Pipelines consecutive rounds: collect *r + 1* while *r* is mixing."""

    def __init__(self, engine: RoundEngine) -> None:
        self.engine = engine

    def run_rounds(self, specs: Iterable[RoundSpec]) -> List[RoundReport]:
        """Execute the given rounds with the stagger optimisation.

        Returns one report per spec, in order.  A failure in any stage
        surfaces as the original exception after the in-flight round has
        been joined, so chain state is never abandoned mid-mix.
        """
        engine = self.engine
        deployment = engine.deployment
        # How far ahead inner keys must be announced so that the *next*
        # iteration's prepare finds every view cached: prepare(r) reads
        # views for r and, when covers are built, r + 1.
        horizon = 2 if deployment.config.use_cover_messages else 1

        reports: List[RoundReport] = []
        pending: Optional[Tuple[RoundContext, Future]] = None
        executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="xrd-mix")

        def join_pending() -> None:
            nonlocal pending
            if pending is None:
                return
            ctx, future = pending
            pending = None
            future.result()
            engine.deliver(ctx)
            engine.fetch(ctx)
            reports.append(ctx.report)

        try:
            deferred: frozenset = frozenset()
            for spec in specs:
                ctx = engine.prepare(spec)
                engine.collect(ctx, defer=deferred)  # overlaps the previous round's mixing
                engine.precompute_collected(ctx)  # so does this round's public-key work
                # The overlap pass covered every built submission; only
                # deferred users (built in finalize_collect, below) and
                # injected extras can need a top-up.  Decide *before*
                # finalize clears the deferred list, and skip the top-up
                # entirely in the common all-online case so the
                # non-overlapped window between join and dispatch stays
                # thin — no re-walk of the full batch just to find zero
                # misses (member tables make the rerun incremental, but
                # the decode/encode sweep over the batch is not free).
                needs_topup = bool(ctx.deferred_users) or bool(spec.extra_submissions)
                join_pending()
                engine.finalize_collect(ctx)  # deferred users see the fetched state
                if needs_topup:
                    engine.precompute(ctx)  # top up deferred users and extras
                engine.announce(ctx.round_number + horizon)
                deferred = frozenset(ctx.notice_targets)
                pending = (ctx, executor.submit(engine.mix, ctx))
            join_pending()
        finally:
            if pending is not None:  # an earlier stage raised; don't abandon the mix
                pending[1].cancel()
                try:
                    pending[1].result()
                except Exception:
                    pass
            executor.shutdown(wait=True)
        return reports
