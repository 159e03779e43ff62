"""The :class:`~repro.engine.backends.ParallelBackend` contract suite over
every helper count — no helper is the serial reference — the pool's own
contract, and proof that every per-chain stage fans out through it.

``map_chains(fn, chains)`` is ``[fn(c) for c in chains]`` — same length, same
order — and propagates the first exception (DESIGN.md §2.2); ``close`` is
idempotent and leaves the backend usable.
"""

import collections
import gc
import os
import sys
import threading

import pytest

from repro.engine import ParallelBackend, RoundEngine, StaggeredScheduler
from repro.engine.backends import available_cpus
from repro.errors import ConfigurationError
from repro.mixnet.ahs import MixChain
from repro.population import population as population_module

from tests.test_engine_parity import GOLDEN, build, conversation_script, fingerprints

FACTORIES = {
    "parallel-0": lambda: ParallelBackend(helpers=0),
    "parallel-1": lambda: ParallelBackend(helpers=1),
    "parallel-2": lambda: ParallelBackend(helpers=2),
    "parallel-default": ParallelBackend,
    # More helpers than any map below has chains: only len(chains) − 1 start.
    "parallel-16": lambda: ParallelBackend(helpers=16),
}

#: A deadlocked backend fails here instead of hanging the suite.
TIMEOUT_S = 10


@pytest.fixture(params=sorted(FACTORIES))
def backend(request):
    instance = FACTORIES[request.param]()
    yield instance
    instance.close()


def boom_from(threshold):
    def fn(value):
        if value >= threshold:
            raise RuntimeError("chain %d exploded" % value)
        return value

    return fn


def run_concurrently(*targets):
    """Start one thread per target and join them all, bounded."""
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT_S)
    assert not any(thread.is_alive() for thread in threads), "a caller deadlocked"


class TestBackendContract:
    @pytest.fixture(scope="class")
    def reference(self):
        deployment = build("serial")
        return fingerprints(deployment.run_rounds(conversation_script(deployment)))

    def test_implements_the_backend_contract(self, backend):
        """What the engine and ``Deployment.use_backend`` rely on: a helper
        count, ``map_chains``, and a context manager that yields the backend
        itself and closes it on exit without making it unusable."""
        assert isinstance(backend, ParallelBackend) and backend.helpers >= 0
        with backend as entered:
            assert entered is backend
            assert entered.map_chains(abs, [-1, -2, -3]) == [1, 2, 3]
        assert backend.map_chains(abs, [-4, -5]) == [4, 5]

    def test_map_preserves_order_and_length(self, backend):
        assert backend.map_chains(abs, list(range(-9, 1))) == list(range(9, -1, -1))

    def test_empty_map_is_empty(self, backend):
        assert backend.map_chains(lambda value: value, []) == []

    def test_single_chain_runs_on_the_calling_thread(self, backend):
        caller = threading.current_thread()
        result = backend.map_chains(lambda value: (value, threading.current_thread()), [41])
        assert result == [(41, caller)]

    def test_first_exception_propagates(self, backend):
        with pytest.raises(RuntimeError, match="chain 2 exploded"):
            backend.map_chains(boom_from(2), [0, 1, 2, 3])

    def test_exception_does_not_poison_the_backend(self, backend):
        with pytest.raises(RuntimeError):
            backend.map_chains(boom_from(0), [0, 1, 2])
        assert backend.map_chains(lambda value: -value, [1, 2, 3]) == [-1, -2, -3]

    def test_accepts_any_sequence(self, backend):
        assert backend.map_chains(str, ("a", "b", "c")) == ["a", "b", "c"]
        assert backend.map_chains(lambda value: value + 1, range(4)) == [1, 2, 3, 4]

    def test_usable_again_after_close(self, backend):
        assert backend.map_chains(abs, [-1, -2]) == [1, 2]
        backend.close()
        assert backend.map_chains(abs, [-3, -4]) == [3, 4]

    def test_close_is_idempotent(self, backend):
        backend.map_chains(abs, [-1, -2, -3])
        backend.close()
        backend.close()  # must not raise

    def test_context_manager_closes(self):
        # A fresh instance per factory: the fixture instance must stay open
        # for the other tests' sake.
        for factory in FACTORIES.values():
            with factory() as instance:
                assert instance.map_chains(abs, [-5, -6]) == [5, 6]
            instance.close()  # idempotent even after __exit__

    def test_concurrent_callers_get_their_own_results(self, backend):
        """The staggered scheduler maps the precompute stage on the
        coordinator thread while a mix is mapped on its worker thread."""
        start = threading.Barrier(2, timeout=TIMEOUT_S)
        results = {}

        def caller(tag):
            def run():
                start.wait()
                results[tag] = backend.map_chains(lambda value: (tag, value), list(range(6)))

            return run

        run_concurrently(caller("a"), caller("b"))
        assert results == {tag: [(tag, value) for value in range(6)] for tag in ("a", "b")}

    def test_a_chain_may_map_again(self, backend):
        """A nested call finishes: its caller drains its own chains."""
        results = {}

        def outer():
            results["value"] = backend.map_chains(
                lambda value: backend.map_chains(lambda inner: 10 * value + inner, [0, 1]),
                [1, 2, 3],
            )

        run_concurrently(outer)
        assert results["value"] == [[10, 11], [20, 21], [30, 31]]

    def test_mixes_rounds_like_the_reference(self, backend, reference):
        deployment = build()
        deployment.use_backend(backend)
        actual = fingerprints(deployment.run_rounds(conversation_script(deployment)))
        deployment.close()
        assert actual == reference


def helper_threads():
    return {thread for thread in threading.enumerate() if thread.name.startswith("xrd-chain")}


class TestParallelBackend:
    def test_production_is_the_default_backend(self):
        deployment = build()
        assert type(deployment.engine.backend) is ParallelBackend
        assert deployment.engine.backend.helpers == available_cpus() - 1
        deployment.close()

    def test_chains_really_overlap(self):
        """Two chains on the caller and one helper run at the same time: each
        waits for the other at a barrier, which a one-at-a-time backend
        would break."""
        meet = threading.Barrier(2, timeout=TIMEOUT_S)

        def chain(value):
            meet.wait()
            return value

        with ParallelBackend(helpers=1) as backend:
            assert backend.map_chains(chain, [0, 1]) == [0, 1]

    def test_the_caller_runs_chains_too(self):
        """With more than one chain the calling thread drains the queue
        alongside the helpers; everything else is a named helper thread."""
        meet = threading.Barrier(3, timeout=TIMEOUT_S)

        def chain(value):
            meet.wait()
            return threading.current_thread()

        with ParallelBackend(helpers=2) as backend:
            workers = set(backend.map_chains(chain, [0, 1, 2]))
        caller = threading.current_thread()
        assert caller in workers and len(workers) == 3
        assert all(thread.name.startswith("xrd-chain") for thread in workers - {caller})

    def test_two_callers_finish_while_the_only_helper_is_busy(self):
        """The stagger overlap: one caller's chain holds the one helper, and
        another caller drains its whole map alone instead of waiting."""
        backend = ParallelBackend(helpers=1)
        helper_busy, release = threading.Event(), threading.Event()
        results = {}

        def held(value):
            # Caller and helper take one chain each; the helper's stays busy.
            if threading.current_thread().name.startswith("xrd-chain"):
                helper_busy.set()
                assert release.wait(TIMEOUT_S)
            else:
                assert helper_busy.wait(TIMEOUT_S)
            return value

        def first():
            results["first"] = backend.map_chains(held, [0, 1])

        def second():
            assert helper_busy.wait(TIMEOUT_S)
            results["second"] = backend.map_chains(
                lambda value: (value, threading.current_thread().name), list(range(4))
            )
            release.set()

        try:
            run_concurrently(first, second)
        finally:
            release.set()
            backend.close()
        assert results["first"] == [0, 1]
        assert [value for value, _ in results["second"]] == [0, 1, 2, 3]
        assert not any(name.startswith("xrd-chain") for _, name in results["second"])

    def test_every_chain_runs_exactly_once_under_contention(self):
        """More threads than cores, switching every microsecond: a lost or
        doubled claim shows as a chain run zero or two times, a misplaced
        result as a map that is not the identity."""
        runs = collections.Counter()
        count_lock = threading.Lock()
        wrong = []

        def chain(value):
            with count_lock:
                runs[value] += 1
            return value

        def caller(offset, backend):
            def run():
                for start in range(offset, offset + 2000, 50):
                    chains = list(range(start, start + 50))
                    if backend.map_chains(chain, chains) != chains:
                        wrong.append(start)

            return run

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ParallelBackend(helpers=4) as backend:
                run_concurrently(caller(0, backend), caller(10_000, backend))
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert len(runs) == 4000 and set(runs.values()) == {1}

    def test_zero_helpers_runs_everything_on_the_caller_and_starts_no_thread(self):
        before = threading.active_count()
        caller = threading.current_thread()
        seen = []
        with ParallelBackend(helpers=0) as backend:
            workers = backend.map_chains(
                lambda value: seen.append(value) or threading.current_thread(), list(range(8))
            )
            assert threading.active_count() == before
        assert set(workers) == {caller}
        assert seen == list(range(8))  # a lone caller keeps submission order

    def test_helpers_start_lazily_and_only_as_many_as_a_call_can_use(self):
        before = helper_threads()
        with ParallelBackend(helpers=4) as backend:
            assert helper_threads() == before
            backend.map_chains(abs, [-1, -2])
            assert len(helper_threads() - before) == 1
        assert helper_threads() == before

    def test_helper_count_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert available_cpus() == 3
        assert ParallelBackend().helpers == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {7}, raising=False)
        assert ParallelBackend().helpers == 0

    def test_negative_helper_count_is_refused(self):
        with pytest.raises(ConfigurationError):
            ParallelBackend(helpers=-1)

    @pytest.mark.parametrize("backend", ["production", "parallel"])
    def test_an_unclosed_deployment_leaks_no_thread(self, backend):
        """Tier-1 builds many deployments and closes few: dropping one that
        ran a round stops its helpers without a ``close``."""
        gc.collect()
        baseline = threading.active_count()
        before = helper_threads()
        deployment = build(backend)
        deployment.run_round()
        started = helper_threads() - before
        assert len(started) == min(deployment.engine.backend.helpers, 2)
        del deployment
        gc.collect()
        for thread in started:
            thread.join(TIMEOUT_S)
        assert not any(thread.is_alive() for thread in started)
        assert threading.active_count() <= baseline


class TestBackendConfiguration:
    def test_use_backend_swaps_engine_backend(self):
        deployment = build()
        assert isinstance(deployment.engine.backend, ParallelBackend)
        serial = ParallelBackend(helpers=0)
        deployment.use_backend(serial)
        assert deployment.engine.backend is serial
        report = deployment.run_round()
        deployment.close()
        assert report.all_chains_delivered()

    def test_round_engine_usable_standalone(self):
        """The engine API works without going through Deployment.run_round."""
        deployment = build()
        engine = RoundEngine(deployment, backend=ParallelBackend(helpers=0))
        report = engine.execute_round(deployment.round_spec())
        assert report.round_number == 1
        assert report.all_chains_delivered()

    def test_staggered_scheduler_usable_standalone(self):
        deployment = build()
        scheduler = StaggeredScheduler(deployment.engine)
        reports = scheduler.run_rounds([deployment.round_spec(), deployment.round_spec()])
        assert [report.round_number for report in reports] == [1, 2]


class TestStagesFanOut:
    """Every per-chain stage of a round runs on two threads when one helper
    is pinned: the client build's crypto pass, intake, both precompute
    calls (the overlap window and the post-finalize top-up) and the mix —
    and the output stays byte-identical."""

    STAGES = ("build", "accept", "precompute-overlap", "precompute-topup", "mix")

    @pytest.mark.parametrize("num_chains", [2, 3])
    def test_each_stage_runs_on_two_threads(self, num_chains, monkeypatch):
        seen = {stage: set() for stage in self.STAGES}
        meets = {stage: threading.Barrier(2, timeout=TIMEOUT_S) for stage in self.STAGES}
        paired = set()
        phase = {"precompute": None}

        def record(stage):
            """Note the thread; until a stage's first two calls have met,
            hold each at a barrier so a second thread must take a chain."""
            seen[stage].add(threading.get_ident())
            if stage not in paired and not meets[stage].broken:
                try:
                    meets[stage].wait()
                    paired.add(stage)
                except threading.BrokenBarrierError:
                    pass  # the stage ran on one thread; the assert says which

        def recorded(stage, fn):
            def wrapper(*args, **kwargs):
                record(stage)
                return fn(*args, **kwargs)

            return wrapper

        def precompute_round(chain, *args, **kwargs):
            record(phase["precompute"])
            return original_precompute(chain, *args, **kwargs)

        original_precompute = MixChain.precompute_round
        monkeypatch.setattr(
            population_module, "build_chain_submissions",
            recorded("build", population_module.build_chain_submissions),
        )
        monkeypatch.setattr(
            MixChain, "accept_submissions", recorded("accept", MixChain.accept_submissions)
        )
        monkeypatch.setattr(MixChain, "run_round", recorded("mix", MixChain.run_round))
        monkeypatch.setattr(MixChain, "precompute_round", precompute_round)

        deployment = build("parallel", num_chains=num_chains)
        engine = deployment.engine
        for method, label in (("precompute_collected", "precompute-overlap"),
                              ("precompute", "precompute-topup")):
            def labelled(ctx, _inner=getattr(engine, method), _label=label):
                phase["precompute"] = _label
                return _inner(ctx)

            setattr(engine, method, labelled)
        actual = fingerprints(
            deployment.run_rounds(conversation_script(deployment), staggered=True)
        )
        deployment.close()

        assert {stage: len(threads) for stage, threads in seen.items()} == dict.fromkeys(
            self.STAGES, 2
        )
        if num_chains == 3:  # the pinned configuration
            assert actual == GOLDEN["modp"]["honest"]
        else:
            reference = build("serial", num_chains=num_chains)
            assert actual == fingerprints(reference.run_rounds(conversation_script(reference)))
