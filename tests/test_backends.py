"""The shared :class:`~repro.engine.backends.ExecutionBackend` contract suite.

``map_chains(fn, chains)`` is ``[fn(c) for c in chains]`` — same length, same
order — and propagates the first exception (DESIGN.md §2.2); ``close`` is
idempotent and leaves the backend usable.  A new backend only needs a
factory row here to prove itself.
"""

import threading

import pytest

from repro.coordinator.network import DeploymentConfig
from repro.engine import ExecutionBackend, ParallelBackend, SerialBackend, make_backend
from repro.errors import ConfigurationError
from repro.registry import ExecutionBackendKind

from tests.test_engine_parity import build, conversation_script, fingerprints

FACTORIES = {
    "serial": SerialBackend,
    "parallel-1": lambda: ParallelBackend(max_workers=1),
    "parallel-2": lambda: ParallelBackend(max_workers=2),
    "parallel-default": ParallelBackend,
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


class TestBackendContract:
    @pytest.fixture(scope="class")
    def reference(self):
        deployment = build("serial")
        return fingerprints(deployment.run_rounds(conversation_script(deployment)))

    def test_is_an_execution_backend(self, backend):
        assert isinstance(backend, ExecutionBackend)
        assert ExecutionBackendKind(backend.name).value == backend.name

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
                assert isinstance(instance, ExecutionBackend)
                assert instance.map_chains(abs, [-5, -6]) == [5, 6]
            instance.close()  # idempotent even after __exit__

    def test_concurrent_callers_get_their_own_results(self, backend):
        """The staggered scheduler maps the precompute stage on the
        coordinator thread while a mix is mapped on its worker thread."""
        start = threading.Barrier(2, timeout=TIMEOUT_S)
        results = {}

        def caller(tag):
            start.wait()
            results[tag] = backend.map_chains(lambda value: (tag, value), list(range(6)))

        threads = [threading.Thread(target=caller, args=(tag,)) for tag in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT_S)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {tag: [(tag, value) for value in range(6)] for tag in ("a", "b")}

    def test_mixes_rounds_like_the_reference(self, backend, reference):
        deployment = build("serial")
        deployment.use_backend(backend)
        actual = fingerprints(deployment.run_rounds(conversation_script(deployment)))
        deployment.close()
        assert actual == reference


class TestBackendRegistry:
    @pytest.mark.parametrize("kind", list(ExecutionBackendKind))
    def test_make_backend_builds_each_kind(self, kind):
        for key in (kind, kind.value):
            with make_backend(key) as instance:
                assert instance.name == kind.value

    def test_only_the_two_thread_backends_exist(self):
        assert [kind.value for kind in ExecutionBackendKind] == ["serial", "parallel"]
        with pytest.raises(ConfigurationError, match=r"\['serial', 'parallel'\]"):
            DeploymentConfig(execution_backend="multiprocess").validate()


class TestParallelBackend:
    def test_chains_really_overlap(self):
        """Two chains on two workers run at the same time: each waits for the
        other at a barrier, which a one-at-a-time backend would break."""
        meet = threading.Barrier(2, timeout=TIMEOUT_S)

        def chain(value):
            meet.wait()
            return value

        with ParallelBackend(max_workers=2) as backend:
            assert backend.map_chains(chain, [0, 1]) == [0, 1]

    def test_workers_are_the_named_pool_threads(self):
        with ParallelBackend(max_workers=2) as backend:
            names = backend.map_chains(
                lambda value: threading.current_thread().name, list(range(4))
            )
        assert all(name.startswith("xrd-chain") for name in names)

    def test_one_worker_runs_chains_in_submission_order(self):
        seen = []
        with ParallelBackend(max_workers=1) as backend:
            backend.map_chains(seen.append, list(range(8)))
        assert seen == list(range(8))
