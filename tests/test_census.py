"""The leak census in ``tests/conftest.py`` sees each kind of thing it
guards against: a census that sees nothing would pass every test."""

import subprocess
import sys
import threading

from tests.conftest import _children, _open_fds, _owned_threads


def test_a_system_thread_is_counted_until_it_exits():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, name="xrd-tcp-census", daemon=True)
    thread.start()
    try:
        assert thread in _owned_threads()
    finally:
        stop.set()
        thread.join()
    assert thread not in _owned_threads()


def test_other_threads_are_not_counted():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, name="census-bystander", daemon=True)
    thread.start()
    try:
        assert thread not in _owned_threads()
    finally:
        stop.set()
        thread.join()


def test_a_child_process_is_counted_until_it_is_reaped():
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; sys.stdin.read()"], stdin=subprocess.PIPE
    )
    try:
        assert str(child.pid) in _children()
    finally:
        child.stdin.close()
        child.wait()
    assert str(child.pid) not in _children()


def test_an_open_file_descriptor_is_counted_until_it_is_closed(tmp_path):
    before = _open_fds()
    with open(tmp_path / "held", "wb") as held:
        fd = str(held.fileno())
        assert _open_fds()[fd] == str(tmp_path / "held")
        assert before.get(fd) != str(tmp_path / "held")
    assert _open_fds().get(fd) != str(tmp_path / "held")
