"""Peak-RSS measurement shared by the scale benchmarks (ISSUE 6).

``resource.getrusage(...).ru_maxrss`` is a *whole-process high-water mark*:
monotonic, never reset by the kernel, so in a multi-point benchmark every
point after the largest one silently inherits its predecessor's peak and
per-point numbers are not attributable.  Linux exposes a reset knob —
writing ``5`` to ``/proc/self/clear_refs`` zeroes the ``VmHWM`` field of
``/proc/self/status`` down to the current RSS — which :class:`PeakRssMeter`
uses to give each measured window its own peak:

* ``__enter__`` collects garbage, asks glibc to return freed arenas to the
  kernel (``malloc_trim``), and resets ``VmHWM``;
* ``__exit__`` reads the window's own ``VmHWM``.

Every measured workload runs in this one process (nothing in the library
forks), so no child's peak needs folding in.

On platforms without ``/proc`` the meter degrades to the monotonic
``ru_maxrss`` (normalised to bytes — Linux reports KiB, macOS bytes), which
is still correct for single-point runs.
"""

from __future__ import annotations

import ctypes
import gc
import resource
import sys

__all__ = [
    "peak_rss_bytes",
    "current_rss_bytes",
    "resettable_peak_rss_bytes",
    "reset_peak_rss",
    "PeakRssMeter",
]

_CLEAR_REFS = "/proc/self/clear_refs"
_STATUS = "/proc/self/status"


def _maxrss_to_bytes(rss: int) -> int:
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return rss if sys.platform == "darwin" else rss * 1024


def peak_rss_bytes() -> int:
    """This process's peak resident set size (monotonic high-water mark)."""
    return _maxrss_to_bytes(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _read_status_field(field: str) -> int | None:
    try:
        with open(_STATUS) as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) * 1024  # kB
    except OSError:
        return None
    return None


def current_rss_bytes() -> int:
    """The process's current resident set size."""
    value = _read_status_field("VmRSS")
    return value if value is not None else peak_rss_bytes()


def resettable_peak_rss_bytes() -> int:
    """``VmHWM``: like :func:`peak_rss_bytes` but resettable on Linux."""
    value = _read_status_field("VmHWM")
    return value if value is not None else peak_rss_bytes()


def _malloc_trim() -> None:
    """Ask glibc to return freed arena memory to the kernel.

    Without this, pages freed by a previous benchmark point linger in
    malloc's arenas, stay resident, and become the floor the next point's
    reset lands on.  Best-effort: silently a no-op off glibc.
    """
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except Exception:
        pass


def reset_peak_rss() -> bool:
    """Reset ``VmHWM`` to the current RSS (Linux).  Returns success."""
    try:
        with open(_CLEAR_REFS, "w") as clear_refs:
            clear_refs.write("5")
        return True
    except OSError:
        return False


class PeakRssMeter:
    """Attribute a peak-RSS figure to one measured window.

    >>> with PeakRssMeter() as meter:
    ...     run_round()
    >>> meter.peak_bytes  # this window's own high-water mark

    Attributes after exit:

    * ``peak_bytes`` — the process's peak during the window (per-window on
      Linux; the monotonic whole-process peak elsewhere, see
      ``attributable``): the figure the scale tables report.
    """

    def __init__(self) -> None:
        self.attributable = False
        self.baseline_bytes = 0
        self.peak_bytes = 0

    def __enter__(self) -> "PeakRssMeter":
        gc.collect()
        _malloc_trim()
        self.attributable = reset_peak_rss()
        self.baseline_bytes = current_rss_bytes()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.peak_bytes = (
            resettable_peak_rss_bytes() if self.attributable else peak_rss_bytes()
        )
