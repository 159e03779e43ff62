"""Scope configuration: which files each rule family applies to.

The defaults encode this repository's layout.  Tests (and any future tree
reorganisation) construct a :class:`LintConfig` explicitly; every scope is
a tuple of :mod:`fnmatch` globs matched against the POSIX form of the
file's display path, so ``*/repro/crypto/*`` matches
``src/repro/crypto/field.py`` however the tree is mounted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Optional, Sequence, Tuple

__all__ = ["LintConfig"]

#: Packages whose code is "protocol code": anything here can influence wire
#: bytes, RNG draws, or the parity matrix.  The modelling/analysis packages
#: (``analysis``, ``baselines``, ``simulation``) and the benchmark harness
#: are deliberately out of scope — they report on rounds, they do not
#: produce round bytes.
_PROTOCOL = (
    "*/repro/client/*",
    "*/repro/coordinator/*",
    "*/repro/crypto/*",
    "*/repro/engine/*",
    "*/repro/faults/*",
    "*/repro/mailbox/*",
    "*/repro/mixnet/*",
    "*/repro/population/*",
    "*/repro/runner/*",
    "*/repro/transport/*",
    "*/repro/registry.py",
    "*/repro/constants.py",
    "*/repro/trace.py",
)

#: The native-kernel loader surface held to the never-raise-at-import /
#: always-offer-a-fallback contract (DESIGN.md §11).
_NATIVE_LOADERS = (
    "*/repro/native/__init__.py",
    "*/repro/crypto/kernels.py",
)


def _matches(path: str, globs: Sequence[str]) -> bool:
    return any(fnmatch(path, glob) for glob in globs)


@dataclass(frozen=True)
class LintConfig:
    """Every knob the rules consult, with repo-layout defaults."""

    protocol_globs: Tuple[str, ...] = _PROTOCOL
    native_loader_globs: Tuple[str, ...] = _NATIVE_LOADERS
    #: Where the codec-exhaustiveness rule looks for round-trip tests; None
    #: disables the test cross-reference (XRD402).
    tests_dir: Optional[Path] = field(default_factory=lambda: Path("tests"))

    # -- scope predicates (rules call these, never the globs directly) -------

    def in_protocol_scope(self, path: str) -> bool:
        return _matches(path, self.protocol_globs)

    def in_native_loader_scope(self, path: str) -> bool:
        return _matches(path, self.native_loader_globs)
