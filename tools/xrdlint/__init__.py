"""xrdlint — the repo's invariant-enforcing static analyzer (DESIGN.md §12).

Every aggressive refactor in this repo is underwritten by the engine parity
matrix: all backends × schedulers × transports × populations × kernels must
produce bit-identical ``RoundReport`` bytes under a fixed seed, and blame
only works because replicas agree byte-for-byte on what was sent.  Those
invariants are enforced *dynamically* by the test suite; xrdlint is the
static half of the safety net — it walks the AST of the protocol packages
and flags code that could break an invariant on a path the matrix does not
exercise.

Rule families (one module per family under :mod:`tools.xrdlint.rules`):

=======  ==================================================================
XRD1xx   determinism — no unseeded entropy or wall-clock reads in protocol
         code; no unordered (set) iteration feeding ordering-sensitive flows
XRD2xx   secret hygiene — secret scalars and derived keys never reach
         ``repr``/``str``/f-strings/logs/exception text; MAC tags are
         compared in constant time; dataclass secret fields set
         ``repr=False``
XRD4xx   codec exhaustiveness — every envelope kind and frame opcode has an
         encoder, a decoder, and a round-trip test
XRD5xx   native-loader contract — the optional C-extension loaders never
         raise at import time and always keep a pure-Python fallback path
=======  ==================================================================

Findings can be suppressed inline (``# xrdlint: disable=XRD102`` on the
offending line or the comment line above it, with a justification) or
accepted into the fingerprinted baseline
(``python -m tools.xrdlint --write-baseline``); CI fails on any finding
that is neither.  See ``python -m tools.xrdlint --list-rules``.
"""

from tools.xrdlint.core import Finding, LintResult, lint_paths

__version__ = "1.0.0"

__all__ = ["Finding", "LintResult", "lint_paths", "__version__"]
