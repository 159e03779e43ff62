"""XRD1xx — determinism: protocol code must be a pure function of its seed.

The parity matrix proves every backend/scheduler/transport/population/kernel
combination bit-identical under a fixed seed.  That proof is only as good
as the code's discipline: one ``os.urandom`` on an unexercised path, one
wall-clock read folded into a report, one iteration over a set of strings
(whose order changes with ``PYTHONHASHSEED``) feeding a wire encoding — and
replicas diverge silently.  These rules make that discipline static.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Iterable, List

from tools.xrdlint.config import LintConfig
from tools.xrdlint.core import (
    Finding,
    ModuleContext,
    Project,
    ProjectRule,
    Rule,
    resolve_call_name,
    walk_scope,
)
from tools.xrdlint.dataflow import SAFE_SET_CONSUMERS, SetTypes, dotted_name
from tools.xrdlint.rules import register

#: Entropy sources with no seed: any of these in protocol code makes a
#: "seeded" round unreproducible.
ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.randbits",
        "secrets.choice",
        "secrets.SystemRandom",
        "random.SystemRandom",
        "numpy.random.default_rng",
    }
)

#: Module-level functions of :mod:`random` draw from the shared, unseeded
#: global instance.
GLOBAL_RANDOM_CALLS = frozenset(
    {
        "random.random",
        "random.randrange",
        "random.randint",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.randbytes",
        "random.getrandbits",
        "random.uniform",
    }
)

#: Wall-clock and monotonic-clock reads: machine state, not protocol state.
CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Iteration contexts that expose a set's (undefined) element order.
_ORDER_EXPOSING_CALLS = frozenset(
    {"list", "tuple", "iter", "enumerate", "map", "filter", "reversed", "next"}
)
_ORDER_EXPOSING_METHODS = frozenset({"join", "extend", "sample", "shuffle", "choice"})


@register
class UnseededEntropyRule(Rule):
    code = "XRD101"
    name = "unseeded-entropy"
    description = (
        "Protocol code must not draw from OS entropy or the global random "
        "instance: os.urandom, secrets.*, uuid4, argless random.Random() and "
        "random-module functions all make a seeded round unreproducible. "
        "Draw from a stream key (repro.crypto.stream) instead."
    )

    def scope(self, config: LintConfig, path: str) -> bool:
        return config.in_protocol_scope(path)

    def check_module(self, module: ModuleContext, config: LintConfig) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            called = resolve_call_name(node.func, module.imports)
            if called is None:
                continue
            if called in ENTROPY_CALLS or called in GLOBAL_RANDOM_CALLS:
                findings.append(
                    module.finding(
                        self.code,
                        node,
                        f"unseeded entropy: {called}() in protocol code — "
                        "draw from a stream key so rounds stay reproducible",
                    )
                )
            elif called == "random.Random" and not node.args and not node.keywords:
                findings.append(
                    module.finding(
                        self.code,
                        node,
                        "random.Random() with no seed draws from OS entropy — "
                        "pass an explicit seed or derive from the deployment "
                        "seed",
                    )
                )
        return findings


#: Generators whose construction XRD104 reserves to the randomness sources.
GENERATOR_CALLS = frozenset({"random.Random", "random.SystemRandom"})

#: The two places a draw may come from: the keyed stream, which alone
#: imports ``secrets``, and the public beacon's generator.
RANDOMNESS_SOURCES = ("*/repro/crypto/randomness.py", "*/repro/crypto/stream.py")


def _imports_secrets(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "secrets" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and not node.level and node.module == "secrets"


@register
class RandomnessOutsideStreamRule(Rule):
    code = "XRD104"
    name = "randomness-outside-stream"
    description = (
        "Every draw in the package comes from the keyed stream "
        "(crypto/stream.py), the one importer of secrets, or from the public "
        "beacon (crypto/randomness.py), the one random.Random. Constructing "
        "random.Random/random.SystemRandom or importing secrets anywhere else "
        "opens a second way to draw: take a stream key instead."
    )

    def scope(self, config: LintConfig, path: str) -> bool:
        return not any(fnmatch(path, source) for source in RANDOMNESS_SOURCES)

    def check_module(self, module: ModuleContext, config: LintConfig) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                called = resolve_call_name(node.func, module.imports)
                if called in GENERATOR_CALLS:
                    findings.append(module.finding(
                        self.code, node,
                        f"{called}() outside the randomness sources — draw from "
                        "a stream key (repro.crypto.stream)",
                    ))
            elif _imports_secrets(node):
                findings.append(module.finding(
                    self.code, node,
                    "secrets imported outside crypto/stream.py — OS entropy "
                    "enters only through stream.stream_key()",
                ))
        return findings


@register
class WallClockRule(Rule):
    code = "XRD102"
    name = "wall-clock-read"
    description = (
        "Protocol code must not read wall or monotonic clocks: timings are "
        "machine state, and anything they influence diverges across "
        "replicas. Timing for diagnostics is fine when it provably cannot "
        "reach canonical bytes — suppress those sites with a justifying "
        "pragma."
    )

    def scope(self, config: LintConfig, path: str) -> bool:
        return config.in_protocol_scope(path)

    def check_module(self, module: ModuleContext, config: LintConfig) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            called = resolve_call_name(node.func, module.imports)
            if called in CLOCK_CALLS:
                findings.append(
                    module.finding(
                        self.code,
                        node,
                        f"wall-clock read: {called}() in protocol code — "
                        "clock values must never influence round bytes",
                    )
                )
        return findings


@register
class UnorderedIterationRule(ProjectRule):
    code = "XRD103"
    name = "unordered-iteration"
    description = (
        "Iterating a set exposes an order that is undefined (and, for "
        "strings, changes with PYTHONHASHSEED): in protocol code that order "
        "can reach wire encodings, RNG draws and shuffles. Wrap the "
        "iteration in sorted(...) to pin it."
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        set_attrs = frozenset(project.set_annotated_attributes())
        for module in project.modules:
            if not project.config.in_protocol_scope(module.display_path):
                continue
            scopes = [module.tree] + [func for func in module.functions()]
            for scope in scopes:
                types = SetTypes(scope, set_attr_names=set_attrs, imports=module.imports)
                findings.extend(self._check_scope(module, scope, types))
        return findings

    def _check_scope(
        self, module: ModuleContext, scope: ast.AST, types: SetTypes
    ) -> Iterable[Finding]:
        findings: List[Finding] = []

        def flag(node: ast.AST, what: str) -> None:
            findings.append(
                module.finding(
                    self.code,
                    node,
                    f"{what} iterates a set in undefined order — wrap in "
                    "sorted(...) so downstream bytes/draws cannot depend on "
                    "hash order",
                )
            )

        for node in walk_scope(scope):
            if isinstance(node, ast.For) and types.is_set_expr(node.iter):
                flag(node.iter, "for-loop")
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for gen in node.generators:
                    if types.is_set_expr(gen.iter):
                        flag(gen.iter, "comprehension")
            elif isinstance(node, ast.Call):
                called = dotted_name(node.func)
                last = called.rsplit(".", 1)[-1] if called else None
                if last in SAFE_SET_CONSUMERS:
                    continue
                if last in _ORDER_EXPOSING_CALLS:
                    if node.args and types.is_set_expr(node.args[0]):
                        flag(node.args[0], f"{last}()")
                elif last in _ORDER_EXPOSING_METHODS:
                    if any(types.is_set_expr(arg) for arg in node.args):
                        flag(node, f".{last}()")
                elif last == "pop" and isinstance(node.func, ast.Attribute):
                    if types.is_set_expr(node.func.value) and not node.args:
                        flag(node, "set.pop()")
            elif isinstance(node, ast.Starred) and types.is_set_expr(node.value):
                flag(node, "star-unpacking")
        return findings
