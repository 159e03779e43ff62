"""XRD5xx — native-loader contract: optional acceleration never breaks import.

The repo's tier-1 promise is that it installs and passes on a machine with
no C compiler, no cffi, and no prebuilt ``_xrdkernels``.  That only holds
if the loader modules (``repro/native/__init__.py``,
``repro/crypto/kernels.py``) keep two disciplines:

* importing them can never raise — no module-level ``raise``, and no
  module-level import of ``cffi``/``_xrdkernels`` outside a ``try``;
* every wrapper that invokes the extension (``lib.xrd_*``) has an explicit
  ``return None`` fallback, because callers treat ``None`` as "run the
  pure-Python reference path".
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List

from tools.xrdlint.config import LintConfig
from tools.xrdlint.core import Finding, ModuleContext, Rule
from tools.xrdlint.rules import register

_OPTIONAL_IMPORTS = ("cffi", "_xrdkernels")


def _module_level_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Statements that execute at import time, outside any try/except.

    Recurses through module-level ``if``/``for``/``while``/``with`` bodies
    (those still run at import) but not into functions, classes, or ``try``
    blocks (a ``try`` is exactly the guard the contract asks for).
    """
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop(0)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try)):
            continue
        yield stmt
        for field in ("body", "orelse", "finalbody"):
            stack.extend(getattr(stmt, field, []) or [])


def _is_optional_import(stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.Import):
        return any(
            any(part in alias.name.split(".") for part in _OPTIONAL_IMPORTS)
            for alias in stmt.names
        )
    if isinstance(stmt, ast.ImportFrom):
        module_parts = (stmt.module or "").split(".")
        if any(part in module_parts for part in _OPTIONAL_IMPORTS):
            return True
        return any(alias.name in _OPTIONAL_IMPORTS for alias in stmt.names)
    return False


@register
class LoaderImportSafetyRule(Rule):
    code = "XRD501"
    name = "native-loader-raises-at-import"
    description = (
        "Native-loader modules must be importable everywhere: no "
        "module-level raise, and no module-level import of cffi or the "
        "_xrdkernels extension outside a try block. The loader answers "
        "'is acceleration available?' with None, never with an exception."
    )

    def scope(self, config: LintConfig, path: str) -> bool:
        return config.in_native_loader_scope(path)

    def check_module(self, module: ModuleContext, config: LintConfig) -> Iterable[Finding]:
        findings: List[Finding] = []
        for stmt in _module_level_statements(module.tree):
            if isinstance(stmt, ast.Raise):
                findings.append(
                    module.finding(
                        self.code,
                        stmt,
                        "module-level raise in a native-loader module — "
                        "importing the loader must never fail",
                    )
                )
            elif _is_optional_import(stmt):
                findings.append(
                    module.finding(
                        self.code,
                        stmt,
                        "unguarded module-level import of an optional native "
                        "dependency — wrap in try/except so machines without "
                        "the extension still import",
                    )
                )
        return findings


@register
class WrapperFallbackRule(Rule):
    code = "XRD502"
    name = "native-wrapper-missing-fallback"
    description = (
        "A wrapper that invokes the extension (lib.xrd_*) must contain an "
        "explicit 'return None' fallback: callers interpret None as 'run "
        "the pure-Python reference path', and a wrapper without one can "
        "only fail by raising."
    )

    def scope(self, config: LintConfig, path: str) -> bool:
        return config.in_native_loader_scope(path)

    def check_module(self, module: ModuleContext, config: LintConfig) -> Iterable[Finding]:
        findings: List[Finding] = []
        for func in module.functions():
            if not self._invokes_extension(func):
                continue
            if self._has_none_fallback(func):
                continue
            findings.append(
                module.finding(
                    self.code,
                    func,
                    f"{func.name}() invokes the native extension but has no "
                    "'return None' fallback for when it is unavailable or "
                    "declines the input",
                )
            )
        return findings

    @staticmethod
    def _invokes_extension(func: ast.AST) -> bool:
        """A call of ``lib.<entry>(...)`` or ``getattr(lib, <entry>)(...)``."""
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if (
                isinstance(callee, ast.Call)
                and isinstance(callee.func, ast.Name)
                and callee.func.id == "getattr"
                and callee.args
            ):
                callee = callee.args[0]
            elif isinstance(callee, ast.Attribute):
                callee = callee.value
            if isinstance(callee, ast.Name) and callee.id == "lib":
                return True
        return False

    @staticmethod
    def _has_none_fallback(func: ast.AST) -> bool:
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Return)
                and isinstance(node.value, ast.Constant)
                and node.value.value is None
            ):
                return True
        return False
