"""XRD2xx — secret hygiene: keys and scalars never leak through text.

The AHS chains' security rests on secret scalars (blinding/mixing/inner
secrets, users' ephemerals) and symmetric keys derived from them (layer
keys, loopback keys, AEAD one-time keys).  None of those values may reach
``repr``/``str``/f-strings/log lines/exception messages — error paths are
exactly what an operator pastes into a bug report — and MAC tags must be
compared in constant time, not with ``==``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional

from tools.xrdlint.config import LintConfig
from tools.xrdlint.core import Finding, ModuleContext, Rule, resolve_call_name, walk_scope
from tools.xrdlint.dataflow import FunctionTaint, TaintSpec, dotted_name
from tools.xrdlint.rules import register

#: Calls that *produce* secret values: the group's scalar sampler, the keyed
#: draw stream of :mod:`repro.crypto.stream`, and every key-derivation
#: function in :mod:`repro.crypto.kdf`.
SECRET_PRODUCERS = frozenset(
    {
        "random_scalar",
        "stream_key",
        "derive_keys",
        "draw_scalars",
        "submission_scalars",
        "derive_key",
        "shared_key_from_element",
        "loopback_key",
        "conversation_key",
        "hkdf_extract",
        "hkdf_expand",
        "identity_secret_bytes",
        "poly1305_key",
    }
)

#: Names that carry secrets by convention wherever they appear.
SECRET_NAME_PATTERNS = (
    r"(^|_)secret(s|_bytes)?$",
    r"(^|_)layer_keys?$",
    r"(^|_)loopback_keys?$",
    r"(^|_)inner_keys?$",
    r"^otk$",
)

#: Calls whose result is safe to show even when fed a secret: sizes, types,
#: and the public half of a key pair.
SECRET_SANITIZERS = frozenset(
    {
        "len",
        "type",
        "id",
        "bool",
        "isinstance",
        "base_mult",
        "fixed_base_mult",
        "encode",  # group.encode(public) — publics, not secrets
        "hex_digest",
    }
)

_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)
_STRINGIFIERS = frozenset({"str", "repr", "format", "ascii", "print"})

_SECRET_FIELD_RE = re.compile(r"(^|_)(secret|secrets|secret_bytes|private_key)$")
_TAG_NAME_RE = re.compile(r"(^|_)(tag|mac)s?$")


def _is_constantish(node: ast.AST) -> bool:
    """Literals, ALL_CAPS constants, None, and len() results: not secrets."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Name):
        return node.id.isupper() or node.id.strip("_").isupper()
    if isinstance(node, ast.Attribute):
        return node.attr.isupper()
    if isinstance(node, ast.Call):
        called = dotted_name(node.func)
        return called is not None and called.rsplit(".", 1)[-1] == "len"
    return False


@register
class SecretToStringRule(Rule):
    code = "XRD201"
    name = "secret-reaches-text"
    description = (
        "A value tainted by a secret producer (random_scalar, layer-key/"
        "AEAD-key derivation) or carried in a secret-named variable must not "
        "reach repr()/str()/f-strings/logging calls/exception messages. "
        "Report lengths or public keys instead."
    )

    def scope(self, config: LintConfig, path: str) -> bool:
        return config.in_protocol_scope(path)

    def check_module(self, module: ModuleContext, config: LintConfig) -> Iterable[Finding]:
        spec = TaintSpec(
            producers=SECRET_PRODUCERS,
            name_patterns=SECRET_NAME_PATTERNS,
            sanitizers=SECRET_SANITIZERS,
        )
        findings: List[Finding] = []
        for func in module.functions():
            taint = FunctionTaint(func, spec, module.imports)
            findings.extend(self._check_sinks(module, func, taint))
        return findings

    def _check_sinks(
        self, module: ModuleContext, func: ast.AST, taint: FunctionTaint
    ) -> Iterable[Finding]:
        findings: List[Finding] = []

        def flag(node: ast.AST, sink: str) -> None:
            findings.append(
                module.finding(
                    self.code,
                    node,
                    f"secret-tainted value reaches {sink} — log a length or "
                    "public key, never the secret",
                )
            )

        for node in walk_scope(func):
            if isinstance(node, ast.FormattedValue) and taint.is_tainted(node.value):
                flag(node, "an f-string")
            elif isinstance(node, ast.Call):
                called = resolve_call_name(node.func, module.imports)
                last = called.rsplit(".", 1)[-1] if called else None
                args_tainted = any(taint.is_tainted(arg) for arg in node.args) or any(
                    taint.is_tainted(kw.value) for kw in node.keywords
                )
                if not args_tainted:
                    continue
                if last in _STRINGIFIERS:
                    flag(node, f"{last}()")
                elif last in _LOG_METHODS and isinstance(node.func, ast.Attribute):
                    root = dotted_name(node.func.value) or ""
                    if "log" in root.lower() or root in ("self",):
                        flag(node, f"logging call .{last}()")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                if isinstance(exc, ast.Call) and any(
                    taint.is_tainted(arg) for arg in exc.args
                ):
                    flag(node, "an exception message")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                if (
                    isinstance(node.left, ast.Constant)
                    and isinstance(node.left.value, str)
                    and taint.is_tainted(node.right)
                ):
                    flag(node, "%-formatting")
        return findings


@register
class NonConstantTimeCompareRule(Rule):
    code = "XRD202"
    name = "tag-compare-not-constant-time"
    description = (
        "MAC/tag comparisons with == / != short-circuit on the first "
        "differing byte, leaking the match length through timing. Use "
        "hmac.compare_digest (or the repo's poly1305_verify) instead. "
        "Comparisons against literals, ALL_CAPS frame-tag constants and "
        "len() results are exempt."
    )

    def scope(self, config: LintConfig, path: str) -> bool:
        return config.in_protocol_scope(path)

    def check_module(self, module: ModuleContext, config: LintConfig) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if len(node.ops) != 1 or not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                continue
            left, right = node.left, node.comparators[0]
            if self._tag_side(left) is None and self._tag_side(right) is None:
                continue
            if _is_constantish(left) or _is_constantish(right):
                continue
            tag_name = self._tag_side(left) or self._tag_side(right)
            findings.append(
                module.finding(
                    self.code,
                    node,
                    f"{tag_name!r} compared with ==/!= — use a constant-time "
                    "compare (hmac.compare_digest / poly1305_verify)",
                )
            )
        return findings

    @staticmethod
    def _tag_side(node: ast.AST) -> Optional[str]:
        name = dotted_name(node)
        if name is None:
            return None
        last = name.rsplit(".", 1)[-1]
        if last.isupper():
            return None
        return name if _TAG_NAME_RE.search(last) else None


@register
class SecretDataclassReprRule(Rule):
    code = "XRD203"
    name = "secret-field-in-repr"
    description = (
        "A dataclass auto-generates __repr__ from its fields: a field named "
        "like a secret must opt out with field(repr=False) (or the class "
        "with @dataclass(repr=False)), or every debugger, log line and "
        "pytest assertion diff prints the key material."
    )

    def scope(self, config: LintConfig, path: str) -> bool:
        return config.in_protocol_scope(path)

    def check_module(self, module: ModuleContext, config: LintConfig) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_repr_dataclass(node, module):
                continue
            for stmt in node.body:
                if not (
                    isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ):
                    continue
                if not _SECRET_FIELD_RE.search(stmt.target.id):
                    continue
                if self._field_opts_out(stmt.value):
                    continue
                findings.append(
                    module.finding(
                        self.code,
                        stmt,
                        f"dataclass field {stmt.target.id!r} is included in the "
                        "auto-generated __repr__ — declare it with "
                        "field(repr=False)",
                    )
                )
        return findings

    @staticmethod
    def _is_repr_dataclass(node: ast.ClassDef, module: ModuleContext) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            called = resolve_call_name(target, module.imports) or ""
            if called.rsplit(".", 1)[-1] != "dataclass":
                continue
            if isinstance(decorator, ast.Call):
                for kw in decorator.keywords:
                    if (
                        kw.arg == "repr"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False
                    ):
                        return False
            return True
        return False

    @staticmethod
    def _field_opts_out(value: Optional[ast.AST]) -> bool:
        if not isinstance(value, ast.Call):
            return False
        called = dotted_name(value.func) or ""
        if called.rsplit(".", 1)[-1] != "field":
            return False
        for kw in value.keywords:
            if (
                kw.arg == "repr"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
            ):
                return True
        return False
