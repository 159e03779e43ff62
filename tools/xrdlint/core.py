"""Analyzer core: findings, pragmas, module contexts, and the lint driver.

The pieces every rule builds on:

* :class:`Finding` — one diagnostic, with a *fingerprint* that is stable
  across line-number drift (it hashes the rule, file, enclosing symbol and
  normalised source line — not the line number), so baselines survive
  unrelated edits;
* :class:`ModuleContext` — one parsed file: AST, source lines, the import
  alias map (``from os import urandom as u`` resolves ``u()`` to
  ``os.urandom``), per-line pragma suppressions, and an enclosing-symbol
  index;
* :class:`Rule` / :class:`ProjectRule` — the plugin surface.  A ``Rule``
  sees one module at a time; a ``ProjectRule`` sees the whole parsed tree
  at once (cross-file invariants: codec coverage);
* :func:`lint_paths` — the driver: discover, parse, run rules, apply
  pragmas, split against the baseline.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from tools.xrdlint.config import LintConfig

__all__ = [
    "Finding",
    "LintResult",
    "ModuleContext",
    "Project",
    "Rule",
    "ProjectRule",
    "lint_paths",
    "resolve_call_name",
    "walk_scope",
]

#: ``# xrdlint: disable=XRD101,XRD202`` (line scope) or
#: ``# xrdlint: disable-file=XRD401`` (whole file).  ``all`` disables every
#: rule.  A pragma on a comment-only line also covers the following line.
_PRAGMA_RE = re.compile(
    r"#\s*xrdlint:\s*(?P<directive>disable(?:-file)?)\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by one rule at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Innermost enclosing ``Class.method`` qualname, or ``<module>``.
    symbol: str
    #: The stripped source line — part of the fingerprint, and shown to
    #: humans so a finding is actionable without opening the file.
    snippet: str

    def fingerprint(self) -> str:
        """Line-number-independent identity used by the baseline.

        Two findings with the same rule, file, enclosing symbol and
        (whitespace-normalised) source line are the same finding, no matter
        how far unrelated edits move them.  Editing the flagged line itself
        invalidates the baseline entry — which is the point.
        """
        normalised = " ".join(self.snippet.split())
        raw = "|".join((self.rule, self.path, self.symbol, normalised))
        return hashlib.sha256(raw.encode()).hexdigest()[:16]

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }


class ModuleContext:
    """One parsed source file plus everything rules repeatedly need."""

    def __init__(self, path: Path, display_path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree = tree
        self.lines: List[str] = source.splitlines()
        self.imports: Dict[str, str] = _import_aliases(tree)
        self._line_disables: Dict[int, Set[str]] = {}
        self._file_disables: Set[str] = set()
        self._parse_pragmas()
        self._symbol_spans: List[Tuple[int, int, str]] = []
        self._index_symbols(tree, prefix="")

    # -- pragmas --------------------------------------------------------------

    def _parse_pragmas(self) -> None:
        for lineno, text in enumerate(self.lines, start=1):
            match = _PRAGMA_RE.search(text)
            if match is None:
                continue
            rules = {part.strip() for part in match.group("rules").split(",") if part.strip()}
            if match.group("directive") == "disable-file":
                self._file_disables |= rules
                continue
            self._line_disables.setdefault(lineno, set()).update(rules)
            if text.lstrip().startswith("#"):
                # A comment-only pragma line covers the statement below it.
                self._line_disables.setdefault(lineno + 1, set()).update(rules)

    def suppressed(self, rule: str, line: int) -> bool:
        if "all" in self._file_disables or rule in self._file_disables:
            return True
        disables = self._line_disables.get(line, ())
        return "all" in disables or rule in disables

    # -- symbol index ---------------------------------------------------------

    def _index_symbols(self, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}{child.name}"
                end = getattr(child, "end_lineno", child.lineno) or child.lineno
                self._symbol_spans.append((child.lineno, end, qualname))
                self._index_symbols(child, prefix=f"{qualname}.")
            else:
                self._index_symbols(child, prefix=prefix)

    def symbol_at(self, line: int) -> str:
        best = "<module>"
        best_span = None
        for start, end, qualname in self._symbol_spans:
            if start <= line <= end:
                span = end - start
                if best_span is None or span <= best_span:
                    best, best_span = qualname, span
        return best

    # -- finding construction -------------------------------------------------

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1) or 1
        col = (getattr(node, "col_offset", 0) or 0) + 1
        snippet = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        return Finding(
            rule=rule,
            path=self.display_path,
            line=line,
            col=col,
            message=message,
            symbol=self.symbol_at(line),
            snippet=snippet,
        )

    # -- convenience ----------------------------------------------------------

    def functions(self) -> Iterator[ast.AST]:
        """Every function/method definition in the module, any nesting."""
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node


class Project:
    """The whole parsed tree, with lazily computed cross-file facts."""

    def __init__(self, modules: Sequence[ModuleContext], config: LintConfig) -> None:
        self.modules = list(modules)
        self.config = config
        self._tests_corpus: Optional[List[Tuple[str, str]]] = None

    def set_annotated_attributes(self) -> Set[str]:
        """Attribute names annotated as sets anywhere in the tree.

        Lets the unordered-iteration rule flag ``ctx.offline_users`` when
        ``offline_users: Set[str]`` is declared on some (data)class, even
        though the iteration site has no local type information.  A name
        that is *also* annotated with a non-set type on another class is
        ambiguous and excluded — attribute matching is by name only, and a
        collision would turn every list-typed use into a false positive.
        """
        set_names: Set[str] = set()
        other_names: Set[str] = set()
        for module in self.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    for stmt in node.body:
                        if isinstance(stmt, ast.AnnAssign) and isinstance(
                            stmt.target, ast.Name
                        ):
                            if _annotation_is_set(stmt.annotation):
                                set_names.add(stmt.target.id)
                            else:
                                other_names.add(stmt.target.id)
        return set_names - other_names

    def tests_corpus(self) -> List[Tuple[str, str]]:
        """``(path, source)`` for every file under the configured tests dir."""
        if self._tests_corpus is None:
            corpus: List[Tuple[str, str]] = []
            tests_dir = self.config.tests_dir
            if tests_dir is not None and Path(tests_dir).is_dir():
                for path in sorted(Path(tests_dir).rglob("*.py")):
                    try:
                        corpus.append((str(path), path.read_text(encoding="utf-8")))
                    except OSError:  # unreadable test file: skip, not fatal
                        continue
            self._tests_corpus = corpus
        return self._tests_corpus


class Rule:
    """A per-module rule plugin.  Subclasses set the class attributes and
    implement :meth:`check_module`; :meth:`scope` narrows which files the
    rule sees."""

    code: str = "XRD000"
    name: str = "unnamed"
    description: str = ""

    def scope(self, config: LintConfig, path: str) -> bool:
        return True

    def check_module(self, module: ModuleContext, config: LintConfig) -> Iterable[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A whole-tree rule plugin (cross-file invariants)."""

    def check_module(self, module: ModuleContext, config: LintConfig) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError


def walk_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Like :func:`ast.walk`, but does not descend into function definitions
    nested below ``root`` — those are separate scopes that get their own
    pass.  Class bodies *are* descended into (their statements execute in
    the enclosing scope)."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.append(child)


# -- import alias resolution ---------------------------------------------------

def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = item.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def resolve_call_name(func: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve a call's function expression to a dotted canonical name.

    ``urandom(8)`` after ``from os import urandom`` resolves to
    ``os.urandom``; ``random.Random()`` resolves through the module alias;
    attribute chains on unknown roots resolve to the literal dotted text so
    rules can still match ``rng.sample``-style patterns.
    """
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        root = imports.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))
    return None


def _annotation_is_set(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in ("Set", "FrozenSet", "AbstractSet")
    if isinstance(annotation, ast.Subscript):
        return _annotation_is_set(annotation.value)
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        head = annotation.value.split("[", 1)[0].strip()
        return head in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
    return False


# -- driver --------------------------------------------------------------------

@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    #: Findings whose fingerprint the baseline accepts.
    baselined: List[Finding] = field(default_factory=list)
    #: Findings that gate CI: not suppressed, not baselined.
    fresh: List[Finding] = field(default_factory=list)
    #: Count of findings silenced by inline pragmas.
    suppressed: int = 0
    files_checked: int = 0
    parse_errors: List[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.fresh and not self.parse_errors


def _discover(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        elif path.suffix == ".py":
            files.append(path)
    return files


def _display_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def parse_modules(
    paths: Sequence[Path],
) -> Tuple[List[ModuleContext], List[Finding]]:
    modules: List[ModuleContext] = []
    errors: List[Finding] = []
    for file_path in _discover(paths):
        display = _display_path(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file_path))
        except (OSError, SyntaxError) as exc:
            errors.append(
                Finding(
                    rule="XRD001",
                    path=display,
                    line=getattr(exc, "lineno", 1) or 1,
                    col=1,
                    message=f"file cannot be analysed: {exc}",
                    symbol="<module>",
                    snippet="",
                )
            )
            continue
        modules.append(ModuleContext(file_path, display, source, tree))
    return modules, errors


def lint_paths(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
    baseline: Optional[Dict[str, int]] = None,
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Run every registered rule over ``paths`` and split the findings.

    ``baseline`` maps fingerprints to accepted occurrence counts (see
    :mod:`tools.xrdlint.baseline`); ``select`` restricts to rules whose
    code starts with any given prefix (``["XRD1"]`` runs the determinism
    family only).
    """
    from tools.xrdlint.rules import all_rules

    config = config or LintConfig()
    modules, parse_errors = parse_modules(paths)
    project = Project(modules, config)

    rules = all_rules()
    if select:
        rules = [rule for rule in rules if any(rule.code.startswith(s) for s in select)]

    raw: List[Finding] = []
    for rule in rules:
        if isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(project))
        else:
            for module in modules:
                if rule.scope(config, module.display_path):
                    raw.extend(rule.check_module(module, config))

    by_path = {module.display_path: module for module in modules}
    kept: List[Finding] = []
    suppressed = 0
    for finding in sorted(raw, key=Finding.sort_key):
        module = by_path.get(finding.path)
        if module is not None and module.suppressed(finding.rule, finding.line):
            suppressed += 1
            continue
        kept.append(finding)

    remaining = dict(baseline or {})
    baselined: List[Finding] = []
    fresh: List[Finding] = []
    for finding in kept:
        fingerprint = finding.fingerprint()
        if remaining.get(fingerprint, 0) > 0:
            remaining[fingerprint] -= 1
            baselined.append(finding)
        else:
            fresh.append(finding)

    return LintResult(
        findings=kept,
        baselined=baselined,
        fresh=fresh,
        suppressed=suppressed,
        files_checked=len(modules),
        parse_errors=parse_errors,
    )
