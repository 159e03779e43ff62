"""Rule plugin registry.

A rule module defines :class:`~tools.xrdlint.core.Rule` subclasses and
registers instances with :func:`register`.  Importing this package imports
every built-in rule module, so ``all_rules()`` is the complete set; an
out-of-tree rule module only needs to import and call :func:`register`
before the driver runs.
"""

from __future__ import annotations

from typing import List, Type

from tools.xrdlint.core import Rule

__all__ = ["register", "all_rules"]

_RULES: List[Rule] = []


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule plugin."""
    instance = rule_cls()
    if any(existing.code == instance.code for existing in _RULES):
        raise ValueError(f"duplicate rule code {instance.code}")
    _RULES.append(instance)
    return rule_cls


def all_rules() -> List[Rule]:
    return sorted(_RULES, key=lambda rule: rule.code)


# Built-in rule families (import order is irrelevant; codes sort the output).
from tools.xrdlint.rules import (  # noqa: E402  (registration imports)
    codec_surface,  # noqa: F401
    determinism,  # noqa: F401
    native_loader,  # noqa: F401
    secret_hygiene,  # noqa: F401
)
