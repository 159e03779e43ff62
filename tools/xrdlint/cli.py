"""Command-line driver: ``python -m tools.xrdlint [paths...]``.

Exit status is 0 when no non-baselined findings (and no parse errors)
remain, 1 otherwise — which is exactly what the CI static-analysis job
gates on.  ``--write-baseline`` accepts the current findings as the new
baseline; ``--format json`` emits a machine-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from tools.xrdlint.baseline import load_baseline, write_baseline
from tools.xrdlint.core import LintResult, lint_paths
from tools.xrdlint.rules import all_rules

DEFAULT_TARGET = "src/repro"
DEFAULT_BASELINE = "tools/xrdlint/baseline.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xrdlint",
        description=(
            "Repo-specific static analysis for the XRD reproduction: "
            "determinism, secret hygiene, codec exhaustiveness "
            "and the native-loader contract."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=[DEFAULT_TARGET],
        help=f"files or directories to lint (default: {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file (default: {DEFAULT_BASELINE} when it exists)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline: report every finding as fresh",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="PREFIX",
        help="only run rules whose code starts with PREFIX (repeatable, "
        "e.g. --select XRD1 for the determinism family)",
    )
    parser.add_argument(
        "--tests-dir",
        default="tests",
        help="tests directory for the codec round-trip cross-reference "
        "(default: tests; pass an empty string to disable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every registered rule and exit",
    )
    return parser


def _list_rules() -> int:
    for rule in all_rules():
        print(f"{rule.code}  {rule.name}")
        for line in rule.description.splitlines():
            print(f"    {line}")
    return 0


def _render_human(result: LintResult, show_baselined: bool) -> None:
    for finding in result.parse_errors:
        print(finding.render())
    for finding in result.fresh:
        print(finding.render())
        if finding.snippet:
            print(f"    {finding.snippet}")
        print(f"    fingerprint: {finding.fingerprint()}  [{finding.symbol}]")
    summary = (
        f"xrdlint: {result.files_checked} files, "
        f"{len(result.fresh)} fresh finding(s), "
        f"{len(result.baselined)} baselined, "
        f"{result.suppressed} suppressed by pragma"
    )
    if result.parse_errors:
        summary += f", {len(result.parse_errors)} unparseable file(s)"
    print(summary)
    if show_baselined and result.baselined:
        print("baselined findings (informational):")
        for finding in result.baselined:
            print(f"  {finding.render()}")


def _render_json(result: LintResult) -> None:
    print(
        json.dumps(
            {
                "files_checked": result.files_checked,
                "clean": result.clean,
                "fresh": [finding.to_json() for finding in result.fresh],
                "baselined": [finding.to_json() for finding in result.baselined],
                "parse_errors": [finding.to_json() for finding in result.parse_errors],
                "suppressed": result.suppressed,
            },
            indent=2,
        )
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()

    from tools.xrdlint.config import LintConfig

    tests_dir = Path(args.tests_dir) if args.tests_dir else None
    config = LintConfig(tests_dir=tests_dir)

    baseline = None
    baseline_path = Path(args.baseline)
    if not args.no_baseline and not args.write_baseline:
        baseline = load_baseline(baseline_path)

    paths: List[Path] = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"xrdlint: no such path: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    result = lint_paths(paths, config=config, baseline=baseline, select=args.select)

    if args.write_baseline:
        count = write_baseline(baseline_path, result.findings)
        print(f"xrdlint: wrote {count} baseline entr(y/ies) to {baseline_path}")
        return 0

    if args.format == "json":
        _render_json(result)
    else:
        _render_human(result, show_baselined=False)
    return 0 if result.clean else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
