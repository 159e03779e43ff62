"""Tests for the xrdlint static-analysis suite (DESIGN.md §12).

Each rule family gets a golden *good* fixture (must produce no findings)
and a *bad* fixture (must trigger the rule), written to a tmp tree that
mimics the ``src/repro`` layout so the scope globs apply.  On top of the
per-rule corpus: pragma behaviour, baseline round-trips, the CLI exit
codes, and a self-run over the real repository that must be clean — the
same gate CI enforces.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tools.xrdlint.baseline import load_baseline, write_baseline
from tools.xrdlint.config import LintConfig
from tools.xrdlint.core import Finding, lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_lint(tree, tests_dir=None, select=None, baseline=None):
    config = LintConfig(tests_dir=tests_dir)
    return lint_paths([tree], config=config, baseline=baseline, select=select)


def codes(result):
    return sorted({finding.rule for finding in result.findings})


@pytest.fixture()
def tree(tmp_path, monkeypatch):
    """A tmp source tree rooted like the real repo, with cwd pinned to it
    so display paths (which the scope globs match) are repo-relative."""
    monkeypatch.chdir(tmp_path)
    root = tmp_path / "src" / "repro"
    root.mkdir(parents=True)
    return root


def write(root: Path, relative: str, source: str) -> Path:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


# -- XRD1xx: determinism -------------------------------------------------------

class TestDeterminismRules:
    def test_unseeded_entropy_is_flagged(self, tree):
        write(tree, "engine/draws.py", (
            "import os\n"
            "import random\n"
            "import secrets\n"
            "from os import urandom as u\n"
            "def bad():\n"
            "    a = os.urandom(8)\n"
            "    b = u(8)\n"
            "    c = secrets.token_bytes(4)\n"
            "    d = random.random()\n"
            "    e = random.Random()\n"
            "    return a, b, c, d, e\n"
        ))
        result = run_lint(tree)
        flagged = [f for f in result.findings if f.rule == "XRD101"]
        assert len(flagged) == 5  # both urandom spellings resolve via aliases

    def test_seeded_rng_is_not_unseeded_entropy(self, tree):
        write(tree, "engine/draws.py", (
            "import random\n"
            "def good(seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.randbytes(8), rng.randrange(10)\n"
        ))
        assert "XRD101" not in codes(run_lint(tree))

    def test_keygen_has_no_entropy_exemption(self, tree):
        """Long-term keys draw from the stream like everything else: OS
        entropy in ``keys.py`` is a finding of both rules."""
        write(tree, "crypto/keys.py", (
            "import secrets\n"
            "def keygen():\n"
            "    return secrets.randbelow(2**252)\n"
        ))
        assert codes(run_lint(tree)) == ["XRD101", "XRD104"]

    def test_generators_and_secrets_outside_the_sources_are_flagged(self, tree):
        write(tree, "coordinator/adversary.py", (
            "import random\n"
            "import secrets\n"
            "from random import SystemRandom\n"
            "from secrets import token_bytes\n"
            "def bad(seed):\n"
            "    return random.Random(seed), SystemRandom(), token_bytes(8)\n"
        ))
        write(tree, "simulation/churn.py", (
            "import random\n"
            "def model(seed):\n"
            "    return random.Random(seed).random()\n"
        ))
        flagged = [f for f in run_lint(tree).findings if f.rule == "XRD104"]
        assert sorted((f.path.rsplit("/", 1)[-1], f.line) for f in flagged) == [
            ("adversary.py", 2), ("adversary.py", 4), ("adversary.py", 6),
            ("adversary.py", 6), ("churn.py", 3),
        ]

    def test_the_stream_and_the_beacon_may_draw(self, tree):
        write(tree, "crypto/stream.py", (
            "import secrets\n"
            "def stream_key():\n"
            "    return secrets.token_bytes(32)  # xrdlint: disable=XRD101 - the one read\n"
        ))
        write(tree, "crypto/randomness.py", (
            "import random\n"
            "def rng_for_epoch(seed):\n"
            "    return random.Random(seed)\n"
        ))
        write(tree, "engine/draws.py", (
            "import random\n"
            "def uses(rng: random.Random):\n"
            "    return rng.randrange(10)\n"
        ))
        assert codes(run_lint(tree)) == []

    def test_wall_clock_is_flagged(self, tree):
        write(tree, "engine/timing.py", (
            "import time\n"
            "from datetime import datetime\n"
            "def bad():\n"
            "    return time.time(), time.perf_counter(), datetime.now()\n"
        ))
        result = run_lint(tree)
        assert [f.rule for f in result.findings] == ["XRD102"] * 3

    def test_non_protocol_paths_are_out_of_scope(self, tree):
        write(tree, "benchmarks/perf.py", (
            "import time\n"
            "import os\n"
            "def bench():\n"
            "    return time.perf_counter(), os.urandom(8)\n"
        ))
        assert codes(run_lint(tree)) == []

    def test_set_iteration_feeding_output_is_flagged(self, tree):
        write(tree, "transport/enc.py", (
            "def bad(names):\n"
            "    pending = set(names)\n"
            "    wire = []\n"
            "    for name in pending:\n"
            "        wire.append(name)\n"
            "    return b''.join(wire) + bytes(list({1, 2}))\n"
        ))
        result = run_lint(tree)
        assert [f.rule for f in result.findings] == ["XRD103"] * 2

    def test_sorted_set_and_safe_consumers_are_clean(self, tree):
        write(tree, "transport/enc.py", (
            "def good(names):\n"
            "    pending = set(names)\n"
            "    total = len(pending) + sum({1, 2})\n"
            "    wire = [name for name in sorted(pending)]\n"
            "    return wire, total, max({3, 4})\n"
        ))
        assert codes(run_lint(tree)) == []

    def test_reassignment_to_sorted_cleanses_the_name(self, tree):
        write(tree, "transport/enc.py", (
            "def good(names):\n"
            "    chains = set(names)\n"
            "    chains = sorted(chains)\n"
            "    return [c for c in chains]\n"
        ))
        assert codes(run_lint(tree)) == []

    def test_set_annotated_attribute_is_tracked_across_files(self, tree):
        write(tree, "engine/state.py", (
            "from dataclasses import dataclass, field\n"
            "from typing import Set\n"
            "@dataclass\n"
            "class Ctx:\n"
            "    offline: Set[str] = field(default_factory=set)\n"
        ))
        write(tree, "engine/use.py", (
            "def bad(ctx):\n"
            "    return [u for u in ctx.offline]\n"
        ))
        result = run_lint(tree)
        assert codes(result) == ["XRD103"]

    def test_ambiguous_attribute_name_is_not_flagged(self, tree):
        # Same attribute name annotated Set on one class and List on
        # another: name matching would be guessing, so stay silent.
        write(tree, "engine/state.py", (
            "from typing import List, Set\n"
            "class A:\n"
            "    users: Set[str]\n"
            "class B:\n"
            "    users: List[str]\n"
        ))
        write(tree, "engine/use.py", (
            "def maybe(obj):\n"
            "    return [u for u in obj.users]\n"
        ))
        assert codes(run_lint(tree)) == []


# -- XRD2xx: secret hygiene ----------------------------------------------------

class TestSecretHygieneRules:
    def test_secret_reaching_fstring_and_log_is_flagged(self, tree):
        write(tree, "crypto/leaky.py", (
            "import logging\n"
            "log = logging.getLogger(__name__)\n"
            "def bad(group, rng):\n"
            "    sk = group.random_scalar(rng)\n"
            "    masked = sk + 1\n"
            "    log.info('key is %s', masked)\n"
            "    return f'scalar={sk}'\n"
        ))
        result = run_lint(tree)
        assert [f.rule for f in result.findings] == ["XRD201"] * 2

    def test_secret_in_exception_message_is_flagged(self, tree):
        write(tree, "crypto/leaky.py", (
            "from repro.crypto.kdf import derive_key\n"
            "def bad(material):\n"
            "    key = derive_key(material, b'ctx')\n"
            "    raise ValueError(key)\n"
        ))
        assert codes(run_lint(tree)) == ["XRD201"]

    def test_sanitized_uses_are_clean(self, tree):
        write(tree, "crypto/fine.py", (
            "def good(group, rng):\n"
            "    sk = group.random_scalar(rng)\n"
            "    pk = group.base_mult(sk)\n"
            "    size = len(str(len(f'{pk}')))\n"
            "    return f'pk={pk} len={size}'\n"
        ))
        assert codes(run_lint(tree)) == []

    def test_secret_named_parameter_is_tainted(self, tree):
        write(tree, "crypto/leaky.py", (
            "def bad(layer_key):\n"
            "    return str(layer_key)\n"
        ))
        assert codes(run_lint(tree)) == ["XRD201"]

    def test_tag_equality_compare_is_flagged(self, tree):
        write(tree, "crypto/macs.py", (
            "def bad(tag, expected_tag):\n"
            "    return tag == expected_tag\n"
        ))
        assert codes(run_lint(tree)) == ["XRD202"]

    def test_constant_time_compare_and_constants_are_clean(self, tree):
        write(tree, "crypto/macs.py", (
            "import hmac\n"
            "FRAME_TAG = 7\n"
            "def good(tag, expected_tag, frame_tag):\n"
            "    ok = hmac.compare_digest(tag, expected_tag)\n"
            "    return ok and len(tag) == 16 and frame_tag == FRAME_TAG\n"
        ))
        assert codes(run_lint(tree)) == []

    def test_secret_dataclass_field_requires_repr_false(self, tree):
        write(tree, "crypto/pairs.py", (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Bad:\n"
            "    secret: int\n"
            "    public: bytes\n"
            "@dataclass\n"
            "class Good:\n"
            "    secret: int = field(repr=False)\n"
            "@dataclass(repr=False)\n"
            "class AlsoGood:\n"
            "    private_key: bytes\n"
        ))
        result = run_lint(tree)
        assert [f.rule for f in result.findings] == ["XRD203"]
        assert "secret" in result.findings[0].message


# -- XRD4xx: codec exhaustiveness ----------------------------------------------

CODEC_GOOD = (
    "SUBMISSION = 'submission'\n"
    "BATCH = 'batch'\n"
    "ENVELOPE_KINDS = (SUBMISSION, BATCH)\n"
    "def encode_payload(kind, payload):\n"
    "    if kind == SUBMISSION:\n"
    "        return b's'\n"
    "    if kind == BATCH:\n"
    "        return b'b'\n"
    "def decode_payload(kind, data):\n"
    "    if kind == SUBMISSION:\n"
    "        return 's'\n"
    "    if kind == BATCH:\n"
    "        return 'b'\n"
)


class TestCodecRules:
    def test_kind_missing_from_codec_is_flagged(self, tree):
        write(tree, "transport/envelope.py", (
            "SUBMISSION = 'submission'\n"
            "ORPHAN = 'orphan'\n"
            "ENVELOPE_KINDS = (SUBMISSION, ORPHAN)\n"
            "def encode_payload(kind, payload):\n"
            "    if kind == SUBMISSION:\n"
            "        return b's'\n"
            "def decode_payload(kind, data):\n"
            "    if kind == SUBMISSION:\n"
            "        return 's'\n"
        ))
        result = run_lint(tree, select=["XRD401"])
        messages = [f.message for f in result.findings]
        assert len(messages) == 2  # missing from both encoder and decoder
        assert all("ORPHAN" in message for message in messages)

    def test_fully_wired_codec_is_clean(self, tree):
        write(tree, "transport/envelope.py", CODEC_GOOD)
        assert codes(run_lint(tree, select=["XRD401"])) == []

    def test_unhandled_frame_opcode_is_flagged(self, tree):
        write(tree, "transport/frames.py", (
            "FRAME_HELLO = 1\n"
            "FRAME_PING = 2\n"
            "FRAME_TYPES = (FRAME_HELLO, FRAME_PING)\n"
        ))
        write(tree, "transport/tcp.py", (
            "from repro.transport.frames import FRAME_HELLO\n"
            "def handshake():\n"
            "    return FRAME_HELLO\n"
        ))
        result = run_lint(tree, select=["XRD401"])
        assert len(result.findings) == 1
        assert "FRAME_PING" in result.findings[0].message

    def test_kind_without_round_trip_test_is_flagged(self, tree, tmp_path):
        write(tree, "transport/envelope.py", CODEC_GOOD)
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_codec.py").write_text(
            "def test_submission():\n"
            "    assert decode_payload('submission', encode_payload('submission', 1))\n",
            encoding="utf-8",
        )
        result = run_lint(tree, tests_dir=tests, select=["XRD402"])
        assert len(result.findings) == 1
        assert "BATCH" in result.findings[0].message

    def test_covered_kinds_have_no_402(self, tree, tmp_path):
        write(tree, "transport/envelope.py", CODEC_GOOD)
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_codec.py").write_text(
            "KINDS = ('submission', 'batch')\n"
            "def test_all():\n"
            "    for kind in KINDS:\n"
            "        assert decode_payload(kind, encode_payload(kind, 1))\n",
            encoding="utf-8",
        )
        assert codes(run_lint(tree, tests_dir=tests, select=["XRD402"])) == []


# -- XRD5xx: native-loader contract --------------------------------------------

class TestNativeLoaderRules:
    def test_module_level_raise_and_unguarded_import_are_flagged(self, tree):
        write(tree, "native/__init__.py", (
            "import cffi\n"
            "if cffi is None:\n"
            "    raise ImportError('no cffi')\n"
        ))
        result = run_lint(tree)
        assert [f.rule for f in result.findings] == ["XRD501"] * 2

    def test_guarded_import_is_clean(self, tree):
        write(tree, "native/__init__.py", (
            "try:\n"
            "    import cffi\n"
            "except ImportError:\n"
            "    cffi = None\n"
        ))
        assert codes(run_lint(tree)) == []

    def test_wrapper_without_none_fallback_is_flagged(self, tree):
        write(tree, "crypto/kernels.py", (
            "def _handle():\n"
            "    return None\n"
            "def bad(data):\n"
            "    ffi, lib = _handle()\n"
            "    return lib.xrd_kernel(data)\n"
            "def good(data):\n"
            "    handle = _handle()\n"
            "    if handle is None:\n"
            "        return None\n"
            "    ffi, lib = handle\n"
            "    return lib.xrd_kernel(data)\n"
            "def bad_by_name(entry, data):\n"
            "    ffi, lib = _handle()\n"
            "    return getattr(lib, entry)(data)\n"
        ))
        result = run_lint(tree)
        assert [finding.rule for finding in result.findings] == ["XRD502"] * 2
        assert "bad()" in result.findings[0].message
        assert "bad_by_name()" in result.findings[1].message

    def test_loader_scope_only(self, tree):
        # The same shapes outside the loader modules are not this rule's
        # business (module-level raises are normal elsewhere).
        write(tree, "engine/stages.py", (
            "raise_allowed = True\n"
            "def f(lib, data):\n"
            "    return lib.call(data)\n"
        ))
        assert codes(run_lint(tree)) == []


# -- pragmas, baseline, driver -------------------------------------------------

BAD_ENTROPY = (
    "import os\n"
    "def bad():\n"
    "    return os.urandom(8)\n"
)


class TestSuppressionAndBaseline:
    def test_inline_pragma_suppresses_one_line(self, tree):
        write(tree, "engine/draws.py", (
            "import os\n"
            "def bad():\n"
            "    a = os.urandom(8)  # xrdlint: disable=XRD101 - test reason\n"
            "    b = os.urandom(8)\n"
            "    return a, b\n"
        ))
        result = run_lint(tree)
        assert len(result.findings) == 1
        assert result.suppressed == 1

    def test_comment_line_pragma_covers_next_line(self, tree):
        write(tree, "engine/draws.py", (
            "import os\n"
            "def bad():\n"
            "    # xrdlint: disable=XRD101 - justified\n"
            "    return os.urandom(8)\n"
        ))
        result = run_lint(tree)
        assert result.findings == [] and result.suppressed == 1

    def test_file_pragma_and_all_keyword(self, tree):
        write(tree, "engine/draws.py", (
            "# xrdlint: disable-file=all\n" + BAD_ENTROPY
        ))
        result = run_lint(tree)
        assert result.findings == [] and result.suppressed == 1

    def test_pragma_for_other_rule_does_not_suppress(self, tree):
        write(tree, "engine/draws.py", (
            "import os\n"
            "def bad():\n"
            "    return os.urandom(8)  # xrdlint: disable=XRD102\n"
        ))
        result = run_lint(tree)
        assert codes(result) == ["XRD101"] and result.suppressed == 0

    def test_baseline_accepts_then_invalidates_on_edit(self, tree, tmp_path):
        path = write(tree, "engine/draws.py", BAD_ENTROPY)
        first = run_lint(tree)
        assert len(first.fresh) == 1

        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, first.findings)
        accepted = load_baseline(baseline_path)

        # Unrelated edits (line drift) keep the baseline entry valid.
        path.write_text("\n\n" + BAD_ENTROPY, encoding="utf-8")
        drifted = run_lint(tree, baseline=accepted)
        assert drifted.fresh == [] and len(drifted.baselined) == 1

        # Editing the flagged line itself invalidates the fingerprint.
        path.write_text(BAD_ENTROPY.replace("(8)", "(16)"), encoding="utf-8")
        edited = run_lint(tree, baseline=accepted)
        assert len(edited.fresh) == 1 and edited.baselined == []

    def test_baseline_counts_are_multiset(self, tree, tmp_path):
        write(tree, "engine/draws.py", (
            "import os\n"
            "def bad():\n"
            "    return os.urandom(8), os.urandom(8)\n"
        ))
        first = run_lint(tree)
        assert len(first.fresh) == 2
        fingerprints = {f.fingerprint() for f in first.fresh}
        assert len(fingerprints) == 1  # same rule/symbol/snippet → same print

        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, first.findings)
        accepted = load_baseline(baseline_path)
        assert accepted == {next(iter(fingerprints)): 2}

        again = run_lint(tree, baseline=accepted)
        assert again.fresh == [] and len(again.baselined) == 2

    def test_syntax_error_is_a_parse_error_not_a_crash(self, tree):
        write(tree, "engine/broken.py", "def bad(:\n")
        result = run_lint(tree)
        assert len(result.parse_errors) == 1
        assert result.parse_errors[0].rule == "XRD001"
        assert not result.clean

    def test_select_filters_rule_families(self, tree):
        write(tree, "engine/draws.py", (
            "import os, time\n"
            "def bad():\n"
            "    return os.urandom(8), time.time()\n"
        ))
        assert codes(run_lint(tree, select=["XRD101"])) == ["XRD101"]
        assert codes(run_lint(tree, select=["XRD1"])) == ["XRD101", "XRD102"]


class TestCli:
    def _run(self, *args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "tools.xrdlint", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={"PYTHONPATH": f"{REPO_ROOT}/src:{REPO_ROOT}", "PATH": "/usr/bin:/bin"},
        )

    def test_exit_codes_and_json_output(self, tmp_path):
        root = tmp_path / "src" / "repro"
        root.mkdir(parents=True)
        write(root, "engine/draws.py", BAD_ENTROPY)

        dirty = self._run("src/repro", "--format", "json", cwd=tmp_path)
        assert dirty.returncode == 1
        payload = json.loads(dirty.stdout)
        assert payload["clean"] is False
        assert payload["fresh"][0]["rule"] == "XRD101"

        write(root, "engine/draws.py", "x = 1\n")
        clean = self._run("src/repro", cwd=tmp_path)
        assert clean.returncode == 0, clean.stdout + clean.stderr

    def test_write_baseline_then_gate_passes(self, tmp_path):
        root = tmp_path / "src" / "repro"
        root.mkdir(parents=True)
        write(root, "engine/draws.py", BAD_ENTROPY)
        baseline = tmp_path / "baseline.json"

        wrote = self._run(
            "src/repro", "--baseline", str(baseline), "--write-baseline", cwd=tmp_path
        )
        assert wrote.returncode == 0, wrote.stdout + wrote.stderr

        gated = self._run("src/repro", "--baseline", str(baseline), cwd=tmp_path)
        assert gated.returncode == 0, gated.stdout + gated.stderr

        ignored = self._run(
            "src/repro", "--baseline", str(baseline), "--no-baseline", cwd=tmp_path
        )
        assert ignored.returncode == 1

    def test_list_rules_names_every_family(self, tmp_path):
        tmp_path.joinpath("src/repro").mkdir(parents=True)
        listed = self._run("--list-rules", cwd=tmp_path)
        assert listed.returncode == 0
        for code in ("XRD101", "XRD102", "XRD103", "XRD104", "XRD201", "XRD202", "XRD203",
                     "XRD401", "XRD402", "XRD501", "XRD502"):
            assert code in listed.stdout
        assert "XRD301" not in listed.stdout

    def test_missing_path_is_a_usage_error(self, tmp_path):
        tmp_path.joinpath("src/repro").mkdir(parents=True)
        result = self._run("no/such/dir", cwd=tmp_path)
        assert result.returncode == 2


class TestSelfRun:
    def test_repository_is_clean(self):
        """The committed tree passes its own linter — the CI gate."""
        config = LintConfig(tests_dir=REPO_ROOT / "tests")
        result = lint_paths(
            [REPO_ROOT / "src" / "repro"],
            config=config,
            baseline=load_baseline(REPO_ROOT / "tools" / "xrdlint" / "baseline.json"),
        )
        assert result.parse_errors == []
        assert result.fresh == [], "\n".join(f.render() for f in result.fresh)


class TestFindingMechanics:
    def test_fingerprint_ignores_line_numbers_but_not_content(self):
        base = dict(rule="XRD101", path="a.py", col=1,
                    message="m", symbol="f", snippet="x = os.urandom(8)")
        a = Finding(line=10, **base)
        b = Finding(line=99, **base)
        assert a.fingerprint() == b.fingerprint()
        c = Finding(line=10, **{**base, "snippet": "x = os.urandom(16)"})
        assert a.fingerprint() != c.fingerprint()

    def test_render_is_path_line_col_rule(self):
        finding = Finding(rule="XRD102", path="p.py", line=3, col=7,
                          message="msg", symbol="f", snippet="s")
        assert finding.render() == "p.py:3:7: XRD102 msg"
