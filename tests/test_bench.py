"""The benchmark harness still runs against this checkout."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    # Covers the tracing contract (the layers the CLI calls by global name)
    # and the byte-for-byte report gate.
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


# Each workload's seed-1 corpus.  bench/workloads.py draws every corpus through
# tests/treegen.py, so a generator that moves one random call changes these.
SEED_1_SHA256 = {
    "ptb-wsj": "5622191d65e86b4483cd4f96032629fe2ed0a496b47d04a6768db0852f9e9557",
    "dep-short": "73ee72016dddd7c006f60f7ccdf7982ef2631a0d76097797bbf432d73429d7f4",
    "dep-long": "303258351bf764e75a1620e033ad0e3e46c1bb8fa8139735a7f0e7a9632b869d",
}


def test_bench_corpora_are_pinned():
    # The import path bench/selftest.py sets up: bench/, then src/ and tests/.
    code = (
        "import json, sys, run\n"
        "sys.path[1:1] = [str(run.ROOT / 'src'), str(run.ROOT / 'tests')]\n"
        "import workloads\n"
        f"names = {list(SEED_1_SHA256)!r}\n"
        "print(json.dumps({n: workloads.build(n, 1).fingerprint()['sha256'] for n in names}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT / "bench", capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == SEED_1_SHA256
