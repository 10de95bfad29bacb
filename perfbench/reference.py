"""Reference outputs of ``repro run-all`` and the section-by-section check.

``run-all`` prints one ``== name ==`` section per registry experiment.
The benchmark checks every section of every run against a pinned
reference, so a mismatch names its experiment and counts as one failed
operation:

* ``xgene2`` seed 0 is checked against the repository's golden file
  ``tests/golden/run_all_xgene2.txt``;
* every other (platform, run-all seed) pair is checked against the
  per-section SHA-256 digests pinned in ``reference.json``.

Regenerate the pinned digests (only when experiment output changes on
purpose) from the repository root with::

    python3 perfbench/reference.py

Each seed is a fresh ``python -m repro.cli run-all --jobs 1`` process;
the script refuses to write anything when xgene2 seed 0 differs from
the golden file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
GOLDEN_FILE = ROOT / "tests" / "golden" / "run_all_xgene2.txt"

#: Platforms whose outputs are pinned: one per workload family.
PLATFORMS = ("xgene2", "xgene3-xl")
#: Run-all seeds 0..PINNED_SEEDS-1 are pinned; the benchmark maps its
#: workload seed onto this range. Seed 11 is pinned but was never used to
#: tune the benchmark: it is the held-out seed for rechecking a claim.
PINNED_SEEDS = 16

_HEADER = re.compile(r"^== ([A-Za-z0-9_.-]+) ==$", re.MULTILINE)


def split_sections(text: str) -> Dict[str, str]:
    """``name -> section text`` (header included), in output order.

    Text before the first header is kept under the empty name, so junk
    output can never pass as a clean run.
    """
    marks = list(_HEADER.finditer(text))
    sections: Dict[str, str] = {}
    head = text[: marks[0].start()] if marks else text
    if head:
        sections[""] = head
    for i, mark in enumerate(marks):
        end = marks[i + 1].start() if i + 1 < len(marks) else len(text)
        sections[mark.group(1)] = text[mark.start():end]
    return sections


def digest(text: str) -> str:
    """Short content digest of one section."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digests_of(text: str) -> Dict[str, str]:
    """Per-section digests of a whole ``run-all`` output."""
    return {name: digest(body) for name, body in split_sections(text).items()}


def expected_digests(platform: str, run_seed: int) -> Dict[str, str]:
    """Reference digests for one ``run-all --platform --seed`` output."""
    if platform == "xgene2" and run_seed == 0:
        return digests_of(GOLDEN_FILE.read_text(encoding="utf-8"))
    pinned = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return pinned["digests"][platform][str(run_seed)]


def failed_sections(text: str, expected: Dict[str, str]) -> List[str]:
    """Names of expected sections that are missing or differ.

    Extra or reordered sections fail the whole output: every expected
    name is then reported.
    """
    actual = digests_of(text)
    if list(actual) != list(expected):
        return sorted(expected)
    return [name for name, want in expected.items() if actual[name] != want]


def child_env() -> Dict[str, str]:
    """Environment of a child interpreter that imports ``repro`` from
    this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_all_output(platform: str, seed: int) -> str:
    """stdout of one fresh single-job ``run-all`` process."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run-all", "--jobs", "1",
         "--platform", platform, "--seed", str(seed)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, check=True,
    )
    return done.stdout.decode("utf-8")


def pin() -> Optional[str]:
    """Recompute ``reference.json``; returns an error message or None."""
    golden = GOLDEN_FILE.read_text(encoding="utf-8")
    pinned: Dict[str, Dict[str, Dict[str, str]]] = {}
    for platform in PLATFORMS:
        pinned[platform] = {}
        for seed in range(PINNED_SEEDS):
            text = run_all_output(platform, seed)
            print(f"pinned {platform} seed {seed}", file=sys.stderr)
            if platform == "xgene2" and seed == 0:
                if text != golden:
                    return f"xgene2 seed 0 differs from {GOLDEN_FILE}"
                continue
            pinned[platform][str(seed)] = digests_of(text)
    REFERENCE_FILE.write_text(
        json.dumps({"digests": pinned}, indent=1) + "\n",
        encoding="utf-8",
    )
    return None


if __name__ == "__main__":
    error = pin()
    if error is not None:
        print(f"reference: {error}", file=sys.stderr)
        sys.exit(1)
