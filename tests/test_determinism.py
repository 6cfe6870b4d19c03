"""Artifacts, scores and reports are the same bits on every supported interpreter.

Runs `determinism_probe.py` under this interpreter and under every other
`python3.N` (N >= 10) on PATH that starts, and compares what they print.
Skips when no other interpreter starts.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PROBE = Path(__file__).with_name("determinism_probe.py")


def other_interpreters() -> list[str]:
    """The first `python3.N` of each minor version N >= 10 on PATH, other
    than this interpreter's, whose `-c pass` exits 0."""
    found: dict[int, str] = {}
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        try:
            names = sorted(os.listdir(directory or "."))
        except OSError:
            continue
        for name in names:
            match = re.fullmatch(r"python3\.(\d+)", name)
            if match and int(match[1]) >= 10 and int(match[1]) != sys.version_info.minor:
                found.setdefault(int(match[1]), os.path.join(directory, name))
    return [python for _, python in sorted(found.items())
            if subprocess.run([python, "-c", "pass"], capture_output=True,
                              timeout=60).returncode == 0]


def probe(python: str) -> str:
    return subprocess.run([python, str(PROBE)], capture_output=True, text=True, check=True,
                          timeout=300).stdout


def test_scores_and_reports_are_identical_across_interpreters():
    others = other_interpreters()
    if not others:
        pytest.skip("no other python3.N interpreter starts")
    expected = probe(sys.executable)
    assert "report.json " in expected and " search 0x" in expected and " top10 0x" in expected
    assert "adjacency.db " in expected and "index.txt " in expected
    for python in others:
        assert probe(python) == expected, python
