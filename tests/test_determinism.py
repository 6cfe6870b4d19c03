"""Artifacts, scores, reports and split methods are the same on every supported interpreter.

Runs `determinism_probe.py` under this interpreter and under every other
`python3.N` (N >= 10) on PATH or installed by pyenv that starts, and
compares what they print.
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
    """For each minor version N >= 10 other than this interpreter's, the
    first `python3.N` whose `-c pass` exits 0, looked for on PATH and then
    in `$PYENV_ROOT/versions/*/bin`. A pyenv shim on PATH that fails to
    start does not hide the interpreter pyenv installed."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    directories = os.environ.get("PATH", "").split(os.pathsep)
    directories += sorted(str(bin_dir) for bin_dir in pyenv.glob("*/bin"))
    found: dict[int, str] = {}
    for directory in directories:
        try:
            names = sorted(os.listdir(directory or "."))
        except OSError:
            continue
        for name in names:
            match = re.fullmatch(r"python3\.(\d+)", name)
            minor = int(match[1]) if match else 0
            if minor < 10 or minor == sys.version_info.minor or minor in found:
                continue
            python = os.path.join(directory, name)
            if _starts(python):
                found[minor] = python
    return [python for _, python in sorted(found.items())]


def _starts(python: str) -> bool:
    try:
        return subprocess.run([python, "-c", "pass"], capture_output=True,
                              timeout=60).returncode == 0
    except OSError:  # not executable, or a dangling link
        return False


def probe(python: str) -> str:
    return subprocess.run([python, str(PROBE)], capture_output=True, text=True, check=True,
                          timeout=300).stdout


def test_scores_and_reports_are_identical_across_interpreters():
    others = other_interpreters()
    if not others:
        pytest.skip("no other python3.N interpreter starts")
    expected = probe(sys.executable)
    assert "report.json " in expected and " search 0x" in expected and " top10 0x" in expected
    assert "so,prep,red strict report.json " in expected
    assert " warm-top5 " in expected and " project " in expected and " crowd " in expected
    assert "=0x" in expected
    assert "adjacency.db " in expected and "index.txt " in expected
    assert "split_methods " in expected and "_mask " in expected and "_strip_comments " in expected
    assert "tokenize+split_camel " in expected
    for python in others:
        assert probe(python) == expected, python
