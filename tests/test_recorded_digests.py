"""Outputs byte-identical to the recorded digests.

`bench/digests.json` holds the sha256 of what the benchmark's workloads
write for seeds 0-63 at full scale: the two artifacts of `ingest`, the
`eval-batch` report and the stdout of the `cold-query` calls. A change
meant to alter one of them re-records the file with
`bench/record_digests.py`; any other change must reproduce it. This runs
one untraced pass of `eval-batch` and of `cold-query` for two seeds and
counts every output that differs from its recorded digest as a failed
operation. The `eval-batch` preparation builds the `ingest` artifacts, so
their digests are checked too. A pass of `cold-query`, which checks the
`db`, `index` and stdout digests, is also run under every other interpreter
that `test_determinism.other_interpreters` finds.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402
from test_determinism import other_interpreters  # noqa: E402

# The digest keys each workload's record holds for a seed.
KEYS = {"eval-batch": {"report"}, "cold-query": {"db", "index", "stdout"}}


@pytest.mark.parametrize("seed", [5, 41])
@pytest.mark.parametrize("name", ["eval-batch", "cold-query"])
def test_outputs_match_the_recorded_digests(tmp_path, name, seed):
    recorded = workloads.load_recorded()
    assert set(recorded[name][str(seed)]) == KEYS[name]
    if name == "eval-batch":
        assert set(recorded["ingest"][str(seed)]) == {"db", "index"}
    wl, outcome = workloads.run(name, seed, 0, False, tmp_path, None, recorded=None)
    # Every call of the one pass, plus the check of the reference artifacts.
    assert (outcome.attempted, outcome.failed) == (len(wl.calls()) + 1, 0)


# One untraced `cold-query` pass at seed 5 in the interpreter that runs it;
# argv: the bench directory, the source directory, a scratch directory.
COLD_QUERY_PASS = """
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import workloads
wl, outcome = workloads.run("cold-query", 5, 0, False, Path(sys.argv[3]))
print(outcome.attempted - len(wl.calls()) - 1, outcome.failed)
"""


def test_cold_query_matches_the_recorded_digests_under_every_interpreter(tmp_path):
    others = other_interpreters()
    if not others:
        pytest.skip("no other python3.N interpreter starts")
    for index, python in enumerate(others):
        root = tmp_path / str(index)
        root.mkdir()
        out = subprocess.run([python, "-c", COLD_QUERY_PASS, str(ROOT / "bench"), str(ROOT / "src"),
                              str(root)], capture_output=True, text=True, check=True,
                             timeout=300).stdout
        # Every call of the pass and the check of the reference artifacts ran; none failed.
        assert out.split() == ["0", "0"], python
