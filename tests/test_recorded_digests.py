"""Outputs byte-identical to the recorded digests.

`bench/digests.json` holds the sha256 of what the benchmark's workloads
write for seeds 0-63 at full scale: the two artifacts of `ingest`, the
`eval-batch` report and the stdout of the `cold-query` calls. A change
meant to alter one of them re-records the file with
`bench/record_digests.py`; any other change must reproduce it. This runs
one untraced pass of `eval-batch` and of `cold-query` for two seeds and
counts every output that differs from its recorded digest as a failed
operation. The `eval-batch` preparation builds the `ingest` artifacts, so
their digests are checked too.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

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
