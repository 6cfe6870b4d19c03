"""The benchmark's own tests: every workload at a tiny scale.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import spans
import workloads

BENCH = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", workloads.CLASSES)
def test_workload_emits_every_metric_with_stable_digests(name, tmp_path):
    wl, plain = workloads.run(name, 3, 0, False, tmp_path / "plain", gen.TINY, recorded={})
    assert (plain.attempted, plain.failed) == (len(wl.calls()) + 1, 0)
    e2e = workloads.end_to_end(wl, plain)
    assert set(e2e) == {"setup_s", "wall_ref_s", "peak_rss_mb"}
    assert all(value > 0 for value in e2e.values())
    assert workloads.detail(wl, plain)["fail_ratio"][0] == 0
    # Set-up is timed inside every untraced CLI call: each one loads at
    # least a word list.
    assert all(call.setup > 0 for p in plain.passes for call in p.calls)
    # The sampling timer is off and its handler gone once the run is over.
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL

    # The traced run checks its own passes against the untraced one's
    # reference, so a report that tracing changed would count as failed.
    traced_wl, traced = workloads.run(name, 3, 0, True, tmp_path / "traced", gen.TINY,
                                      recorded={})
    assert traced.failed == 0
    assert traced_wl.digests == wl.digests
    layers = workloads.per_layer(traced_wl, traced)
    assert set(spans.LAYER_METRICS) <= set(layers)


def test_times_are_scaled_by_the_reference_loop():
    # A run whose loop took twice its nominal time during its calls ran at
    # half the reference speed: its times are halved.
    calls = [workloads.Call(rc=0, stdout="", seconds=s, setup=s / 4) for s in (1.0, 3.0)]
    slow = workloads.Pass(calls=calls, digests={}, refs=[2 * workloads.REF_SECONDS] * 3)
    e2e = workloads.end_to_end(None, workloads.Outcome(passes=[slow]))
    assert e2e["wall_ref_s"] == pytest.approx(2.0)
    assert e2e["setup_s"] == pytest.approx(0.25)


def test_whole_file_fallback_is_counted(tmp_path):
    wl, res = workloads.run("ingest", 3, 0, True, tmp_path, gen.TINY, recorded={})
    layers = workloads.per_layer(wl, res)
    # One tiny-scale file holds a text block with an odd number of quotes.
    assert layers["corpus.whole_file_docs"] >= 1
    assert layers["corpus.files"] == gen.TINY.files
    # Splitting and preprocessing are timed inside the program's own index
    # build, as children of its span.
    assert layers["corpus.split_s"] > 0 and layers["textprep.preprocess_s"] > 0
    assert layers["textprep.tokens"] > 0


def test_digest_mismatch_counts_as_failure(tmp_path):
    wrong = {"ingest": {"3": {"db": "0" * 64, "index": "0" * 64}}}
    _, res = workloads.run("ingest", 3, 0, False, tmp_path, gen.TINY, recorded=wrong)
    # Both calls write bytes other than the recorded ones, and the
    # reference build no longer matches its recorded digests.
    assert (res.attempted, res.failed) == (3, 3)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ingest",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
