"""Benchmark entry point; run from the root of a checkout.

    python3 bench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

`--workload` is one of ingest, eval-batch, cold-query, or `all`, which runs
each in its own process and prints the workload-specific figures side by
side. The last line of a single-workload run is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = Path.cwd() / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC_DIR)]

WORKLOADS = ("ingest", "eval-batch", "cold-query")
WORK_DIR = Path(".bench_work")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="quickar benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(args) -> int:
    import workloads
    from spans import LAYER_METRICS

    root = WORK_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        wl, res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                root.resolve())
        if args.trace:
            values = workloads.per_layer(wl, res)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    if args.trace:
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in LAYER_METRICS.items()}
    else:
        units = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
        values = workloads.end_to_end(wl, res)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        detail = workloads.detail(wl, res)
        print(f"# {args.workload} seed={args.seed} passes={len(res.passes)} "
              f"attempted={res.attempted} failed={res.failed}")
        for key, value in values.items():
            print(f"#   {key:<24}{value:>14.6f} {units[key]}")
        for key, (value, unit, n) in detail.items():
            print(f"#   {key:<24}{value:>14.6f} {unit}  (n={n})")
        print("# detail " + json.dumps({k: list(v) for k, v in detail.items()}))
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    rows, ok = {}, True
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows[name] = {k: (m["value"], m["unit"], None) for k, m in result["metrics"].items()}
        for line in lines:
            if line.startswith("# detail "):
                rows[name].update({k: tuple(v) for k, v in json.loads(line[9:]).items()})
    print("# summary")
    for name, row in rows.items():
        for key, (value, unit, n) in row.items():
            count = f"  (n={n})" if n is not None else ""
            print(f"{name:<12}{key:<26}{value:>14.6f} {unit}{count}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "quickar" / "__init__.py").is_file():
        print("bench: src/quickar not found; run from the root of a quickar checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
