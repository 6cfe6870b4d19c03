"""Record the output digests the benchmark checks, for a range of seeds.

    python3 bench/record_digests.py 0 64

Runs one untraced pass of eval-batch and cold-query per seed and merges
the digests into bench/digests.json. eval-batch runs on the ingest inputs,
and every run checks that the CLI writes the bytes of the library build, so
its reference artifacts give the ingest digests too. Re-record only when a
change to the program is meant to change its outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path.cwd() / "src")]

import workloads  # noqa: E402


def record(seed: int) -> dict[str, dict]:
    out = {}
    for name in ("eval-batch", "cold-query"):
        root = (Path(".bench_work") / f"record-{name}-s{seed}").resolve()
        try:
            wl, res = workloads.run(name, seed, 0, False, root, recorded={})
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if res.failed:
            raise SystemExit(f"{name} seed {seed}: {res.failed} failed operation(s)")
        if name == "eval-batch":
            out["ingest"] = dict(wl.prep["digests"])
            out[name] = wl.digests
        else:
            out[name] = {**wl.prep["digests"], **wl.digests}
    return out


def main(argv: list[str]) -> int:
    first, stop = int(argv[0]), int(argv[1])
    recorded = workloads.load_recorded()
    for seed in range(first, stop):
        for name, digests in record(seed).items():
            recorded.setdefault(name, {})[str(seed)] = digests
        workloads.DIGESTS_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
        print(f"seed {seed} recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
