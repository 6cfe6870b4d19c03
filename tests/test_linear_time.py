"""Text-facing functions run in time linear in their input.

Outputs alone cannot show a quadratic scan: a regular expression retried
at every position of a long run finds the same matches, only later. So each
guard times a function on an adversarial input at sizes n and 8n and
asserts that the time per call grows by less than RATIO_BOUND: linear code
gives about 8, quadratic code about 64.

Each size is timed as the minimum of 3 runs, the two sizes' runs taken in
turn so that a burst of load on the machine slows both. A run calls the
function many times at size n and an eighth as many times at size 8n, so
that both runs take about 10 ms when the code is linear, well above the
timer's noise, and a quadratic function still finishes in seconds.
"""

from __future__ import annotations

import gc
import math
import time

import pytest

from quickar.adjacency import parse_title_line
from quickar.textprep import SPLIT_AND_KEEP_WHOLE, StopList, preprocess, split_camel, tokenize

GROWTH = 8
RATIO_BOUND = 24
RUNS = 3
# The least time of one run at size n, in seconds.
MIN_RUN_S = 0.01


def _run_seconds(call, text: str, reps: int) -> float:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(reps):
            call(text)
        return time.perf_counter() - start
    finally:
        gc.enable()


def growth_ratio(call, make, n: int) -> float:
    """The time per call of `call(make(GROWTH * n))` over that of
    `call(make(n))`, each the minimum of RUNS runs."""
    small, large = make(n), make(GROWTH * n)
    once = _run_seconds(call, small, 1)
    batches = max(1, math.ceil(MIN_RUN_S / max(once, 1e-9) / GROWTH))
    runs = [(_run_seconds(call, small, GROWTH * batches), _run_seconds(call, large, batches))
            for _ in range(RUNS)]
    return GROWTH * min(large for _, large in runs) / min(small for small, _ in runs)


def _preprocess_cold(text: str):
    # A new stop list has an empty memo, so every raw token is expanded.
    return preprocess(text, StopList({"the"}), SPLIT_AND_KEEP_WHOLE)


# name: (function, input of size n, n)
CASES = {
    "tokenize-digit-run": (tokenize, lambda n: "7" * n, 4_000),
    "tokenize-identifier": (tokenize, lambda n: "a" * n, 4_000),
    "tokenize-digits-then-letter": (tokenize, lambda n: "7" * n + "x", 4_000),
    "split_camel-identifier": (split_camel, lambda n: "a" * n, 4_000),
    "split_camel-camel-chain": (split_camel, lambda n: "aB" * n, 2_000),
    "split_camel-upper-run": (split_camel, lambda n: "A" * n + "b", 4_000),
    "preprocess-digit-run": (_preprocess_cold, lambda n: "x " + "7" * n, 4_000),
    "preprocess-camel-chain": (_preprocess_cold, lambda n: "get" + "Value7" * n, 1_000),
    "parse_title_line-many-tags": (parse_title_line,
                                   lambda n: "1\tMemory leak\t" + ";".join(["java"] * n), 1_000),
    "parse_title_line-long-title": (parse_title_line,
                                    lambda n: "1\t" + "leak " * n + "\tjava", 4_000),
}


@pytest.mark.parametrize("call,make,n", CASES.values(), ids=CASES)
def test_time_grows_linearly(call, make, n):
    ratio = growth_ratio(call, make, n)
    assert ratio < RATIO_BOUND, f"{GROWTH}x the input took {ratio:.1f}x the time"
