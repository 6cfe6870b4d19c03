"""The three benchmark workloads, their timed passes and output checks.

Every workload is a closed loop with one client: it calls `quickar.cli.main`
in-process, and the next call starts only when the previous one returned.
No `--jobs` flag is passed, so the program's default worker count is used.

- ingest: `build-db` then `index` on a generated dump and Java tree.
- eval-batch: `evaluate` with all six strategies against artifacts built
  from the ingest inputs (the build is preparation and is not timed).
- cold-query: one-shot `search`, `reformulate --json` and
  `reformulate --strategy rocchio` calls on a small project; each call
  loads the artifacts it needs and builds its own searcher.

Each call stands for a fresh CLI process: its cyclic garbage is collected
after it returns, outside the timer. A call's set-up time is taken inside
it, from the program's own word-list and artifact loads, searcher build and
query parsing (`spans.SETUP_SPANS`).

Times are reported in reference seconds. The machine the bounds were set on
runs the same code at speeds up to 1.8 times apart, in phases that can
outlast a whole run, so neither the fastest nor the median pass is steady
from one run to the next. A fixed reference loop is therefore timed every
SAMPLE_EVERY seconds while a call runs, from a signal handler whose time is
left out of every timer. A run's mean measured time, divided by the loop's
mean time over the same calls and multiplied by the loop's nominal time
REF_SECONDS, is that time at the reference speed.

Inputs and reference artifacts are made by `prepare()` in a child process
(this file run as a script), so the parent's peak RSS is that of the
workload, plus the reference loop's fixed 3 MB of data.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import logging
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import astuple, dataclass, field
from pathlib import Path

import gen
import spans
from quickar import adjacency, cli, corpus, evaluate
from quickar.errors import QueryEmptyError
from quickar.nouns import default_noun_oracle
from quickar.search import Searcher, rank_of_first_relevant
from quickar.textprep import default_language_keywords, default_stoplist

# The package attribute `reformulate` is the function, not the module.
reform = importlib.import_module("quickar.reformulate")

DIGESTS_FILE = Path(__file__).with_name("digests.json")


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Preparation (runs in a child process)
# ---------------------------------------------------------------------------

@dataclass
class Layout:
    """File names inside one run's work directory."""

    root: Path

    @property
    def dump(self) -> Path:
        return self.root / "titles.tsv"

    @property
    def tree(self) -> Path:
        return self.root / "project"

    @property
    def queries(self) -> Path:
        return self.root / "queries.tsv"

    @property
    def ref_db(self) -> Path:
        return self.root / "ref" / "adjacency.db"

    @property
    def ref_index(self) -> Path:
        return self.root / "ref" / "index.txt"

    @property
    def prep(self) -> Path:
        return self.root / "prep.json"

    @property
    def out(self) -> Path:
        return self.root / "out"


def prepare(workload: str, seed: int, root: str, scale: gen.Scale) -> dict:
    """Generate the inputs for `seed`, build the reference artifacts with the
    library, and check that each artifact loads back equal to the object
    that was built. Returns digests, counts and the query titles."""
    logging.getLogger("quickar").setLevel(logging.ERROR)
    lay = Layout(Path(root))
    rng = random.Random(seed)
    vocab = gen.Vocabulary(rng)
    gen.write_title_dump(lay.dump, rng, vocab, scale.titles)
    gen.write_java_tree(lay.tree, rng, vocab, scale.files)

    stops, keywords = default_stoplist(), default_language_keywords()
    dump_stats, ingest_stats = adjacency.DumpStats(), corpus.IngestStats()
    titles = list(adjacency.filter_titles(adjacency.read_title_dump(lay.dump, dump_stats), "java"))
    db = adjacency.build(titles, stops, source=f"{lay.dump.name}:java")
    built = corpus.build_corpus(lay.tree, stops, keywords, stats=ingest_stats)
    lay.ref_db.parent.mkdir()
    adjacency.save(db, lay.ref_db)
    corpus.save(built, lay.ref_index)
    loads_back = adjacency.load(lay.ref_db) == db and corpus.load(lay.ref_index) == built

    queries = []
    if workload != "ingest":
        searcher = Searcher(built)

        def baseline_rank(title, gold):
            hits = searcher.search(evaluate.baseline_terms(title))
            return rank_of_first_relevant(hits, {gold})

        queries = gen.make_queries(rng, vocab, built, scale.queries, baseline_rank)
        gen.write_queries(lay.queries, queries)
    return {
        "loads_back": loads_back,
        "digests": {"db": sha256_file(lay.ref_db), "index": sha256_file(lay.ref_index)},
        "titles_kept": len(titles),
        "files": ingest_stats.files,
        "queries": [title for _, title, _ in queries],
    }


# ---------------------------------------------------------------------------
# Calls and passes
# ---------------------------------------------------------------------------

# Nominal time of `reference_loop()`: its time on the machine the bounds
# were set on (Intel Xeon at 2.1 GHz, Python 3.11) in that machine's fast
# phase, so reference seconds read close to measured fast-phase seconds.
REF_SECONDS = 0.0016
# How often the loop is timed while a call runs: it then takes about 3% of
# the call's time, which the timers leave out.
SAMPLE_EVERY = 0.1

# The reference loop's data: 40,000 short distinct strings (about 3 MB), so
# that, like the program, it works on more memory than a core's own caches
# hold. A loop that fits in cache slowed down about 1.2 times more than the
# workloads between the machine's fast and slow phases; this one within
# about 5% of them.
_REF_WORDS = [f"w{i}x{i * 31 % 977}" for i in range(40_000)]


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work: counting 3,000
    seeded draws from `_REF_WORDS` in a dict. The collector is paused, so
    the heap the program left behind does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        draw = random.Random(7).randrange
        counts: dict[str, int] = {}
        for _ in range(3_000):
            word = _REF_WORDS[draw(40_000)]
            counts[word] = counts.get(word, 0) + 1
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times `reference_loop()` every SAMPLE_EVERY seconds of wall time, from
    a SIGALRM handler, while `in_call` is set. The timer runs through a whole
    pass, so samples fall uniformly over the time spent in calls; the loop
    times over a run, averaged, are the loop's time during those calls."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0    # seconds spent in the handler
        self.in_call = False

    def clock(self) -> float:
        """A `perf_counter` that stands still while the handler runs."""
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame):
        if self.in_call:
            start = time.perf_counter()
            self.samples.append(reference_loop())
            self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class Call:
    rc: int
    stdout: str
    seconds: float
    setup: float    # time of the call's set-up spans (spans.SETUP_SPANS)


def call_cli(argv: list[str], tracer: spans.Tracer, sampler: Sampler) -> Call:
    """One in-process CLI call, under `spans.instrument(tracer)` and timed
    on `sampler.clock`; any exception or exit counts as a failed call."""
    out = io.StringIO()
    first = len(tracer.spans)
    start = sampler.clock()
    sampler.in_call = True
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                tracer.span("cli"):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = -1
    finally:
        sampler.in_call = False
    seconds = sampler.clock() - start
    return Call(rc=rc, stdout=out.getvalue(), seconds=seconds, setup=tracer.setup_since(first))


@dataclass
class Pass:
    calls: list[Call]
    digests: dict[str, str]
    refs: list[float]    # reference-loop times sampled during the calls
    layers: dict[str, float] | None = None    # traced passes only

    @property
    def wall(self) -> float:
        return sum(c.seconds for c in self.calls)


@dataclass
class Outcome:
    """Everything one run measured."""

    passes: list[Pass] = field(default_factory=list)
    traced: list[Pass] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Workload:
    """Base: subclasses give the calls of one pass and the outputs each call
    is checked on."""

    name = ""
    default_scale = gen.INGEST
    # Digest keys each call of a pass is checked on, in call order.
    call_keys: tuple[tuple[str, ...], ...] = ()

    def __init__(self, seed: int, root: Path, scale: gen.Scale | None = None):
        self.seed = seed
        self.lay = Layout(root)
        self.scale = scale or self.default_scale
        self.prep: dict = {}
        self.digests: dict[str, str] = {}

    def prepare(self) -> None:
        """Run `prepare()` in a child process and read back its result."""
        self.lay.root.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, __file__, self.name, str(self.seed), str(self.lay.root),
                *map(str, astuple(self.scale))]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run(argv, env=env, check=True)
        self.prep = json.loads(self.lay.prep.read_text(encoding="utf-8"))
        self.lay.out.mkdir(parents=True, exist_ok=True)

    def calls(self) -> list[list[str]]:
        raise NotImplementedError

    def pass_digests(self, calls: list[Call]) -> dict[str, str]:
        raise NotImplementedError

    def run_pass(self, traced: bool = False) -> Pass:
        """One round of calls. Untraced passes wrap only the set-up steps;
        traced passes wrap every layer."""
        sampler = Sampler()
        tracer = spans.Tracer(clock=sampler.clock)
        calls = []
        with sampler.running(), spans.instrument(tracer, setup_only=not traced):
            for argv in self.calls():
                calls.append(call_cli(argv, tracer, sampler))
                # Each call stands for a fresh CLI process: collect its
                # cyclic garbage (a corpus and its cached searcher refer to
                # each other) now, outside the timer, not in a later call.
                gc.collect()
        # Only a pass shorter than SAMPLE_EVERY (a tiny test scale) has no
        # sample; it gets one, taken after it.
        refs = sampler.samples or [reference_loop()]
        return Pass(calls=calls, digests=self.pass_digests(calls), refs=refs,
                    layers=tracer.layer_metrics() if traced else None)

    def layer_counts(self) -> dict[str, int]:
        """Counters computed once, outside any span."""
        return {}

    def artifact_bytes(self) -> dict[str, int]:
        """Sizes of the artifacts the workload writes (ingest; checked to be
        the reference bytes) or reads."""
        return {"adjacency.artifact_bytes": self.lay.ref_db.stat().st_size,
                "corpus.artifact_bytes": self.lay.ref_index.stat().st_size}

    def reference_digests(self, recorded: dict | None) -> dict[str, str]:
        """What every pass must reproduce: the recorded digests of this
        workload and seed when there are any, else the first pass."""
        return dict(recorded or {})

    def prep_ok(self, recorded_build: dict | None) -> bool:
        """The reference artifacts load back equal to the built objects and
        match the recorded digests of this seed, if any."""
        if not self.prep["loads_back"]:
            return False
        return recorded_build is None or all(
            self.prep["digests"][k] == recorded_build[k] for k in ("db", "index"))


class Ingest(Workload):
    name = "ingest"
    call_keys = (("db",), ("index",))

    def calls(self):
        out = self.lay.out
        return [["build-db", "--dump", str(self.lay.dump), "--out", str(out / "adjacency.db")],
                ["index", "--src", str(self.lay.tree), "--out", str(out / "index.txt")]]

    def pass_digests(self, calls):
        return {"db": sha256_file(self.lay.out / "adjacency.db"),
                "index": sha256_file(self.lay.out / "index.txt")}

    def reference_digests(self, recorded):
        # The CLI must write the very bytes the library build saved.
        return {**self.prep["digests"], **(recorded or {})}


def _pool_counts(queries, index, db, stops, searcher) -> dict[str, int]:
    """Keyword and candidate-pool sizes of the full pipeline (mode `all`),
    summed over `queries`, from the public candidate functions."""
    oracle = default_noun_oracle()
    counts = dict.fromkeys(("reformulate.keywords_in", "reformulate.keywords_kept",
                            "reformulate.project_pool", "reformulate.crowd_pool",
                            "reformulate.expansions"), 0)
    for query in queries:
        try:
            keywords = reform.collect_keywords(query, stops)
        except QueryEmptyError:
            continue
        reduced = reform.reduce_keywords(keywords, index, oracle)
        counts["reformulate.keywords_in"] += len(keywords)
        counts["reformulate.keywords_kept"] += len(reduced)
        counts["reformulate.project_pool"] += len(reform.project_candidates(reduced, searcher))
        counts["reformulate.crowd_pool"] += len(reform.crowd_candidates(reduced, db))
        ref = reform.reformulate(query, index, db, stops=stops, oracle=oracle, searcher=searcher)
        counts["reformulate.expansions"] += len(ref.expansion_terms)
    return counts


class EvalBatch(Workload):
    name = "eval-batch"
    call_keys = (("report",),)

    def calls(self):
        return [["evaluate", "--index", str(self.lay.ref_index), "--db", str(self.lay.ref_db),
                 "--queries", str(self.lay.queries), "--out", str(self.lay.out)]]

    def pass_digests(self, calls):
        return {"report": sha256_file(self.lay.out / "report.json")}

    def layer_counts(self):
        index, db = corpus.load(self.lay.ref_index), adjacency.load(self.lay.ref_db)
        searcher = Searcher(index)
        queries = evaluate.parse_queries_tsv(self.lay.queries)
        kept = evaluate.filter_dataset(queries, searcher).kept
        return _pool_counts(kept, index, db, default_stoplist(), searcher)


class ColdQuery(Workload):
    name = "cold-query"
    default_scale = gen.COLD
    call_keys = (("stdout",),)

    def calls(self):
        idx, db = str(self.lay.ref_index), str(self.lay.ref_db)
        out = []
        for title in self.prep["queries"]:
            out += [["search", "--index", idx, "--query", title, "--top", "10"],
                    ["reformulate", "--index", idx, "--db", db, "--query", title, "--json"],
                    ["reformulate", "--index", idx, "--db", db, "--query", title,
                     "--strategy", "rocchio"]]
        return out

    def pass_digests(self, calls):
        return {"stdout": sha256_text("".join(c.stdout for c in calls))}

    def layer_counts(self):
        index, db = corpus.load(self.lay.ref_index), adjacency.load(self.lay.ref_db)
        queries = [reform.QueryRecord(query_id="cli", text=t) for t in self.prep["queries"]]
        return _pool_counts(queries, index, db, default_stoplist(), Searcher(index))


CLASSES = {cls.name: cls for cls in (Ingest, EvalBatch, ColdQuery)}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def load_recorded() -> dict:
    if DIGESTS_FILE.is_file():
        return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    return {}


def _check(wl: Workload, passes: list[Pass], reference: dict[str, str]) -> tuple[int, int]:
    """(attempted, failed) over every call of `passes`. A call fails when it
    exits non-zero or an output it wrote differs from the reference."""
    attempted = failed = 0
    for p in passes:
        for i, call in enumerate(p.calls):
            keys = wl.call_keys[i % len(wl.call_keys)]
            attempted += 1
            if call.rc != 0 or any(p.digests[k] != reference.setdefault(k, p.digests[k])
                                   for k in keys):
                failed += 1
    return attempted, failed


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        scale: gen.Scale | None = None, recorded: dict | None = None) -> tuple[Workload, Outcome]:
    """Prepare, then run passes for `seconds` and check every output.

    Traced runs alternate an untraced and a traced pass, so the tracing
    overhead is measured on the same inputs.
    """
    wl = CLASSES[name](seed, root, scale)
    wl.prepare()
    recorded = load_recorded() if recorded is None else recorded
    mine = recorded.get(name, {}).get(str(seed))
    # eval-batch runs on the ingest artifacts; cold-query records its own.
    built_by = "cold-query" if name == "cold-query" else "ingest"
    recorded_build = recorded.get(built_by, {}).get(str(seed))
    result = Outcome()

    deadline = time.perf_counter() + seconds
    while True:
        result.passes.append(wl.run_pass())
        if trace:
            result.traced.append(wl.run_pass(traced=True))
        if time.perf_counter() >= deadline:
            break

    reference = wl.reference_digests(mine)
    result.attempted, result.failed = _check(wl, result.passes + result.traced, reference)
    result.attempted += 1
    if not wl.prep_ok(recorded_build):
        result.failed += 1
    wl.digests = reference
    return wl, result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fastest(passes: list[Pass]) -> float:
    """Measured wall time of the fastest pass."""
    return min(p.wall for p in passes)


def to_reference(passes: list[Pass]) -> float:
    """Factor from measured to reference seconds over `passes`: the loop's
    nominal time over its mean time during their calls. Means, not medians,
    so that the loop and the calls are averaged over the same mix of fast
    and slow phases."""
    return REF_SECONDS / statistics.mean(r for p in passes for r in p.refs)


def end_to_end(wl: Workload, res: Outcome) -> dict[str, float]:
    """In reference seconds: wall_ref_s is the mean pass, setup_s the mean
    set-up time of one call."""
    scale = to_reference(res.passes)
    return {"setup_s": scale * statistics.mean(c.setup for p in res.passes for c in p.calls),
            "wall_ref_s": scale * statistics.mean(p.wall for p in res.passes),
            "peak_rss_mb": peak_rss_mb()}


def per_layer(wl: Workload, res: Outcome) -> dict[str, float]:
    layers = {k: min(p.layers[k] for p in res.traced) for k in spans.LAYER_METRICS}
    layers.update(wl.layer_counts())
    layers.update(wl.artifact_bytes())
    layers["trace.untraced_wall_s"] = fastest(res.passes)
    # Untraced and traced passes alternate; pairing neighbours cancels the
    # machine's slow drift in speed.
    layers["trace.overhead_s"] = statistics.median(
        t.wall - u.wall for u, t in zip(res.passes, res.traced))
    return layers


def detail(wl: Workload, res: Outcome) -> dict[str, tuple[float, str, int]]:
    """The workload-specific figures, as (value, unit, sample count); rates
    and latencies are in reference seconds, like the end-to-end times."""
    n = len(res.passes)
    out: dict[str, tuple[float, str, int]] = {}
    scale = to_reference(res.passes)
    if wl.name == "ingest":
        build = scale * statistics.mean(p.calls[0].seconds for p in res.passes)
        index = scale * statistics.mean(p.calls[1].seconds for p in res.passes)
        out["build_db_titles_per_s"] = (wl.prep["titles_kept"] / build, "1/s", n)
        out["index_files_per_s"] = (wl.prep["files"] / index, "1/s", n)
    elif wl.name == "eval-batch":
        busy = scale * statistics.mean(p.wall - sum(c.setup for c in p.calls)
                                       for p in res.passes)
        out["eval_queries_per_s"] = (len(wl.prep["queries"]) / busy, "1/s", n)
    else:
        times = sorted(scale * c.seconds * 1000.0 for p in res.passes for c in p.calls)
        out["cold_call_p50_ms"] = (statistics.median(times), "ms", len(times))
        if len(times) >= 100:
            out["cold_call_p90_ms"] = (statistics.quantiles(times, n=10)[8], "ms", len(times))
    out["fail_ratio"] = (res.failed / res.attempted, "ratio", res.attempted)
    # What the scaling starts from: measured seconds and loop times.
    out["fastest_pass_wall_s"] = (fastest(res.passes), "s", n)
    out["reference_loop_ms"] = (1000.0 * REF_SECONDS / scale, "ms",
                                sum(len(p.refs) for p in res.passes))
    return out


if __name__ == "__main__":
    name, seed, root, *sizes = sys.argv[1:]
    prep = prepare(name, int(seed), root, gen.Scale(*map(int, sizes)))
    Layout(Path(root)).prep.write_text(json.dumps(prep), encoding="utf-8")
