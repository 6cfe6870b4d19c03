"""Seeded input generator: crowd title dump, Java source tree, query files.

Every function draws from the `random.Random` it is given and from nothing
else that varies, so one seed always yields byte-identical inputs. The
program under test only ever sees the files written here.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Scale:
    """Input sizes of one generated project."""

    titles: int       # lines in the title dump, malformed ones included
    files: int        # Java source files
    queries: int      # queries in the evaluation file, or distinct cold-call queries


# Sizes of the project each workload runs on (see README.md).
INGEST = Scale(titles=10_000, files=80, queries=150)
COLD = Scale(titles=8_000, files=80, queries=4)
TINY = Scale(titles=400, files=8, queries=12)

# Programming and issue-tracker vocabulary; the head of the Zipf ranking.
_BASE_WORDS = """
file user data list map value key cache memory leak error exception thread
stream buffer reader writer client server request response session connection
socket port timeout config property setting string number array index query
table column row record entry node tree graph path directory class method field
object instance type interface module package library version build test unit
event listener handler callback queue task job worker pool lock state status
message log logger output input format parser token text line char byte image
icon window panel button dialog frame layout view model controller service
factory builder adapter proxy bean context container registry resource bundle
locale date time zone calendar clock timer counter metric report result item
order customer account payment invoice price amount product catalog cart
shipment address email phone name title label tag category group role permission
token password credential certificate key store trust policy rule filter sort
search match pattern regex schema document element attribute namespace
transaction commit rollback database driver statement cursor batch update
insert delete select join view trigger sequence generator random seed hash
checksum digest cipher encoder decoder codec compression archive zip jar
classpath loader plugin extension hook scheduler cron executor future promise
channel selector pipe signal process runtime heap stack frame garbage
collection reference pointer array vector matrix point line shape color font
render paint canvas graphics sound audio video media player playlist track
download upload transfer progress retry backoff limit quota throttle rate
window size width height length count total sum average minimum maximum
""".split()

_FILLERS = ("how", "to", "the", "a", "in", "with", "when", "is", "of", "for",
            "on", "why", "does", "not", "and", "from", "after", "using")
_VERBS = ("get", "set", "load", "save", "create", "update", "remove", "find",
          "parse", "build", "read", "write", "open", "close", "init", "handle",
          "compute", "check", "validate", "convert", "resolve", "register")
_TYPES = ("String", "int", "long", "boolean", "double", "List<String>",
          "Map<String, Integer>", "Object", "byte[]")
_OTHER_TAGS = ("python", "c#", "javascript", "c++", "php", "ruby", "go")
_JAVA_COTAGS = ("spring", "android", "swing", "jdbc", "maven", "hibernate",
                "jvm", "generics", "multithreading")
_SYLLABLES = ("ka", "lo", "mi", "ver", "tan", "dex", "ro", "sil", "qu", "bar",
              "ne", "pho", "gri", "zu", "mon", "tel", "vo", "ran", "pex", "dal")

_TAIL_WORDS = 2_500
_ZIPF_EXPONENT = 1.05


class Vocabulary:
    """Zipf-ranked word list: real programming words first, then a long tail
    of seeded pseudo-words."""

    def __init__(self, rng: random.Random):
        words = list(dict.fromkeys(_BASE_WORDS))
        rng.shuffle(words)
        seen = set(words)
        while len(words) < len(_BASE_WORDS) + _TAIL_WORDS:
            word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        self._cum = list(itertools.accumulate(1.0 / (r + 1) ** _ZIPF_EXPONENT
                                              for r in range(len(words))))
        self._rng = rng

    def word(self) -> str:
        x = self._rng.random() * self._cum[-1]
        return self.words[bisect.bisect_left(self._cum, x)]

    def camel(self, parts: int, upper_first: bool = False) -> str:
        pieces = [self.word() for _ in range(parts)]
        text = pieces[0] + "".join(p.capitalize() for p in pieces[1:])
        return text[0].upper() + text[1:] if upper_first else text

    def method_name(self) -> str:
        return self._rng.choice(_VERBS) + self.camel(self._rng.randint(1, 2), upper_first=True)


# ---------------------------------------------------------------------------
# Title dump
# ---------------------------------------------------------------------------

def _title(rng: random.Random, vocab: Vocabulary) -> str:
    words = []
    for _ in range(rng.randint(4, 11)):
        r = rng.random()
        if r < 0.28:
            words.append(rng.choice(_FILLERS))
        elif r < 0.38:
            words.append(vocab.camel(rng.randint(2, 3), upper_first=rng.random() < 0.5))
        else:
            words.append(vocab.word())
    words[0] = words[0].capitalize()
    return " ".join(words) + ("?" if rng.random() < 0.3 else "")


def _malformed_line(rng: random.Random, qid: int, vocab: Vocabulary) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return f"q{qid}\t{_title(rng, vocab)}\tjava"
    if kind == 1:
        return f"{qid}\t\tjava"
    if kind == 2:
        return f"{qid}\t{_title(rng, vocab)}"
    return f"{qid}\t{_title(rng, vocab)}\tjava\textra"


def write_title_dump(path: Path, rng: random.Random, vocab: Vocabulary, n: int) -> None:
    """`n` dump lines: ~70% tagged java, ~0.3% malformed."""
    lines = []
    for i in range(n):
        qid = 1_000_000 + i * 7
        if rng.random() < 0.003:
            lines.append(_malformed_line(rng, qid, vocab))
            continue
        if rng.random() < 0.7:
            tags = ["java"] + rng.sample(_JAVA_COTAGS, rng.randint(0, 2))
            rng.shuffle(tags)
        else:
            tags = rng.sample(_OTHER_TAGS, rng.randint(1, 2))
        lines.append(f"{qid}\t{_title(rng, vocab)}\t{';'.join(tags)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Java source tree
# ---------------------------------------------------------------------------

class _JavaWriter:
    """Emits one Java file with the constructs the method splitter must
    survive: comments of three kinds, braces inside string and char
    literals, throws clauses, generics, inner and anonymous classes, and
    text blocks."""

    def __init__(self, rng: random.Random, vocab: Vocabulary):
        self.rng = rng
        self.vocab = vocab

    def var(self) -> str:
        return self.vocab.camel(self.rng.randint(1, 2))

    def statements(self, count: int, depth: int, pad: str) -> list[str]:
        rng, v = self.rng, self.vocab
        out = []
        for _ in range(count):
            r = rng.random()
            if depth < 2 and r < 0.12:
                out.append(f"{pad}if ({self.var()} != null) {{")
                out += self.statements(rng.randint(1, 3), depth + 1, pad + "    ")
                out.append(f"{pad}}} else {{")
                out += self.statements(1, depth + 1, pad + "    ")
                out.append(f"{pad}}}")
            elif depth < 2 and r < 0.20:
                out.append(f"{pad}for (int i = 0; i < {self.var()}.size(); i++) {{")
                out += self.statements(rng.randint(1, 3), depth + 1, pad + "    ")
                out.append(f"{pad}}}")
            elif depth < 2 and r < 0.26:
                out.append(f"{pad}try {{")
                out += self.statements(rng.randint(1, 2), depth + 1, pad + "    ")
                out.append(f"{pad}}} catch (IOException e) {{")
                out.append(f'{pad}    log.warn("failed to {v.word()} {{}}", e);')
                out.append(f"{pad}}}")
            elif depth < 1 and r < 0.29:
                out.append(f"{pad}Runnable {self.var()} = new Runnable() {{")
                out.append(f"{pad}    @Override")
                out.append(f"{pad}    public void run() {{")
                out += self.statements(rng.randint(1, 2), depth + 2, pad + "        ")
                out.append(f"{pad}    }}")
                out.append(f"{pad}}};")
            elif r < 0.36:
                out.append(f'{pad}log.info("{v.word()} {{}} {v.word()} {{", {self.var()});')
            elif r < 0.40:
                out.append(f"{pad}char {self.var()} = '{rng.choice('{}')}';")
            elif r < 0.46:
                out.append(f"{pad}// {v.word()} {v.word()} {{ {v.word()}")
            elif r < 0.49:
                out.append(f"{pad}/* {v.word()} }} {v.word()} */")
            else:
                args = ", ".join(self.var() for _ in range(rng.randint(0, 3)))
                out.append(f"{pad}{rng.choice(_TYPES)} {self.var()} = "
                           f"{self.var()}.{v.method_name()}({args});")
        return out

    def text_block(self, pad: str, odd_quotes: bool) -> list[str]:
        v = self.vocab
        quoted = f'"{v.word()}' if odd_quotes else f'"{v.word()}"'
        return [f'{pad}String {self.var()} = """',
                f"{pad}    {v.word()} {quoted} {v.word()} {{ {v.word()}",
                f'{pad}    """;']

    def method(self, pad: str, text_block: str | None) -> list[str]:
        rng, v = self.rng, self.vocab
        out = []
        if rng.random() < 0.5:
            out += [f"{pad}/**", f"{pad} * {v.word().capitalize()} the {v.word()} {v.word()}.",
                    f"{pad} * @param {self.var()} the {v.word()}", f"{pad} */"]
        if rng.random() < 0.2:
            out.append(f"{pad}@Override")
        ret = rng.choice(_TYPES + ("void",))
        generic = "<T extends Comparable<T>> " if rng.random() < 0.08 else ""
        params = ", ".join(f"{rng.choice(_TYPES)} {self.var()}" for _ in range(rng.randint(0, 3)))
        throws = " throws IOException" if rng.random() < 0.25 else ""
        mods = rng.choice(("public", "private", "protected", "public static"))
        out.append(f"{pad}{mods} {generic}{ret} {v.method_name()}({params}){throws} {{")
        body_pad = pad + "    "
        size = rng.randint(3, 7)
        out += self.statements(size, 0, body_pad)
        if text_block is not None:
            out += self.text_block(body_pad, odd_quotes=text_block == "odd")
        if ret != "void":
            out.append(f"{body_pad}return {self.var()};")
        out.append(f"{pad}}}")
        return out

    def java_file(self, package: str, name: str, methods: int, kind: str,
                  text_block: str | None) -> str:
        rng, v = self.rng, self.vocab
        pad = "    "
        out = [f"package com.acme.{package};", "",
               "import java.io.IOException;", "import java.util.List;",
               "import java.util.Map;", "",
               "/**", f" * {v.word().capitalize()} {v.word()} for the {v.word()} {v.word()}.",
               " */"]
        if kind == "interface":
            out.append(f"public interface {name} {{")
            for _ in range(methods):
                out.append(f"{pad}{rng.choice(_TYPES)} {v.method_name()}({rng.choice(_TYPES)} {self.var()});")
            out.append(f"{pad}default int {v.method_name()}() {{")
            out.append(f"{pad}    return 0;")
            out.append(f"{pad}}}")
            out.append("}")
            return "\n".join(out) + "\n"
        out.append(f"public class {name} {{")
        out.append(f'{pad}private static final String PREFIX = "{{{v.word()}}}";')
        out.append(f"{pad}private final Map<String, Integer> {self.var()} = new HashMap<>();")
        out.append(f"{pad}/* {v.word()} {{ block comment */")
        block_at = rng.randrange(methods) if text_block else -1
        inner_at = methods // 2 if methods >= 6 else -1
        for i in range(methods):
            if i == inner_at:
                out.append(f"{pad}static class {v.camel(2, upper_first=True)} {{")
                for _ in range(2):
                    out += self.method(pad * 2, None)
                out.append(f"{pad}}}")
            out += self.method(pad, text_block if i == block_at else None)
            out.append("")
        out.append("}")
        return "\n".join(out) + "\n"


def _file_plan(rng: random.Random, n_files: int) -> list[tuple[int, str, str | None]]:
    """(methods, kind, text block) of each file.

    Method counts are the quantiles of a Pareto tail, not draws from it, so
    every seed gets the same size profile and the splitter, whose cost grows
    faster than file size, does the same amount of work. Interfaces and text
    blocks go to files of the smaller half: which file collapses into one
    whole-file document then hardly changes the cost.
    """
    sizes = [max(1, min(60, int(4 / (1 - (i + 0.5) / n_files) ** (1 / 1.5))))
             for i in range(n_files)]
    plan = [[m, "class", None] for m in sizes]
    small = list(range(n_files // 2))
    rng.shuffle(small)
    k = max(1, n_files // 50)
    for i in small[:k]:
        plan[i][2] = "odd"
    for i in small[k:2 * k]:
        plan[i][2] = "even"
    for i in small[2 * k:2 * k + n_files // 10]:
        plan[i][1] = "interface"
    rng.shuffle(plan)
    return [tuple(p) for p in plan]


def write_java_tree(root: Path, rng: random.Random, vocab: Vocabulary, n_files: int) -> None:
    """`n_files` Java files under `root`, 2% of them with a text block
    holding an odd number of quote characters and 2% with an even number."""
    writer = _JavaWriter(rng, vocab)
    packages = sorted({vocab.word() for _ in range(max(2, n_files // 12))})
    used: set[str] = set()
    for methods, kind, text_block in _file_plan(rng, n_files):
        package = rng.choice(packages)
        name = vocab.camel(rng.randint(1, 3), upper_first=True)
        while (package, name) in used:
            name += vocab.camel(1, upper_first=True)
        used.add((package, name))
        path = root / "src" / "main" / "java" / "com" / "acme" / package / f"{name}.java"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(writer.java_file(package, name, methods, kind, text_block),
                        encoding="utf-8")


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def make_queries(rng: random.Random, vocab: Vocabulary, corpus, n: int,
                 baseline_rank) -> list[tuple[str, str, str]]:
    """`n` (query_id, title, gold) triples whose gold ids come from `corpus`.

    Candidate titles either name rare terms of the gold method (their
    verbatim search tends to rank it high) or only its common terms plus
    crowd words. `baseline_rank(title, gold)` classifies each candidate, and
    exactly a third of the kept titles rank the gold below 10, so the
    evaluation keeps the same number of queries whatever the seed.
    """
    docs = [d for d in corpus.documents
            if not d.doc_id.split("#", 1)[1].startswith("0:") and len(d.term_counts) >= 6]
    want_poor = n // 3
    poor, good = [], []
    for attempt in range(50 * n):
        if len(poor) == want_poor and len(good) == n - want_poor:
            break
        doc = docs[rng.randrange(len(docs))]
        by_df = sorted(doc.term_counts, key=lambda t: (corpus.doc_freq[t], t))
        words = [rng.choice(_FILLERS)]
        if attempt % 2 == 0:
            words += [doc.surfaces[t] for t in rng.sample(by_df[:4], 2)]
        else:
            common = by_df[len(by_df) // 2:]
            words += [doc.surfaces[t] for t in rng.sample(common, 2)]
        words += [vocab.word() for _ in range(rng.randint(1, 3))]
        rng.shuffle(words)
        title = " ".join(words)
        title = title[0].upper() + title[1:]
        rank = baseline_rank(title, doc.doc_id)
        if rank is None:
            continue
        bucket, quota = (poor, want_poor) if rank > 10 else (good, n - want_poor)
        if len(bucket) < quota:
            bucket.append((title, doc.doc_id))
    else:
        raise RuntimeError(f"could not draw {n} queries from this corpus")
    mixed = poor + good
    rng.shuffle(mixed)
    return [(f"Q{i + 1:04d}", title, gold) for i, (title, gold) in enumerate(mixed)]


def write_queries(path: Path, queries: list[tuple[str, str, str]]) -> None:
    path.write_text("".join(f"{q}\t{t}\t{g}\n" for q, t, g in queries), encoding="utf-8")
