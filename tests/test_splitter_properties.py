"""Method splitter against the frozen reference splitter in `oracles`.

The package's splitter must return exactly the units and masks the
reference returns, never raise, and return units that are ordered,
non-overlapping substrings of the input.
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _CONTROL_WORDS, reference_mask_comments_and_strings, reference_split_methods
from quickar.corpus import MethodUnit, _mask, _strip_comments, split_methods

# Java-ish fragments, chosen to hit every branch of the masker and of the
# candidate checks: brackets, both quote kinds, escapes, comment markers,
# the words that veto a signature, digit-led identifiers, and whitespace
# that `str.isspace` accepts but ASCII does not.
FRAGMENTS = [
    "{", "}", "(", ")", '"', "'", "\\", "//", "/*", "*/", ";", ",", ".", "=",
    "@", "<", ">", "[", "]", "-", "*", "/", '"""',
    "\n", " ", "\t", "\x1c", "\x1f", "\xa0", "\u2003", "\r", "\x85", "\u2028",
    "new", "record", "throws", "if", "for", "while", "return", "catch",
    "void", "int", "f", "run", "$x", "_y", "9", "42", "9new", "1record", "a9new",
]

# Whole members, so that generated files often hold several units, each
# with one of the ways a candidate can be vetoed.
MEMBERS = [
    "void f() { }", "int g(int a) throws E { return a; }", "abstract void h();",
    "@A(x) void f() { }", "<T> T pick(java.util.List<T> xs) { return xs.get(0); }",
    "x.f() { }", "= f() { }", "new R() { }", "record R(int x) { }", "9new f() { }",
    'String s = "{";', "char c = '}';", "// } {\n", "/* { */", "class B { void m() { } }",
    "void q() { if (x) { y(); } }", "static { s(); }", "void r() { new T() { void u() { } }; }",
]

fragments = st.lists(st.sampled_from(FRAGMENTS), max_size=60).map("".join)
members = st.lists(st.one_of(st.sampled_from(MEMBERS), st.sampled_from(FRAGMENTS)),
                   max_size=15).map(" ".join)
sources = st.one_of(
    fragments,
    st.one_of(fragments, members).map(lambda body: f"class A {{ {body} }}"),
)


@settings(max_examples=600, deadline=None)
@given(sources)
def test_matches_reference_splitter(text):
    assert split_methods(text, "A") == reference_split_methods(text, "A")
    assert (_mask(text), _strip_comments(text)) == reference_mask_comments_and_strings(text)


@pytest.mark.parametrize("text", [
    "class A { void f() { } void g() { } }",  # a unit starts after the one before
    "class A { 9new X() { } }",            # leading digits are not part of the word
    "class A { a9new X() { } }",
    "class A { new\x1c X() { } }",          # \x1c is whitespace to str.isspace
    "class A { void f()\xa0{ } }",
    'class A { void f() { s = "\\',        # escape steps past the end of the text
    "class A { /* never closed void f() { } }",
    'class A { String s = """\n  odd " quote\n  """; void f() { } }',
    "class A { void f() { } } }",
    "} { class A { void f() { } }",         # depth dips below 0, ends at 0
    'class A { String s = "\\\n"; void f() { } }',  # escaped newline in a literal
    "class A { void f( { } }",
    "class A { void f() throws { } void g() throws X; }",
    "class A { record R(int x) { } void f() { } }",
    "class A { /**/ void f() { } }",        # an empty comment
    "class A { /*/ void g() { } */ void f() { } }",  # `*/` may not reuse the opener's `*`
    "class A { char c = '\\\\'; void f() { } }",  # an escaped backslash ends the literal
    "class A { void f() { } /* never closed *",
] + [f"class A {{ {word} (x) {{ }} }}" for word in sorted(_CONTROL_WORDS)])
def test_equivalence_traps(text):
    assert split_methods(text, "A") == reference_split_methods(text, "A")
    assert (_mask(text), _strip_comments(text)) == reference_mask_comments_and_strings(text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(sources, st.text(max_size=200)))
def test_units_are_ordered_disjoint_substrings(text):
    units = split_methods(text, "A")
    scan, nocom = _mask(text), _strip_comments(text)
    assert len(scan) == len(nocom) == len(text)
    if units[0].whole_file:
        assert units == [MethodUnit(name="A", text=text, whole_file=True)]
        return
    pos = 0
    for unit in units:
        assert not unit.whole_file
        found = text.find(unit.text, pos)
        assert found >= 0
        pos = found + len(unit.text)


# A block comment is matched lazily, and a literal's body by single
# characters once every `\\` pair is made inert, with no backtracking frame
# per character or per escape: a per-character alternation, an unrolled
# loop of `*` runs or a loop over escapes would peak at tens of times the
# text's size here.
@pytest.mark.parametrize("text", [
    "/*" + "x*" * 2_000_000 + "*/",
    "/*" + "x*" * 2_000_000,
    '"' + "\\x" * 2_000_000,
    '"' + "\\" * 4_000_000,
], ids=["closed", "unclosed", "escapes", "backslashes"])
def test_a_long_comment_is_masked_in_memory_linear_in_its_size(text):
    comment = text[0] == "/"
    masked = " " * len(text) if comment else text[0] + " " * (len(text) - 1)
    for mask, expected in ((_mask, masked), (_strip_comments, masked if comment else text)):
        tracemalloc.start()
        try:
            got = mask(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 3 * len(text), (mask.__name__, peak)
