"""Differential test: the master-regex lexer against the one it replaced.

:mod:`tests.js_lexer_reference` keeps the character-loop tokenizer
verbatim.  Both lexers run on every distinct script of a scale-0.01
generated web and on seeded mutations of those scripts, and must agree
on every token's kind, value, position and number, and on every
error's type, message and position.

The only allowed differences are the hostile-input fixes, each pinned
by an input in :data:`ALLOWED_DIFFERENCES`:

* a ``\\x``/``\\u`` escape whose next 2/4 characters are not ASCII hex
  digits is ``LexError("bad \\x escape")`` (the old lexer raised
  ``ValueError`` from ``int()``, or accepted ``"\\x f"``, ``"\\x+f"``
  and non-ASCII digits, which ``int()`` strips or reads);
* a number takes ASCII digits only, and a non-ASCII digit that starts
  a token is an unexpected character (the old lexer raised
  ``ValueError`` from ``float()`` on ``²``, and read ``٣`` as 3);
* a hex literal too large for a double is ``Infinity`` (the old lexer
  raised ``OverflowError``).
"""

from __future__ import annotations

import random
import re

import pytest

from repro import MalwareSlumsStudy, StudyConfig
from repro.htmlparse import parse, select
from repro.jsengine import lexer

from . import js_lexer_reference as reference

CASES = 3000
MUTATION_SEED = 14
MUTATIONS = ['"', "'", "\\", "\\x", "\\u", "/*", "*/", "//", "0x", "1e", "\n",
             "é", "²", "٣", "\xa0"]

#: the hostile-input fixes, one input each: (source, old outcome type)
ALLOWED_DIFFERENCES = [
    (r'"\xZZ"', "ValueError"),
    (r'"\uZZZZ"', "ValueError"),
    (r'"\x f"', "tokens"),
    (r'"\x+f"', "tokens"),
    ("²", "ValueError"),
    ("1²", "ValueError"),
    ("x = ٣;", "tokens"),
    ("1e٣", "tokens"),
    ("0x" + "f" * 300, "OverflowError"),
]

_HEX = {"x": re.compile(r"[0-9a-fA-F]{2}"), "u": re.compile(r"[0-9a-fA-F]{4}")}


def outcome(tokenize, source):
    try:
        return [(t.kind, t.value, t.position, t.number) for t in tokenize(source)]
    except Exception as error:  # noqa: BLE001 - the old lexer's crashes are data
        return (type(error).__name__, str(error), getattr(error, "position", None))


def _non_ascii_digit(char):
    return char.isdigit() and not char.isascii()


def explained(source, old, new):
    """Whether ``old`` and ``new`` differ only as the fixes above allow."""
    if isinstance(new, tuple):
        kind, message, position = new
        if kind != "LexError":
            return False
        if isinstance(old, tuple) and old[0] == "LexError" and old[2] < position:
            return False  # the old lexer failed first, for another reason
        if message.startswith(("bad \\x escape", "bad \\u escape")):
            esc = message[5]
            width = 2 if esc == "x" else 4
            return (source[position - 2:position] == "\\" + esc
                    and not _HEX[esc].fullmatch(source[position:position + width]))
        if message.startswith("unexpected character"):
            return _non_ascii_digit(source[position])
        return False
    if isinstance(old, tuple):
        return old[0] == "OverflowError" and any(
            kind == "number" and number == float("inf") for kind, _v, _p, number in new)
    for old_token, new_token in zip(old, new):
        if old_token != new_token:
            # a number the old lexer extended over a non-ASCII digit
            return old_token[0] == "number" and any(map(_non_ascii_digit, old_token[1]))
    return False


@pytest.fixture(scope="module")
def corpus():
    """Every distinct inline and external script of the scale-0.01 web."""
    web = MalwareSlumsStudy(StudyConfig(seed=2016, scale=0.01)).generate_web()
    sources = set()
    for site in web.registry:
        pages = [page.html for page in site.pages.values()]
        pages.extend(site.behavior.cloaked_paths.values())
        for html in pages:
            for script in select(parse(html), "script"):
                text = script.text_content()
                if text.strip():
                    sources.add(text)
        for resource in site.resources.values():
            if "javascript" in resource.content_type:
                sources.add(resource.text)
    return sorted(sources)


def test_corpus_lexes_identically(corpus):
    assert len(corpus) > 200
    diverged = [source for source in corpus
                if outcome(reference.tokenize, source) != outcome(lexer.tokenize, source)]
    assert not diverged, "%d of %d scripts diverge; first: %r" % (
        len(diverged), len(corpus), diverged[0][:200])


def test_mutations_differ_only_where_allowed(corpus):
    rng = random.Random(MUTATION_SEED)
    same = 0
    unexplained = []
    for _ in range(CASES):
        source = rng.choice(corpus)
        if len(source) > 300:
            start = rng.randrange(len(source) - 300)
            source = source[start:start + 300]
        for _edit in range(rng.randrange(1, 4)):
            at = rng.randrange(len(source) + 1)
            source = source[:at] + rng.choice(MUTATIONS) + source[at:]
        old = outcome(reference.tokenize, source)
        new = outcome(lexer.tokenize, source)
        if isinstance(new, tuple):
            assert new[0] == "LexError", (source, new)
        if old == new:
            same += 1
        elif not explained(source, old, new):
            unexplained.append((source, old, new))
    assert not unexplained, "%d unexplained differences; first: %r" % (
        len(unexplained), unexplained[0])
    assert same > CASES // 2  # the mutations mostly exercise shared behaviour


@pytest.mark.parametrize("source,old_kind", ALLOWED_DIFFERENCES)
def test_allowed_differences(source, old_kind):
    old = outcome(reference.tokenize, source)
    new = outcome(lexer.tokenize, source)
    assert (old[0] if isinstance(old, tuple) else "tokens") == old_kind
    assert old != new
    assert explained(source, old, new)


def test_explained_rejects_other_differences():
    source = "var a = 1;"
    old = outcome(reference.tokenize, source)
    shifted = [(kind, value, position + 1, number) for kind, value, position, number in old]
    assert not explained(source, old, shifted)
    assert not explained(source, old, ("LexError", "unexpected character 'a' at offset 4", 4))
    assert not explained(source, old, ("ValueError", "boom", None))
