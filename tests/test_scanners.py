"""The package reads its text with ``str`` methods.  These tests pin each
scanner to the regular expression it replaced, kept here as the
reference: the sentence tokenizer (tokens and error spans), ``E<j>``
quantifiers, identifiers, family-spec heads, the ``prefix=2^m 1*``
fragment and ``offer {..}`` strategy lines.  Text is drawn over an
alphabet with other scripts' digits and spaces, stray characters, ``#``
comments and line breaks."""

from __future__ import annotations

import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cqcsp import model, textio
from cqcsp.model import BoundedPrefix, InvalidStructureError, parse_family_spec
from cqcsp.textio import ParseError, parse_sentence

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_~]*")
TOKEN = re.compile(rf"({IDENTIFIER.pattern})|(\d+|[(),&|]|\S)")
QUANTIFIER = re.compile(r"E([0-9]+)\Z")
FAMILY = re.compile(r"([a-z0-9*-]+)(?::(.*))?\Z")
PREFIX = re.compile(r"prefix=2\^(\d+)(?:\s*1\*)?\Z")
OFFER = re.compile(r"offer \{([0-9]+(?:,[0-9]+)*)?\}\Z")

SETTINGS = settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

DIGITS = "0123456789\u0663\u0661\u06f5\u0e53\uff17\u00b2"  # Arabic-Indic, Thai, fullwidth, superscript
SPACES = " \t\xa0\u2003\u3000\x0b\x0c\x1c"
BREAKS = "\n\r\x85\u2028"
STRAY = "~!*-=^{}#\u00e9\u00df\u0394\u2013\U0001d400"
ALPHABET = "EAaxyz_Z" + DIGITS + SPACES + BREAKS + STRAY + "(),&|"

RAW = st.text(ALPHABET, max_size=12)
PIECES = st.sampled_from([
    "E1 ", "E2 ", "E12 ", "E0 ", "E٣ ", "A ", "x ", "y ", "x~1 ", "_v ", "| ", "|",
    "E(x,y)", "E(x,x)", " & ", "R(x)", "(", ")", ",", "&", "# note\n", "\n", "format 1\n",
    "1x", "x٣", "~x", " ", "\t",
])
SENTENCE_TEXT = st.lists(PIECES | RAW, max_size=12).map("".join)


def _reference_tokens(body: str) -> list[tuple[str, str]]:
    return TOKEN.findall(body)


def _reference_error(text: str, message: str, index: int) -> ParseError:
    tokens = [
        (m.group(), no, m.start() + 1)
        for no, body in textio._content_lines(text)
        for m in TOKEN.finditer(body)
    ]
    if index < len(tokens):
        token, line, column = tokens[index]
    else:
        token, line, column = tokens[-1] if tokens else (" ", 1, 1)
    return ParseError(message, textio.SourceSpan(line, column, len(token)))


def _outcome(text: str):
    try:
        return parse_sentence(text)
    except ParseError as exc:
        return (exc.reason, exc.span)


def _reference_outcome(text: str):
    """``parse_sentence`` with the regular expressions as its scanners."""
    with mock.patch.object(textio, "_tokens", _reference_tokens), \
            mock.patch.object(textio, "_sentence_error", _reference_error), \
            mock.patch.object(textio, "_is_quantifier", lambda w: bool(QUANTIFIER.match(w))):
        return _outcome(text)


@SETTINGS
@given(RAW | SENTENCE_TEXT)
def test_tokens_match_the_token_pattern(text):
    for _, body in textio._content_lines(text):
        assert textio._tokens(body) == _reference_tokens(body)


@SETTINGS
@given(SENTENCE_TEXT, st.integers(0, 14))
def test_error_spans_match_the_token_pattern(text, index):
    got, want = textio._sentence_error(text, "m", index), _reference_error(text, "m", index)
    assert (got.reason, got.span) == (want.reason, want.span)


@SETTINGS
@given(SENTENCE_TEXT)
def test_parse_sentence_matches_the_regex_scanners(text):
    assert _outcome(text) == _reference_outcome(text)


@pytest.mark.parametrize("text", [
    "E2 x A y | E(x,y) & E(y,x)", "E1 x|E(x,x)", "E٣ x |", "E2 x E2 x |", "E2 1x |",
    "A x | E(x,y)", "E1 x | E(x,x) E(x,x)", "E1 x\n# c\n| E(x,\n x)", "E1 x | E(x ,x)",
    "E1 x~٣ |", "", "E1 x | E(", "E0 x |", "E1 A |",
])
def test_parse_sentence_matches_the_regex_scanners_on_known_texts(text):
    assert _outcome(text) == _reference_outcome(text)


@SETTINGS
@given(RAW | PIECES)
def test_quantifier_matches_the_pattern(word):
    assert textio._is_quantifier(word) == bool(QUANTIFIER.match(word))


@SETTINGS
@given(RAW | PIECES.map(str.strip))
def test_is_identifier_matches_the_pattern(text):
    assert model.is_identifier(text) == bool(IDENTIFIER.fullmatch(text))


def _family_error(text: str) -> str | None:
    try:
        parse_family_spec(text)
    except InvalidStructureError as exc:
        return str(exc)
    return None


HEADS = st.sampled_from(["clique", "cycle", "bipartite", "nae", "forest", "widget", "x*-9", ""])
FAMILY_TEXT = st.tuples(HEADS, st.sampled_from(["", ":", ": "]), RAW).map("".join) | RAW


@SETTINGS
@given(FAMILY_TEXT)
def test_family_heads_match_the_pattern(text):
    m = FAMILY.match(text.strip())
    error = _family_error(text)
    if m is None:
        assert error == f"bad family spec {text!r}"
        return
    assert error != f"bad family spec {text!r}"
    if m.group(1) not in model._FAMILY_SPECS:
        assert error == f"unknown family {m.group(1)!r}"


@pytest.mark.parametrize("text", ["clique:3\n", "clique:\n3", "path:3\n4", "nae:\n", "clique:3\r"])
def test_a_line_break_in_the_family_argument_is_a_bad_spec(text):
    assert (FAMILY.match(text.strip()) is None) == (_family_error(text) == f"bad family spec {text!r}")


@pytest.mark.parametrize("m", range(31))
def test_bounded_prefix_reads_its_own_rendering(m):
    text = str(BoundedPrefix(m))
    assert model.parse_fragment_spec(text) == BoundedPrefix(m)
    assert int(PREFIX.match(text).group(1)) == m


PREFIX_TEXT = st.tuples(
    st.just("prefix=2^"), st.text(DIGITS[:12] + SPACES + BREAKS + "1*", max_size=6)
).map("".join)


@SETTINGS
@given(PREFIX_TEXT | st.text(ALPHABET + "prefix=2^", max_size=14))
def test_prefix_spec_matches_the_pattern_on_ascii_digits(text):
    """The reference reads any script's digits; the parser refuses them."""
    m = PREFIX.match(text.strip())
    want = BoundedPrefix(int(m.group(1))) if m and m.group(1).isascii() else None
    try:
        got = model.parse_fragment_spec(text)
    except InvalidStructureError as exc:
        got = None
        if not text.strip().startswith("X="):
            assert str(exc) == f"bad fragment spec {text!r}"
    if not text.strip().startswith("X="):
        assert got == want


OFFER_TEXT = st.tuples(
    st.sampled_from(["offer {", "offer{", "offe {", "offer  {"]),
    st.text("0123456789,٣ }", max_size=8),
    st.sampled_from(["}", "", "} ", "}}"]),
).map("".join)


@SETTINGS
@given(OFFER_TEXT | RAW)
def test_offer_lines_match_the_pattern(line):
    m = OFFER.match(line)
    want = None if m is None else tuple(map(int, m.group(1).split(","))) if m.group(1) else ()
    assert textio._offer(line) == want
