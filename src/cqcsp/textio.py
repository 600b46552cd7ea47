"""Line-based text formats for structures, sentences and strategies.

All three grammars are ASCII (numbers are ASCII digits), comment lines
start with ``#``, and an optional leading ``format 1`` line versions the
files.  Rendering is canonical (sorted tuples, two-space strategy
indentation), so parse(render(x)) == x.

The parsers build only their result on valid input.  The sentence parser
reads plain tokens; the line and column of a token are found again, by a
second tokenisation, only when it raises a ParseError.  The text is read
with ``str`` methods; the package imports no ``re``.
"""

from __future__ import annotations

from .model import (
    InvalidStructureError,
    Quantifier,
    Record,
    Sentence,
    Signature,
    Structure,
    is_identifier,
    is_number,
)
from .oracle import LEAF, StrategyNode


class SourceSpan(Record):
    """Location of a token in parsed text; attached to every parse error."""

    _fields = ("line", "column", "length")

    def __init__(self, line: int, column: int, length: int) -> None:
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "length", length)

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan) -> None:
        super().__init__(f"{message} ({span})")
        self.reason = message
        self.span = span


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, content) for nonblank non-comment lines, with
    an optional leading ``format 1`` line dropped."""
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.partition("#")[0].rstrip()
        if body.strip():
            out.append((no, body))
    if out and out[0][1].strip().split() == ["format", "1"]:
        out = out[1:]
    return out


# ---------------------------------------------------------------------------
# Structures


def parse_structure(text: str) -> Structure:
    """Parse the line-oriented structure format.

    Grammar: ``domain <n>``, then blocks ``rel <name> <arity>`` holding one
    whitespace-separated tuple per line and terminated by ``end``; an
    optional ``symmetric`` directive closes every binary relation under
    reversal.
    """
    lines = _content_lines(text)
    pos = 0

    def fail(message: str, no: int, col: int = 1, length: int = 1):
        raise ParseError(message, SourceSpan(no, col, length))

    if not lines:
        fail("empty structure file", 1)
    no, body = lines[pos]
    parts = body.split()
    if parts[0] != "domain" or len(parts) != 2 or not is_number(parts[1]):
        fail("expected 'domain <n>'", no, body.index(parts[0]) + 1, len(parts[0]))
    n = int(parts[1])
    if n < 1:
        fail("domain size must be positive", no)
    pos += 1

    arities: list[tuple[str, int]] = []
    relations: dict[str, set[tuple[int, ...]]] = {}
    symmetric = False

    while pos < len(lines):
        no, body = lines[pos]
        parts = body.split()
        head = parts[0]
        if head == "rel":
            if len(parts) != 3 or not is_number(parts[2]):
                fail("expected 'rel <name> <arity>'", no)
            name, arity = parts[1], int(parts[2])
            if any(name == existing for existing, _ in arities):
                fail(f"duplicate relation {name!r}", no, body.index(name) + 1, len(name))
            if arity < 1:
                fail("arity must be >= 1", no)
            arities.append((name, arity))
            tuples: set[tuple[int, ...]] = set()
            pos += 1
            closed = False
            while pos < len(lines):
                t_no, t_body = lines[pos]
                t_parts = t_body.split()
                if t_parts[0] == "end":
                    closed = True
                    pos += 1
                    break
                entries = []
                col = 1
                for tok in t_parts:
                    col = t_body.index(tok, col - 1) + 1
                    if not is_number(tok):
                        fail(f"bad tuple entry {tok!r}", t_no, col, len(tok))
                    value = int(tok)
                    if value >= n:
                        fail(f"element {value} out of range", t_no, col, len(tok))
                    entries.append(value)
                    col += len(tok)
                if len(entries) != arity:
                    fail(
                        f"tuple arity {len(entries)} does not match {arity}",
                        t_no,
                    )
                tuples.add(tuple(entries))
                pos += 1
            if not closed:
                fail(f"relation {name!r} not terminated by 'end'", no)
            relations[name] = tuples
        elif head == "symmetric":
            symmetric = True
            pos += 1
        else:
            fail(f"unexpected directive {head!r}", no, body.index(head) + 1, len(head))

    if symmetric:
        for name, arity in arities:
            if arity == 2:
                relations[name] |= {(b, a) for a, b in relations[name]}

    try:
        return Structure(
            Signature(tuple(arities)),
            n,
            {name: frozenset(ts) for name, ts in relations.items()},
        )
    except InvalidStructureError as exc:
        raise ParseError(str(exc), SourceSpan(1, 1, 1)) from exc


def render_structure(b: Structure) -> str:
    lines = ["format 1", f"domain {b.domain_size}"]
    for name, arity in b.signature.relations:
        lines.append(f"rel {name} {arity}")
        for t in sorted(b.tuples(name)):
            lines.append(" ".join(str(e) for e in t))
        lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sentences


# The five punctuation marks, each as its token
_PUNCTUATION = {mark: ("", mark) for mark in "(),&|"}


def _tokens(body: str) -> list[tuple[str, str]]:
    """The tokens of one line as ``(identifier, other)`` pairs, one of the
    two empty: an identifier, or else a run of decimal digits (any
    script's), a punctuation mark or one stray character.  Whitespace
    separates tokens and belongs to none."""
    out = []
    padded = (
        body.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").replace("&", " & ")
        .replace("|", " | ")
    )
    for chunk in padded.split():
        mark = _PUNCTUATION.get(chunk)
        if mark is not None:
            out.append(mark)
        elif is_identifier(chunk):
            out.append((chunk, ""))
        elif len(chunk) == 1:
            out.append(("", chunk))
        else:
            _split_chunk(chunk, out)
    return out


def _split_chunk(chunk: str, out: list[tuple[str, str]]) -> None:
    """Append the tokens of ``chunk``, a run of characters with no
    whitespace or punctuation that is not one identifier."""
    i, n = 0, len(chunk)
    while i < n:
        c = chunk[i]
        j = i + 1
        if c.isascii() and (c.isalpha() or c == "_"):
            while j < n and chunk[j].isascii() and (chunk[j].isalnum() or chunk[j] in "_~"):
                j += 1
            out.append((chunk[i:j], ""))
        else:
            if c.isdecimal():
                while j < n and chunk[j].isdecimal():
                    j += 1
            out.append(("", chunk[i:j]))
        i = j


def _is_quantifier(word: str) -> bool:
    """Is ``word`` ``E<j>``, j in ASCII digits?"""
    return word[:1] == "E" and word[1:].isdigit() and word.isascii()


def _sentence_error(text: str, message: str, index: int) -> ParseError:
    """The ParseError located at token ``index`` of ``text``, found by
    tokenising the text again; an index past the last token is the end of
    the text, which points at its last token, or at its first column when
    it has none."""
    tokens = []
    for no, body in _content_lines(text):
        column = 0
        for word, other in _tokens(body):
            token = word or other
            column = body.index(token, column)
            tokens.append((token, no, column + 1))
            column += len(token)
    if index < len(tokens):
        token, line, column = tokens[index]
    else:
        token, line, column = tokens[-1] if tokens else (" ", 1, 1)
    return ParseError(message, SourceSpan(line, column, len(token)))


def parse_sentence(text: str) -> Sentence:
    """Parse ``E2 x A y | E(x,y) & E(y,x)``.

    ``E<j>`` quantifies with threshold j; ``A`` is sugar for the for-all
    threshold and resolves against the template at solve time.  The matrix
    after ``|`` is a conjunction of atoms ``name(v1,...,vk)``; it may be
    empty.

    The parser walks plain ``(identifier, other)`` token pairs by index;
    the line and column of a token are found again only when it raises.
    """
    tokens = [tok for _, body in _content_lines(text) for tok in _tokens(body)]
    count = len(tokens)
    prefix: list[Quantifier] = []
    seen: set[str] = set()
    atoms: list[tuple[str, tuple[str, ...]]] = []
    i = 0
    try:
        while True:
            if i == count:
                raise _sentence_error(text, "missing '|' between prefix and matrix", i)
            word, other = tokens[i]
            if other == "|":
                break
            if word == "A":
                threshold: int | None = None
            else:
                if not _is_quantifier(word):
                    raise _sentence_error(text, f"expected quantifier, found {word or other!r}", i)
                threshold = int(word[1:])
                if threshold < 1:
                    raise _sentence_error(text, "threshold must be >= 1", i)
            i += 1
            v, other = tokens[i]
            if not v or v == "A" or _is_quantifier(v):
                raise _sentence_error(text, f"bad variable name {v or other!r}", i)
            if v in seen:
                raise _sentence_error(text, f"duplicate prefix variable {v!r}", i)
            seen.add(v)
            prefix.append(Quantifier(threshold, v))
            i += 1

        i += 1
        while i < count:
            if atoms:
                word, other = tokens[i]
                if other != "&":
                    raise _sentence_error(text, f"expected '&', found {word or other!r}", i)
                i += 1
            name, other = tokens[i]
            if not name:
                raise _sentence_error(text, f"bad relation name {other!r}", i)
            i += 1
            word, other = tokens[i]
            if other != "(":
                raise _sentence_error(text, f"expected '(', found {word or other!r}", i)
            vs = []
            while True:
                i += 1
                v, other = tokens[i]
                if not v:
                    raise _sentence_error(text, f"bad atom variable {other!r}", i)
                if v not in seen:
                    raise _sentence_error(text, f"unbound atom variable {v!r}", i)
                vs.append(v)
                i += 1
                word, other = tokens[i]
                if other == ")":
                    break
                if other != ",":
                    raise _sentence_error(
                        text, f"expected ',' or ')', found {word or other!r}", i
                    )
            atoms.append((name, tuple(vs)))
            i += 1
    except IndexError:
        # only the token reads index the list: one past its end is the
        # unexpected end
        raise _sentence_error(text, "unexpected end of sentence", count) from None

    try:
        return Sentence(tuple(prefix), tuple(atoms))
    except InvalidStructureError as exc:
        raise _sentence_error(text, str(exc), count) from exc


def render_sentence(s: Sentence) -> str:
    return str(s)


# ---------------------------------------------------------------------------
# Strategies


def render_strategy(w: StrategyNode) -> str:
    lines: list[str] = []
    # One iterator over the children of each node on the current path;
    # leaves (empty offers) print nothing.
    stack = [iter((w,))]
    while stack:
        for node in stack[-1]:
            if node.offer:
                lines.append("  " * (len(stack) - 1) + "offer {" + ",".join(map(str, node.offer)) + "}")
                stack.append(iter(node.children))
                break
        else:
            stack.pop()
    return "\n".join(lines) + ("\n" if lines else "")


def _offer(line: str) -> tuple[int, ...] | None:
    """The set of an ``offer {a,b,..}`` line, elements in ASCII digits, or
    None when the line is not one."""
    if not (line.startswith("offer {") and line.endswith("}")):
        return None
    body = line[7:-1]
    if not body:
        return ()
    parts = body.split(",")
    if not all(is_number(p) for p in parts):
        return None
    return tuple(map(int, parts))


def _row_error(message: str, row: tuple[int, int, tuple[int, ...], int]) -> ParseError:
    """A ParseError spanning a ``(level, line, offer, width)`` strategy row."""
    level, line, _, width = row
    return ParseError(message, SourceSpan(line, 2 * level + 1, width))


def parse_strategy(text: str, thresholds: Sequence[int] | None = None) -> StrategyNode:
    """Parse the indented strategy tree; the inverse of render_strategy.

    When ``thresholds`` is given, each node's offered-set size is checked
    against the matching prefix threshold during the parse, and every
    branch must reach the end of the prefix.
    """
    rows: list[tuple[int, int, tuple[int, ...], int]] = []
    for no, body in _content_lines(text):
        stripped = body.lstrip(" ")
        indent = len(body) - len(stripped)
        if indent % 2 != 0:
            raise ParseError("odd indentation", SourceSpan(no, 1, indent))
        offer = _offer(stripped)
        if offer is None:
            raise ParseError("expected 'offer {..}'", SourceSpan(no, indent + 1, len(stripped)))
        if not offer:
            raise ParseError("empty offer set", SourceSpan(no, indent + 1, len(stripped)))
        if len(set(offer)) != len(offer):
            raise ParseError("repeated element in offer set", SourceSpan(no, indent + 1, 1))
        rows.append((indent // 2, no, offer, len(stripped)))

    if not rows:
        if thresholds:
            raise ParseError("strategy shallower than the prefix", SourceSpan(1, 1, 0))
        return LEAF
    if rows[0][0] != 0:
        raise _row_error("expected indentation level 0", rows[0])

    # Preorder rows: each open node is (row, children so far); a row one
    # level below the innermost open node is its next child.
    stack: list[tuple[tuple[int, int, tuple[int, ...], int], list[StrategyNode]]] = []
    pos = 0
    root = None
    while root is None:
        row = rows[pos]
        level, _, offer, _ = row
        if thresholds is not None:
            if level >= len(thresholds):
                raise _row_error("strategy deeper than the prefix", row)
            if len(offer) != thresholds[level]:
                raise _row_error(
                    f"offered set of size {len(offer)} does not match threshold"
                    f" {thresholds[level]}",
                    row,
                )
        stack.append((row, []))
        pos += 1
        while stack:
            row, children = stack[-1]
            level, _, offer, _ = row
            if len(children) < len(offer) and pos < len(rows) and rows[pos][0] == level + 1:
                break
            stack.pop()
            if children and len(children) < len(offer):
                raise _row_error("ragged strategy tree", row)
            if not children and thresholds is not None and level + 1 < len(thresholds):
                raise _row_error("strategy shallower than the prefix", row)
            node = StrategyNode(offer, tuple(children) if children else (LEAF,) * len(offer))
            if stack:
                stack[-1][1].append(node)
            else:
                root = node
    if pos != len(rows):
        raise _row_error("trailing strategy lines", rows[pos])
    return root
