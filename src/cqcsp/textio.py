"""Line-based text formats for structures, sentences and strategies.

All three grammars are ASCII, comment lines start with ``#``, and an
optional leading ``format 1`` line versions the files.  Rendering is
canonical (sorted tuples, two-space strategy indentation), so
parse(render(x)) == x.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import (
    InvalidStructureError,
    Quantifier,
    Sentence,
    Signature,
    Structure,
)
from .oracle import LEAF, StrategyNode


@dataclass(frozen=True)
class SourceSpan:
    """Location of a token in parsed text; attached to every parse error."""

    line: int
    column: int
    length: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan) -> None:
        super().__init__(f"{message} ({span})")
        self.reason = message
        self.span = span


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, content) for nonblank non-comment lines, with
    an optional leading ``format 1`` line dropped."""
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = _strip_comment(raw).rstrip()
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
    whitespace-separated tuple per line and terminated by ``end``; optional
    ``const <name> <element>`` lines; an optional ``symmetric`` directive
    closes every binary relation under reversal.
    """
    lines = _content_lines(text)
    pos = 0

    def span(no: int, col: int, length: int) -> SourceSpan:
        return SourceSpan(no, col, length)

    def fail(message: str, no: int, col: int = 1, length: int = 1):
        raise ParseError(message, span(no, col, length))

    if not lines:
        fail("empty structure file", 1)
    no, body = lines[pos]
    parts = body.split()
    if parts[0] != "domain" or len(parts) != 2 or not parts[1].isdigit():
        fail("expected 'domain <n>'", no, body.index(parts[0]) + 1, len(parts[0]))
    n = int(parts[1])
    if n < 1:
        fail("domain size must be positive", no)
    pos += 1

    arities: list[tuple[str, int]] = []
    relations: dict[str, set[tuple[int, ...]]] = {}
    constants: dict[str, int] = {}
    symmetric = False

    while pos < len(lines):
        no, body = lines[pos]
        parts = body.split()
        head = parts[0]
        if head == "rel":
            if len(parts) != 3 or not parts[2].isdigit():
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
                    if not tok.isdigit():
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
        elif head == "const":
            if len(parts) != 3 or not parts[2].isdigit():
                fail("expected 'const <name> <element>'", no)
            value = int(parts[2])
            if value >= n:
                fail(f"constant element {value} out of range", no)
            if parts[1] in constants:
                fail(f"duplicate constant {parts[1]!r}", no)
            constants[parts[1]] = value
            pos += 1
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
            constants,
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
    for cname in sorted(b.constants):
        lines.append(f"const {cname} {b.constants[cname]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sentences


_QUANT_RE = re.compile(r"E(\d+)\Z")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_~]*\Z")

_token_re = re.compile(r"[A-Za-z_][A-Za-z0-9_~]*|\d+|[(),&|]|\S")


@dataclass(frozen=True)
class _Token:
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for no, body in _content_lines(text):
        for m in _token_re.finditer(body):
            tokens.append(_Token(m.group(0), SourceSpan(no, m.start() + 1, len(m.group(0)))))
    return tokens


def parse_sentence(text: str) -> Sentence:
    """Parse ``E2 x A y | E(x,y) & E(y,x)``.

    ``E<j>`` quantifies with threshold j; ``A`` is sugar for the for-all
    threshold and resolves against the template at solve time.  The matrix
    after ``|`` is a conjunction of atoms ``name(v1,...,vk)``; it may be
    empty.
    """
    tokens = _tokenize(text)
    pos = 0
    end_span = tokens[-1].span if tokens else SourceSpan(1, 1, 1)

    def peek() -> Optional[_Token]:
        return tokens[pos] if pos < len(tokens) else None

    def take(expect: Optional[str] = None) -> _Token:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"unexpected end of sentence", end_span)
        tok = tokens[pos]
        pos += 1
        if expect is not None and tok.text != expect:
            raise ParseError(f"expected {expect!r}, found {tok.text!r}", tok.span)
        return tok

    prefix: list[Quantifier] = []
    seen: set[str] = set()
    while True:
        tok = peek()
        if tok is None:
            raise ParseError("missing '|' between prefix and matrix", end_span)
        if tok.text == "|":
            take()
            break
        qtok = take()
        m = _QUANT_RE.match(qtok.text)
        if qtok.text == "A":
            threshold: Optional[int] = None
        elif m:
            threshold = int(m.group(1))
            if threshold < 1:
                raise ParseError("threshold must be >= 1", qtok.span)
        else:
            raise ParseError(f"expected quantifier, found {qtok.text!r}", qtok.span)
        vtok = take()
        if not _NAME_RE.match(vtok.text) or vtok.text == "A" or _QUANT_RE.match(vtok.text):
            raise ParseError(f"bad variable name {vtok.text!r}", vtok.span)
        if vtok.text in seen:
            raise ParseError(f"duplicate prefix variable {vtok.text!r}", vtok.span)
        seen.add(vtok.text)
        prefix.append(Quantifier(threshold, vtok.text))

    atoms: list[tuple[str, tuple[str, ...]]] = []
    first_atom = True
    while peek() is not None:
        if not first_atom:
            take("&")
        first_atom = False
        ntok = take()
        if not _NAME_RE.match(ntok.text):
            raise ParseError(f"bad relation name {ntok.text!r}", ntok.span)
        take("(")
        vs = []
        while True:
            vtok = take()
            if not _NAME_RE.match(vtok.text):
                raise ParseError(f"bad atom variable {vtok.text!r}", vtok.span)
            if vtok.text not in seen:
                raise ParseError(f"unbound atom variable {vtok.text!r}", vtok.span)
            vs.append(vtok.text)
            sep = take()
            if sep.text == ")":
                break
            if sep.text != ",":
                raise ParseError(f"expected ',' or ')', found {sep.text!r}", sep.span)
        atoms.append((ntok.text, tuple(vs)))

    try:
        return Sentence(tuple(prefix), tuple(atoms))
    except InvalidStructureError as exc:
        raise ParseError(str(exc), end_span) from exc


def render_sentence(s: Sentence) -> str:
    head = " ".join(str(q) for q in s.prefix)
    body = " & ".join(f"{name}({','.join(vs)})" for name, vs in s.atoms)
    if head and body:
        return f"{head} | {body}"
    if head:
        return f"{head} |"
    return f"| {body}" if body else "|"


# ---------------------------------------------------------------------------
# Strategies


def render_strategy(w: StrategyNode) -> str:
    lines: list[str] = []

    def emit(node: StrategyNode, depth: int) -> None:
        if node.is_leaf():
            return
        lines.append("  " * depth + "offer {" + ",".join(str(v) for v in node.offer) + "}")
        for child in node.children:
            emit(child, depth + 1)

    emit(w, 0)
    return "\n".join(lines) + ("\n" if lines else "")


_OFFER_RE = re.compile(r"offer \{(\d+(?:,\d+)*)?\}\Z")


def parse_strategy(text: str, thresholds: Optional[Sequence[int]] = None) -> StrategyNode:
    """Parse the indented strategy tree; the inverse of render_strategy.

    When ``thresholds`` is given, each node's offered-set size is checked
    against the matching prefix threshold during the parse.
    """
    rows: list[tuple[int, int, tuple[int, ...], SourceSpan]] = []
    for no, body in _content_lines(text):
        stripped = body.lstrip(" ")
        indent = len(body) - len(stripped)
        if indent % 2 != 0:
            raise ParseError("odd indentation", SourceSpan(no, 1, indent))
        m = _OFFER_RE.match(stripped.rstrip())
        if not m:
            raise ParseError(f"expected 'offer {{..}}'", SourceSpan(no, indent + 1, len(stripped)))
        offer = tuple(int(x) for x in m.group(1).split(",")) if m.group(1) else ()
        if not offer:
            raise ParseError("empty offer set", SourceSpan(no, indent + 1, len(stripped)))
        if len(set(offer)) != len(offer):
            raise ParseError("repeated element in offer set", SourceSpan(no, indent + 1, 1))
        rows.append((indent // 2, no, offer, SourceSpan(no, indent + 1, len(stripped))))

    if not rows:
        return LEAF

    pos = 0

    def build(depth: int) -> StrategyNode:
        nonlocal pos
        level, no, offer, span = rows[pos]
        if level != depth:
            raise ParseError(f"expected indentation level {depth}", span)
        if thresholds is not None:
            if depth >= len(thresholds):
                raise ParseError("strategy deeper than the prefix", span)
            if len(offer) != thresholds[depth]:
                raise ParseError(
                    f"offered set of size {len(offer)} does not match threshold"
                    f" {thresholds[depth]}",
                    span,
                )
        pos += 1
        children = []
        for _ in offer:
            if pos < len(rows) and rows[pos][0] == depth + 1:
                children.append(build(depth + 1))
            else:
                children.append(LEAF)
        if any(not c.is_leaf() for c in children) and any(c.is_leaf() for c in children):
            raise ParseError("ragged strategy tree", span)
        if all(c.is_leaf() for c in children):
            children = [LEAF] * len(offer)
        return StrategyNode(offer, tuple(children))

    root = build(0)
    if pos != len(rows):
        raise ParseError("trailing strategy lines", rows[pos][3])
    if thresholds is not None and not root.depth_ok(len(thresholds)):
        raise ParseError("strategy depth does not match the prefix", rows[0][3])
    return root
