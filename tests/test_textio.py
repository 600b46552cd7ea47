import pytest
from hypothesis import given, settings, strategies as st

from cqcsp import model, textio
from cqcsp.model import Quantifier, Sentence, build_template
from cqcsp.oracle import LEAF, StrategyNode, extract_strategy, verify_strategy
from cqcsp.textio import ParseError, parse_sentence, parse_strategy, parse_structure


def test_parse_structure_k2():
    b = parse_structure("domain 2\nrel E 2\n0 1\n1 0\nend")
    assert b == build_template(model.clique(2))


def test_parse_structure_symmetric_directive():
    b = parse_structure("domain 3\nrel E 2\n0 1\nend\nsymmetric")
    assert b.tuples("E") == frozenset({(0, 1), (1, 0)})


def test_parse_structure_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_structure("domain 2\nrel E 2\n0 5\nend")
    assert "out of range" in str(err.value)
    assert err.value.span.line == 3


def test_parse_structure_comments_and_format_line():
    text = "# a comment\nformat 1\ndomain 2\nrel E 2\n0 1   # inline\n1 0\nend\n"
    b = parse_structure(text)
    assert b.tuples("E") == frozenset({(0, 1), (1, 0)})


STRUCTURE_ERRORS = [
    ("", "empty structure file", 1, 1, 1),
    ("domain 2\nrel E 2\n0 1", "relation 'E' not terminated by 'end'", 2, 1, 1),
    ("domain 2\nrel E 2\n0 1\nend\nrel E 1\n0\nend", "duplicate relation 'E'", 5, 5, 1),
    ("domain 2\nwibble", "unexpected directive 'wibble'", 2, 1, 6),
    ("domain 0\n", "domain size must be positive", 1, 1, 1),
    ("domain 2\nrel E 0\nend\n", "arity must be >= 1", 2, 1, 1),
    ("domain 2\nrel E 2\n0 1 1\nend\n", "tuple arity 3 does not match 2", 3, 1, 1),
    ("domain 2\nconst c 0\n", "unexpected directive 'const'", 2, 1, 5),
]


def test_parse_structure_errors():
    for text, reason, line, column, length in STRUCTURE_ERRORS:
        with pytest.raises(ParseError) as err:
            parse_structure(text)
        e = err.value
        got = (e.reason, e.span.line, e.span.column, e.span.length)
        assert got == (reason, line, column, length), text


def test_parse_sentence_examples():
    s = parse_sentence("E2 x E2 y | E(x,y) & E(y,x)")
    assert [q.threshold for q in s.prefix] == [2, 2]
    assert len(s.atoms) == 2
    s = parse_sentence("E1 x | R(x,x,x)")
    assert s.atoms == (("R", ("x", "x", "x")),)
    with pytest.raises(ParseError) as err:
        parse_sentence("E2 x | E(x,y)")
    assert "unbound" in str(err.value)


def test_parse_sentence_universal_sugar_and_empty_matrix():
    s = parse_sentence("A x E3 y |")
    assert s.prefix[0].threshold is None
    assert s.prefix[1].threshold == 3
    assert s.atoms == ()
    assert parse_sentence("|") == Sentence((), ())


def test_parse_sentence_errors():
    with pytest.raises(ParseError):
        parse_sentence("E2 x E2 x | E(x,x)")
    with pytest.raises(ParseError):
        parse_sentence("E0 x |")
    with pytest.raises(ParseError):
        parse_sentence("E2 x E(x)")
    with pytest.raises(ParseError):
        parse_sentence("E2 x | E(x,)")


def test_strategy_round_trip_singleton():
    node = StrategyNode((0,), (LEAF,))
    text = textio.render_strategy(node)
    assert text == "offer {0}\n"
    assert parse_strategy(text) == node


def test_strategy_threshold_validation():
    node = StrategyNode((0, 1), (LEAF, LEAF))
    text = textio.render_strategy(node)
    assert parse_strategy(text, thresholds=[2]) == node
    with pytest.raises(ParseError) as err:
        parse_strategy(text, thresholds=[3])
    assert "does not match threshold" in str(err.value)


def test_strategy_empty_tree():
    assert parse_strategy("") == LEAF
    assert textio.render_strategy(LEAF) == ""


def _strategies(depth: int):
    if depth == 0:
        return st.just(LEAF)
    child = _strategies(depth - 1)
    return st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True).flatmap(
        lambda offer: st.tuples(*[child] * len(offer)).map(
            lambda children: StrategyNode(tuple(sorted(offer)), children)
        )
    )


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3).flatmap(_strategies))
def test_strategy_round_trip_property(node):
    assert parse_strategy(textio.render_strategy(node)) == node


_names = st.text(alphabet="abcxyz", min_size=1, max_size=3).filter(
    lambda s: s not in ("A",)
)


@st.composite
def _sentences(draw):
    n = draw(st.integers(0, 4))
    vs = [f"v{i}" for i in range(n)]
    prefix = tuple(
        Quantifier(draw(st.one_of(st.none(), st.integers(1, 5))), v) for v in vs
    )
    atoms = []
    if vs:
        for _ in range(draw(st.integers(0, 4))):
            arity = draw(st.integers(1, 3))
            atoms.append(
                (draw(st.sampled_from(["E", "R", "U"])),
                 tuple(draw(st.sampled_from(vs)) for _ in range(arity)))
            )
    arities = {}
    atoms = [a for a in atoms if arities.setdefault(a[0], len(a[1])) == len(a[1])]
    return Sentence(prefix, tuple(atoms))


@settings(max_examples=150, deadline=None)
@given(_sentences())
def test_sentence_round_trip_property(s):
    assert parse_sentence(textio.render_sentence(s)) == s


@st.composite
def _structures(draw):
    n = draw(st.integers(1, 4))
    rels = {}
    arities = []
    for name, arity in (("E", 2), ("U", 1)):
        if draw(st.booleans()):
            arities.append((name, arity))
            tuples = draw(
                st.sets(
                    st.tuples(*[st.integers(0, n - 1)] * arity).map(tuple),
                    max_size=6,
                )
            )
            rels[name] = tuples
    return model.make_structure(arities, n, rels)


@settings(max_examples=150, deadline=None)
@given(_structures())
def test_structure_round_trip_property(b):
    assert parse_structure(textio.render_structure(b)) == b


def test_whitespace_and_comment_insensitivity():
    a = parse_sentence("E2 x E2 y | E(x,y) & E(y,x)")
    b = parse_sentence("# header\nE2   x\n  E2 y\n | E( x , y ) &\n E(y,x)  # tail")
    assert a == b


def test_render_verdict():
    from cqcsp.fastpath import ComplexityClass, ComplexityVerdict

    v = ComplexityVerdict(ComplexityClass.PSPACE_COMPLETE, "Thm 1 iii")
    assert str(v) == "Pspace-complete (Thm 1 iii)"
    v = ComplexityVerdict(ComplexityClass.OPEN, "")
    assert str(v) == "Open"


# Every ParseError branch of parse_sentence and parse_strategy, with the
# reason and the span (line, column, length) it reports.
SENTENCE_ERRORS = [
    ("", "missing '|' between prefix and matrix", 1, 1, 1),
    ("# only a comment\n", "missing '|' between prefix and matrix", 1, 1, 1),
    ("E1 x", "missing '|' between prefix and matrix", 1, 4, 1),
    ("E2", "unexpected end of sentence", 1, 1, 2),
    ("E1 x |\n  E(x,\n", "unexpected end of sentence", 2, 6, 1),
    ("E2 x E2 y | E(x,y) E(y,x)", "expected '&', found 'E'", 1, 20, 1),
    ("E1 x | E x", "expected '(', found 'x'", 1, 10, 1),
    ("E0 x |", "threshold must be >= 1", 1, 1, 2),
    ("x y |", "expected quantifier, found 'x'", 1, 1, 1),
    ("E1 1 |", "bad variable name '1'", 1, 4, 1),
    ("E1 A |", "bad variable name 'A'", 1, 4, 1),
    ("E1 E2 |", "bad variable name 'E2'", 1, 4, 2),
    ("E1 x E2 x |", "duplicate prefix variable 'x'", 1, 9, 1),
    ("E1 x | 1(x)", "bad relation name '1'", 1, 8, 1),
    ("E1 x | E(1)", "bad atom variable '1'", 1, 10, 1),
    ("E2 x | E(x,y)", "unbound atom variable 'y'", 1, 12, 1),
    ("E1 x | E(x;x)", "expected ',' or ')', found ';'", 1, 11, 1),
    ("E1 x | E(x", "unexpected end of sentence", 1, 10, 1),
    ("E1 x | E(x) & E(x,x)", "relation 'E' used with two arities", 1, 20, 1),
    ("format 1\n# c\nE1 x\n  E1 yy | E(x,\n   yy) & Rel(x,zz)",
     "unbound atom variable 'zz'", 5, 16, 2),
    # locations found by tokenising again after the parse fails
    ("E1 x\r\nE1 y |\r\n E(x,y) E(y,x)\r\n", "expected '&', found 'E'", 3, 9, 1),
    ("format 1\r\n\tE1 y |\r\n\tE(y,\r\n", "unexpected end of sentence", 3, 5, 1),
    ("E1\tx\t|\tE(x,\t1)", "bad atom variable '1'", 1, 13, 1),
    ("E1 x\n# between\n| E(x y)", "expected ',' or ')', found 'y'", 3, 7, 1),
    ("E1 x |\nE(x) &\n1(x)", "bad relation name '1'", 3, 1, 1),
    ("format 1\nE1 x x |", "expected quantifier, found 'x'", 2, 6, 1),
]

STRATEGY_ERRORS = [
    ("offer {0}\n offer {1}", None, "odd indentation", 2, 1, 1),
    ("offer {0}\n  offr {1}", None, "expected 'offer {..}'", 2, 3, 8),
    ("offer {0}\n  offer {}", None, "empty offer set", 2, 3, 8),
    ("offer {0,1,0}", None, "repeated element in offer set", 1, 1, 1),
    ("  offer {0}", None, "expected indentation level 0", 1, 3, 9),
    ("offer {0}\n  offer {0}", [1], "strategy deeper than the prefix", 2, 3, 9),
    ("offer {0}\n  offer {0,1}", [1, 1],
     "offered set of size 2 does not match threshold 1", 2, 3, 11),
    ("offer {0,1}\n  offer {0}", None, "ragged strategy tree", 1, 1, 11),
    ("offer {0}\noffer {1}", None, "trailing strategy lines", 2, 1, 9),
    ("# w\noffer {0,1}\n  offer {2}   # c\n  offer {3,4}", [2, 1],
     "offered set of size 2 does not match threshold 1", 4, 3, 11),
    ("offer {0}", [1, 1], "strategy shallower than the prefix", 1, 1, 9),
    ("offer {0,1}\n  offer {0}\n    offer {1}\n  offer {2}", [2, 1, 1],
     "strategy shallower than the prefix", 4, 3, 9),
    ("# no strategy\n", [1], "strategy shallower than the prefix", 1, 1, 0),
    ("offer {\u0663}", None, "expected 'offer {..}'", 1, 1, 9),
    ("offer {0,1}\n  offer {\u00b2}", None, "expected 'offer {..}'", 2, 3, 9),
]

# Structure lines whose numbers are not ASCII digits: str.isdigit() holds
# for superscripts and other scripts' digits, which int() rejects or reads.
STRUCTURE_DIGIT_ERRORS = [
    ("domain \u00b2\n", "expected 'domain <n>'", 1, 1, 6),
    ("domain \u0663\nrel E 2\n0 1\nend\n", "expected 'domain <n>'", 1, 1, 6),
    ("domain 3\nrel E \u0662\n0 1\nend\n", "expected 'rel <name> <arity>'", 2, 1, 1),
    ("domain 3\nrel E 2\n0 \u0661\nend\n", "bad tuple entry '\u0661'", 3, 3, 1),
]


@pytest.mark.parametrize("text, reason, line, column, length", SENTENCE_ERRORS)
def test_sentence_error_locations(text, reason, line, column, length):
    with pytest.raises(ParseError) as err:
        parse_sentence(text)
    e = err.value
    assert (e.reason, e.span.line, e.span.column, e.span.length) == (reason, line, column, length)
    assert str(e) == f"{reason} (line {line}, column {column})"


@pytest.mark.parametrize("text, thresholds, reason, line, column, length", STRATEGY_ERRORS)
def test_strategy_error_locations(text, thresholds, reason, line, column, length):
    with pytest.raises(ParseError) as err:
        parse_strategy(text, thresholds)
    e = err.value
    assert (e.reason, e.span.line, e.span.column, e.span.length) == (reason, line, column, length)
    assert str(e) == f"{reason} (line {line}, column {column})"


@pytest.mark.parametrize("text, reason, line, column, length", STRUCTURE_DIGIT_ERRORS)
def test_structure_numbers_are_ascii_digits(text, reason, line, column, length):
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    e = err.value
    assert (e.reason, e.span.line, e.span.column, e.span.length) == (reason, line, column, length)


def test_deep_strategy_round_trip_and_verify():
    k = 1500
    names = [f"x{i}" for i in range(k)]
    s = parse_sentence(
        " ".join(f"E1 {v}" for v in names)
        + " | " + " & ".join(f"E({a},{b})" for a, b in zip(names, names[1:]))
    )
    k2 = build_template(model.clique(2))
    w = extract_strategy(k2, s)
    by_hand = LEAF
    for depth in reversed(range(k)):
        by_hand = StrategyNode((depth % 2,), (by_hand,))
    assert w == by_hand
    text = textio.render_strategy(w)
    assert text.count("\n") == k
    back = parse_strategy(text, thresholds=[1] * k)
    assert textio.render_strategy(back) == text
    assert back == w and not back != w
    assert back != StrategyNode((0,), (LEAF,))
    assert hash(back) == hash(w) == hash((w.offer, w.children))
    expected = (
        "".join(f"StrategyNode(offer=({depth % 2},), children=(" for depth in range(k))
        + repr(LEAF)
        + ",))" * k
    )
    assert repr(back) == repr(w) == expected
    assert verify_strategy(k2, s, back)
