"""Differential tests: the oracle, strategy extraction and the deciders
against the reference counting semantics (``conftest.brute_count_eval``)
on drawn structures and sentences.

Structures have 1-4 elements and unary, directed binary (loops allowed)
and ternary relations; sentences have up to five variables, thresholds
anywhere in 1..n and any atoms over the signature.  Decider hits are
checked on drawn loop-free graphs and on the graph templates of the zoo.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cqcsp import fastpath as fp
from cqcsp import model
from cqcsp.model import Quantifier, Sentence, build_template
from cqcsp.oracle import evaluate, extract_strategy, verify_strategy

from conftest import brute_count_eval

SIGNATURE = (("U", 1), ("E", 2), ("T", 3))
NAMES = [f"x{i}" for i in range(5)]

GRAPH_TEMPLATES = [
    build_template(f)
    for f in (
        model.clique(3), model.clique(4), model.cycle(4), model.cycle(5), model.cycle(6),
        model.path(3), model.path(4), model.path(5), model.star(3),
        model.complete_bipartite(2, 3),
    )
]

SETTINGS = settings(
    max_examples=600,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def structures(draw):
    n = draw(st.integers(1, 4))
    relations = {}
    for name, arity in SIGNATURE:
        tuples = list(itertools.product(range(n), repeat=arity))
        relations[name] = draw(st.sets(st.sampled_from(tuples), max_size=len(tuples)))
    return model.make_structure(SIGNATURE, n, relations)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 4))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs or draw(st.booleans()):
        return draw(st.sampled_from(GRAPH_TEMPLATES))
    edges = draw(st.sets(st.sampled_from(pairs)))
    return model.graph_structure(n, edges)


@st.composite
def sentences(draw, n: int, signature=SIGNATURE, max_atoms: int = 6):
    m = draw(st.integers(1, 5))
    vs = NAMES[:m]
    prefix = tuple(Quantifier(draw(st.integers(1, n)), v) for v in vs)
    atoms = []
    for _ in range(draw(st.integers(0, max_atoms))):
        name, arity = draw(st.sampled_from(signature))
        atoms.append((name, tuple(draw(st.sampled_from(vs)) for _ in range(arity))))
    return Sentence(prefix, tuple(atoms))


@SETTINGS
@given(st.data())
def test_oracle_and_strategies_match_reference(data):
    b = data.draw(structures())
    s = data.draw(sentences(b.domain_size))
    verdict = evaluate(b, s)
    assert verdict == brute_count_eval(b, s)
    w = extract_strategy(b, s)
    assert (w is not None) == verdict
    if w is not None:
        assert verify_strategy(b, s, w)
    match = fp.dispatch(b, s)
    if match is not None:
        assert match[1]() == verdict, match[0]


@SETTINGS
@given(st.data())
def test_dispatch_hits_match_oracle(data):
    b = data.draw(graphs())
    s = data.draw(sentences(b.domain_size, signature=(("E", 2),)))
    verdict = evaluate(b, s)
    assert verdict == brute_count_eval(b, s)
    match = fp.dispatch(b, s)
    if match is not None:
        assert match[1]() == verdict, match[0]
