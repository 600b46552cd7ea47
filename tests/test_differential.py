"""Differential tests: the oracle, strategy extraction and the deciders
against the reference counting semantics (``conftest.brute_count_eval``)
on drawn structures and sentences, the oracle's classes of
interchangeable values against swapping each pair, and every compiled
reduction against its source.

Structures have 1-4 elements and unary, directed binary (loops allowed)
and ternary relations; sentences have up to five variables, thresholds
anywhere in 1..n and any atoms over the signature.  The oracle reorders
each run of E1 or of for-all variables, but extraction keeps the prefix
order, so sentences of six to eight variables made of such runs and of
middle thresholds are also drawn, over structures of 2-3 elements, and
``evaluate`` is checked against both the reference and extraction.
Templates with interchangeable values (cliques, complete bipartite
graphs, stars, NAE, the reflexive 4-cycle) are also drawn, with or
without a unary relation that splits their classes.  The oracle's orbit
tables (Aut(B) and each point stabiliser) are checked against every
permutation on drawn structures of 1-6 values with unary, binary and
ternary relations, each closed under a drawn permutation, and on the
templates with automorphisms beyond transpositions (C5, C6, P4, P5, K3,3,
the reflexive 4-cycle), which are also drawn, with or without a unary
relation that breaks their symmetry, under sentences checked against the
reference and strategy replay.  Decider hits are
checked on drawn loop-free graphs and on the graph templates of the zoo.
Reduction sources are drawn over each rule's source template, within the
thresholds the rule accepts.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cqcsp import fastpath as fp
from cqcsp import model
from cqcsp import reductions as rd
from cqcsp.model import Quantifier, Sentence, build_template
from cqcsp.oracle import (
    _automorphisms,
    _value_classes,
    evaluate,
    extract_strategy,
    verify_strategy,
)

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

# Templates with a class of two or more interchangeable values, which the
# oracle searches one class member at a time.
SYMMETRIC_TEMPLATES = [
    build_template(f)
    for f in (
        model.clique(2), model.clique(3), model.clique(4),
        model.complete_bipartite(1, 2), model.complete_bipartite(2, 2),
        model.complete_bipartite(2, 3), model.star(2), model.star(3),
        model.nae_boolean(), model.reflexive_cycle(4),
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
def structures(draw, sizes=(1, 4)):
    n = draw(st.integers(*sizes))
    relations = {}
    for name, arity in SIGNATURE:
        tuples = list(itertools.product(range(n), repeat=arity))
        relations[name] = draw(st.sets(st.sampled_from(tuples), max_size=len(tuples)))
    return model.make_structure(SIGNATURE, n, relations)


def _marked(draw, b: model.Structure) -> model.Structure:
    """``b``, or ``b`` with a drawn unary relation added, which splits its
    classes and orbits where it holds on part of one."""
    if not draw(st.booleans()):
        return b
    marked = draw(st.sets(st.integers(0, b.domain_size - 1)))
    relations = {**b.relations, "U": {(v,) for v in marked}}
    return model.make_structure(b.signature.relations + (("U", 1),), b.domain_size, relations)


@st.composite
def symmetric_structures(draw):
    """A template of SYMMETRIC_TEMPLATES, possibly marked (``_marked``)."""
    return _marked(draw, draw(st.sampled_from(SYMMETRIC_TEMPLATES)))


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


def _check_oracle(b: model.Structure, s: Sentence) -> None:
    """``evaluate`` agrees with the reference, and extraction returns a
    tree that replays to a win exactly on a yes-instance."""
    verdict = evaluate(b, s)
    assert verdict == brute_count_eval(b, s)
    w = extract_strategy(b, s)
    assert (w is not None) == verdict
    if w is not None:
        assert verify_strategy(b, s, w)


@SETTINGS
@given(st.data())
def test_symmetric_templates_match_reference(data):
    b = data.draw(symmetric_structures())
    _check_oracle(b, data.draw(sentences(b.domain_size, signature=b.signature.relations)))


# Templates of 2-3 elements for the sentences made of runs.
SMALL_TEMPLATES = [
    build_template(f)
    for f in (
        model.clique(2), model.clique(3), model.path(3), model.complete_bipartite(1, 2),
        model.reflexive_cycle(3), model.nae_boolean(),
    )
]


@st.composite
def run_sentences(draw, n: int, signature):
    """Six to eight variables in runs of one threshold each (E1, A or, on
    three elements, the middle threshold E2), with up to ten atoms."""
    m = draw(st.integers(6, 8))
    thresholds: list = []
    while len(thresholds) < m:
        thresholds += [draw(st.sampled_from([1, None, *range(2, n)]))] * draw(st.integers(1, 4))
    vs = [f"x{i}" for i in range(m)]
    atoms = []
    for _ in range(draw(st.integers(1, 10))):
        name, arity = draw(st.sampled_from(signature))
        atoms.append((name, tuple(draw(st.sampled_from(vs)) for _ in range(arity))))
    return Sentence(tuple(map(Quantifier, thresholds[:m], vs)), tuple(atoms))


@settings(SETTINGS, max_examples=300)
@given(st.data())
def test_reordered_runs_match_reference(data):
    """``evaluate`` searches each run of E1 or A variables in its own order,
    ``extract_strategy`` in prefix order: both agree with the reference."""
    b = data.draw(st.one_of(st.sampled_from(SMALL_TEMPLATES), structures(sizes=(2, 3))))
    s = data.draw(run_sentences(b.domain_size, signature=b.signature.relations))
    verdict = evaluate(b, s)
    assert verdict == brute_count_eval(b, s)
    assert (extract_strategy(b, s) is not None) == verdict


def _swappable(b: model.Structure, a: int, c: int) -> bool:
    """Does swapping a and c map every relation of b onto itself?"""
    swap = {a: c, c: a}
    return all(
        tuple(swap.get(x, x) for x in t) in b.tuples(name)
        for name in b.signature.names()
        for t in b.tuples(name)
    )


@SETTINGS
@given(st.data())
def test_value_classes_match_pairwise_swaps(data):
    b = data.draw(st.one_of(structures(), symmetric_structures()))
    classes = _value_classes(b) or tuple((v,) for v in range(b.domain_size))
    assert sorted(v for cls in classes for v in cls) == list(range(b.domain_size))
    class_of = {v: i for i, cls in enumerate(classes) for v in cls}
    for a, c in itertools.combinations(range(b.domain_size), 2):
        assert (class_of[a] == class_of[c]) == _swappable(b, a, c), (a, c)


# Templates of up to six values whose automorphisms are not all products
# of transpositions (rotations and reflections of cycles and paths), or
# whose group joins classes (K3,3, the reflexive 4-cycle).
AUTOMORPHIC_TEMPLATES = [
    build_template(f)
    for f in (
        model.cycle(5), model.cycle(6), model.path(4), model.path(5),
        model.complete_bipartite(3, 3), model.reflexive_cycle(4),
    )
]


@st.composite
def closed_structures(draw):
    """A structure of 1-6 values with unary, binary and ternary relations,
    closed under a drawn permutation so that it has a nontrivial
    automorphism more often than not."""
    n = draw(st.integers(1, 6))
    sigma = draw(st.permutations(range(n)))
    relations = {}
    for name, arity in SIGNATURE:
        tuples = list(itertools.product(range(n), repeat=arity))
        seeds = draw(st.sets(st.sampled_from(tuples), max_size=4 if arity == 3 else 8))
        closed = set()
        for t in seeds:
            while t not in closed:
                closed.add(t)
                t = tuple(sigma[x] for x in t)
        relations[name] = closed
    return model.make_structure(SIGNATURE, n, relations)


def _brute_orbits(b: model.Structure, fixed=None) -> list[int]:
    """Per value, the mask of its orbit under every permutation that maps
    each relation onto itself (and fixes ``fixed``)."""
    n = b.domain_size
    masks = [1 << v for v in range(n)]
    rels = [b.tuples(name) for name in b.signature.names()]
    for sigma in itertools.permutations(range(n)):
        if fixed is not None and sigma[fixed] != fixed:
            continue
        if all(tuple(sigma[x] for x in t) in tups for tups in rels for t in tups):
            for v in range(n):
                masks[v] |= 1 << sigma[v]
    return masks


@settings(SETTINGS, max_examples=200)
@given(st.data())
def test_orbit_tables_match_brute_force(data):
    if data.draw(st.booleans()):
        b = data.draw(closed_structures())
    else:
        b = _marked(data.draw, data.draw(st.sampled_from(AUTOMORPHIC_TEMPLATES + SYMMETRIC_TEMPLATES)))
    orbits = _brute_orbits(b)
    sym = _automorphisms(b)
    if sym is None:
        assert orbits == [1 << v for v in range(b.domain_size)]
        return
    assert sym[()] == ((), orbits)
    for a in range(b.domain_size):
        assert sym[a] == ((orbits[a] & -orbits[a]).bit_length() - 1, _brute_orbits(b, a)), a


@settings(SETTINGS, max_examples=300)
@given(st.data())
def test_automorphic_templates_match_reference(data):
    b = _marked(data.draw, data.draw(st.sampled_from(AUTOMORPHIC_TEMPLATES)))
    _check_oracle(b, data.draw(sentences(b.domain_size, signature=b.signature.relations)))


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


# rule -> (parameters, thresholds drawn (None is the for-all sugar), most
# variables, most atoms).  Enumerating each space, every target decides within
# 172,376 nodes (girth-isolation on "E1 x0 E1 x1 E1 x2 | E(x1,x2) &
# E(x2,x0)", 104 variables); COMPILE_BUDGET leaves room for the atom
# orders drawn, and a budget stop fails the test.
COMPILED_RULES = {
    "nae": ({"j": 2, "n": 4}, (1, 2, None), 3, 2),
    "clique-gj": ({"j": 2}, (1, 10, None), 2, 2),
    "clique-pad": ({"j": 2, "n": 6}, (2,), 3, 3),
    "clique-1j": ({"n": 3, "j": 2}, (1, 3, None), 3, 3),
    "even-cycle": ({"n": 6, "j": 2}, (1, 3, None), 2, 1),
    "even-cycle-csp": ({"n": 6, "j": 2}, (1,), 3, 2),
    "girth-isolation": ({"h": "cycle:6"}, (1,), 3, 2),
    "reflexive-c4": ({}, (1, 4, None), 2, 2),
    "c4star-macros": ({}, (1, 2, 3, 4, None), 3, 3),
    "odd-cycle-path": ({"n": 5, "j": 2}, (1, 5, None), 3, 3),
}
COMPILE_BUDGET = 500_000

COMPILE_SETTINGS = settings(SETTINGS, max_examples=25)


def _rule(name: str) -> rd.ReductionRule:
    params = COMPILED_RULES[name][0]
    return rd.rule(name, **{
        k: build_template(model.parse_family_spec(v)) if k == "h" else v
        for k, v in params.items()
    })


def test_every_compiled_rule_is_drawn():
    assert set(COMPILED_RULES) == set(rd.RULES)


@st.composite
def sources(draw, relation: tuple[str, int], thresholds, max_vars: int, max_atoms: int):
    name, arity = relation
    vs = NAMES[: draw(st.integers(1, max_vars))]
    prefix = tuple(Quantifier(draw(st.sampled_from(thresholds)), v) for v in vs)
    atoms = draw(st.lists(st.tuples(*[st.sampled_from(vs)] * arity), max_size=max_atoms))
    return Sentence(prefix, tuple((name, a) for a in atoms))


@pytest.mark.parametrize("name", sorted(COMPILED_RULES))
@COMPILE_SETTINGS
@given(st.data())
def test_compiled_rules_match_their_source(name, data):
    rule = _rule(name)
    template = rule.source_template()
    _, thresholds, max_vars, max_atoms = COMPILED_RULES[name]
    (relation,) = template.signature.relations
    s = data.draw(sources(relation, thresholds, max_vars, max_atoms))
    verdict = evaluate(template, s, budget=COMPILE_BUDGET)
    assert verdict == brute_count_eval(template, s)
    target, compiled = rd.compile_rule(rule, template, s)
    assert evaluate(target, compiled, budget=COMPILE_BUDGET) == verdict, str(s)
