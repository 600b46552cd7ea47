"""Template analysis is cached on the immutable template objects: a
family's template, a rule's templates, a structure's canonical form and
graph view, and the view's facts.  A
reused instance must answer exactly like a freshly built one, one
template's facts must never reach another, and no caller can alter a
cached fact."""

from __future__ import annotations

import itertools

import pytest

from cqcsp import fastpath as fp
from cqcsp import model
from cqcsp import reductions as rd
from cqcsp.model import Quantifier, Sentence, Structure, build_template, graph_view
from cqcsp.textio import parse_sentence

from conftest import matrices
from test_golden import CLASSIFY, CLASSIFY_FAMILIES, DISPATCH, digest, dispatch_lines

ZOO_KEYS = ["K1", "K2", "K3", "K4", "C4", "C5", "C6", "P3", "P4", "P5", "K23", "K13", "C4star",
            "NAE"]

FACTS = (
    "components",
    "bipartition",
    "is_connected",
    "is_complete",
    "is_cycle",
    "is_path_graph",
    "is_forest",
    "complete_bipartite_sides",
    "contains_c4",
    "girth",
    "diameter",
)


# The facts of some zoo templates, from their definitions: (one component,
# two-colourable, largest colour class, is_complete, is_cycle,
# is_path_graph, is_forest, complete_bipartite_sides, contains_c4).
EXPECTED_FACTS = {
    "K23": (True, True, 3, False, False, False, False, (2, 3), True),
    "C5": (True, False, None, False, True, False, False, None, False),
    "C6": (True, True, 3, False, True, False, False, None, False),
    "P4": (True, True, 2, False, False, True, True, None, False),
    "P5": (True, True, 3, False, False, True, True, None, False),
    "K4": (True, False, None, True, False, False, False, None, True),
    # loops: no two-colouring, cycle or forest; the 4-cycle is still there
    "C4star": (True, False, None, False, False, False, False, None, True),
}


def _fact_row(g: model.GraphView) -> tuple:
    bipartite = g.bipartition() is not None
    return (
        g.is_connected(),
        bipartite,
        g.largest_colour_class() if bipartite else None,
        g.is_complete(),
        g.is_cycle(),
        g.is_path_graph(),
        g.is_forest(),
        g.complete_bipartite_sides(),
        g.contains_c4(),
    )


def _fresh(b: Structure) -> Structure:
    """An equal structure that shares no cached analysis with ``b``."""
    return model.make_structure(b.signature.relations, b.domain_size, b.relations)


def _sentences(b: Structure, max_vars: int = 3):
    """Sentences of 1..max_vars variables over E with thresholds in 1..|B|
    and at most two atoms."""
    for n_vars in range(1, max_vars + 1):
        names = [f"x{i}" for i in range(n_vars)]
        for combo in itertools.product(range(1, b.domain_size + 1), repeat=n_vars):
            prefix = tuple(Quantifier(t, v) for t, v in zip(combo, names))
            for atoms in matrices(n_vars, 2):
                yield Sentence(prefix, atoms)


def _dispatch_line(b: Structure, s: Sentence) -> str:
    match = fp.dispatch(b, s)
    if match is None:
        return "None"
    try:
        return f"{match[0]} {match[1]()}"
    except Exception as exc:
        return f"{match[0]} {type(exc).__name__}"


def _fragments(size: int):
    return [
        model.ThresholdSet(frozenset(x))
        for r in range(1, size + 1)
        for x in itertools.combinations(range(1, size + 1), r)
    ] + [model.BoundedPrefix(m) for m in range(4)]


@pytest.mark.parametrize("key", ZOO_KEYS)
def test_dispatch_on_reused_template_matches_fresh(key, zoo):
    b = zoo[key]
    for s in _sentences(b):
        # a fresh copy per sentence: every fact is computed anew
        assert _dispatch_line(b, s) == _dispatch_line(_fresh(b), s), str(s)


@pytest.mark.parametrize("spec", CLASSIFY_FAMILIES)
def test_classify_on_reused_family_matches_fresh(spec):
    family = model.parse_family_spec(spec)
    for frag in _fragments(build_template(family).domain_size):
        fresh = model.parse_family_spec(spec)
        assert str(fp.classify(family, frag)) == str(fp.classify(fresh, frag)), str(frag)


@pytest.mark.parametrize("a, b", [("K23", "C5"), ("P5", "K4"), ("C4star", "C6"), ("P4", "K23")])
def test_interleaved_templates_keep_their_own_facts(a, b, zoo):
    """A, then B, then A on reused instances: each template's facts and
    dispatch lines stay its own, against values fixed independently of
    any cache (its definition, the golden digests)."""
    for key in (a, b, a):
        assert _fact_row(graph_view(zoo[key])) == EXPECTED_FACTS[key], key
        assert digest(dispatch_lines(key, zoo)) == DISPATCH[key], key
    assert graph_view(zoo["NAE"]) is None


def test_interleaved_families_keep_their_own_verdicts():
    specs = ["clique:4", "cycle:4", "bipartite:2,2", "reflexive-cycle:4", "hj:4"]
    reused = {spec: model.parse_family_spec(spec) for spec in specs}
    for spec in specs + specs[::-1]:
        family = reused[spec]
        lines = [
            f"{frag} {fp.classify(family, frag)}"
            for frag in _fragments(build_template(family).domain_size)
        ]
        assert digest(lines) == CLASSIFY[spec], spec


@pytest.mark.parametrize("key", ZOO_KEYS)
def test_cached_template_facts_are_immutable(key, zoo):
    b = zoo[key]
    g = graph_view(b)
    assert graph_view(b) is g
    if g is None:
        return
    bipartite = g.bipartition() is not None
    for name in FACTS + (("largest_colour_class",) if bipartite else ()):
        value = getattr(g, name)()
        # hashable all the way down: no list, set or dict a caller could alter
        hash(value)
        assert getattr(g, name)() is value, name
    with pytest.raises(TypeError):
        g.components()[0][0] = -1


def test_template_built_once_per_family_instance():
    family = model.parse_family_spec("hj:4")
    b = build_template(family)
    assert build_template(family) is b
    other = model.parse_family_spec("hj:4")
    assert build_template(other) is not b and build_template(other) == b
    nae = build_template(model.nae_boolean())
    assert graph_view(nae) is None and graph_view(nae) is None


def test_rule_templates_built_once_per_rule():
    """Every compile under one rule returns the rule's one target
    template, and a structure's canonical form is computed once."""
    rule = rd.rule("clique-gj", j=2)
    source = rule.source_template()
    assert rule.source_template() is source
    first, _ = rd.compile_rule(rule, source, parse_sentence("E1 u E1 v | E(u,v)"))
    again, _ = rd.compile_rule(rule, build_template(model.clique(10)), parse_sentence("E1 u |"))
    assert again is first is rule.target_template()
    assert first == build_template(model.clique(5))
    assert source.canonical_form() is source.canonical_form()


def test_isolation_spine_built_once_per_template():
    """girth-isolation reads its template's girth, diameter and spine once;
    every compile under the rule reuses them, and a fresh equal template
    builds equal ones."""
    h = build_template(model.hairy_cycle(6))
    g = graph_view(h)
    assert (g.girth(), g.diameter()) == (6, 5)
    assert g.girth() is g.girth() and g.diameter() is g.diameter()
    spine, blocks = rd.isolation_spine(h), rd.isolation_blocks(h)
    assert rd.isolation_spine(h) is spine and rd.isolation_blocks(h) is blocks
    hash(blocks)
    rule = rd.rule("girth-isolation", h=h)
    source = rule.source_template()
    first = rd.compile_rule(rule, source, parse_sentence("E1 u E1 v | E(u,v)"))[1]
    assert rd.compile_rule(rule, source, parse_sentence("E1 u E1 v | E(u,v)"))[1] == first
    fresh = _fresh(h)
    assert rd.isolation_spine(fresh) is not spine and rd.isolation_spine(fresh) == spine
    assert rd.isolation_blocks(fresh) == blocks
