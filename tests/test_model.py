import pytest

from cqcsp import model
from cqcsp.model import (
    InvalidStructureError,
    Quantifier,
    build_template,
    canonical_query,
    graph_view,
    instance_graph,
    parse_family_spec,
    parse_fragment_spec,
    sentence,
)


def test_cycle_template_conventions():
    c4 = build_template(model.cycle(4))
    assert c4.domain_size == 4
    assert len(c4.tuples("E")) == 8
    assert graph_view(c4).bipartition() is not None
    # adjacency pattern |i-j| in {1, n-1}
    assert (0, 3) in c4.tuples("E") and (3, 0) in c4.tuples("E")
    assert (0, 2) not in c4.tuples("E")


def test_star_template_centre_zero():
    k13 = build_template(model.star(3))
    assert k13.domain_size == 4
    assert all((0, j) in k13.tuples("E") and (j, 0) in k13.tuples("E") for j in (1, 2, 3))
    assert (1, 2) not in k13.tuples("E")


def test_single_quantifier_template_case1_count():
    b = build_template(model.single_quantifier_template(4, 2))
    assert b.tuples("U") == frozenset({(0,), (1,)})
    # all 64 triples minus the 8 all-odd and 8 all-even ones
    assert len(b.tuples("R")) == 48


def test_single_quantifier_template_case2():
    b = build_template(model.single_quantifier_template(3, 2))
    # high threshold: only entries <= n-j = 1 are truth values; dropped
    # triples are the monochromatic ones over {0} and {1}
    assert len(b.tuples("R")) == 27 - 2
    assert (2, 2, 2) in b.tuples("R")


def test_reflexive_cycle_and_hairy_counts():
    c4s = build_template(model.reflexive_cycle(4))
    assert len(c4s.tuples("E")) == 8 + 4
    hairy = build_template(model.hairy_cycle(6))
    assert hairy.domain_size == 18
    g = graph_view(hairy)
    assert g.girth() == 6
    assert g.diameter() == 5


def test_hj_template():
    h4 = build_template(model.hj_template(4))
    assert h4.domain_size == 7
    g = graph_view(h4)
    assert g.bipartition() is not None
    assert g.contains_c4()
    h3 = build_template(model.hj_template(3))
    assert h3 == build_template(model.cycle(6))


def test_invalid_family_parameters():
    with pytest.raises(InvalidStructureError):
        model.cycle(2)
    with pytest.raises(InvalidStructureError):
        model.complete_bipartite(0, 2)
    with pytest.raises(InvalidStructureError):
        model.forest_from_edges([(0, 1), (1, 2), (2, 0)])


def _atom_tuples(q):
    """The canonical query's atoms read back as the template's tuples:
    variable ``v<i>`` is element ``i``."""
    return {(n, tuple(int(v[1:]) for v in vs)) for n, vs in q.atoms}


def test_canonical_query_of_k3():
    k3 = build_template(model.clique(3))
    q = canonical_query(k3)
    assert len(q.prefix) == 3
    assert all(qq.threshold == 1 for qq in q.prefix)
    assert len(q.atoms) == 6
    assert _atom_tuples(q) == {("E", t) for t in k3.tuples("E")}


@pytest.mark.parametrize("family", [
    model.clique(3),
    model.cycle(5),
    model.cycle(6),
    model.path(4),
    model.star(3),
    model.complete_bipartite(2, 3),
    model.nae_boolean(),
])
def test_canonical_roundtrip_is_isomorphic(family):
    b = build_template(family)
    q = canonical_query(b)
    assert [qq.variable for qq in q.prefix] == [f"v{i}" for i in range(b.domain_size)]
    assert _atom_tuples(q) == {(n, t) for n in b.signature.names() for t in b.tuples(n)}


def test_instance_graph_examples():
    s = sentence([(2, "x"), (2, "y")], [("E", ("x", "y")), ("E", ("y", "x"))])
    ig = instance_graph(s)
    assert ig.adj == (frozenset({1}), frozenset({0}))
    assert ig.edge_count() == 1 and ig.relation == "E"
    assert ig.predecessors(1) == [0]
    tri = sentence(
        [(1, "x"), (1, "y"), (1, "z")],
        [("E", ("x", "y")), ("E", ("y", "z")), ("E", ("z", "x"))],
    )
    ig = instance_graph(tri)
    assert ig.edge_count() == 3
    assert ig.bipartition() is None
    loop = sentence([(1, "x")], [("E", ("x", "x"))])
    ig = instance_graph(loop)
    assert ig.loops == frozenset({0}) and ig.edge_count() == 0
    empty = instance_graph(sentence([(1, "x"), (1, "y")], []))
    assert (empty.n, empty.relation, empty.components()) == (2, None, ((0,), (1,)))


def test_instance_graph_rejects_mixed_signature():
    s = sentence([(1, "x")], [("R", ("x", "x", "x"))])
    with pytest.raises(InvalidStructureError, match="binary relation symbol"):
        instance_graph(s)
    s = sentence([(1, "x")], [("E", ("x", "x")), ("F", ("x", "x"))])
    with pytest.raises(InvalidStructureError, match="single relation symbol"):
        instance_graph(s)


def test_instance_graph_vertex_order_and_predecessors():
    s = sentence(
        [(1, "a"), (1, "b"), (1, "c")],
        [("E", ("c", "a")), ("E", ("b", "c"))],
    )
    ig = instance_graph(s)
    assert ig.n == 3
    assert ig.adj == (frozenset({2}), frozenset({2}), frozenset({0, 1}))
    assert ig.loops == frozenset()
    assert ig.predecessors(2) == [0, 1]
    assert ig.predecessors(0) == []


def test_instance_graph_of_canonical_query_is_graph_view(zoo):
    """One graph toolkit: a graph template and its canonical query's
    instance graph are the same view."""
    checked = 0
    for name, b in zoo.items():
        g = graph_view(b)
        if g is None or not b.tuples(g.relation):
            continue
        assert instance_graph(canonical_query(b)) == g, name
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("n", range(3, 13))
def test_cycle_vertex_transitive(n):
    c = build_template(model.cycle(n))
    tuples = c.tuples("E")
    for shift in range(n):
        rotated = frozenset(((a + shift) % n, (b + shift) % n) for a, b in tuples)
        assert rotated == tuples


def test_sentence_invariants():
    with pytest.raises(InvalidStructureError):
        sentence([(1, "x"), (1, "x")], [])
    with pytest.raises(InvalidStructureError):
        sentence([(1, "x")], [("E", ("x", "y"))])
    with pytest.raises(InvalidStructureError):
        sentence([(1, "x")], [("E", ("x", "x")), ("E", ("x", "x", "x"))])
    with pytest.raises(InvalidStructureError):
        Quantifier(0, "x")


def test_universal_sugar_resolution():
    s = sentence([(None, "x"), (2, "y")], [("E", ("x", "y"))])
    rs = s.resolved(5)
    assert rs.prefix[0].threshold == 5


def test_structure_equality_canonical():
    a = model.graph_structure(3, [(0, 1), (1, 2)])
    b = model.graph_structure(3, [(1, 2), (0, 1)])
    assert a == b
    assert a != model.graph_structure(3, [(0, 1)])


def test_family_spec_parsing_roundtrip():
    for text in ["clique:5", "cycle:6", "reflexive-cycle:4", "path:5", "star:3",
                 "bipartite:2,3", "nae", "single:4,2", "hairy:6", "hj:4",
                 "forest:0-1,1-2", "graph:0-1,1-2,2-0"]:
        fam = parse_family_spec(text)
        assert parse_family_spec(str(fam)) == fam
    with pytest.raises(InvalidStructureError):
        parse_family_spec("widget:3")


def test_fragment_spec_parsing():
    assert parse_fragment_spec("X=1,2").thresholds == frozenset({1, 2})
    assert parse_fragment_spec("prefix=2^3 1*").m == 3
    assert parse_fragment_spec("prefix=2^0").m == 0
    with pytest.raises(InvalidStructureError):
        parse_fragment_spec("X=")


@pytest.mark.parametrize("text, message", [
    ("clique:1_0", "bad integer in family spec 'clique:1_0'"),
    ("clique:+3", "bad integer in family spec 'clique:+3'"),
    ("clique:\u0663", "bad integer in family spec 'clique:\u0663'"),
    ("bipartite:2,\uff13", "bad integer in family spec 'bipartite:2,\uff13'"),
    ("forest:0-1_0", "bad edge '0-1_0' in family spec"),
    ("graph:0-1,+1-2", "bad edge '+1-2' in family spec"),
    ("forest:0-\u0661", "bad edge '0-\u0661' in family spec"),
])
def test_family_spec_numbers_are_ascii_digits(text, message):
    """``int`` also reads ``1_0``, ``+3`` and other scripts' digits; the
    spec, like the text formats, takes ASCII digits only."""
    with pytest.raises(InvalidStructureError) as info:
        parse_family_spec(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("X=\u0661,2", "bad threshold set 'X=\u0661,2'"),
    ("X=1_0", "bad threshold set 'X=1_0'"),
    ("X=+2", "bad threshold set 'X=+2'"),
    ("prefix=2^\u0663", "bad fragment spec 'prefix=2^\u0663'"),
    ("prefix=2^\u06631*", "bad fragment spec 'prefix=2^\u06631*'"),
])
def test_fragment_spec_numbers_are_ascii_digits(text, message):
    with pytest.raises(InvalidStructureError) as info:
        parse_fragment_spec(text)
    assert str(info.value) == message


def test_spec_numbers_keep_whitespace_and_a_leading_minus():
    assert parse_family_spec(" clique: 3 ") == parse_family_spec("clique:3")
    assert parse_family_spec("bipartite: 2 ,3") == parse_family_spec("bipartite:2,3")
    assert parse_family_spec("forest:0 - 1") == parse_family_spec("forest:0-1")
    assert parse_fragment_spec("X= 1 , 2").thresholds == frozenset({1, 2})
    assert parse_fragment_spec("prefix=2^31*").m == 3
    with pytest.raises(InvalidStructureError) as info:
        parse_family_spec("clique:-3")
    assert str(info.value) == "clique size must be >= 1"
    with pytest.raises(InvalidStructureError) as info:
        parse_fragment_spec("X=-1")
    assert str(info.value) == "thresholds must be >= 1"


def test_graph_view_properties():
    g = graph_view(build_template(model.complete_bipartite(2, 3)))
    assert g.complete_bipartite_sides() == (2, 3)
    assert g.contains_c4()
    p5 = graph_view(build_template(model.path(5)))
    assert p5.is_path_graph() and p5.is_forest()
    assert p5.girth() is None
    c5 = graph_view(build_template(model.cycle(5)))
    assert c5.is_cycle() and c5.girth() == 5 and c5.bipartition() is None
    k4 = graph_view(build_template(model.clique(4)))
    assert k4.is_complete()
