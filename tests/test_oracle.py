import argparse
import random
import sys

import pytest

from cqcsp import cli, model, oracle
from cqcsp import reductions as rd
from cqcsp.model import canonical_query, sentence
from cqcsp.oracle import (
    LEAF,
    BudgetExceededError,
    SignatureError,
    StrategyNode,
    StrategyShapeError,
    ThresholdError,
    evaluate,
    extract_strategy,
    verify_strategy,
)
from cqcsp.textio import parse_sentence, parse_strategy, render_strategy

from conftest import brute_count_eval, graph_sentences


def test_worked_examples(zoo):
    assert evaluate(zoo["K3"], canonical_query(zoo["K3"]))
    s = parse_sentence("E2 x E2 y | E(x,y)")
    assert not evaluate(zoo["K2"], s)
    assert evaluate(zoo["K3"], s)
    assert evaluate(zoo["C4"], parse_sentence("A x E1 y | E(x,y)"))


def test_threshold_out_of_range_is_error(zoo):
    with pytest.raises(ThresholdError):
        evaluate(zoo["K2"], parse_sentence("E3 x | E(x,x)"))


def test_signature_mismatch_is_error(zoo):
    with pytest.raises(SignatureError):
        evaluate(zoo["K2"], parse_sentence("E1 x | R(x,x,x)"))
    with pytest.raises(SignatureError):
        evaluate(zoo["K2"], parse_sentence("E1 x | E(x,x,x)"))


def test_extract_strategy_on_c4(zoo):
    s = parse_sentence("E2 x E2 y | E(x,y)")
    w = extract_strategy(zoo["C4"], s)
    # canonical tie-breaking picks the smallest winning elements
    assert w.offer == (0, 1)
    assert verify_strategy(zoo["C4"], s, w)
    # the alternating-classes strategy is also accepted
    alternating = StrategyNode(
        (0, 2),
        (
            StrategyNode((1, 3), (LEAF, LEAF)),
            StrategyNode((1, 3), (LEAF, LEAF)),
        ),
    )
    assert verify_strategy(zoo["C4"], s, alternating)


def test_extract_strategy_none_on_no_instance(zoo):
    tri = parse_sentence("E2 x E2 y E2 z | E(x,y) & E(y,z) & E(z,x)")
    assert extract_strategy(zoo["C4"], tri) is None


def test_verify_strategy_rejects_bad_leaf(zoo):
    s = parse_sentence("E2 x E2 y | E(x,y)")
    bad = StrategyNode(
        (0, 2),
        (
            StrategyNode((1, 3), (LEAF, LEAF)),
            StrategyNode((1, 2), (LEAF, LEAF)),  # 2 is not adjacent to 2
        ),
    )
    assert not verify_strategy(zoo["C4"], s, bad)


def test_verify_strategy_shape_errors(zoo):
    s = parse_sentence("E2 x E2 y | E(x,y)")
    with pytest.raises(StrategyShapeError):
        verify_strategy(zoo["C4"], s, StrategyNode((0,), (LEAF,)))
    with pytest.raises(StrategyShapeError):
        verify_strategy(zoo["C4"], s, StrategyNode((0, 0), (LEAF, LEAF)))
    deep = StrategyNode(
        (0, 1),
        (
            StrategyNode((1, 3), (StrategyNode((0,), (LEAF,)), LEAF)),
            StrategyNode((0, 2), (LEAF, LEAF)),
        ),
    )
    with pytest.raises(StrategyShapeError):
        verify_strategy(zoo["C4"], s, deep)
    with pytest.raises(StrategyShapeError, match="^offered element out of range at depth 0$"):
        verify_strategy(zoo["C4"], s, StrategyNode((0, 4), (LEAF, LEAF)))
    with pytest.raises(StrategyShapeError, match="^child count mismatch at depth 0$"):
        verify_strategy(zoo["C4"], s, StrategyNode((0, 1), (LEAF,)))


def test_empty_sentence_with_empty_tree(zoo):
    s = sentence([], [])
    assert evaluate(zoo["K2"], s)
    assert verify_strategy(zoo["K2"], s, LEAF)
    assert extract_strategy(zoo["K2"], s) == LEAF


def test_evaluate_matches_reference_semantics(zoo):
    for name in ("K3", "C4", "P3"):
        b = zoo[name]
        n = b.domain_size
        for s in graph_sentences(2, range(1, n + 1), max_atoms=3):
            assert evaluate(b, s) == brute_count_eval(b, s), (name, str(s))


def test_strategy_iff_evaluate_exhaustive(zoo):
    """evaluate is true iff extraction returns a verified strategy:
    exhaustive over <= 3 quantifiers, <= 3 atoms, |B| <= 4."""
    for name in ("K2", "C4", "P3", "K4"):
        b = zoo[name]
        n = b.domain_size
        for m in (1, 2, 3):
            for s in graph_sentences(m, range(1, n + 1), max_atoms=3):
                verdict = evaluate(b, s)
                w = extract_strategy(b, s)
                assert (w is not None) == verdict, (name, str(s))
                if w is not None:
                    assert verify_strategy(b, s, w), (name, str(s))


def test_threshold_monotonicity(zoo):
    """Lowering any threshold of a yes-instance keeps it a yes-instance."""
    for name in ("K3", "C4", "K23"):
        b = zoo[name]
        n = b.domain_size
        for s in graph_sentences(2, range(1, n + 1), max_atoms=2):
            if not evaluate(b, s):
                continue
            for pos in range(len(s.prefix)):
                q = s.prefix[pos]
                if q.threshold > 1:
                    lowered = model.Sentence(
                        s.prefix[:pos]
                        + (model.Quantifier(q.threshold - 1, q.variable),)
                        + s.prefix[pos + 1 :],
                        s.atoms,
                    )
                    assert evaluate(b, lowered), (name, str(s), pos)


def test_noncommutativity_witness_found_by_search(zoo):
    """Search for a template and sentence where swapping two adjacent
    quantifiers changes the verdict."""
    found = None
    for name in ("K3", "C4", "K23"):
        b = zoo[name]
        n = b.domain_size
        for s in graph_sentences(2, range(1, n + 1), max_atoms=2):
            swapped = model.Sentence((s.prefix[1], s.prefix[0]), s.atoms)
            if evaluate(b, s) != evaluate(b, swapped):
                found = (name, str(s))
                break
        if found:
            break
    assert found is not None


def test_all_existential_agrees_with_homomorphism(zoo):
    from conftest import brute_hom_exists

    for name in ("K2", "K3", "C4", "P3"):
        b = zoo[name]
        for s in graph_sentences(3, [1], max_atoms=4):
            assert evaluate(b, s) == brute_hom_exists(s, b), (name, str(s))


def test_budget_exceeded(zoo):
    s = parse_sentence("E2 a E2 b E2 c E2 d | E(a,b) & E(b,c) & E(c,d)")
    with pytest.raises(BudgetExceededError):
        evaluate(zoo["C6"], s, budget=3)


def test_budget_env_override(zoo, monkeypatch):
    """On C6 the 4-cycle below takes 6 nodes: a (one Aut(C6)-orbit), b
    (one orbit of Aut(C6)_a), c = a with its two values of d, and c = a + 2,
    which shares one neighbour with a, too few for d, so the answer is no.
    ``budget=3`` stops it; CQ_NODE_BUDGET overrides nothing in the library."""
    monkeypatch.setenv("CQ_NODE_BUDGET", "10000000")
    s = parse_sentence("E2 a E2 b E2 c E2 d | E(a,b) & E(b,c) & E(c,d) & E(d,a)")
    with pytest.raises(BudgetExceededError):
        evaluate(zoo["C6"], s, budget=3)
    assert evaluate(zoo["C6"], s, budget=6) is False


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_budget_env_must_be_a_non_negative_integer(zoo, monkeypatch, value):
    """A bad CQ_NODE_BUDGET is an error naming it where the budget is fixed,
    in the CLI; the oracle, given its budget as an argument, decides as
    without the variable, also where it spends no node."""
    monkeypatch.setenv("CQ_NODE_BUDGET", value)
    with pytest.raises(ValueError, match=f"CQ_NODE_BUDGET must be a non-negative integer, got {value!r}"):
        cli._node_budget(argparse.Namespace(node_budget=None))
    assert evaluate(zoo["K3"], parse_sentence("E1 x | E(x,x)")) is False
    assert cli._node_budget(argparse.Namespace(node_budget=7)) == 7
    monkeypatch.setenv("CQ_NODE_BUDGET", "0")
    assert cli._node_budget(argparse.Namespace(node_budget=None)) == 0


@pytest.mark.parametrize("value", ["0", "abc"])
def test_library_ignores_the_budget_variable(zoo, monkeypatch, value):
    """Library calls take their budget from ``budget=`` alone: with
    CQ_NODE_BUDGET at 0, or not a number, they decide as without it."""
    monkeypatch.setenv("CQ_NODE_BUDGET", value)
    s = parse_sentence("E2 a E2 b E2 c E2 d | E(a,b) & E(b,c) & E(c,d) & E(d,a)")
    assert evaluate(zoo["C6"], s) is False
    assert evaluate(zoo["C4"], s) is True
    assert verify_strategy(zoo["C4"], s, extract_strategy(zoo["C4"], s))


def test_extraction_counts_offer_nodes_against_budget(zoo):
    """E2 x1 ... E2 x25 on K2 is decided in 50 nodes, but its strategy tree
    has 2^25 - 1 offer nodes, each counted against the budget."""
    s = sentence([(2, f"x{i}") for i in range(25)], [])
    assert evaluate(zoo["K2"], s, budget=100)
    with pytest.raises(BudgetExceededError):
        extract_strategy(zoo["K2"], s, budget=1_000)


def _chain(k: int):
    names = [f"x{i}" for i in range(k)]
    return sentence([(1, v) for v in names], [("E", (a, b)) for a, b in zip(names, names[1:])])


def _default_recursion_limit(run):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        return run()
    finally:
        sys.setrecursionlimit(limit)


def test_deep_sentence_is_answered(zoo):
    """Search and extraction keep their state on explicit stacks, so a
    10,000-variable chain is answered at the default recursion limit, and
    its 10,000-level strategy tree verifies.  Rendered, that tree takes
    about 100 MB (the indentation grows with depth), so the text round
    trip runs on the 1,500-level tree of a shorter chain."""
    k2, chain = zoo["K2"], _chain(10_000)
    assert _default_recursion_limit(lambda: evaluate(k2, chain))
    tree = _default_recursion_limit(lambda: extract_strategy(k2, chain))
    assert verify_strategy(k2, chain, tree)
    tree = _default_recursion_limit(lambda: extract_strategy(k2, _chain(1_500)))
    text = render_strategy(tree)
    assert text.count("\n") == 1_500
    assert render_strategy(parse_strategy(text, [1] * 1_500)) == text


# ---------------------------------------------------------------------------
# Interchangeable values


C4_PENDANT = model.general_graph([(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])

VALUE_CLASSES = [
    (model.clique(2), ((0, 1),)),
    (model.clique(5), ((0, 1, 2, 3, 4),)),
    (model.clique(10), (tuple(range(10)),)),
    (model.nae_boolean(), ((0, 1),)),
    (model.complete_bipartite(2, 3), ((0, 1), (2, 3, 4))),
    (model.cycle(4), ((0, 2), (1, 3))),
    (model.reflexive_cycle(4), ((0, 2), (1, 3))),
    (model.star(3), ((0,), (1, 2, 3))),
    (C4_PENDANT, ((0, 2), (1,), (3,), (4,))),
    (model.clique(1), None),
    (model.cycle(5), None),
    (model.cycle(6), None),
    (model.path(4), None),
    (model.path(5), None),
]


@pytest.mark.parametrize("family, classes", VALUE_CLASSES, ids=lambda x: str(x))
def test_value_classes(family, classes):
    b = model.build_template(family)
    assert oracle._value_classes(b) == classes


def test_value_classes_split_by_a_unary_relation():
    """A unary relation splits a class: K3's values form one class until
    ``U`` marks 0."""
    edges = {(a, c) for a in range(3) for c in range(3) if a != c}
    plain = model.make_structure([("E", 2)], 3, {"E": edges})
    marked = model.make_structure([("E", 2), ("U", 1)], 3, {"E": edges, "U": {(0,)}})
    assert oracle._value_classes(plain) == ((0, 1, 2),)
    assert oracle._value_classes(marked) == ((0,), (1, 2))


def test_canonical_context_relabels_inside_classes():
    """On K2,3 (classes {0, 1} and {2, 3, 4}) a context's values are
    relabelled inside their classes in order of first occurrence; a value
    of the context is searched alone and any other for the members of its
    class outside the context."""
    b = model.build_template(model.complete_bipartite(2, 3))
    contexts = oracle._WideContexts(oracle._automorphisms(b))
    key, groups = contexts[(4, 1, 2, 4, 0)]
    assert key == (2, 0, 3, 2, 1)
    assert groups == [0b00001, 0b00010, 0b00100, 0b01000, 0b10000]
    assert contexts[(3, 0, 4, 3, 1)][0] == key
    key, groups = contexts[(4, 2)]
    assert key == (2, 3)
    assert groups == [0b00011, 0b00011, 0b00100, 0b01000, 0b10000]


# ---------------------------------------------------------------------------
# Automorphism orbits


def _orbits(masks):
    """The orbits of per-value orbit masks, each ascending, in order."""
    return sorted({tuple(v for v in range(len(masks)) if m >> v & 1) for m in masks})


C4_PENDANT_FAMILY = model.general_graph([(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])

# family, Aut(B)-orbits, a value a, Aut(B)_a-orbits
AUT_ORBITS = [
    (model.cycle(6), [(0, 1, 2, 3, 4, 5)], 0, [(0,), (1, 5), (2, 4), (3,)]),
    (model.path(5), [(0, 4), (1, 3), (2,)], 2, [(0, 4), (1, 3), (2,)]),
    (model.path(5), [(0, 4), (1, 3), (2,)], 0, [(0,), (1,), (2,), (3,), (4,)]),
    (model.complete_bipartite(3, 3), [(0, 1, 2, 3, 4, 5)], 0, [(0,), (1, 2), (3, 4, 5)]),
    (model.reflexive_cycle(4), [(0, 1, 2, 3)], 0, [(0,), (1, 3), (2,)]),
    (C4_PENDANT_FAMILY, [(0, 2), (1,), (3,), (4,)], 1, [(0, 2), (1,), (3,), (4,)]),
    (C4_PENDANT_FAMILY, [(0, 2), (1,), (3,), (4,)], 0, [(0,), (1,), (2,), (3,), (4,)]),
    (model.nae_boolean(), [(0, 1)], 0, [(0,), (1,)]),
    (model.star(3), [(0,), (1, 2, 3)], 1, [(0,), (1,), (2, 3)]),
]


@pytest.mark.parametrize("family, orbits, a, stabiliser", AUT_ORBITS, ids=lambda x: str(x))
def test_automorphism_orbits(family, orbits, a, stabiliser):
    sym = oracle._automorphisms(model.build_template(family))
    key, masks = sym[()]
    assert key == () and _orbits(masks) == orbits
    rep, masks = sym[a]
    assert rep == min(next(o for o in orbits if a in o))
    assert _orbits(masks) == stabiliser


def test_automorphism_orbits_beyond_transpositions():
    """C6 and K3,3 are vertex-transitive; no transposition of C6 is an
    automorphism, and those of K3,3 keep its two sides apart.  K1's group
    is trivial, so it gets no tables."""
    c6 = model.build_template(model.cycle(6))
    k33 = model.build_template(model.complete_bipartite(3, 3))
    assert oracle._value_classes(c6) is None
    assert oracle._value_classes(k33) == ((0, 1, 2), (3, 4, 5))
    assert _orbits(oracle._automorphisms(k33)[()][1]) == [(0, 1, 2, 3, 4, 5)]
    assert oracle._automorphisms(model.build_template(model.clique(1))) is None
    assert oracle._automorphisms(c6) is oracle._automorphisms(c6)


def test_latin_square_orbits_need_the_automorphism_check():
    """In the table of a Latin square any two positions of a tuple fix the
    third, so counts per pair of positions split off only the values that
    some tuple repeats, and the refined colourings of a pair search match;
    only checking each permutation against the relation shows that this
    square has no automorphism but the identity."""
    rows = [[4, 1, 0, 3, 2], [0, 2, 1, 4, 3], [1, 3, 2, 0, 4], [2, 4, 3, 1, 0], [3, 0, 4, 2, 1]]
    table = {(i, j, c) for i, row in enumerate(rows) for j, c in enumerate(row)}
    b = model.make_structure([("T", 3)], 5, {"T": table})
    assert oracle._automorphisms(b) is None


# A path of 41 vertices with the chord 1-3 and a pendant 41 at vertex 20:
# every automorphism fixes the leaf 0 (the only leaf next to a vertex of
# degree 3 on a triangle), so it fixes everything.
RIGID = "graph:" + ",".join(
    [f"{i}-{i + 1}" for i in range(40)] + ["1-3", "20-41"]
)


@pytest.mark.parametrize("spec, orbits, a, stabiliser", [
    ("path:300", 150, 0, 300),
    ("cycle:300", 1, 0, 151),
    ("star:300", 2, 1, 3),
    (RIGID, 42, 0, 42),
])
def test_automorphism_orbits_of_large_templates(spec, orbits, a, stabiliser):
    """Refinement and capped pair searches keep large templates cheap and
    free of recursion; the counts are exact for these groups."""
    b = model.build_template(model.parse_family_spec(spec))
    sym = oracle._Automorphisms(b, oracle._value_classes(b))
    assert len(_orbits(sym[()][1])) == orbits
    assert len(_orbits(sym[a][1])) == stabiliser


def test_orbit_grouped_targets_within_budget():
    """Grouping candidates by Aut(C6)-orbit at context-free nodes and by
    Aut(C6)_a-orbit at nodes with one context value: these targets took
    51,137, 3,715 and 40,625 nodes when only transpositions were used."""
    assert not evaluate(*_target("even-cycle", {"n": 6, "j": 2}, "A u A v | E(u,v)"), budget=30_000)
    triangle = "E1 u E1 v E1 t | E(u,v) & E(v,t) & E(t,u)"
    assert evaluate(*_target("even-cycle-csp", {"n": 6, "j": 2}, triangle), budget=1_500)
    assert not evaluate(*_target("even-cycle-csp", {"n": 6, "j": 2}, K4_SOURCE), budget=15_000)


def test_clique_gj_target_within_budget():
    """The clique-gj target of E1 u E10 v on K10 (over K5) is decided in
    about 1,300 nodes; searched value by value, it takes about 71,000."""
    rule = rd.rule("clique-gj", j=2)
    source = parse_sentence("E1 u E10 v | E(u,v)")
    target, compiled = rd.compile_rule(rule, rule.source_template(), source)
    assert not evaluate(rule.source_template(), source)
    assert not evaluate(target, compiled, budget=5_000)


# ---------------------------------------------------------------------------
# Order of commuting quantifier runs


def _order(thresholds, n, atoms):
    return oracle._commuting_order(thresholds, n, atoms) or list(range(len(thresholds)))


def _commuting_runs(thresholds, n):
    """Each position's maximal run of equal thresholds 1 or n, else None."""
    runs = []
    for p, j in enumerate(thresholds):
        if j in (1, n) and p and thresholds[p - 1] == j and runs[-1] is not None:
            runs.append(runs[-1])
        else:
            runs.append(p if j in (1, n) else None)
    return runs


def _reference_order(thresholds, n, atoms):
    """Maximum-cardinality search inside each commuting run, by rescanning
    the unplaced positions at each step."""
    m = len(thresholds)
    near = [set() for _ in range(m)]
    for idxs in atoms:
        for p in idxs:
            near[p].update(q for q in idxs if q != p)
    runs = _commuting_runs(thresholds, n)
    order = []
    p = 0
    while p < m:
        run = [q for q in range(p, m) if runs[q] is not None and runs[q] == runs[p]] or [p]
        while run:
            placed = set(order)
            best = max(run, key=lambda q: (len(near[q] & placed), -q))
            order.append(best)
            run.remove(best)
        p = len(order)
    return order


def test_commuting_order_on_examples():
    # x3 shares an atom with x0, so it goes first in the run x1 x2 x3;
    # then x2, which shares an atom with x3, then x1
    assert _order([2, 1, 1, 1], 3, [(0, 3), (3, 2), (1, 2)]) == [0, 3, 2, 1]
    # x1 and x3 each share an atom with x0: the tie goes to x1, then x3
    # has a placed neighbour and x2 none
    assert _order([2, 1, 1, 1], 3, [(0, 1), (0, 3)]) == [0, 1, 3, 2]
    # the same on a run of for-all positions; threshold n commutes
    assert _order([2, 3, 3, 3], 3, [(0, 1), (0, 3)]) == [0, 1, 3, 2]
    # a run ends where the threshold changes, even from 1 to n
    assert _order([1, 1, 3, 3], 3, [(0, 3), (1, 2)]) == [0, 1, 2, 3]
    assert _order([1, 1, 3, 3], 3, [(1, 3)]) == [0, 1, 3, 2]
    # on K2 a middle threshold does not exist: 1 and 2 each commute
    assert _order([1, 1, 2, 2], 2, [(0, 3)]) == [0, 1, 3, 2]


def test_commuting_order_keeps_chains_and_runless_prefixes():
    chain = [(i, i + 1) for i in range(29)]
    assert oracle._commuting_order([1] * 30, 3, chain) is None
    assert oracle._commuting_order([3] * 30, 3, chain[::-1]) is None
    # no run of two commuting positions: the order is the prefix order,
    # however the atoms link them
    star = [(0, i) for i in range(1, 5)]
    assert oracle._commuting_order([2, 2, 2, 2, 2], 3, star[::-1]) is None
    assert oracle._commuting_order([1, 3, 1, 3, 2], 3, star[::-1]) is None
    assert oracle._commuting_order([1, 2, 1, 2, 1], 4, [(4, 0), (2, 1)]) is None
    assert oracle._commuting_order([], 3, []) is None


def test_commuting_order_matches_reference():
    """On drawn prefixes, the order is a permutation that moves positions
    only inside their run of threshold 1 or n, and it is the rescanning
    maximum-cardinality search with ties to the lower position."""
    rng = random.Random(11)
    for _ in range(2_000):
        m = rng.randint(1, 12)
        n = rng.randint(2, 4)
        thresholds = [rng.choice((1, 1, n, n, 2)) for _ in range(m)]
        atoms = [
            tuple(rng.randrange(m) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 2 * m))
        ]
        order = _order(thresholds, n, atoms)
        assert sorted(order) == list(range(m))
        runs = _commuting_runs(thresholds, n)
        for i, p in enumerate(order):
            assert p == i or (runs[p] is not None and runs[p] == runs[i]), (thresholds, atoms)
        assert order == _reference_order(thresholds, n, atoms), (thresholds, atoms)


def _target(name, params, text):
    rule = rd.rule(name, **params)
    return rd.compile_rule(rule, rule.source_template(), parse_sentence(text))


K4_SOURCE = "E1 a E1 b E1 c E1 d | E(a,b) & E(a,c) & E(a,d) & E(b,c) & E(b,d) & E(c,d)"


def test_gadget_targets_within_budget():
    """The run of E1 variables that ends each of these targets is searched
    next to its placed neighbours: in prefix order the girth target takes
    about 42,500 nodes, the even-cycle one 40,500 and the K4 frontier
    160,500."""
    c6 = model.build_template(model.cycle(6))
    assert evaluate(*_target("girth-isolation", {"h": c6}, "E1 u E1 v | E(u,v)"), budget=2_000)
    assert evaluate(*_target("even-cycle", {"n": 6, "j": 2}, "A u E1 v | E(u,v)"), budget=12_000)
    assert not evaluate(*_target("even-cycle-csp", {"n": 6, "j": 2}, K4_SOURCE), budget=60_000)


C6 = model.build_template(model.cycle(6))

# (rule, parameters, source sentence, nodes the target's search takes,
# verdict): the benchmark's gadget targets and the K4 frontier
PINNED_TARGETS = [
    ("clique-gj", {"j": 2}, "E1 u E10 v | E(u,v)", 1_311, False),
    ("clique-gj", {"j": 2}, "E10 u E10 v | E(u,v)", 734, False),
    ("clique-gj", {"j": 2}, "E10 u E1 v | E(u,v)", 70, True),
    ("even-cycle", {"n": 6, "j": 2}, "A u E1 v | E(u,v)", 6_053, True),
    ("even-cycle", {"n": 6, "j": 2}, "A u A v | E(u,v)", 23_558, False),
    ("even-cycle", {"n": 6, "j": 2}, "E1 u E1 v | E(u,v)", 186, True),
    ("even-cycle-csp", {"n": 6, "j": 2}, "E1 u | E(u,u)", 515, False),
    ("even-cycle-csp", {"n": 6, "j": 2}, "E1 u E1 v | E(u,v)", 186, True),
    ("even-cycle-csp", {"n": 6, "j": 2}, "E1 u E1 v E1 t | E(u,v) & E(v,t) & E(t,u)", 986, True),
    ("girth-isolation", {"h": C6}, "E1 u | E(u,u)", 520, False),
    ("girth-isolation", {"h": C6}, "E1 u E1 v | E(u,v)", 192, True),
    ("reflexive-c4", {}, "E1 u A v | E(u,v)", 424, False),
    ("reflexive-c4", {}, "A u A v | E(u,v)", 841, False),
    ("even-cycle-csp", {"n": 6, "j": 2}, K4_SOURCE, 11_344, False),
]


@pytest.mark.parametrize(
    "name, params, text, nodes, verdict",
    PINNED_TARGETS,
    ids=[f"{name}:{text.split(' |')[0]}" for name, _, text, _, _ in PINNED_TARGETS],
)
def test_node_counts_pinned_through_the_budget(name, params, text, nodes, verdict):
    """Each target's search takes exactly ``nodes`` nodes: it is decided
    within that budget and stops one node short of it."""
    target, compiled = _target(name, params, text)
    assert evaluate(target, compiled, budget=nodes) is verdict
    with pytest.raises(BudgetExceededError) as info:
        evaluate(target, compiled, budget=nodes - 1)
    assert info.value.nodes == nodes


# (template, sentence, verdict, nodes): small sentences, one for each
# branch the compile takes
PINNED_SMALL = [
    ("clique:4", "E2 x E3 y E1 z | E(x,y) & E(y,z) & E(x,z)", True, 3),  # _WideContexts
    ("cycle:5", "E2 x E1 y E2 z | E(x,y) & E(y,z)", True, 3),  # one-position contexts
    ("cycle:6", "E1 x E2 y E1 z E1 w | E(x,y) & E(y,z) & E(z,w) & E(w,x)", True, 4),  # no table
    ("nae", "A x E2 y E1 z | R(x,y,z) & R(y,z,x)", True, 6),  # arity-3 atoms
    ("path:4", "E1 x E1 y E1 z | E(x,y) & E(z,y) & E(y,y)", False, 2),  # loop mask
    ("graph:0-1,1-2,2-3,0-3,3-4", "E3 a E1 b E1 c E5 d | E(a,d) & E(b,d) & E(d,c) & E(a,b)",
     False, 20),  # three-position context, run kept in prefix order
    ("path:5", "E1 x E1 y E1 z E1 w | E(x,w) & E(w,y) & E(y,z)", True, 4),  # run reordered
    ("reflexive-cycle:4", "A x A y E1 z | E(x,z) & E(y,z)", True, 7),  # run of for-alls
    ("clique:3", "E1 x E2 y |", True, 2),  # empty matrix
]


@pytest.mark.parametrize(
    "family, text, verdict, nodes", PINNED_SMALL, ids=[row[0] for row in PINNED_SMALL]
)
def test_small_sentence_node_counts_pinned_through_the_budget(family, text, verdict, nodes):
    """Each small sentence takes exactly ``nodes`` nodes: it is decided
    within that budget and stops one node short of it."""
    b = model.build_template(model.parse_family_spec(family))
    s = parse_sentence(text)
    assert evaluate(b, s, budget=nodes) is verdict
    with pytest.raises(BudgetExceededError) as info:
        evaluate(b, s, budget=nodes - 1)
    assert info.value.nodes == nodes


def _stack_depth() -> int:
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_gadget_targets_decided_near_the_recursion_limit():
    """The search nests no Python calls per tree level: with the recursion
    limit 50 frames above the caller, every pinned target is decided,
    although the K4 frontier's component tree is 56 levels high in prefix
    order and 191 after reordering."""
    targets = [
        (_target(name, params, text), verdict) for name, params, text, _, verdict in PINNED_TARGETS
    ]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        verdicts = [evaluate(target, compiled) for (target, compiled), _ in targets]
    finally:
        sys.setrecursionlimit(limit)
    assert verdicts == [verdict for _, verdict in targets]
