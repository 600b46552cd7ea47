import itertools

import pytest

from cqcsp import model, oracle
from cqcsp import reductions as rd
from cqcsp.model import canonical_query, sentence
from cqcsp.oracle import (
    LEAF,
    BudgetExceededError,
    SearchDepthError,
    SignatureError,
    StrategyNode,
    StrategyShapeError,
    ThresholdError,
    evaluate,
    extract_strategy,
    solve_retraction,
    verify_strategy,
)
from cqcsp.textio import parse_sentence

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
    monkeypatch.setenv(oracle.BUDGET_ENV_VAR, "3")
    s = parse_sentence("E2 a E2 b E2 c | E(a,b) & E(b,c)")
    with pytest.raises(BudgetExceededError):
        evaluate(zoo["C6"], s)


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


def test_deep_sentence_is_a_depth_error(zoo):
    """A component tree deeper than the interpreter can recurse raises a
    budget error naming the depth, not RecursionError."""
    with pytest.raises(SearchDepthError) as info:
        evaluate(zoo["K2"], _chain(1500))
    assert isinstance(info.value, BudgetExceededError)
    assert info.value.depth > 1500
    assert "search depth" in str(info.value)
    with pytest.raises(SearchDepthError):
        extract_strategy(zoo["K2"], _chain(1500))
    assert evaluate(zoo["K2"], _chain(900))
    assert verify_strategy(zoo["K2"], _chain(900), extract_strategy(zoo["K2"], _chain(900)))


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
    """Constants do not split a class, a unary relation does."""
    edges = {(a, c) for a in range(3) for c in range(3) if a != c}
    plain = model.make_structure([("E", 2)], 3, {"E": edges}, {"c": 0})
    marked = model.make_structure([("E", 2), ("U", 1)], 3, {"E": edges, "U": {(0,)}})
    assert oracle._value_classes(plain) == ((0, 1, 2),)
    assert oracle._value_classes(marked) == ((0,), (1, 2))


def test_canonical_context_relabels_inside_classes():
    _, members, _ = oracle._orbit_tables(model.build_template(model.complete_bipartite(2, 3)))
    key, taken = oracle._canonical_context((4, 1, 2, 4, 0), members)
    assert key == (2, 0, 3, 2, 1)
    assert taken == 0b10111
    assert oracle._canonical_context((3, 0, 4, 3, 1), members)[0] == key


def test_clique_gj_target_within_budget():
    """The clique-gj target of E1 u E10 v on K10 (over K5) is decided in
    about 1,300 nodes; searched value by value, it takes about 71,000."""
    rule = rd.rule("clique-gj", j=2)
    source = parse_sentence("E1 u E10 v | E(u,v)")
    target, compiled = rd.compile_rule(rule, rule.source_template(), source)
    assert not evaluate(rule.source_template(), source)
    assert not evaluate(target, compiled, budget=5_000)


# ---------------------------------------------------------------------------
# Retraction


def test_retraction_identity():
    k2 = model.make_structure(
        [("E", 2)], 2, {"E": {(0, 1), (1, 0)}}, {"a": 0, "b": 1}
    )
    assert solve_retraction(k2, k2)


def test_retraction_path_pinned_endpoints():
    p3 = model.make_structure(
        [("E", 2)], 3, {"E": {(0, 1), (1, 0), (1, 2), (2, 1)}}, {"ca": 0, "cc": 0}
    )
    inst = model.make_structure(
        [("E", 2)], 3, {"E": {(0, 1), (1, 0), (1, 2), (2, 1)}}, {"ca": 0, "cc": 2}
    )
    assert solve_retraction(p3, inst)


def test_retraction_parity_obstruction(zoo):
    inst = model.make_structure(
        [("E", 2)],
        3,
        {"E": {(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)}},
    )
    assert not solve_retraction(zoo["C4"], inst)


def test_retraction_signature_checks(zoo):
    inst = model.make_structure([("R", 1)], 1, {"R": {(0,)}})
    with pytest.raises(SignatureError):
        solve_retraction(zoo["C4"], inst)
    inst = model.make_structure([("E", 2)], 1, {"E": set()}, {"missing": 0})
    with pytest.raises(SignatureError):
        solve_retraction(zoo["C4"], inst)


def test_retraction_matches_brute_force(zoo):
    """Backtracking+propagation agrees with exhaustive search on random
    pinned instances."""
    import random

    rng = random.Random(7)
    h = model.make_structure(
        [("E", 2)],
        4,
        {"E": {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}},
        {f"e{i}": i for i in range(4)},
    )
    for _ in range(300):
        n = rng.randint(1, 4)
        edges = set()
        for _ in range(rng.randint(0, 5)):
            a, b = rng.randrange(n), rng.randrange(n)
            edges.add((a, b))
            edges.add((b, a))
        consts = {}
        for v in range(n):
            if rng.random() < 0.4:
                consts[f"e{rng.randrange(4)}"] = v
        inst = model.make_structure([("E", 2)], n, {"E": edges}, consts)
        got = solve_retraction(h, inst)
        want = False
        for assign in itertools.product(range(4), repeat=n):
            if any(assign[v] != h.constants[c] for c, v in inst.constants.items()):
                continue
            if all((assign[a], assign[b]) in h.tuples("E") for a, b in edges):
                want = True
                break
        assert got == want
