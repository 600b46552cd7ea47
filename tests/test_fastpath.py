import itertools
import re

import pytest

from cqcsp import fastpath as fp
from cqcsp import model, oracle
from cqcsp.fastpath import ComplexityClass as CC
from cqcsp.fastpath import PreconditionError
from cqcsp.model import (
    BoundedPrefix,
    Quantifier,
    Sentence,
    build_template,
    threshold_set,
)
from cqcsp.textio import parse_sentence

from conftest import brute_count_eval, complete_bipartite_gate_failures, graph_sentences, matrices


def test_all_universal_examples(zoo):
    assert not fp.decide(fp.ALL_UNIVERSAL, zoo["K2"], parse_sentence("A x A y | E(x,y)"))
    assert fp.decide(fp.ALL_UNIVERSAL, zoo["C4star"], parse_sentence("A x | E(x,x)"))
    with pytest.raises(PreconditionError, match=r"^decider needs every threshold equal to \|B\|$"):
        fp.decide(fp.ALL_UNIVERSAL, zoo["K3"], parse_sentence("E1 x | E(x,x)"))


def test_all_universal_agrees_with_oracle(zoo):
    for name in ("K2", "K3", "C4", "C4star", "P3"):
        b = zoo[name]
        n = b.domain_size
        for s in graph_sentences(2, [n], max_atoms=3):
            assert fp.decide(fp.ALL_UNIVERSAL, b, s) == oracle.evaluate(b, s), (name, str(s))


def test_clique_high_thresholds_examples(zoo):
    assert fp.decide(fp.CLIQUE_HIGH, zoo["K3"], parse_sentence("E2 x E2 y | E(x,y)"))
    # a centre with n - threshold + 1 = 3 earlier neighbours on the 5-clique
    s = parse_sentence("E3 a E3 b E3 c E3 x | E(a,x) & E(b,x) & E(c,x)")
    assert not fp.decide(fp.CLIQUE_HIGH, build_template(model.clique(5)), s)
    assert fp.decide(fp.CLIQUE_HIGH, zoo["K4"], parse_sentence("E3 x E4 y |"))
    with pytest.raises(PreconditionError, match="^decider needs every threshold above n/2$"):
        fp.decide(fp.CLIQUE_HIGH, zoo["K4"], parse_sentence("E2 x | E(x,x)"))


def test_clique_star_criterion_is_order_sensitive(zoo):
    """Search for a sentence where permuting the prefix flips the verdict."""
    found = None
    b = build_template(model.clique(5))
    for s in graph_sentences(3, [3, 4, 5], max_atoms=3):
        rev = Sentence(tuple(reversed(s.prefix)), s.atoms)
        if fp.decide(fp.CLIQUE_HIGH, b, s) != fp.decide(fp.CLIQUE_HIGH, b, rev):
            assert oracle.evaluate(b, s) != oracle.evaluate(b, rev)
            found = str(s)
            break
    assert found is not None


def test_cycle_tractable_examples(zoo):
    tri = parse_sentence("E2 x E2 y E2 z | E(x,y) & E(y,z) & E(z,x)")
    assert not fp.decide(fp.CYCLE, zoo["C4"], tri)
    # threshold >= 3 with a predecessor is impossible whatever the fragment
    assert not fp.decide(fp.CYCLE, zoo["C6"], parse_sentence("E1 x E4 y | E(x,y)"))
    assert fp.decide(fp.CYCLE, zoo["C6"], parse_sentence("E3 x E2 y | E(x,y)"))
    assert oracle.evaluate(zoo["C6"], parse_sentence("E3 x E2 y | E(x,y)"))
    with pytest.raises(
        PreconditionError, match=r"^threshold set \[1, 2\] on the 6-cycle is not tractable$"
    ):
        fp.decide(fp.CYCLE, zoo["C6"], parse_sentence("E1 x E2 y | E(x,y)"))


def test_cycle_tractable_even_high_branch(zoo):
    s = parse_sentence("E4 x E1 y | E(x,y)")
    assert fp.decide(fp.CYCLE, zoo["C6"], s)
    assert oracle.evaluate(zoo["C6"], s)
    s = parse_sentence("E1 y E4 x | E(x,y)")
    assert not fp.decide(fp.CYCLE, zoo["C6"], s)
    assert not oracle.evaluate(zoo["C6"], s)


def test_complete_bipartite_examples(zoo):
    assert fp.decide(fp.COMPLETE_BIPARTITE, zoo["K23"], parse_sentence("E2 x E2 y | E(x,y)"))
    assert not fp.decide(fp.COMPLETE_BIPARTITE, zoo["K23"], parse_sentence("E1 x E5 y | E(x,y)"))
    assert fp.decide(fp.COMPLETE_BIPARTITE, zoo["K2"], parse_sentence("E1 x E1 y | E(x,y)"))
    with pytest.raises(oracle.ThresholdError):
        fp.decide(fp.COMPLETE_BIPARTITE, zoo["K2"], parse_sentence("E3 x |"))


def test_small_partition_examples(zoo):
    s = parse_sentence("E3 x E3 y | E(x,y)")
    assert not fp.decide(fp.SMALL_BIPARTITION, zoo["P3"], s)
    assert fp.decide(fp.SMALL_BIPARTITION, zoo["P3"], parse_sentence("E3 x |"))
    with pytest.raises(PreconditionError, match="^template is not bipartite$"):
        fp.decide(fp.SMALL_BIPARTITION, zoo["K3"], s)
    with pytest.raises(PreconditionError, match="^a component has a colour class of size >= j$"):
        fp.decide(fp.SMALL_BIPARTITION, zoo["P5"], s)


def test_small_partition_counts_extendable_values():
    # one edge plus isolated vertices: a threshold-3 variable with an edge
    # constraint has only the two edge endpoints available
    h = model.graph_structure(6, [(0, 1)])
    s = parse_sentence("E3 x E1 y | E(x,y)")
    assert not fp.decide(fp.SMALL_BIPARTITION, h, s)
    assert not oracle.evaluate(h, s)
    assert fp.decide(fp.SMALL_BIPARTITION, h, parse_sentence("E3 x |"))


def test_bipartite_with_c4_examples(zoo):
    tri = parse_sentence("E2 x E2 y E2 z | E(x,y) & E(y,z) & E(z,x)")
    assert not fp.decide(fp.C4_CONTAINMENT, zoo["C4"], tri)
    assert fp.decide(fp.C4_CONTAINMENT, zoo["K23"], parse_sentence("E2 x E2 y | E(x,y)"))
    with pytest.raises(PreconditionError, match="^template contains no 4-cycle$"):
        fp.decide(fp.C4_CONTAINMENT, zoo["P5"], parse_sentence("E2 x |"))


def test_forest_bounded_prefix_examples(zoo):
    s = parse_sentence("E2 x E1 y | E(x,y)")
    assert fp.decide(fp.FOREST, zoo["P3"], s)
    assert fp.decide(fp.FOREST, zoo["K2"], s)
    assert not fp.decide(fp.FOREST, model.graph_structure(2, []), s)
    with pytest.raises(
        PreconditionError, match="^prefix is not in the bounded 2-then-1 fragment$"
    ):
        fp.decide(fp.FOREST, zoo["P3"], parse_sentence("E1 y E2 x | E(x,y)"))


def test_forest_decider_is_adaptive(zoo):
    """The pair offered for the second block variable may depend on the
    first one's outcome; a non-adaptive pair choice would reject this."""
    s = parse_sentence("E2 x E2 y | E(x,y)")
    assert fp.decide(fp.FOREST, zoo["P4"], s)
    assert oracle.evaluate(zoo["P4"], s)


@pytest.mark.parametrize("key", ["P4", "P5"])
@pytest.mark.parametrize("block, n_vars", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_forest_decider_agrees_with_semantics_on_threshold_two_blocks(key, block, n_vars, zoo):
    """A threshold-2 variable is won once two values win: the decider's
    count agrees with the counting semantics on every matrix of at most
    three atoms."""
    b = zoo[key]
    names = [f"x{i}" for i in range(n_vars)]
    prefix = tuple(Quantifier(2 if i < block else 1, v) for i, v in enumerate(names))
    for atoms in matrices(n_vars, 3):
        s = Sentence(prefix, atoms)
        assert fp.decide(fp.FOREST, b, s) == brute_count_eval(b, s), str(s)


def test_path5_examples(zoo):
    p5 = zoo["P5"]
    assert not fp.decide(fp.P5_ONE_THREE, p5, parse_sentence("E3 x E3 y | E(x,y)"))
    assert fp.decide(fp.P5_ONE_THREE, p5, parse_sentence("E3 x |"))
    assert fp.decide(fp.P5_ONE_THREE, p5, parse_sentence("E3 x E1 y | E(x,y)"))
    assert not fp.decide(fp.P5_ONE_THREE, p5, parse_sentence("E1 y E3 x | E(x,y)"))
    with pytest.raises(PreconditionError, match=r"^thresholds must lie in \{1, 3\}$"):
        fp.decide(fp.P5_ONE_THREE, p5, parse_sentence("E2 x |"))


@pytest.mark.parametrize("matrix", ["F(x,y)", "E(x,y) & R(x,y,y)"])
def test_template_deciders_reject_foreign_relations(matrix, zoo):
    """A relation the template lacks is a SignatureError, as in the oracle,
    not an answer."""
    with pytest.raises(oracle.SignatureError):
        oracle.evaluate(zoo["P3"], parse_sentence(f"E2 x E1 y | {matrix}"))
    with pytest.raises(oracle.SignatureError):
        fp.decide(fp.C4_CONTAINMENT, zoo["C4"], parse_sentence(f"E1 x E1 y | {matrix}"))
    with pytest.raises(oracle.SignatureError):
        fp.decide(fp.SMALL_BIPARTITION, zoo["P3"], parse_sentence(f"E3 x E1 y | {matrix}"))
    with pytest.raises(oracle.SignatureError):
        fp.decide(fp.FOREST, zoo["P3"], parse_sentence(f"E2 x E1 y | {matrix}"))
    universal = parse_sentence(f"A x A y | {matrix}")
    with pytest.raises(oracle.SignatureError):
        fp.decide(fp.ALL_UNIVERSAL, zoo["K2"], universal)
    tag, thunk = fp.dispatch(zoo["K2"], universal)
    assert tag == fp.ALL_UNIVERSAL.tag
    with pytest.raises(oracle.SignatureError):
        thunk()


def test_small_partition_answers_without_search(zoo):
    """The small-bipartition decider counts instead of searching: with no
    search budget it still answers, False for a component with two
    threshold-j positions and True for a plain edge with a threshold-j
    variable."""
    s = parse_sentence("E1 a E1 b E3 x E3 y | E(a,b) & E(x,y)")
    assert not fp.decide(fp.SMALL_BIPARTITION, zoo["P3"], s, budget=0)
    s = parse_sentence("E1 a E1 b E3 x | E(a,b)")
    assert fp.decide(fp.SMALL_BIPARTITION, zoo["P3"], s, budget=0)


@pytest.mark.parametrize(
    "n, edges, j",
    [(5, [(0, 1), (2, 3)], 4), (5, [(0, 1), (2, 3)], 5), (3, [], 2)],
    ids=["two-edges-j4", "two-edges-j5", "edgeless-j2"],
)
def test_small_partition_count_at_its_boundary(n, edges, j):
    """Two edges give four vertices with a neighbour: enough for j = 4,
    one short for j = 5.  An edgeless template folds no edge at all.  The
    count agrees with the counting semantics on every sentence of up to
    four variables with a threshold-j variable, those of four capped at
    three atoms."""
    h = model.graph_structure(n, edges)
    for n_vars in (1, 2, 3, 4):
        for s in graph_sentences(n_vars, (1, j), max_atoms=10 if n_vars < 4 else 3):
            if any(q.threshold == j for q in s.prefix):
                assert fp.decide(fp.SMALL_BIPARTITION, h, s) == brute_count_eval(h, s), str(s)


def _chain(threshold: int, k: int) -> Sentence:
    names = [f"x{i}" for i in range(k)]
    return parse_sentence(
        " ".join(f"E{threshold} {v}" for v in names)
        + " | "
        + " & ".join(f"E({a},{b})" for a, b in zip(names, names[1:]))
    )


def test_forest_decider_costs_what_the_oracle_does(zoo):
    """The forest decider runs the oracle: a 12-long chain of threshold-2
    variables takes a handful of nodes, where a game of pinned sub-games
    would take |B|^12, and a 1,500-long existential chain one node per
    variable.  Pinned through the node budget, not the clock."""
    s = _chain(2, 12)
    assert not fp.decide(fp.FOREST, zoo["P4"], s, budget=50)
    assert not oracle.evaluate(zoo["P4"], s, budget=50)
    assert fp.decide(fp.FOREST, zoo["P4"], _chain(1, 1500), budget=1500)


def test_reason_parity(zoo):
    """`decide` raises exactly an entry's ``why_not`` reason as its
    PreconditionError, and answers wherever the reason is None."""
    checked = 0
    for case in fp.TRACTABLE:
        for name, b in zoo.items():
            g = model.graph_view(b)
            if case.graph and (g is None or g.loops):
                continue
            n = b.domain_size
            for length in (1, 2, 3):
                for th in itertools.product(range(1, n + 1), repeat=length):
                    s = Sentence(tuple(Quantifier(t, f"x{i}") for i, t in enumerate(th)), ())
                    reason = case.why_not(n, g if case.graph else None, list(th))
                    try:
                        fp.decide(case, b, s)
                        raised = None
                    except PreconditionError as exc:
                        raised = str(exc)
                    assert raised == reason, (case.tag, name, th)
                    checked += 1
    assert checked > 5000
    # an empty prefix has no heavy threshold, and asks for no max() of nothing
    assert fp.SMALL_BIPARTITION.why_not(4, model.graph_view(zoo["P4"]), []) == "needs j >= 2"


def test_cycle_decider_raises_outside_its_tractable_sets(zoo):
    """On a threshold set that is not tractable the cycle decider raises
    the reason, also where a necessary claim of the cycle would already
    answer no."""
    reason = fp.CYCLE.why_not(6, model.graph_view(zoo["C6"]), [1, 3])
    assert reason == "threshold set [1, 3] on the 6-cycle is not tractable"
    for text in ("E1 x E3 y | E(x,y)", "E1 x E3 y |"):
        with pytest.raises(PreconditionError, match=f"^{re.escape(reason)}$"):
            fp.decide(fp.CYCLE, zoo["C6"], parse_sentence(text))


# ---------------------------------------------------------------------------
# Classifier


def _v(family, frag):
    return fp.classify(family, frag)


def test_classify_spec_examples():
    assert _v(model.clique(5), threshold_set(2)).complexity is CC.PSPACE_COMPLETE
    assert _v(model.clique(6), threshold_set(3)).complexity is CC.OPEN
    assert _v(model.cycle(4), threshold_set(1, 2, 3, 4)).complexity is CC.IN_L
    assert _v(model.clique(3), threshold_set(1)).complexity is CC.NP_COMPLETE
    assert _v(model.reflexive_cycle(4), threshold_set(1, 4)).complexity is CC.PSPACE_COMPLETE
    assert _v(model.forest_from_edges([(0, 1), (1, 2)]), BoundedPrefix(2)).complexity is CC.IN_P


def test_classify_citations():
    assert _v(model.clique(5), threshold_set(2)).citation == "Thm 1 iii"
    assert _v(model.cycle(4), threshold_set(1, 2, 3, 4)).citation == "Thm 2 i"
    assert _v(model.clique(6), threshold_set(3)).citation == ""


def test_classify_cycle_rows():
    assert _v(model.cycle(3), threshold_set(1)).complexity is CC.NP_COMPLETE
    assert _v(model.cycle(6), threshold_set(1)).complexity is CC.IN_L
    assert _v(model.cycle(6), threshold_set(1, 2)).complexity is CC.PSPACE_COMPLETE
    assert _v(model.cycle(6), threshold_set(1, 4)).complexity is CC.IN_L
    assert _v(model.cycle(5), threshold_set(1, 5)).complexity is CC.PSPACE_COMPLETE
    assert _v(model.cycle(6), threshold_set(1, 6)).complexity is CC.IN_L


def test_classify_families():
    assert _v(model.complete_bipartite(2, 3), threshold_set(1, 2, 5)).complexity is CC.IN_L
    assert _v(model.star(4), threshold_set(1, 3)).complexity is CC.IN_L
    assert _v(model.nae_boolean(), threshold_set(1)).complexity is CC.NP_COMPLETE
    assert _v(model.nae_boolean(), threshold_set(1, 2)).complexity is CC.PSPACE_COMPLETE
    assert _v(model.single_quantifier_template(5, 2), threshold_set(2)).complexity is CC.PSPACE_COMPLETE
    assert _v(model.single_quantifier_template(5, 2), threshold_set(5)).complexity is CC.IN_L
    assert _v(model.hj_template(4), threshold_set(1, 4)).complexity is CC.PSPACE_COMPLETE
    assert _v(model.hairy_cycle(6), BoundedPrefix(9)).complexity is CC.NP_COMPLETE
    assert _v(model.hj_template(4), BoundedPrefix(2)).complexity is CC.IN_P
    assert _v(model.path(5), threshold_set(1, 3)).complexity is CC.IN_L
    assert _v(model.path(5), threshold_set(1, 3)).citation == "Prop P5 {1,3}"
    assert _v(model.path(7), threshold_set(1, 5)).complexity is CC.IN_L
    assert _v(model.cycle(5), BoundedPrefix(1)).complexity is CC.NP_COMPLETE
    assert _v(model.cycle(4), BoundedPrefix(1)).complexity is CC.IN_P
    assert _v(model.reflexive_cycle(4), BoundedPrefix(1)).complexity is CC.OPEN


def test_classify_near_universal_rows_are_open():
    """Bipartite rows {1, j} with j >= |B| - 2 that no theorem or decider
    covers stay Open: loop-free bipartite instance graphs do not decide
    them (the oracle disagrees on path:4 X=1,2)."""
    rows = [
        (model.path(4), threshold_set(1, 2)),
        (model.general_graph([(0, 1), (0, 2), (0, 3), (3, 4)]), threshold_set(1, 3)),
        (model.general_graph([(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]), threshold_set(1, 3)),
    ]
    for family, frag in rows:
        assert _v(family, frag) == fp.ComplexityVerdict(CC.OPEN, ""), str(family)


def test_classify_complete_bipartite_graph_row():
    """K_{2,3} and K_{1,3} given as edge lists are cited by their shape,
    as the complete bipartite family is, at every threshold set.  K_{2,2}
    is the 4-cycle, and is cited as the cycle family is."""
    for spec in ("graph:0-2,0-3,0-4,1-2,1-3,1-4", "forest:0-1,0-2,0-3"):
        family = model.parse_family_spec(spec)
        for X in ((1,), (2, 3), (4,)):
            verdict = str(_v(family, threshold_set(*X)))
            assert verdict == "L (Prop complete-bipartite)", (spec, X)
    c4 = model.parse_family_spec("graph:0-2,0-3,1-2,1-3")
    for X in ((1,), (2, 3), (4,)):
        assert str(_v(c4, threshold_set(*X))) == "L (Thm 2 i)", X


def test_classify_rejects_oversized_thresholds():
    with pytest.raises(model.InvalidStructureError):
        fp.classify(model.clique(3), threshold_set(4))


# ---------------------------------------------------------------------------
# Dispatch


def _engine(b, s):
    match = fp.dispatch(b, s)
    return match[0] if match else None


def test_dispatch_routes(zoo):
    assert _engine(zoo["K3"], parse_sentence("A x A y | E(x,y)")) == "all-universal"
    assert _engine(zoo["K3"], parse_sentence("E2 x E2 y | E(x,y)")) == "clique high thresholds"
    assert _engine(zoo["C4"], parse_sentence("E2 x E2 y | E(x,y)")) == "cycle tractable"
    assert _engine(zoo["K23"], parse_sentence("E2 x E4 y | E(x,y)")) == "complete bipartite"
    # P3 is the star with two leaves, so it routes as complete bipartite
    assert _engine(zoo["P3"], parse_sentence("E3 x E1 y | E(x,y)")) == "complete bipartite"
    assert _engine(zoo["P4"], parse_sentence("E3 x E1 y | E(x,y)")) == "small bipartition"
    assert _engine(zoo["P5"], parse_sentence("E3 x E1 y | E(x,y)")) == "P5 {1,3}"
    assert _engine(zoo["P4"], parse_sentence("E2 x E1 y | E(x,y)")) == "forest bounded prefix"
    assert _engine(zoo["C4star"], parse_sentence("E2 x | E(x,x)")) is None
    assert _engine(zoo["C6"], parse_sentence("E1 x E2 y | E(x,y)")) is None
    # an atom on another relation, or on E with another arity, is the oracle's
    assert _engine(zoo["C4"], parse_sentence("E2 x E2 y | F(x,y)")) is None
    assert _engine(zoo["C4"], parse_sentence("E2 x E2 y | E(x,y,x)")) is None


def test_dispatch_c4_containment():
    h = model.graph_structure(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
    s = parse_sentence("E2 x E2 y | E(x,y)")
    assert _engine(h, s) == "C4 containment"


def test_dispatch_verdicts_match_oracle(zoo):
    for name in ("K3", "C4", "K23", "P3", "P5"):
        b = zoo[name]
        n = b.domain_size
        for s in graph_sentences(2, range(1, n + 1), max_atoms=2):
            match = fp.dispatch(b, s)
            if match is not None:
                tag, thunk = match
                verdict = thunk()
                assert verdict == oracle.evaluate(b, s), (name, tag, str(s))
                case = next(c for c in fp.TRACTABLE if c.tag == tag)
                assert fp.decide(case, b, s) == verdict, (name, tag, str(s))


def test_complete_bipartite_gate_small():
    assert complete_bipartite_gate_failures(
        sides=((1, 2),), exhaustive_vars=2, random_cases=100
    ) == []
