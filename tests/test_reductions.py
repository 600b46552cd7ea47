import math
import re

import pytest

from cqcsp import model, reductions as rd
from cqcsp.model import (
    InvalidStructureError,
    Quantifier,
    Sentence,
    build_template,
    make_structure,
)
from cqcsp.textio import parse_sentence, render_sentence
from cqcsp.oracle import evaluate

from conftest import brute_count_eval
from test_golden import RULES as GOLDEN_RULES, _params


def _closure_with_pins(template, gadget, pins):
    """Evaluate a gadget's quantified closure under fixed attachment values
    by pinning attachments through fresh unary relations."""
    sig = [(name, arity) for name, arity in template.signature.relations]
    rels = {name: set(template.tuples(name)) for name in template.signature.names()}
    atoms = list(gadget.atoms)
    prefix = []
    for i, (var, value) in enumerate(sorted(pins.items())):
        rname = f"Pin{i}"
        sig.append((rname, 1))
        rels[rname] = {(value,)}
        atoms.append((rname, (var,)))
        prefix.append(Quantifier(1, var))
    prefix.extend(gadget.quantifiers)
    s = Sentence(tuple(prefix), tuple(atoms))
    t = make_structure(sig, template.domain_size, rels)
    return evaluate(t, s)


def _compile(r, source):
    """Compile ``source`` under rule ``r`` from the rule's own source template."""
    return rd.compile_rule(r, r.source_template(), source)


def test_block_gadget_shape():
    g = rd.block_distinctness_gadget(3, ["x1", "x2", "x3"], ["y1", "y2", "y3"], "e0")
    assert len(g.fresh_variables) == 4
    assert len(g.atoms) == 9 + 3 + 3
    assert [q.threshold for q in g.quantifiers] == [3, 3, 3, 3]
    with pytest.raises(InvalidStructureError):
        rd.block_distinctness_gadget(1, ["x"], ["y"], "e0")


def test_block_gadget_semantics_on_k5():
    """The threshold-2 closure holds iff the two attachment blocks overlap
    in fewer than 2 elements."""
    k5 = build_template(model.clique(5))
    g = rd.block_distinctness_gadget(2, ["x1", "x2"], ["y1", "y2"], "e0")
    for a1 in range(5):
        for a2 in range(5):
            for b1 in range(5):
                for b2 in range(5):
                    want = len({a1, a2} & {b1, b2}) < 2
                    got = _closure_with_pins(
                        k5, g, {"x1": a1, "x2": a2, "y1": b1, "y2": b2}
                    )
                    assert got == want, (a1, a2, b1, b2)


def test_reduce_nae_shape():
    src = parse_sentence("A x E1 y E1 z | R(x,y,z)")
    target, out = _compile(rd.rule("nae", j=2, n=4), src)
    assert target.tuples("U") == frozenset({(0,), (1,)})
    assert [q.threshold for q in out.prefix] == [2, 2, 2]
    assert ("U", ("x",)) in out.atoms
    with pytest.raises(InvalidStructureError):
        _compile(rd.rule("nae", j=1, n=4), src)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reduce_nae_equivalence(n, zoo):
    """Source and target verdicts agree on every <=2-atom sentence with
    <= 3 variables (both simulation cases: low and high threshold)."""
    import itertools

    nae = zoo["NAE"]
    rule = rd.rule("nae", j=2, n=n)
    names = ["x", "y", "z"]
    for m in (1, 2, 3):
        vs = names[:m]
        triples = list(itertools.product(vs, repeat=3))
        matrices = [()] + [(t,) for t in triples]
        if m <= 2:
            matrices += [(t1, t2) for t1 in triples for t2 in triples]
        for prefix_bits in range(1 << m):
            prefix = tuple(
                Quantifier(2 if prefix_bits >> i & 1 else 1, v) for i, v in enumerate(vs)
            )
            for mat in matrices:
                src = Sentence(prefix, tuple(("R", t) for t in mat))
                target, out = _compile(rule, src)
                assert evaluate(nae, src) == evaluate(target, out), (n, str(src))


def test_pad_clique_examples(zoo):
    src = parse_sentence("E2 a E2 b | E(a,b)")
    target, out = _compile(rd.rule("clique-pad", j=2, n=6), src)
    assert target.domain_size == 6
    assert len(out.prefix) == 3
    assert out.prefix[0].variable.startswith("pad~")
    with pytest.raises(InvalidStructureError):
        _compile(rd.rule("clique-pad", j=2, n=5), src)


def test_pad_clique_equivalence():
    import random

    rng = random.Random(3)
    k5 = build_template(model.clique(5))
    rule = rd.rule("clique-pad", j=2, n=6)
    for _ in range(40):
        src = rd._random_graph_sentence(rng, rng.randint(1, 3), 3, [2])
        target, out = _compile(rule, src)
        assert evaluate(k5, src) == evaluate(target, out), str(src)


def test_reduce_clique_one_j_examples():
    src = parse_sentence("A v | E(v,v)")
    target, out = _compile(rd.rule("clique-1j", n=3, j=3), src)
    # j = n collapses a universal to a bare threshold-n quantifier
    assert [q.threshold for q in out.prefix] == [3]
    with pytest.raises(InvalidStructureError):
        _compile(rd.rule("clique-1j", n=3, j=1), src)


@pytest.mark.parametrize("n,j", [(3, 2), (4, 2), (4, 3)])
def test_reduce_clique_one_j_equivalence(n, j):
    import random

    rng = random.Random(5)
    kn = build_template(model.clique(n))
    rule = rd.rule("clique-1j", n=n, j=j)
    for _ in range(40):
        src = rd._random_graph_sentence(rng, rng.randint(1, 3), 3, [1, n])
        target, out = _compile(rule, src)
        assert evaluate(kn, src) == evaluate(target, out), (n, j, str(src))


def test_reduce_clique_blocks_counts():
    src = parse_sentence("A u E1 v | E(u,v)")
    target, out = _compile(rd.rule("clique-gj", j=2), src)
    assert target.domain_size == 5
    # forcing cliques (2 blocks of 3) + two vertex blocks + one edge gadget
    assert len(out.prefix) == 6 + 2 + 2 + 3
    assert all(q.threshold == 2 for q in out.prefix)
    big = math.comb(5, 2)
    assert big == 10


def test_reduce_clique_blocks_equivalence():
    k10 = build_template(model.clique(10))
    rule = rd.rule("clique-gj", j=2)
    cases = [
        "E1 u E1 v | E(u,v)",
        "A u E1 v | E(u,v)",
        "E1 u A v | E(u,v)",
        "A u A v | E(u,v)",
        "E1 u | E(u,u)",
        "E1 u |",
        "A u |",
    ]
    for text in cases:
        src = parse_sentence(text)
        target, out = _compile(rule, src)
        assert evaluate(k10, src) == evaluate(target, out), text


def test_universal_path_gadget_shape():
    g = rd.universal_path_gadget(3, 2, "x")
    assert len(g.fresh_variables) == 3
    assert [q.threshold for q in g.quantifiers] == [2, 2, 2, 2]
    assert len(g.atoms) == 3
    g = rd.universal_path_gadget(5, 3, "x")
    assert len(g.fresh_variables) == 10
    assert [q.threshold for q in g.quantifiers] == [3] * 6 + [1] * 5
    assert len(g.atoms) == 10
    with pytest.raises(InvalidStructureError):
        rd.universal_path_gadget(3, 1, "x")
    with pytest.raises(InvalidStructureError):
        rd.universal_path_gadget(3, 3, "x")


def _path_block_cases(n: int, j: int):
    """The path block alone on the n-cycle, then for each vertex v the
    block with an ``Avoid`` relation that excludes v for its attachment."""
    gadget = rd.universal_path_gadget(n, j, "x")
    base = build_template(model.cycle(n))
    yield True, base, Sentence(gadget.quantifiers, gadget.atoms)
    avoided = Sentence(gadget.quantifiers, gadget.atoms + (("Avoid", ("x",)),))
    edges = set(base.tuples("E"))
    for v in range(n):
        avoid = {(u,) for u in range(n) if u != v}
        template = make_structure([("E", 2), ("Avoid", 1)], n, {"E": edges, "Avoid": avoid})
        yield False, template, avoided


def test_universal_path_gadget_soundness_and_completeness():
    """On every odd n <= 7 and 2 <= j < n, the block holds on its own (the
    prover survives every adversary path), and excluding any one vertex
    for x makes it fail (the adversary can force x onto every vertex)."""
    for n, j in [(n, j) for n in (3, 5, 7) for j in range(2, n)]:
        for want, template, s in _path_block_cases(n, j):
            assert evaluate(template, s) == want, (n, j)
            if n <= 5 and j == 2:
                assert brute_count_eval(template, s) == want, (n, j)


def test_even_cycle_offsets():
    r, alpha = rd.even_cycle_offsets(6, 2)
    assert r == 0
    assert alpha == [0, 1, 2, 3, 4]
    r, alpha = rd.even_cycle_offsets(8, 3)
    assert alpha[-1] == 5
    assert all(alpha[k + 1] - alpha[k] == 2 for k in range(len(alpha) - 1))


_K4_SOURCE = "E1 a E1 b E1 c E1 d | E(a,b) & E(a,c) & E(a,d) & E(b,c) & E(b,d) & E(c,d)"


@pytest.mark.parametrize("name, texts", [
    ("even-cycle", ["E1 u |", "E1 u E1 v | E(u,v)", "A u E1 v | E(u,v)",
                    "E1 u | E(u,u)", "A u A v | E(u,v)"]),
    ("even-cycle-csp", ["E1 u |", "E1 u E1 v | E(u,v)",
                        "E1 u E1 v E1 t | E(u,v) & E(v,t) & E(t,u)",
                        "E1 u | E(u,u)", _K4_SOURCE]),
])
def test_even_cycle_anchoring_path(name, texts, zoo):
    """At n=6, j=3 the offsets give r=1, so the compiled sentence carries
    the anchoring path w~p~0 - w~p~1 - v~c~0; yes and no sources agree."""
    assert rd.even_cycle_offsets(6, 3) == (1, [0, 2, 4])
    rule = rd.rule(name, n=6, j=3)
    verdicts = []
    for text in texts:
        src = parse_sentence(text)
        target, out = _compile(rule, src)
        assert ("E", ("w~p~0", "w~p~1")) in out.atoms
        assert ("E", ("w~p~1", "v~c~0")) in out.atoms
        verdicts.append(evaluate(zoo["K3"], src))
        assert verdicts[-1] == evaluate(target, out), text
    assert verdicts == [True, True, True, False, False]


def test_even_cycle_csp_equivalence(zoo):
    k3 = zoo["K3"]
    rule = rd.rule("even-cycle-csp", n=6, j=2)
    for text in ["E1 u |", "E1 u | E(u,u)", "E1 u E1 v | E(u,v)",
                 "E1 u E1 v E1 t | E(u,v) & E(v,t) & E(t,u)"]:
        src = parse_sentence(text)
        target, out = _compile(rule, src)
        assert target == zoo["C6"]
        assert evaluate(k3, src) == evaluate(target, out, budget=50_000_000), text


def test_even_cycle_csp_triangle_within_budget(zoo):
    """The search splits each suffix into its independent components, so
    the triangle source's target is decided in under 20,000 nodes (a flat
    search of the prefix takes about 35,000)."""
    src = parse_sentence("E1 u E1 v E1 t | E(u,v) & E(v,t) & E(t,u)")
    target, out = _compile(rd.rule("even-cycle-csp", n=6, j=2), src)
    assert evaluate(target, out, budget=20_000)


def test_even_cycle_csp_k4_within_budget(zoo):
    """The K4 source (293 target variables) is a no-instance on both
    sides, and the target is decided in under 250,000 nodes."""
    src = parse_sentence(_K4_SOURCE)
    target, out = _compile(rd.rule("even-cycle-csp", n=6, j=2), src)
    assert not evaluate(zoo["K3"], src)
    assert not evaluate(target, out, budget=250_000)


def test_even_cycle_qcsp_equivalence(zoo):
    k3 = zoo["K3"]
    rule = rd.rule("even-cycle", n=6, j=2)
    for text in ["A u E1 v | E(u,v)", "A u A v | E(u,v)"]:
        src = parse_sentence(text)
        target, out = _compile(rule, src)
        assert evaluate(k3, src) == evaluate(target, out, budget=50_000_000), text


def test_even_cycle_source_validation():
    with pytest.raises(InvalidStructureError):
        _compile(rd.rule("even-cycle-csp", n=5, j=2), parse_sentence("E1 u |"))
    with pytest.raises(InvalidStructureError):
        _compile(rd.rule("even-cycle-csp", n=6, j=2), parse_sentence("E2 u |"))


def test_girth_isolation_structure(zoo):
    c6 = zoo["C6"]
    src = parse_sentence("E1 u E1 v | E(u,v)")
    h, out = _compile(rd.rule("girth-isolation", h=c6), src)
    assert h == c6
    twos = [q for q in out.prefix if q.threshold == 2]
    # diameter 3: spine of 4 plus one candidate-chain head
    assert len(twos) == 5
    # the threshold-2 block matches the even-cycle construction's budget
    _, direct = _compile(rd.rule("even-cycle-csp", n=6, j=2), src)
    assert len([q for q in direct.prefix if q.threshold == 2]) == 5
    # bounded-prefix shape: all threshold-2 quantifiers lead
    th = [q.threshold for q in out.prefix]
    assert th[: len(twos)] == [2] * len(twos)
    assert all(t == 1 for t in th[len(twos):])


def test_girth_isolation_equivalence(zoo):
    k3 = zoo["K3"]
    rule = rd.rule("girth-isolation", h=zoo["C6"])
    for text in ["E1 u |", "E1 u | E(u,u)", "E1 u E1 v | E(u,v)"]:
        src = parse_sentence(text)
        h, out = _compile(rule, src)
        assert evaluate(k3, src) == evaluate(h, out, budget=50_000_000), text


def test_girth_isolation_preconditions(zoo):
    for name in ("C4", "P5", "C5"):
        with pytest.raises(InvalidStructureError):
            _compile(rd.rule("girth-isolation", h=zoo[name]), parse_sentence("E1 u |"))


def test_hairy_spine_blocks(zoo):
    hairy = build_template(model.hairy_cycle(6))
    spine = rd.isolation_spine(hairy)
    blocks = rd.isolation_blocks(hairy)
    assert len(blocks) == 3
    assert len([q for q in spine.prefix if q.threshold == 2]) == 6 + 3
    assert evaluate(hairy, spine)


def test_reflexive_c4_reduction(zoo):
    k4 = zoo["K4"]
    rule = rd.rule("reflexive-c4")
    for text in ["E1 u E1 v | E(u,v)", "A u A v | E(u,v)", "A u E1 v | E(u,v)",
                 "E1 u | E(u,u)"]:
        src = parse_sentence(text)
        target, out = _compile(rule, src)
        assert target == zoo["C4star"]
        assert evaluate(k4, src) == evaluate(target, out), text


def test_reflexive_c4_gadget_size():
    src = parse_sentence("E1 u E1 v | E(u,v)")
    _, out = _compile(rd.rule("reflexive-c4"), src)
    # fixed copy (4) + source vars (2) + three layers minus shared y (11)
    assert len(out.prefix) == 4 + 2 + 11
    prefix = [q.threshold for q in out.prefix]
    assert prefix[:4] == [1, 2, 3, 2]


def test_macro_expansion_examples(zoo):
    c4s = zoo["C4star"]
    rule = rd.rule("c4star-macros")
    src = parse_sentence("E2 x | E(x,x)")
    _, out = _compile(rule, src)
    assert render_sentence(out) == "E4 x~p~1 E1 x | E(x,x) & E(x~p~1,x)"
    assert evaluate(c4s, src) and evaluate(c4s, out)
    src = parse_sentence("E3 x | E(x,x)")
    _, out = _compile(rule, src)
    assert evaluate(c4s, src) == evaluate(c4s, out) is True


def test_macro_expansion_exhaustive(zoo):
    c4s = zoo["C4star"]
    rule = rd.rule("c4star-macros")
    for src in rd.default_sources(rule, trials=0, seed=0):
        _, out = _compile(rule, src)
        assert set(q.threshold for q in out.prefix) <= {1, 4}
        assert evaluate(c4s, src) == evaluate(c4s, out), str(src)


@pytest.mark.parametrize("name, params", [(name, params) for name, params, _ in GOLDEN_RULES])
@pytest.mark.parametrize("wrong", ["K2", "C5"])
def test_compile_rule_rejects_another_source_template(name, params, wrong, zoo):
    rule = rd.rule(name, **_params(params))
    message = rd.RULES[name].mismatch
    # C5 is odd-cycle-path's own source template; C6 stands in for it there
    template = zoo["C6"] if zoo[wrong] == rule.source_template() else zoo[wrong]
    with pytest.raises(InvalidStructureError, match=f"^{re.escape(message)}$"):
        rd.compile_rule(rule, template, parse_sentence("E1 u |"))


@pytest.mark.parametrize("n, j", [(6, 2), (5, 1), (5, 5)])
def test_odd_cycle_path_needs_an_odd_cycle(n, j):
    """The path block simulates a universal only on an odd cycle: at n = 4,
    j = 2, 2 of 40 sources seeded 1 disagree, so even n is a precondition
    miss."""
    rule = rd.rule("odd-cycle-path", n=n, j=j)
    with pytest.raises(InvalidStructureError, match=r"^needs odd n >= 3 and 2 <= j < n$"):
        _compile(rule, parse_sentence("E1 u |"))


@pytest.mark.parametrize("name", sorted(rd.RULES))
def test_fault_injection_is_caught_on_every_rule(name):
    """A corrupted compile disagrees with its source on each rule's own
    seeded suite."""
    params, _ = next((p, f) for r, p, f in GOLDEN_RULES if r == name)
    rule = rd.rule(name, **_params(params))
    sources = rd.default_sources(rule, trials=20, seed=1)
    report = rd.verify_reduction(rule, rule.source_template(), sources, corrupt=True)
    assert report.disagreements()


def test_compiled_sentences_roundtrip_and_are_wellformed(zoo):
    from cqcsp.textio import parse_sentence as ps

    src = parse_sentence("A u E1 v | E(u,v)")
    nae_src = parse_sentence("A x E1 y | R(x,y,y)")
    gj_src = Sentence((Quantifier(10, "u"), Quantifier(1, "v")), (("E", ("u", "v")),))
    compiled = [
        _compile(rd.rule("nae", j=2, n=4), nae_src),
        _compile(rd.rule("clique-gj", j=2), gj_src),
        _compile(rd.rule("clique-pad", j=2, n=6), parse_sentence("E2 a E2 b | E(a,b)")),
        _compile(rd.rule("clique-1j", n=4, j=2), src),
        _compile(rd.rule("reflexive-c4"), src),
        _compile(rd.rule("even-cycle", n=6, j=2), src),
        _compile(rd.rule("odd-cycle-path", n=5, j=2), src),
        _compile(rd.rule("girth-isolation", h=zoo["C6"]), parse_sentence("E1 u E1 v | E(u,v)")),
        _compile(rd.rule("c4star-macros"), parse_sentence("E3 x | E(x,x)")),
    ]
    for target, out in compiled:
        assert ps(render_sentence(out)) == out
        rs = out.resolved(target.domain_size)
        assert all(1 <= q.threshold <= target.domain_size for q in rs.prefix)


def test_compilation_deterministic():
    src = parse_sentence("A u E1 v | E(u,v)")
    # two rule objects, so the target template is built twice
    a = _compile(rd.rule("even-cycle", n=6, j=2), src)
    b = _compile(rd.rule("even-cycle", n=6, j=2), src)
    from cqcsp.textio import render_sentence, render_structure

    assert render_sentence(a[1]) == render_sentence(b[1])
    assert render_structure(a[0]) == render_structure(b[0])


def test_fresh_variable_hygiene():
    # source variables deliberately shaped like generated names
    src = Sentence(
        (Quantifier(1, "pad~c~1"), Quantifier(2, "u")),
        (("E", ("pad~c~1", "u")),),
    )
    target, out = _compile(
        rd.rule("clique-pad", j=2, n=6), parse_sentence("E2 pad~c~1 E2 u | E(pad~c~1,u)")
    )
    names = [q.variable for q in out.prefix]
    assert len(names) == len(set(names))


def test_verify_reduction_report_and_fault_injection(zoo):
    rule = rd.rule("clique-pad", j=2, n=6)
    sources = rd.default_sources(rule, trials=12, seed=7)
    report = rd.verify_reduction(rule, build_template(model.clique(5)), sources)
    assert report.ok()
    assert all(c.status == "agree" for c in report.cases)
    assert report.lines()[0].split()[3] == "agree"

    corrupted = rd.verify_reduction(
        rule, build_template(model.clique(5)), sources, corrupt=True
    )
    assert corrupted.disagreements(), "fault injection must surface a disagreement"


def test_verify_reduction_budget_skip(zoo):
    rule = rd.rule("even-cycle-csp", n=6, j=2)
    sources = [parse_sentence("E1 u E1 v | E(u,v)")]
    report = rd.verify_reduction(rule, zoo["K3"], sources, budget=50)
    assert [c.status for c in report.cases] == ["budget-skipped"]
    assert report.ok()  # skipped is not a pass, but not a disagreement


def test_verify_reduction_precondition_row(zoo):
    rule = rd.rule("clique-pad", j=2, n=6)
    bad = [parse_sentence("E3 a |")]  # wrong threshold for a {j}-sentence
    report = rd.verify_reduction(rule, build_template(model.clique(5)), bad)
    assert report.cases[0].status.startswith("precondition")
