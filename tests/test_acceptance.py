"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Exhaustive strata are sized to finish inside the stated runtime limits;
where a literal exhaustive sweep would be combinatorially infeasible the
stratum is completed by a seeded random sweep (seed 1) of at least the
stated volume.  Set CQ_ACCEPT_FAST=1 to run a reduced smoke version during
development.
"""

from __future__ import annotations

import itertools
import os
import random
import time


from cqcsp import fastpath as fp
from cqcsp import model, oracle, reductions as rd, textio
from cqcsp.fastpath import ComplexityClass as CC
from cqcsp.model import (
    BoundedPrefix,
    Quantifier,
    Sentence,
    ThresholdSet,
    build_template,
    threshold_set,
)
from cqcsp.modarith import ResidueSet, iterated_sumset
from cqcsp.oracle import evaluate, extract_strategy, verify_strategy
from cqcsp.textio import parse_sentence

from conftest import (
    brute_hom_exists,
    complete_bipartite_gate_failures,
    graph_sentences,
    matrices,
    random_graph_sentence,
)

FAST = os.environ.get("CQ_ACCEPT_FAST") == "1"


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def _all_digraphs(n: int):
    slots = [(i, j) for i in range(n) for j in range(n)]
    for mask in range(1 << len(slots)):
        yield frozenset(slots[b] for b in range(len(slots)) if mask >> b & 1)


def _exists_sentences(n_vars: int, max_atoms: int):
    names = [f"x{i}" for i in range(n_vars)]
    slots = [(i, j) for i in range(n_vars) for j in range(n_vars)]
    prefix = tuple(Quantifier(1, v) for v in names)
    for count in range(min(max_atoms, len(slots)) + 1):
        for combo in itertools.combinations(slots, count):
            yield Sentence(prefix, tuple(("E", (names[i], names[j])) for i, j in combo))


def test_criterion_1_oracle_cross_semantics(zoo):
    """Existential sentences agree with brute-force homomorphism search."""
    start = time.time()
    checked = 0
    failures = []

    def check(b, s):
        nonlocal checked
        checked += 1
        if evaluate(b, s) != brute_hom_exists(s, b):
            failures.append((b, str(s)))

    # every template of size <= 2, exhaustive sentences up to 3 variables
    small_sentences = [s for m in (1, 2, 3) for s in _exists_sentences(m, 5)]
    for n in (1, 2):
        for edges in _all_digraphs(n):
            b = model.make_structure([("E", 2)], n, {"E": edges})
            for s in small_sentences:
                check(b, s)

    # every 3-element template, sentences up to 2 variables plus a seeded
    # sample of the larger ones
    rng = random.Random(1)
    three_var = [s for s in _exists_sentences(3, 5)]
    sample3 = rng.sample(three_var, 40 if not FAST else 8)
    for edges in _all_digraphs(3):
        b = model.make_structure([("E", 2)], 3, {"E": edges})
        for s in _exists_sentences(2, 5):
            check(b, s)
        for s in sample3:
            check(b, s)
        if FAST:
            break

    # named and random 4-element templates, exhaustive undirected
    # 4-variable matrices (<= 5 atoms) and directed 3-variable matrices
    templates = [zoo["K4"], zoo["C4"], zoo["P4"]]
    for _ in range(8 if not FAST else 1):
        edges = set()
        for a in range(4):
            for bb in range(4):
                if rng.random() < 0.4:
                    edges.add((a, bb))
        templates.append(model.make_structure([("E", 2)], 4, {"E": edges}))
    four_var = list(graph_sentences(4, [1], max_atoms=5))
    for b in templates:
        for s in four_var:
            check(b, s)
        for s in three_var:
            check(b, s)

    took = time.time() - start
    _report(
        "criterion 1 (oracle vs homomorphism)",
        not failures and took < 300,
        f"({checked} comparisons in {took:.1f}s)" + (f" first failure: {failures[:1]}" if failures else ""),
    )


def test_criterion_2_sumset_closed_forms():
    start = time.time()
    bad = []
    for n in range(3, 31):
        steps = ResidueSet.of(n, [-1, 1])
        for j in range(2, n):
            want = j + 1 if n % 2 else min(j + 1, n // 2)
            if len(iterated_sumset(j, steps)) != want:
                bad.append((n, j))
        for stepset in ([-1, 1], [-2, 0, 2]):
            want = n if n % 2 else n // 2
            if len(iterated_sumset(n, ResidueSet.of(n, stepset))) != want:
                bad.append((n, stepset))
    took = time.time() - start
    _report(
        "criterion 2 (sumset cardinalities)",
        not bad and took < 10,
        f"(3<=n<=30 in {took:.1f}s)",
    )


def _agree(case, b, s, failures, tag):
    try:
        want = evaluate(b, s)
    except oracle.ThresholdError:
        return
    got = fp.decide(case, b, s)
    if got != want:
        failures.append((tag, str(s), got, want))


def test_criterion_3_decider_oracle_agreement(zoo):
    start = time.time()
    failures: list = []
    rng = random.Random(1)
    max_m = 3 if FAST else 4

    def sweep(tag, b, case, thresholds, ms):
        for m in ms:
            for s in graph_sentences(m, thresholds, max_atoms=5):
                _agree(case, b, s, failures, tag)

    # all-universal, on graph and ternary templates
    for name in ("K2", "K3", "C4", "C6", "K23", "C4star", "P5"):
        b = zoo[name]
        sweep(f"all-universal/{name}", b, fp.ALL_UNIVERSAL, [b.domain_size], range(1, max_m + 1))
    nae = zoo["NAE"]
    for count in range(3):
        for combo in itertools.combinations(list(itertools.product("xy", repeat=3)), count):
            atoms = tuple(("R", t) for t in combo)
            s = Sentence((Quantifier(2, "x"), Quantifier(2, "y")), atoms)
            _agree(fp.ALL_UNIVERSAL, nae, s, failures, "all-universal/NAE")

    # cliques with high thresholds
    for n in range(1, 7):
        b = build_template(model.clique(n))
        highs = list(range(n // 2 + 1, n + 1))
        sweep(f"clique/{n}", b, fp.CLIQUE_HIGH, highs, range(1, max_m + 1))

    # cycles, all three tractable branches (plus the always-valid claims)
    cycle_plans = [
        (3, [2, 3]),
        (4, [1, 2, 3, 4]),
        (5, [2, 3, 4, 5]),
        (6, [2, 3, 4, 5, 6]),
        (6, [1, 4, 5, 6]),
    ]
    for n, ths in cycle_plans:
        b = build_template(model.cycle(n))
        sweep(f"cycle/{n}/{ths}", b, fp.CYCLE, ths, range(1, max_m + 1))

    # complete bipartite
    cb_plans = [((1, 2), 4), ((2, 2), 4), ((2, 3), 4), ((1, 3), 4), ((3, 3), 3), ((1, 5), 3)]
    for (k, l), mmax in cb_plans:
        b = build_template(model.complete_bipartite(k, l))
        sweep(f"bipartite/{k},{l}", b, fp.COMPLETE_BIPARTITE,
              range(1, k + l + 1), range(1, min(mmax, max_m) + 1))

    # small bipartition
    sp_plans = [
        (zoo["P3"], 3),
        (build_template(model.forest_from_edges([(0, 1), (2, 3)])), 2),
        (model.graph_structure(6, [(0, 1)]), 3),
        (zoo["K13"], 4),
    ]
    for h, j in sp_plans:
        for m in range(1, max_m + 1):
            for s in graph_sentences(m, [1, j], max_atoms=5):
                # j is the largest threshold the sentence uses
                if any(q.threshold == j for q in s.prefix):
                    _agree(fp.SMALL_BIPARTITION, h, s, failures, f"small-partition/{h}/{j}")

    # C4 containment
    c4_plans = [zoo["C4"], zoo["K23"],
                model.graph_structure(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])]
    for h in c4_plans:
        sweep(f"cont-c4/{h}", h, fp.C4_CONTAINMENT, [1, 2], range(1, max_m + 1))

    # forests in the bounded 2-then-1 fragment (m <= 2)
    forest_plans = [zoo["P3"], zoo["P4"], zoo["P5"], zoo["K13"],
                    build_template(model.forest_from_edges([(0, 1), (2, 3)]))]
    names4 = ["x0", "x1", "x2", "x3"]
    for h in forest_plans:
        for m in range(1, max_m + 1):
            for twos in (0, 1, 2):
                if twos > m:
                    continue
                prefix = tuple(
                    Quantifier(2 if i < twos else 1, names4[i]) for i in range(m)
                )
                for atoms in matrices(m, 5):
                    s = Sentence(prefix, atoms)
                    _agree(fp.FOREST, h, s, failures, f"forest/{h}")

    # the 5-path with thresholds {1, 3}
    sweep("p5-13", zoo["P5"], fp.P5_ONE_THREE, [1, 3], range(1, max_m + 1))

    # seeded random sweep across every decider's applicable inputs
    randoms = 400 if FAST else 10_000
    decider_pool = [
        ("clique", zoo["K3"], [2, 3], fp.CLIQUE_HIGH),
        ("clique", build_template(model.clique(5)), [3, 4, 5], fp.CLIQUE_HIGH),
        ("cycle", zoo["C4"], [1, 2, 3, 4], fp.CYCLE),
        ("cycle", zoo["C6"], [2, 3, 4, 5, 6], fp.CYCLE),
        ("cycle", zoo["C6"], [1, 4, 5, 6], fp.CYCLE),
        ("cb", zoo["K23"], [1, 2, 3, 4, 5], fp.COMPLETE_BIPARTITE),
        ("cb", build_template(model.complete_bipartite(3, 3)), list(range(1, 7)),
         fp.COMPLETE_BIPARTITE),
        ("sp", zoo["P3"], [1, 3], fp.SMALL_BIPARTITION),
        ("c4", zoo["K23"], [1, 2], fp.C4_CONTAINMENT),
        ("p5", zoo["P5"], [1, 3], fp.P5_ONE_THREE),
        ("univ", zoo["C6"], [6], fp.ALL_UNIVERSAL),
    ]
    for i in range(randoms):
        tag, b, ths, case = decider_pool[i % len(decider_pool)]
        m = rng.randint(1, 4)
        s = random_graph_sentence(rng, m, ths, 5)
        # small bipartition's j is the largest threshold a sentence uses
        if case is not fp.SMALL_BIPARTITION or any(q.threshold == ths[-1] for q in s.prefix):
            _agree(case, b, s, failures, f"random/{tag}")
    # random forest cases need the 2-then-1 prefix shape
    for _ in range(randoms // 10):
        h = rng.choice(forest_plans)
        m = rng.randint(1, 4)
        twos = rng.randint(0, min(2, m))
        prefix = tuple(Quantifier(2 if i < twos else 1, names4[i]) for i in range(m))
        atoms = []
        for _ in range(rng.randint(0, 5)):
            atoms.append(("E", (rng.choice(names4[:m]), rng.choice(names4[:m]))))
        s = Sentence(prefix, tuple(atoms))
        _agree(fp.FOREST, h, s, failures, "random/forest")

    took = time.time() - start
    _report(
        "criterion 3 (decider/oracle agreement)",
        not failures and took < 1800,
        f"({took:.1f}s)" + (f" first failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_4_derived_decider_gate(zoo):
    """The parity-propagation core `auto` routes complete bipartite
    templates to must agree with the oracle, and K2,3 must route to it."""
    start = time.time()
    failures = complete_bipartite_gate_failures(
        sides=((2, 3), (1, 3)),
        exhaustive_vars=2 if FAST else 3,
        random_cases=300 if FAST else 10_000,
        max_random_vars=5,
        seed=1,
    )
    match = fp.dispatch(zoo["K23"], parse_sentence("E2 x E4 y | E(x,y)"))
    routed = match is not None and match[0] == "complete bipartite"
    took = time.time() - start
    _report(
        "criterion 4 (derived-decider gate)",
        not failures and routed,
        f"({took:.1f}s; routed: {routed})"
        + (f" first failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_5_reduction_equivalence(zoo):
    start = time.time()
    problems = []
    skipped = []

    def run(rule, source_template, sources, budget=None):
        report = rd.verify_reduction(rule, source_template, sources, budget=budget)
        for case in report.cases:
            if case.status == "DISAGREE":
                problems.append((str(rule), case.line()))
            elif case.status == "budget-skipped":
                skipped.append((str(rule), case.line()))
            elif case.status.startswith("precondition"):
                problems.append((str(rule), case.line()))
        return report

    # not-all-equal single-quantifier simulation, j=2, n in {4, 5}
    nae_sources = []
    names = ["x", "y", "z"]
    for m in (1, 2, 3):
        vs = names[:m]
        triples = list(itertools.product(vs, repeat=3))
        mats = [()] + [(t,) for t in triples]
        if m <= 2 or not FAST:
            mats += [(t1, t2) for t1 in triples for t2 in triples if t1 <= t2]
        for bits in range(1 << m):
            prefix = tuple(Quantifier(2 if bits >> i & 1 else 1, v) for i, v in enumerate(vs))
            for mat in mats:
                nae_sources.append(Sentence(prefix, tuple(("R", t) for t in mat)))
    for n in (4, 5):
        run(rd.rule("nae", j=2, n=n), zoo["NAE"], nae_sources if not FAST else nae_sources[:100])

    # block gadget reduction over the 10-clique, <= 2 quantifiers
    k10 = build_template(model.clique(10))
    gj_sources = []
    for m in (1, 2):
        vs = names[:m]
        slots = [(a, b) for ai, a in enumerate(vs) for b in vs[ai:]]
        for combo_n in range(len(slots) + 1):
            for combo in itertools.combinations(slots, combo_n):
                for bits in range(1 << m):
                    prefix = tuple(
                        Quantifier(10 if bits >> i & 1 else 1, v) for i, v in enumerate(vs)
                    )
                    gj_sources.append(
                        Sentence(prefix, tuple(("E", t) for t in combo))
                    )
    run(rd.rule("clique-gj", j=2), k10, gj_sources if not FAST else gj_sources[:6])

    # clique padding, 50 random sources
    pad_rule = rd.rule("clique-pad", j=2, n=6)
    run(pad_rule, build_template(model.clique(5)),
        rd.default_sources(pad_rule, trials=50 if not FAST else 10, seed=1))

    # thresholds {1, j} on cliques, n in {3, 4}
    for n in (3, 4):
        rule = rd.rule("clique-1j", j=2, n=n)
        run(rule, build_template(model.clique(n)),
            rd.default_sources(rule, trials=50 if not FAST else 10, seed=1))

    # QCSP(C5) to thresholds {1, 2}: each universal becomes its path block
    odd_rule = rd.rule("odd-cycle-path", n=5, j=2)
    run(odd_rule, build_template(model.cycle(5)), rd.default_sources(odd_rule, trials=20, seed=1))

    # reflexive 4-cycle macros, exhaustive <= 2 quantifiers
    macro_rule = rd.rule("c4star-macros")
    run(macro_rule, zoo["C4star"], rd.default_sources(macro_rule, trials=0, seed=0))

    # reflexive 4-cycle gadget (smallest QCSP(K4) sources)
    run(
        rd.rule("reflexive-c4"),
        zoo["K4"],
        [parse_sentence(t) for t in
         ["E1 u E1 v | E(u,v)", "A u E1 v | E(u,v)", "E1 u A v | E(u,v)",
          "A u A v | E(u,v)", "E1 u | E(u,u)"]],
    )

    # even-cycle gadget, smallest parameterisation n=6 j=2; every target,
    # the K4 source's 293-variable one included, must be decided within
    # the budget
    csp_sources = [parse_sentence(t) for t in [
        "E1 u |", "E1 u | E(u,u)", "E1 u E1 v | E(u,v)",
        "E1 u E1 v E1 t | E(u,v) & E(v,t) & E(t,u)",
    ]]
    if not FAST:
        csp_sources.append(parse_sentence(
            "E1 a E1 b E1 c E1 d | E(a,b) & E(a,c) & E(a,d) & E(b,c) & E(b,d) & E(c,d)"
        ))
    run(rd.rule("even-cycle-csp", n=6, j=2), zoo["K3"], csp_sources,
        budget=10_000_000)
    run(rd.rule("even-cycle", n=6, j=2), zoo["K3"],
        [parse_sentence(t) for t in
         ["A u E1 v | E(u,v)", "A u A v | E(u,v)", "E1 u E1 v | E(u,v)"]],
        budget=30_000_000)

    # girth isolation at desk scale (the 6-cycle itself)
    run(rd.rule("girth-isolation", h=zoo["C6"]), zoo["K3"],
        [parse_sentence(t) for t in ["E1 u |", "E1 u | E(u,u)", "E1 u E1 v | E(u,v)"]],
        budget=30_000_000)

    took = time.time() - start
    detail = f"({took:.1f}s; budget-skipped: {[s[1] for s in skipped] or 'none'})"
    _report("criterion 5 (reduction equivalence)", not problems and not skipped and took < 3600,
            detail + (f" problems: {problems[:3]}" if problems else ""))


# --- hand-transcribed classification table ---------------------------------


def _expected_clique(n: int, X: frozenset) -> CC:
    low = {j for j in X if 1 <= j <= n // 2}
    if n <= 2 or not low:
        return CC.IN_L
    if X == {1}:
        return CC.NP_COMPLETE
    middle = {j for j in X if 1 < j and 2 * j < n}
    high_pair = 1 in X and any(2 * j >= n and j != 1 for j in X)
    if middle or high_pair:
        return CC.PSPACE_COMPLETE
    return CC.OPEN


def _expected_cycle(n: int, X: frozenset) -> CC:
    if n == 4:
        return CC.IN_L
    if 1 not in X:
        return CC.IN_L
    if n % 2 == 0 and all(not (2 <= j <= n // 2) for j in X):
        return CC.IN_L
    if n % 2 == 1 and X == {1}:
        return CC.NP_COMPLETE
    return CC.PSPACE_COMPLETE


def test_criterion_6_classifier_table():
    start = time.time()
    mismatches = []
    for n in range(1, 9):
        for bits in range(1, 1 << n):
            X = frozenset(j + 1 for j in range(n) if bits >> j & 1)
            got = fp.classify(model.clique(n), ThresholdSet(X)).complexity
            if got is not _expected_clique(n, X):
                mismatches.append(("clique", n, sorted(X), got))
    for n in range(3, 9):
        for bits in range(1, 1 << n):
            X = frozenset(j + 1 for j in range(n) if bits >> j & 1)
            got = fp.classify(model.cycle(n), ThresholdSet(X)).complexity
            if got is not _expected_cycle(n, X):
                mismatches.append(("cycle", n, sorted(X), got))

    # the open middle-quantifier rows
    for j in (2, 3, 4):
        got = fp.classify(model.clique(2 * j), threshold_set(j)).complexity
        if got is not CC.OPEN:
            mismatches.append(("clique-open", 2 * j, [j], got))

    fixed_rows = [
        (model.complete_bipartite(2, 3), threshold_set(1, 2, 3, 4, 5), CC.IN_L),
        (model.complete_bipartite(3, 3), threshold_set(4), CC.IN_L),
        (model.star(5), threshold_set(1, 6), CC.IN_L),
        (model.nae_boolean(), threshold_set(1), CC.NP_COMPLETE),
        (model.nae_boolean(), threshold_set(2), CC.IN_L),
        (model.nae_boolean(), threshold_set(1, 2), CC.PSPACE_COMPLETE),
        (model.single_quantifier_template(4, 2), threshold_set(2), CC.PSPACE_COMPLETE),
        (model.single_quantifier_template(7, 3), threshold_set(3), CC.PSPACE_COMPLETE),
        (model.single_quantifier_template(4, 2), threshold_set(4), CC.IN_L),
        (model.single_quantifier_template(4, 2), threshold_set(1), CC.OPEN),
        (model.reflexive_cycle(4), threshold_set(1, 2, 3, 4), CC.PSPACE_COMPLETE),
        (model.reflexive_cycle(4), threshold_set(1, 4), CC.PSPACE_COMPLETE),
        (model.reflexive_cycle(4), threshold_set(4), CC.IN_L),
        (model.reflexive_cycle(4), threshold_set(1, 2), CC.OPEN),
        (model.reflexive_cycle(6), threshold_set(1, 6), CC.OPEN),
        (model.path(5), threshold_set(1), CC.IN_L),
        (model.path(5), threshold_set(1, 3), CC.IN_L),
        (model.path(5), threshold_set(1, 4), CC.IN_L),
        (model.path(5), threshold_set(1, 5), CC.IN_L),
        (model.path(7), threshold_set(1, 5), CC.IN_L),
        (model.path(7), threshold_set(1, 4), CC.OPEN),
        (model.path(7), threshold_set(1, 2), CC.OPEN),
        (model.path(3), threshold_set(1, 2, 3), CC.IN_L),
        (model.hj_template(4), threshold_set(1, 4), CC.PSPACE_COMPLETE),
        (model.hj_template(5), threshold_set(1, 5), CC.PSPACE_COMPLETE),
        (model.hairy_cycle(6), threshold_set(1, 18), CC.IN_L),
        (model.hairy_cycle(6), threshold_set(1, 2), CC.OPEN),
        (model.general_graph([(0, 1), (1, 2), (2, 0)]), threshold_set(1), CC.NP_COMPLETE),
        (model.general_graph([(0, 1), (1, 2), (2, 0)]), threshold_set(1, 2), CC.PSPACE_COMPLETE),
        # bounded-prefix rows
        (model.forest_from_edges([(0, 1), (1, 2)]), BoundedPrefix(3), CC.IN_P),
        (model.general_graph([(0, 1), (1, 2), (2, 3)]), BoundedPrefix(2), CC.IN_P),
        (model.path(5), BoundedPrefix(2), CC.IN_P),
        (model.complete_bipartite(2, 2), BoundedPrefix(1), CC.IN_P),
        (model.cycle(4), BoundedPrefix(4), CC.IN_P),
        (model.cycle(6), BoundedPrefix(6), CC.NP_COMPLETE),
        (model.cycle(5), BoundedPrefix(1), CC.NP_COMPLETE),
        (model.clique(4), BoundedPrefix(1), CC.NP_COMPLETE),
        (model.clique(2), BoundedPrefix(1), CC.IN_P),
        (model.hairy_cycle(6), BoundedPrefix(9), CC.NP_COMPLETE),
        (model.hj_template(4), BoundedPrefix(2), CC.IN_P),
        (model.nae_boolean(), BoundedPrefix(1), CC.OPEN),
        (model.reflexive_cycle(4), BoundedPrefix(1), CC.OPEN),
    ]
    for family, frag, want in fixed_rows:
        got = fp.classify(family, frag).complexity
        if got is not want:
            mismatches.append((str(family), str(frag), want, got))

    took = time.time() - start
    _report("criterion 6 (classifier table)", not mismatches,
            f"({took:.1f}s)" + (f" mismatches: {mismatches[:5]}" if mismatches else ""))


def test_criterion_7_worked_examples(zoo):
    start = time.time()
    problems = []

    # the canonical 3-clique query is a yes-instance on the 3-clique
    k3 = zoo["K3"]
    if not evaluate(k3, model.canonical_query(k3)):
        problems.append("canonical 3-clique query")

    # the hairy-graph spine forces a faithful 6-cycle image: the extracted
    # winning strategy must contain a play mapping one of the first two
    # candidate blocks onto a true 6-cycle
    hairy = build_template(model.hairy_cycle(6))
    spine = rd.isolation_spine(hairy)
    blocks = rd.isolation_blocks(hairy)
    if not evaluate(hairy, spine):
        problems.append("hairy spine unsatisfiable")
    else:
        w = extract_strategy(hairy, spine)
        if not verify_strategy(hairy, spine, w):
            problems.append("hairy strategy fails verification")
        g = model.require_graph(hairy)
        index = spine.var_index()

        def faithful(vals, cyc):
            vv = [vals[index[u]] for u in cyc]
            return len(set(vv)) == len(vv) and all(
                vv[(t + 1) % len(vv)] in g.adj[vv[t]] for t in range(len(vv))
            )

        leaves: list[list[int]] = []

        def walk(node, depth, assign):
            if depth == len(spine.prefix):
                leaves.append(list(assign))
                return
            for v, child in zip(node.offer, node.children):
                assign.append(v)
                walk(child, depth + 1, assign)
                assign.pop()

        walk(w, 0, [])
        hits = [vals for vals in leaves if any(faithful(vals, c) for c in blocks)]
        early_hits = [vals for vals in leaves if any(faithful(vals, c) for c in blocks[:2])]
        if not hits:
            problems.append("no play maps a candidate block onto a 6-cycle")
        if not early_hits:
            problems.append("no play maps one of the first two blocks onto a 6-cycle")

    # {1,2}-sentences on the 4-cycle are yes-instances iff the instance
    # graph is bipartite
    for m in (1, 2, 3):
        for s in graph_sentences(m, [1, 2], max_atoms=4):
            ig = model.instance_graph(s)
            want = not ig.loops and ig.bipartition() is not None
            if evaluate(zoo["C4"], s) != want:
                problems.append(f"C4 bipartite criterion: {s}")
                break

    took = time.time() - start
    _report("criterion 7 (worked examples)", not problems,
            f"({took:.1f}s)" + (f" {problems[:3]}" if problems else ""))


def test_criterion_8_determinism(zoo):
    start = time.time()
    problems = []

    rule = rd.rule("clique-pad", j=2, n=6)
    sources = rd.default_sources(rule, trials=20, seed=9)
    k5 = build_template(model.clique(5))
    first = rd.verify_reduction(rule, k5, sources).lines()
    second = rd.verify_reduction(rule, k5, sources).lines()
    if first != second:
        problems.append("verification report not reproducible")

    s = parse_sentence("E2 x E2 y | E(x,y)")
    w1 = textio.render_strategy(extract_strategy(zoo["C6"], s))
    w2 = textio.render_strategy(extract_strategy(zoo["C6"], s))
    if w1 != w2:
        problems.append("strategy files not reproducible")

    src = parse_sentence("A u E1 v | E(u,v)")
    # two rule objects, so the target template is built twice
    a = rd.compile_rule(rd.rule("even-cycle", n=6, j=2), zoo["K3"], src)
    b = rd.compile_rule(rd.rule("even-cycle", n=6, j=2), zoo["K3"], src)
    if textio.render_sentence(a[1]) != textio.render_sentence(b[1]):
        problems.append("compiled sentences not byte-identical")
    if textio.render_structure(a[0]) != textio.render_structure(b[0]):
        problems.append("compiled templates not byte-identical")

    took = time.time() - start
    _report("criterion 8 (determinism)", not problems,
            f"({took:.1f}s)" + (f" {problems}" if problems else ""))
