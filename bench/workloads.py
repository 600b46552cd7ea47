"""Set-up and one pass of each workload, driving cqcsp through public calls.

A pass runs every case of the workload's inputs once (short gadget-verify
cases several times, see CASE_MIN_S).  Each case is timed
around its calls into the package only; the checks against the reference
run after the clock stops.  The same code serves the untraced and the
traced run: the tracer either passes calls straight through or records a
span around each one.
"""

from __future__ import annotations

import hashlib
import importlib
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

from inputs import TEMPLATES, Inputs, reference_tree_check
from reference import strategy_size

# Every tag fastpath.dispatch can return, in its matching order.
DISPATCH_TAGS = (
    "all-universal",
    "clique high thresholds",
    "cycle tractable",
    "complete bipartite",
    "C4 containment",
    "small bipartition",
    "P5 {1,3}",
    "forest bounded prefix",
)

# A gadget-verify or witness case shorter than this runs back to back until
# its runs add up to it, and its time in the pass is the fastest run.  Cases
# of a few milliseconds then get several samples a pass instead of one,
# which steadies the median case on a noisy machine; cases above it run once.
CASE_MIN_S = 0.03

RULES = ("clique-gj", "even-cycle", "even-cycle-csp", "girth-isolation", "reflexive-c4",
         "clique-pad", "clique-1j", "nae", "c4star-macros")


def setup(inp: Inputs, tr):
    """Import, build the templates, and make one warm-up call per template,
    which fills the package's per-structure mask tables.  Returns the
    modules and the state the passes use.  This set-up runs once, for the
    passes; ``setup_s`` is timed in fresh processes (fresh_setup.py)."""
    api = SimpleNamespace(**{m: importlib.import_module(f"cqcsp.{m}")
                             for m in ("textio", "model", "fastpath", "oracle", "reductions")})
    model = api.model
    templates = {}
    for key in inp.templates:
        family = tr.call("setup", "model", "parse_family_spec", model.parse_family_spec,
                         TEMPLATES[key][0])
        templates[key] = tr.call("setup", "model", "build_template", model.build_template, family)
    empty = tr.call("setup", "textio", "parse_sentence", api.textio.parse_sentence, "E1 x |")
    for b in templates.values():
        tr.call("setup", "oracle", "evaluate", api.oracle.evaluate, b, empty, budget=inp.budget,
                tag="warm-up")
    rules = {}
    for c in inp.cases + inp.frontier:
        if "rule" in c:
            params = {k: templates[v] if k == "h" else v for k, v in c["params"].items()}
            rules[c["id"]] = api.reductions.rule(c["rule"], **params)
    families = {}
    classify = []
    for row in inp.classify:
        if row["family"] not in families:
            families[row["family"]] = model.parse_family_spec(row["family"])
        classify.append((families[row["family"]], model.parse_fragment_spec(row["fragment"]),
                         row["expected"]))
    return api, SimpleNamespace(templates=templates, rules=rules, classify=classify,
                                tree_digests={})


def template_errors(st, inp: Inputs) -> list[str]:
    """Set-up's templates must be the reference's, tuple for tuple."""
    out = []
    for key, b in st.templates.items():
        ref = TEMPLATES[key][1]
        same = b.domain_size == ref.n and set(b.signature.names()) == set(ref.relations) and all(
            set(b.tuples(r)) == set(ref.tuples(r)) for r in ref.relations)
        if not same:
            out.append(f"template {key}: package build differs from the reference")
    return out


@dataclass
class Pass:
    latencies: list = field(default_factory=list)  # seconds per case, package calls only
    wall: float = 0.0            # all timed calls of the pass, classify included
    classify_s: float = 0.0      # the classify table, timed as a whole
    completed: int = 0           # decided, or stopped at the node budget
    decided: int = 0
    attempted: int = 0           # every checked verdict, classify included
    errors: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    rule_s: Counter = field(default_factory=Counter)

    def case(self, latency: float, decided: bool, completed: bool) -> None:
        self.latencies.append(latency)
        self.wall += latency
        self.attempted += 1
        self.decided += decided
        self.completed += completed


def _verdict(x) -> str:
    return "yes" if x else "no"


def _repeat(run):
    """Run ``run`` back to back until its runs add up to CASE_MIN_S.  Returns
    the fastest run's time and every run's result; a raised exception is a
    result, never a dropped run."""
    best = None
    spent = 0.0
    results = []
    while spent < CASE_MIN_S:
        t0 = perf_counter()
        try:
            result = run()
        except Exception as exc:
            result = exc
        t = perf_counter() - t0
        results.append(result)
        best = t if best is None else min(best, t)
        spent += t
    return best, results


def small_sweep_pass(api, st, inp: Inputs, tr) -> Pass:
    p = Pass()
    parse, dispatch, evaluate = api.textio.parse_sentence, api.fastpath.dispatch, api.oracle.evaluate
    budget = inp.budget
    for c in inp.cases:
        cid = c["id"]
        b = st.templates[c["template"]]
        root = tr.open(cid, "bench", "case")
        s = None
        decided = False
        t0 = perf_counter()
        try:
            s = tr.call(cid, "textio", "parse_sentence", parse, c["text"])
            hit = tr.call(cid, "fastpath", "dispatch", dispatch, b, s)
            if hit is None:
                auto = tr.call(cid, "oracle", "evaluate", evaluate, b, s, budget=budget, tag="auto")
            else:
                auto = tr.call(cid, "fastpath", "decider", hit[1], tag=hit[0])
            ora = tr.call(cid, "oracle", "evaluate", evaluate, b, s, budget=budget, tag="oracle")
            t1 = perf_counter()
            decided = True
        except api.oracle.BudgetExceededError:
            t1 = perf_counter()
        except Exception as exc:  # any raise is a failed case, never a dropped one
            t1 = perf_counter()
            p.errors.append(f"small-sweep case {cid} raised {exc!r}: {c['text']}")
        p.case(t1 - t0, decided, decided)
        if decided:
            p.counts["dispatch_calls"] += 1
            p.counts["dispatch_hits." + (hit[0] if hit else "none")] += 1
            if auto != c["expected"] or ora != c["expected"]:
                p.errors.append(
                    f"small-sweep case {cid} on {c['template']}: auto {_verdict(auto)}, oracle "
                    f"{_verdict(ora)}, reference {_verdict(c['expected'])}: {c['text']}")
        if tr.enabled and s is not None and c["binary_graph"]:
            # traced runs only, and outside the case timing
            tr.call(cid, "model", "instance_graph", _instance_graph_probe, api.model, s)
        tr.close(root)
    classify = api.fastpath.classify
    for k, (family, fragment, expected) in enumerate(st.classify):
        cid = f"classify-{k}"
        root = tr.open(cid, "bench", "case")
        t0 = perf_counter()
        try:
            got = tr.call(cid, "fastpath", "classify", classify, family, fragment).complexity.label
        except Exception as exc:
            got = f"raised {exc!r}"
        p.classify_s += perf_counter() - t0
        tr.close(root)
        p.attempted += 1
        if got != expected:
            p.errors.append(f"classify {family} {fragment}: got {got}, reference {expected}")
    p.wall += p.classify_s
    return p


def _instance_graph_probe(model, s):
    g = model.instance_graph(s)
    return g.components(), g.bipartition()


def gadget_verify_pass(api, st, inp: Inputs, tr, corrupt: bool = False) -> Pass:
    """Untraced, each case is one reductions.verify_reduction call.  Traced,
    the same work goes through the calls verify_reduction makes (compile,
    evaluate the source, evaluate the target), so that search time is
    charged to the oracle and compile time to reductions."""
    p = Pass()
    rd, oracle, parse = api.reductions, api.oracle, api.textio.parse_sentence
    budget = inp.budget

    def run_case(cid, rule, b, text):
        s = tr.call(cid, "textio", "parse_sentence", parse, text)
        if not tr.enabled:
            case = rd.verify_reduction(rule, b, [s], budget=budget, corrupt=corrupt).cases[0]
            return case.status, case.source_verdict, case.target_verdict, (
                case.target_vars, case.target_atoms)
        tt, ts = tr.call(cid, "reductions", "compile_rule", rd.compile_rule, rule, b, s)
        try:
            src = _verdict(tr.call(cid, "oracle", "evaluate", oracle.evaluate, b, s,
                                   budget=budget, tag="source"))
            tgt = _verdict(tr.call(cid, "oracle", "evaluate", oracle.evaluate, tt, ts,
                                   budget=budget, tag="target"))
        except oracle.BudgetExceededError:
            return "budget-skipped", "?", "?", (len(ts.prefix), len(ts.atoms))
        return "agree" if src == tgt else "DISAGREE", src, tgt, (len(ts.prefix), len(ts.atoms))

    for c in inp.cases:
        cid = c["id"]
        rule = st.rules[cid]
        b = st.templates[c["template"]]
        root = tr.open(cid, "bench", "case", tag=c["rule"])
        want = _verdict(c["expected"])
        best, runs = _repeat(lambda: run_case(cid, rule, b, c["text"]))
        tr.close(root)
        results = {(f"raised {r!r}", "?", "?", (0, 0)) if isinstance(r, Exception) else r
                   for r in runs}
        status, src, tgt, (n_vars, n_atoms) = min(results)
        decided = status in ("agree", "DISAGREE")
        p.case(best, decided, decided or status == "budget-skipped")
        p.rule_s[c["rule"]] += best
        p.counts["target_vars"] += n_vars
        p.counts["target_atoms"] += n_atoms
        p.counts["budget_skipped"] += status == "budget-skipped"
        wrong = [v for v in (src, tgt) if v != "?" and v != want]
        if len(results) > 1:
            p.errors.append(f"gadget-verify case {cid} {c['rule']}: repeated runs differ: "
                            f"{sorted(results)}")
        elif status not in ("agree", "budget-skipped") or wrong:
            p.errors.append(f"gadget-verify case {cid} {c['rule']}: status {status}, source {src}, "
                            f"target {tgt}, reference {want}: {c['text']}")
    return p


def frontier_probe(api, st, inp: Inputs, tr) -> Pass:
    """The frontier case, run in traced gadget-verify runs after the passes
    and outside their timings: compile the K4 source and evaluate source
    and target, as verify_reduction would, but calling the oracle directly
    so that a stop at the budget reports its exact node count."""
    p = Pass()
    oracle = api.oracle
    for c in inp.frontier:
        cid = c["id"]
        b = st.templates[c["template"]]
        root = tr.open(cid, "bench", "frontier", tag=c["rule"])
        src = tgt = None
        nodes = 0
        t0 = perf_counter()
        try:
            s = tr.call(cid, "textio", "parse_sentence", api.textio.parse_sentence, c["text"])
            tt, ts = tr.call(cid, "reductions", "compile_rule", api.reductions.compile_rule,
                             st.rules[cid], b, s)
            src = tr.call(cid, "oracle", "evaluate", oracle.evaluate, b, s, budget=c["budget"],
                          tag="source")
            try:
                tgt = tr.call(cid, "oracle", "evaluate", oracle.evaluate, tt, ts,
                              budget=c["budget"], tag="frontier")
            except oracle.BudgetExceededError as stop:
                nodes = stop.nodes
            t1 = perf_counter()
        except Exception as exc:
            t1 = perf_counter()
            p.errors.append(f"frontier case raised {exc!r}")
            tr.close(root)
            p.case(t1 - t0, False, False)
            continue
        tr.close(root)
        p.case(t1 - t0, tgt is not None, True)
        p.counts["frontier_nodes"] += nodes
        if src or tgt:
            p.errors.append(f"frontier: source {_verdict(src)}, target "
                            f"{'stopped' if tgt is None else _verdict(tgt)}; the reference says no")
    return p


def witness_probe(api, st, inp: Inputs, tr) -> Pass:
    """The witness cases, run in traced small-sweep runs after the passes
    and outside their timings: extract a strategy tree, render it, parse
    it back and verify it."""
    p = Pass()
    oracle, textio = api.oracle, api.textio
    for c in inp.witness:
        cid = c["id"]
        b = st.templates[c["template"]]
        thresholds = [j for j, _ in c["prefix"]]
        def run_case():
            s = tr.call(cid, "textio", "parse_sentence", textio.parse_sentence, c["text"])
            w = tr.call(cid, "oracle", "extract_strategy", oracle.extract_strategy, b, s,
                        budget=inp.budget)
            text = tr.call(cid, "textio", "render_strategy", textio.render_strategy, w)
            back = tr.call(cid, "textio", "parse_strategy", textio.parse_strategy, text,
                           thresholds)
            ok = tr.call(cid, "oracle", "verify_strategy", oracle.verify_strategy, b, s, w)
            return w, text, back, ok

        root = tr.open(cid, "bench", "case")
        best, runs = _repeat(run_case)
        tr.close(root)
        raised = [r for r in runs if isinstance(r, Exception)]
        if raised:
            p.case(best, False, False)
            p.errors.append(f"witness case {cid} raised {raised[0]!r}: {c['text'][:80]}")
            continue
        p.case(best, True, True)
        w, text, back, ok = runs[-1]
        p.counts["strategy_bytes"] += len(text)
        p.counts["strategy_nodes"] += c["offer_nodes"]
        defect = None
        if any(r[1] != text or not r[3] for r in runs):
            defect = "repeated runs differ"
        elif not ok:
            defect = "verify_strategy rejected the extracted tree"
        elif back != w:
            defect = "parse_strategy(render_strategy(w)) != w"
        elif cid in st.tree_digests:
            if st.tree_digests[cid] != hashlib.sha256(text.encode()).digest():
                defect = "a different tree than the first pass extracted"
        else:
            # The full reference replay runs once per input; later passes
            # must render the same tree, compared by digest so the benchmark
            # does not keep large trees alive while it measures.
            defect = reference_tree_check(c, w)
            if defect is None and strategy_size(w) != c["offer_nodes"]:
                defect = f"{strategy_size(w)} offer nodes, expected {c['offer_nodes']}"
            st.tree_digests[cid] = hashlib.sha256(text.encode()).digest()
        if defect:
            p.errors.append(f"witness case {cid} on {c['template']}: {defect}")
    return p


PASSES = {
    "small-sweep": small_sweep_pass,
    "gadget-verify": gadget_verify_pass,
}
