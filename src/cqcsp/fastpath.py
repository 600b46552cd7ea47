"""Polynomial-time deciders for the tractable counting-quantifier cases,
plus the complexity classifier.

Every decider answers exactly like the oracle on inputs satisfying its
precondition; the test suite enforces this by exhaustive and randomised
comparison.  Degenerate inputs are resolved before any decider logic: a
loop atom forces false on irreflexive templates, and an empty matrix is
true whenever the thresholds are valid.

Membership-in-L results are implemented as ordinary polynomial procedures
(BFS bipartiteness, component scans); logspace constraints are not
reproduced.

No decider keeps a search of its own.  The small-bipartition decider
counts template vertices, and the forest decider (Thm 4) runs the oracle,
so it agrees with the oracle by construction and only the counting
semantics checks it independently.

Every tractable case and every classifier verdict is a condition on the
template alone plus the thresholds.  Each case is one ``Tractable`` entry
stating its condition once, as the reason it fails: `dispatch`, `classify`
and `decide` read it through ``Tractable.why_not``.  ``decide(case,
template, sentence)`` runs one case's decider, or raises that reason as a
PreconditionError.  The template side -- its graph view and the view's
facts -- is computed once per instance (see ``model``).  The instance
graph is a ``GraphView`` too, so the deciders read a sentence's
components, two-colouring and earlier neighbours with the methods the
classifier reads off a template.
"""

from __future__ import annotations

import itertools

from . import oracle
from .model import (
    BoundedPrefix,
    FragmentSpec,
    GraphView,
    InvalidStructureError,
    Record,
    Sentence,
    Structure,
    TemplateFamily,
    ThresholdSet,
    build_template,
    graph_view,
    hj_template,
    instance_graph,
    nae_boolean,
    reflexive_cycle,
    require_graph,
    single_quantifier_template,
)


class PreconditionError(ValueError):
    """The input does not satisfy the decider's applicability condition."""


class ComplexityClass(Record):
    """A complexity class a verdict names.  The six members are class
    attributes (``ComplexityClass.IN_L``, ...); ``label`` is the text a
    verdict prints."""

    _fields = ("name", "label")

    def __init__(self, name: str, label: str) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "label", label)

    def __repr__(self) -> str:
        return f"<ComplexityClass.{self.name}: {self.label!r}>"


ComplexityClass.IN_L = ComplexityClass("IN_L", "L")
ComplexityClass.IN_P = ComplexityClass("IN_P", "P")
ComplexityClass.NP_COMPLETE = ComplexityClass("NP_COMPLETE", "NP-complete")
ComplexityClass.NP_HARD = ComplexityClass("NP_HARD", "NP-hard")
ComplexityClass.PSPACE_COMPLETE = ComplexityClass("PSPACE_COMPLETE", "Pspace-complete")
ComplexityClass.OPEN = ComplexityClass("OPEN", "Open")


class ComplexityVerdict(Record):
    _fields = ("complexity", "citation")

    def __init__(self, complexity: ComplexityClass, citation: str) -> None:
        object.__setattr__(self, "complexity", complexity)
        object.__setattr__(self, "citation", citation)
        if self.complexity is not ComplexityClass.OPEN and not self.citation:
            raise InvalidStructureError("non-open verdicts need a citation tag")

    def __str__(self) -> str:
        if self.citation:
            return f"{self.complexity.label} ({self.citation})"
        return self.complexity.label


# ---------------------------------------------------------------------------
# Deciders.  Each tractable condition is stated once, as the reason it fails
# (None when it holds), which `dispatch` and `classify` read and `decide`
# raises.

_NOT_BIPARTITE = "template is not bipartite"


def _above_half(n: int, th: Sequence[int]) -> str | None:
    """Theorem 1(i): every threshold above n/2."""
    return None if min(th, default=n) > n // 2 else "decider needs every threshold above n/2"


def _cycle_tractable(n: int, th: Sequence[int]) -> str | None:
    """Theorem 2(i): n = 4, or no plain existential, or even n with no
    threshold in 2..n/2."""
    used = set(th)
    if n == 4 or 1 not in used or (n % 2 == 0 and not any(1 < t <= n // 2 for t in used)):
        return None
    return f"threshold set {sorted(used)} on the {n}-cycle is not tractable"


def _one_and(j: int, th: Sequence[int]) -> str | None:
    """Every threshold within {1, j}."""
    return None if {1, j}.issuperset(th) else f"thresholds must lie in {{1, {j}}}"


def _with_c4(g: GraphView, th: Sequence[int]) -> str | None:
    """A bipartite template containing a 4-cycle, thresholds within {1, 2}."""
    if g.bipartition() is None:
        return _NOT_BIPARTITE
    if not g.contains_c4():
        return "template contains no 4-cycle"
    return _one_and(2, th)


def _small_bipartition(g: GraphView, j: int, th: Sequence[int]) -> str | None:
    """A bipartite template whose components have both colour classes
    smaller than j >= 2, thresholds within {1, j}."""
    if j < 2:
        return "needs j >= 2"
    if g.bipartition() is None:
        return _NOT_BIPARTITE
    if g.largest_colour_class() >= j:
        return "a component has a colour class of size >= j"
    return _one_and(j, th)


def _forest_prefix(g: GraphView, th: Sequence[int]) -> str | None:
    """Theorem 4: a forest, and a prefix of threshold-2 quantifiers
    followed by existentials."""
    if not g.is_forest():
        return "template is not a forest"
    block = next((i for i, t in enumerate(th) if t != 2), len(th))
    if any(t != 1 for t in th[block:]):
        return "prefix is not in the bounded 2-then-1 fragment"
    return None


def _all_universal(b, g, s, th, budget) -> bool:
    """All-universal sentences: true iff every atom holds under every
    assignment consistent with its variable-repetition pattern."""
    # `dispatch` and `decide` check the atoms against the template only for graph entries
    oracle.check_signature(b, s)
    n = b.domain_size
    for name, vs in s.atoms:
        distinct = sorted(set(vs))
        tuples = b.tuples(name)
        for combo in itertools.product(range(n), repeat=len(distinct)):
            env = dict(zip(distinct, combo))
            if tuple(env[v] for v in vs) not in tuples:
                return False
    return True


def _star_criterion(b, g, s, th, budget) -> bool:
    """Cliques with every threshold above n/2: the star criterion.

    False iff some variable has at least n - threshold + 1 earlier
    neighbours in the instance graph (or the matrix has a loop)."""
    ig = instance_graph(s)
    n = b.domain_size
    return not ig.loops and all(len(ig.predecessors(i)) <= n - t for i, t in enumerate(th))


def _cycle_branches(b, g, s, th, budget) -> bool:
    """Tractable cycle cases: n = 4, or no plain existential, or even n
    with no threshold in 2..n/2.  An instance is false when it breaks a
    claim necessary for yes-instances on the n-cycle:
    (1a) a threshold >= 3 variable has no predecessors;
    (1b) for even n, a threshold > n/2 variable is first in its component;
    (1c) for n != 4, all but the first predecessor of a threshold-2
         variable are plain existentials.
    The branch decides the rest."""
    n = b.domain_size
    ig = instance_graph(s)
    if ig.loops:
        return False
    for i, t in enumerate(th):
        if t >= 3 and ig.predecessors(i):
            return False
    if n % 2 == 0:
        first = {v: comp[0] for comp in ig.components() for v in comp}
        for i, t in enumerate(th):
            if t > n // 2 and first[i] != i:
                return False
    if n != 4:
        for i, t in enumerate(th):
            if t == 2:
                for p in ig.predecessors(i)[1:]:
                    if th[p] != 1:
                        return False
        if 1 not in th:
            # claims (1a) and (1c) leave at most one predecessor per vertex,
            # which a walk-following strategy always satisfies
            return True
    return ig.bipartition() is not None


def _parity_propagation(b, g, s, th, budget) -> bool:
    """Complete bipartite templates, any thresholds up to k + l.

    Thresholds are rewritten to exists / for-all / pinned-to-the-large-side
    and the resulting two-element game is decided by parity propagation per
    component of the instance graph: bipartite, pins on one colour class,
    no for-all in a pinned component, and every for-all first in its
    component.
    """
    k, l = g.complete_bipartite_sides()
    lo, hi = min(k, l), max(k, l)
    roles = ["E" if t <= lo else "A" if t > hi else "P" for t in th]
    ig = instance_graph(s)
    colors = ig.bipartition()
    if colors is None:
        return False
    for comp in ig.components():
        pins = [v for v in comp if roles[v] == "P"]
        universals = [v for v in comp if roles[v] == "A"]
        if pins:
            if any(colors[v] != colors[pins[0]] for v in pins):
                return False
            if universals:
                return False
        else:
            head = min(comp)
            if any(v != head for v in universals):
                return False
    return True


def _fold_count(b, g, s, th, budget) -> bool:
    """Bipartite templates whose components have both sides smaller than
    j, the largest threshold, and thresholds within {1, j}.

    A threshold-j variable with a path to another threshold-j variable or
    to an earlier existential must straddle both sides of a component, so
    any such variable forces false.  The rest is a count, not a search: a
    connected bipartite instance component with an edge folds onto any
    template edge, so it holds iff the template has an edge or, with a
    threshold-j variable, at least j vertices with a neighbour.
    """
    j = max(th)
    ig = instance_graph(s)
    if ig.bipartition() is None:
        return False
    non_isolated = sum(1 for a in g.adj if a)
    for comp in ig.components():
        heavy = [v for v in comp if th[v] == j]
        if len(heavy) >= 2:
            return False
        if heavy and any(th[v] == 1 and v < heavy[0] for v in comp):
            return False
        if len(comp) > 1 and non_isolated < (j if heavy else 1):
            return False
    return True


def _instance_bipartite(b, g, s, th, budget) -> bool:
    """Bipartite templates containing a 4-cycle, thresholds within {1, 2}:
    true iff the instance graph is loop-free and bipartite."""
    return instance_graph(s).bipartition() is not None


def _forest_oracle(b, g, s, th, budget) -> bool:
    """Forests with a block of threshold-2 quantifiers followed by
    existentials, decided by the oracle once the precondition holds: the
    oracle already plays each instance-graph component's game on its own.
    No polynomial bound is claimed when the block is unbounded."""
    return oracle.evaluate(b, s, budget=budget)


def _centre_finding(b, g, s, th, budget) -> bool:
    """The 5-vertex path with thresholds {1, 3}: the centre-finding
    characterisation.

    True iff the instance graph is loop-free and bipartite, every pair of
    threshold-3 variables sits at even distance at least 4, and no
    existential variable precedes an adjacent threshold-3 variable.
    """
    ig = instance_graph(s)
    if ig.bipartition() is None:
        return False
    threes = [i for i, t in enumerate(th) if t == 3]
    for a_pos in range(len(threes)):
        dist = ig.distances_from(threes[a_pos])
        for b_pos in range(a_pos + 1, len(threes)):
            d = dist.get(threes[b_pos])
            if d is not None and (d % 2 == 1 or d < 4):
                return False
    for x in threes:
        for p in ig.adj[x]:
            if p < x and th[p] == 1:
                return False
    return True


# ---------------------------------------------------------------------------
# The tractable cases, read by `dispatch` (the CLI's `auto` engine), by
# `decide` and by `classify`


class Tractable(Record):
    """One tractable case: its dispatch ``tag``, the ``citation``
    ``classify`` gives it, ``why_not(|B|, template graph, thresholds in
    prefix order)``, None when the case applies and otherwise the reason,
    and its decider ``decide(template, template graph, sentence,
    thresholds, node budget)``, which runs only where ``why_not`` is None;
    only the forest decider searches, so only it reads the budget.  An
    entry with ``graph=False`` uses no graph, is passed None for it, and
    also covers templates that are not loop-free graphs; `dispatch` tests
    it before reading the template's graph view."""

    _fields = ("tag", "citation", "why_not", "decide", "graph")

    def __init__(
        self,
        tag: str,
        citation: str,
        why_not: Callable[[int, GraphView | None, Sequence[int]], str | None],
        decide: Callable[..., bool],
        graph: bool = True,
    ) -> None:
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "citation", citation)
        object.__setattr__(self, "why_not", why_not)
        object.__setattr__(self, "decide", decide)
        object.__setattr__(self, "graph", graph)


ALL_UNIVERSAL = Tractable(
    "all-universal",
    "universal-only",
    lambda n, g, th: None if set(th) <= {n} else "decider needs every threshold equal to |B|",
    _all_universal,
    graph=False,
)
CLIQUE_HIGH = Tractable(
    "clique high thresholds",
    "Thm 1 i",
    lambda n, g, th: _above_half(n, th) if g.is_complete() else "template is not a clique",
    _star_criterion,
)
CYCLE = Tractable(
    "cycle tractable",
    "Thm 2 i",
    lambda n, g, th: _cycle_tractable(n, th) if g.is_cycle() else "template is not a cycle",
    _cycle_branches,
)
COMPLETE_BIPARTITE = Tractable(
    "complete bipartite",
    "Prop complete-bipartite",
    lambda n, g, th: None if g.complete_bipartite_sides() else "template is not K_{k,l}",
    _parity_propagation,
)
C4_CONTAINMENT = Tractable(
    "C4 containment",
    "Prop C4-containment",
    lambda n, g, th: _with_c4(g, th),
    _instance_bipartite,
)
SMALL_BIPARTITION = Tractable(
    "small bipartition",
    "Prop small-bipartition",
    lambda n, g, th: _small_bipartition(g, max(th, default=1), th),
    _fold_count,
)
P5_ONE_THREE = Tractable(
    "P5 {1,3}",
    "Prop P5 {1,3}",
    lambda n, g, th: _one_and(3, th) if n == 5 and g.is_path_graph() else "template is not P5",
    _centre_finding,
)
FOREST = Tractable(
    "forest bounded prefix",
    "Thm 4",
    lambda n, g, th: _forest_prefix(g, th),
    _forest_oracle,
)

# In matching order: `dispatch` takes the first entry that applies.
TRACTABLE = (
    ALL_UNIVERSAL,
    CLIQUE_HIGH,
    CYCLE,
    COMPLETE_BIPARTITE,
    C4_CONTAINMENT,
    SMALL_BIPARTITION,
    P5_ONE_THREE,
    FOREST,
)


def complete_bipartite_enabled() -> bool:
    """Always True: `auto` routes every complete bipartite template to its
    decider, which the test suite's gate checks against the oracle.  Kept
    for the bench harness, which records it with each run."""
    return True


def dispatch(
    b: Structure, s: Sentence, *, budget: int | None = None
) -> tuple[str, Callable[[], bool]] | None:
    """Match a decider's precondition against (template, sentence).

    Returns (tag, thunk) for the first entry whose ``why_not`` is None, or
    None when only the oracle applies.  The tag names the matched
    criterion so `auto` can report which result fired; ``budget`` bounds
    the thunk's search as it bounds the oracle's.
    """
    n = b.domain_size
    th = oracle.prefix_thresholds(s, n)
    g = None
    for case in TRACTABLE:
        if case.graph and g is None:
            g = graph_view(b)
            if g is None or g.loops:
                return None
            if any(name != g.relation or len(vs) != 2 for name, vs in s.atoms):
                return None
        if case.why_not(n, g, th) is None:
            return case.tag, lambda: case.decide(b, g, s, th, budget)
    return None


def decide(case: Tractable, b: Structure, s: Sentence, *, budget: int | None = None) -> bool:
    """Run ``case``'s decider on (template, sentence), or raise its
    ``why_not`` reason as a PreconditionError where the case does not
    apply.  A relation the template lacks is a SignatureError, as in the
    oracle; ``budget`` bounds the forest decider's search."""
    n = b.domain_size
    th = oracle.prefix_thresholds(s, n)
    g = require_graph(b) if case.graph else None
    reason = case.why_not(n, g, th)
    if reason is not None:
        raise PreconditionError(reason)
    if case.graph:
        oracle.check_signature(b, s)
    return case.decide(b, g, s, th, budget)


# ---------------------------------------------------------------------------
# Classifier


def _verdict(case: Tractable) -> ComplexityVerdict:
    return ComplexityVerdict(ComplexityClass.IN_L, case.citation)


def _classify_clique(n: int, g: GraphView, X: frozenset[int]) -> ComplexityVerdict:
    if n <= 2 or CLIQUE_HIGH.why_not(n, g, sorted(X)) is None:
        return _verdict(CLIQUE_HIGH)
    if X == frozenset({1}):
        return ComplexityVerdict(ComplexityClass.NP_COMPLETE, "Thm 1 ii")
    if any(j > 1 and 2 * j < n for j in X):
        return ComplexityVerdict(ComplexityClass.PSPACE_COMPLETE, "Thm 1 iii")
    if 1 in X and any(2 * j >= n and j > 1 for j in X):
        return ComplexityVerdict(ComplexityClass.PSPACE_COMPLETE, "Thm 1 iii")
    return ComplexityVerdict(ComplexityClass.OPEN, "")


def _classify_cycle(n: int, g: GraphView, X: frozenset[int]) -> ComplexityVerdict:
    if CYCLE.why_not(n, g, sorted(X)) is None:
        return _verdict(CYCLE)
    if n % 2 == 1 and X == frozenset({1}):
        return ComplexityVerdict(ComplexityClass.NP_COMPLETE, "Thm 2 ii")
    return ComplexityVerdict(ComplexityClass.PSPACE_COMPLETE, "Thm 2 iii")


def _classify_bipartite_threshold_set(
    b: Structure, g: GraphView, size: int, X: frozenset[int]
) -> ComplexityVerdict:
    th = sorted(X)
    if ALL_UNIVERSAL.why_not(size, g, th) is None:
        return _verdict(ALL_UNIVERSAL)
    if g.bipartition() is None:
        if X == frozenset({1}):
            return ComplexityVerdict(ComplexityClass.NP_COMPLETE, "CSP dichotomy (cited)")
        if 1 in X:
            return ComplexityVerdict(ComplexityClass.NP_HARD, "non-bipartite template (cited)")
        return ComplexityVerdict(ComplexityClass.OPEN, "")
    if X == frozenset({1}):
        return ComplexityVerdict(ComplexityClass.IN_L, "bipartite CSP (cited)")
    if 1 in X and len(X) == 2:
        j = max(X)
        if j == size:
            return ComplexityVerdict(ComplexityClass.IN_L, "bipartite QCSP (cited)")
        if j >= 3 and size == j + 3 and b == build_template(hj_template(j)):
            return ComplexityVerdict(ComplexityClass.PSPACE_COMPLETE, "Prop bipartite H_j")
        for case in (SMALL_BIPARTITION, C4_CONTAINMENT, P5_ONE_THREE):
            if case.why_not(size, g, th) is None:
                return _verdict(case)
    return ComplexityVerdict(ComplexityClass.OPEN, "")


def classify(family: TemplateFamily, fragment: FragmentSpec) -> ComplexityVerdict:
    """The complexity classification of ``family``'s template under
    ``fragment``, with a citation tag; Open where no covered result applies.
    It reads the built template alone, through `dispatch`'s shape tests and
    equality with the special templates, so every name of one template gets
    one verdict."""
    b = build_template(family)
    size = b.domain_size
    g = graph_view(b)
    if isinstance(fragment, ThresholdSet):
        X = fragment.thresholds
        if max(X) > size:
            raise InvalidStructureError(
                f"threshold {max(X)} exceeds template size {size}"
            )
        if g is not None and not g.loops:
            if g.is_complete():
                return _classify_clique(size, g, X)
            if g.is_cycle():
                return _classify_cycle(size, g, X)
            if COMPLETE_BIPARTITE.why_not(size, g, sorted(X)) is None:
                return _verdict(COMPLETE_BIPARTITE)
            return _classify_bipartite_threshold_set(b, g, size, X)
        if ALL_UNIVERSAL.why_not(size, g, sorted(X)) is None:
            return _verdict(ALL_UNIVERSAL)
        if b == build_template(reflexive_cycle(4)):
            if X == frozenset({1, 2, 3, 4}):
                return ComplexityVerdict(ComplexityClass.PSPACE_COMPLETE, "Prop reflexive-C4")
            if X == frozenset({1, 4}):
                return ComplexityVerdict(
                    ComplexityClass.PSPACE_COMPLETE, "Cor reflexive-C4 QCSP"
                )
        if b == build_template(nae_boolean()):
            if X == frozenset({1}):
                return ComplexityVerdict(ComplexityClass.NP_COMPLETE, "NAE-3SAT (cited)")
            if X == frozenset({1, 2}):
                return ComplexityVerdict(
                    ComplexityClass.PSPACE_COMPLETE, "quantified NAE-3SAT (cited)"
                )
        single = len(X) == 1 and 1 < max(X) < size
        if single and b == build_template(single_quantifier_template(size, max(X))):
            return ComplexityVerdict(ComplexityClass.PSPACE_COMPLETE, "single middle quantifier")
        return ComplexityVerdict(ComplexityClass.OPEN, "")

    if isinstance(fragment, BoundedPrefix):
        if g is None or g.loops:
            return ComplexityVerdict(ComplexityClass.OPEN, "")
        prefix = (2,) * fragment.m + (1,)
        if any(case.why_not(size, g, prefix) is None for case in (FOREST, C4_CONTAINMENT)):
            return ComplexityVerdict(ComplexityClass.IN_P, FOREST.citation)
        return ComplexityVerdict(ComplexityClass.NP_COMPLETE, FOREST.citation)

    raise InvalidStructureError(f"unknown fragment {fragment!r}")
