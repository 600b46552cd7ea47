"""The gadget compiler: every hardness reduction as an executable
sentence/template transformation, plus an oracle-backed equivalence
verifier.

Each reduction is declared once, as a ``RuleSpec`` in ``RULES``, and every
rule is compiled one way: ``compile_rule(rule(name, **params),
source_template, s)``.

Fresh variables follow the ``<orig>~<role>~<index>`` naming scheme and are
kept disjoint from source variables, so compiled sentences never collide.
Compilation is deterministic: atom and quantifier orders depend only on the
input, and identical inputs render byte-identically.
"""

from __future__ import annotations

import itertools
import math
import time

from . import oracle
from .model import (
    Atom,
    InvalidStructureError,
    Quantifier,
    Record,
    Sentence,
    Structure,
    build_template,
    clique,
    cycle,
    nae_boolean,
    once_per_instance,
    reflexive_cycle,
    require_graph,
    single_quantifier_template,
)
from .textio import parse_sentence


class ReductionRule(Record):
    """A named reduction with its integer (or template-spec) parameters."""

    _fields = ("name", "params")

    def __init__(self, name: str, params: tuple[tuple[str, object], ...] = ()) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", params)
        if self.name not in RULES:
            raise InvalidStructureError(f"unknown reduction rule {self.name!r}")
        takes = RULES[self.name].params
        for key, _ in self.params:
            if key not in takes:
                raise InvalidStructureError(f"rule {self.name!r} takes no parameter {key!r}")
        for key in takes:
            if self.get(key) is None:
                raise InvalidStructureError(f"rule {self.name!r} needs {key}=<value>")

    def get(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    @once_per_instance
    def source_template(self) -> Structure:
        """The template this rule's source sentences are evaluated on,
        built once per rule."""
        return RULES[self.name].source_template(self)

    @once_per_instance
    def target_template(self) -> Structure:
        """The template this rule's compiled sentences are evaluated on,
        built once per rule; it depends on the parameters alone."""
        return RULES[self.name].target_template(self)

    def __str__(self) -> str:
        body = " ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name} {body}".strip()


def rule(name: str, **params) -> ReductionRule:
    return ReductionRule(name, tuple(sorted(params.items())))


class GadgetBlueprint(Record):
    """A reusable sub-sentence: fresh variables with their quantifier block,
    atoms over fresh plus attachment variables, and the attachment points.

    The universal-path blueprint also (re)quantifies its attachment point;
    its quantifier block therefore covers the attachments as well.
    """

    _fields = ("fresh_variables", "quantifiers", "atoms", "attachments")

    def __init__(
        self,
        fresh_variables: tuple[str, ...],
        quantifiers: tuple[Quantifier, ...],
        atoms: tuple[Atom, ...],
        attachments: tuple[str, ...],
    ) -> None:
        object.__setattr__(self, "fresh_variables", fresh_variables)
        object.__setattr__(self, "quantifiers", quantifiers)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "attachments", attachments)
        if set(self.fresh_variables) & set(self.attachments):
            raise InvalidStructureError("fresh variables overlap the attachment points")


class _Names:
    """Deterministic fresh-name source that avoids a given taken set."""

    def __init__(self, taken: Iterable[str]) -> None:
        self.taken = set(taken)

    def make(self, base: str) -> str:
        name = base
        bump = 0
        while name in self.taken:
            bump += 1
            name = f"{base}~{bump}"
        self.taken.add(name)
        return name


def _resolve_for(s: Sentence, domain_size: int, allowed: set[int], what: str) -> Sentence:
    rs = s.resolved(domain_size)
    bad = {q.threshold for q in rs.prefix} - allowed
    if bad:
        raise InvalidStructureError(
            f"{what}: source thresholds {sorted(bad)} outside {sorted(allowed)}"
        )
    return rs


def _dedup_edges(s: Sentence) -> list[tuple[str, str]]:
    """Distinct undirected matrix edges (loops included) in first-occurrence
    order; requires a single binary symbol."""
    seen = set()
    out = []
    for name, vs in s.atoms:
        if len(vs) != 2:
            raise InvalidStructureError("graph reduction needs binary atoms")
        key = frozenset(vs)
        if key not in seen:
            seen.add(key)
            out.append((vs[0], vs[1]))
    return out


def _clique_atoms(members: Sequence[str]) -> list[Atom]:
    """An edge atom for every pair of ``members``, in lexicographic order."""
    return [("E", pair) for pair in itertools.combinations(members, 2)]


# ---------------------------------------------------------------------------
# Single-quantifier simulation of quantified not-all-equal satisfiability


def _nae_sentence(j: int, n: int, s: Sentence) -> Sentence:
    """Compile an exists/for-all sentence over the not-all-equal template
    into a single-threshold sentence over the n-element simulation template.

    Every quantifier becomes threshold j; former universals gain a U(x)
    conjunct, which pins their witness set to the designated block.
    """
    if not (3 <= n and 1 < j < n):
        raise InvalidStructureError("needs 3 <= n and 1 < j < n")
    rs = _resolve_for(s, 2, {1, 2}, "nae reduction")
    for name, vs in rs.atoms:
        if name != "R" or len(vs) != 3:
            raise InvalidStructureError("nae sources use the ternary relation R only")
    prefix = tuple(Quantifier(j, q.variable) for q in rs.prefix)
    atoms = list(rs.atoms)
    for q in rs.prefix:
        if q.threshold == 2:
            atoms.append(("U", (q.variable,)))
    return Sentence(prefix, tuple(atoms))


# ---------------------------------------------------------------------------
# Cliques


def block_distinctness_gadget(
    j: int, xs: Sequence[str], ys: Sequence[str], tag: str, names: _Names | None = None
) -> GadgetBlueprint:
    """The edge gadget for single-threshold cliques: with the fresh block
    quantified at threshold j over the (2j+1)-clique, it is satisfiable iff
    the x-block and y-block values overlap in fewer than j elements."""
    if j < 2:
        raise InvalidStructureError("gadget needs j >= 2")
    if len(xs) != j or len(ys) != j:
        raise InvalidStructureError("gadget attachments must be two j-blocks")
    names = names or _Names(list(xs) + list(ys))
    zs = [names.make(f"{tag}~z~{b}") for b in range(1, j + 1)]
    w = names.make(f"{tag}~w~1")
    atoms: list[Atom] = []
    for x in xs:
        for z in zs:
            atoms.append(("E", (x, z)))
    for y in ys:
        atoms.append(("E", (w, y)))
    for z in zs:
        atoms.append(("E", (w, z)))
    quantifiers = tuple(Quantifier(j, v) for v in zs + [w])
    return GadgetBlueprint(tuple(zs + [w]), quantifiers, tuple(atoms), tuple(xs) + tuple(ys))


def _clique_blocks_sentence(j: int, s: Sentence) -> Sentence:
    """Compile a quantified colouring sentence over the choose(2j+1, j)
    clique into a pure threshold-j sentence over the (2j+1)-clique.

    Vertices become independent j-blocks; edges become distinctness
    gadgets with per-edge fresh variables quantified innermost; universal
    vertices are preceded by j forcing cliques of size j+1.
    """
    if j < 2:
        raise InvalidStructureError("needs j >= 2")
    big = math.comb(2 * j + 1, j)
    rs = _resolve_for(s, big, {1, big}, "clique block reduction")
    names = _Names([q.variable for q in rs.prefix])
    blocks = {
        q.variable: [names.make(f"{q.variable}~blk~{i}") for i in range(1, j + 1)]
        for q in rs.prefix
    }
    prefix: list[Quantifier] = []
    atoms: list[Atom] = []
    for q in rs.prefix:
        if q.threshold == big:
            for i in range(1, j + 1):
                forcing = [names.make(f"{q.variable}~u{i}~{t}") for t in range(1, j + 2)]
                prefix.extend(Quantifier(j, f) for f in forcing)
                members = forcing + [blocks[q.variable][i - 1]]
                atoms.extend(_clique_atoms(members))
        prefix.extend(Quantifier(j, v) for v in blocks[q.variable])
    for e, (x, y) in enumerate(_dedup_edges(rs)):
        gadget = block_distinctness_gadget(j, blocks[x], blocks[y], f"e{e}", names)
        prefix.extend(gadget.quantifiers)
        atoms.extend(gadget.atoms)
    return Sentence(tuple(prefix), tuple(atoms))


def _pad_clique_sentence(j: int, n: int, s: Sentence) -> Sentence:
    """Lift a threshold-j sentence from the (2j+1)-clique to the n-clique by
    an outermost (n-2j-1)-clique of fresh variables adjacent to
    everything."""
    if not n > 2 * j + 1 >= 5:
        raise InvalidStructureError("needs n > 2j+1 >= 5")
    rs = _resolve_for(s, 2 * j + 1, {j}, "clique padding")
    names = _Names([q.variable for q in rs.prefix])
    pads = [names.make(f"pad~c~{i}") for i in range(1, n - 2 * j)]
    prefix = tuple(Quantifier(j, p) for p in pads) + rs.prefix
    atoms = list(rs.atoms)
    atoms.extend(_clique_atoms(pads))
    for p in pads:
        for q in rs.prefix:
            atoms.append(("E", (p, q.variable)))
    return Sentence(prefix, tuple(atoms))


def _clique_one_j_sentence(n: int, j: int, s: Sentence) -> Sentence:
    """Simulate quantified n-colouring with thresholds {1, j}: universal
    vertices gain n-j fresh threshold-j companions clique-joined with
    them."""
    if not 1 < j <= n:
        raise InvalidStructureError("needs 1 < j <= n")
    rs = _resolve_for(s, n, {1, n}, "clique {1,j} reduction")
    names = _Names([q.variable for q in rs.prefix])
    prefix: list[Quantifier] = []
    atoms = list(rs.atoms)
    for q in rs.prefix:
        if q.threshold == n and n > 1:
            companions = [names.make(f"{q.variable}~u~{t}") for t in range(1, n - j + 1)]
            prefix.extend(Quantifier(j, c) for c in companions)
            prefix.append(Quantifier(j, q.variable))
            members = companions + [q.variable]
            atoms.extend(_clique_atoms(members))
        else:
            prefix.append(Quantifier(1, q.variable))
    return Sentence(tuple(prefix), tuple(atoms))


# ---------------------------------------------------------------------------
# Cycles


def universal_path_gadget(
    n: int, j: int, x: str, names: _Names | None = None
) -> GadgetBlueprint:
    """The path block simulating a universal quantifier on the n-cycle with
    thresholds {1, j}: n segments of j-1 fresh path vertices ending at x.

    The block quantifies the segment heads and x at threshold j, then the
    fillers existentially; the attachment point x is rebound by the block.
    """
    if not (n >= 3 and 2 <= j < n):
        raise InvalidStructureError("needs n >= 3 and 2 <= j < n")
    names = names or _Names([x])
    segs = [
        [names.make(f"{x}~p{k}~{i}") for i in range(1, j)]
        for k in range(1, n + 1)
    ]
    path = [v for seg in segs for v in seg] + [x]
    atoms = tuple(("E", (path[t], path[t + 1])) for t in range(len(path) - 1))
    quantifiers = [Quantifier(j, seg[0]) for seg in segs]
    quantifiers.append(Quantifier(j, x))
    for seg in segs:
        quantifiers.extend(Quantifier(1, v) for v in seg[1:])
    fresh = tuple(v for seg in segs for v in seg)
    return GadgetBlueprint(fresh, tuple(quantifiers), atoms, (x,))


def _universals_as_paths(
    n: int, j: int, universal: int, rs: Sentence, names: _Names,
    prefix: list[Quantifier], atoms: list[Atom],
) -> None:
    """Quantify the source variables in order: each threshold-``universal``
    one as its path block on the n-cycle, every other one existentially.
    Appends to ``prefix`` and ``atoms``."""
    for q in rs.prefix:
        if q.threshold == universal:
            gadget = universal_path_gadget(n, j, q.variable, names)
            prefix.extend(gadget.quantifiers)
            atoms.extend(gadget.atoms)
        else:
            prefix.append(Quantifier(1, q.variable))


def _odd_cycle_sentence(n: int, j: int, s: Sentence) -> Sentence:
    """Compile a quantified sentence over the n-cycle (odd n), thresholds
    {1, n}, into one over the same cycle with thresholds {1, j}: every
    universal becomes its path block, and the source atoms are kept."""
    if n % 2 == 0 or not 2 <= j < n:
        raise InvalidStructureError("needs odd n >= 3 and 2 <= j < n")
    rs = _resolve_for(s, n, {1, n}, "odd-cycle reduction")
    names = _Names([q.variable for q in rs.prefix])
    prefix: list[Quantifier] = []
    atoms = list(rs.atoms)
    _universals_as_paths(n, j, n, rs, names, prefix, atoms)
    return Sentence(tuple(prefix), tuple(atoms))


def even_cycle_offsets(n: int, j: int) -> tuple[int, list[int]]:
    """(r, alpha) for the even-cycle reduction: r is the path length
    correction and alpha the threshold-j cycle indices, ending at n/2+1."""
    r = (-(n // 2) - 2) % (j - 1)
    count = (n // 2 + 2 + r) // (j - 1)
    alpha = [k * j - r - k - 1 for k in range(1, count + 1)]
    if alpha[-1] != n // 2 + 1:
        raise AssertionError("alpha indices must end at n/2 + 1")
    return r, alpha


def _even_cycle_sentence(
    n: int, j: int, s: Sentence, source_is_qcsp: bool
) -> Sentence:
    """Compile a sentence over the (n/2)-clique into one over the n-cycle
    (even n) with thresholds {1, j}.

    The construction appends a fixed cycle with an anchoring path, forces
    part of it at threshold j, and replaces every source edge by a chain of
    3n/2 cycle copies whose far end carries the edge's endpoints; in the
    quantified variant universal variables are first replaced by path
    blocks.
    """
    if n < 6 or n % 2 or not 2 <= j <= n // 2:
        raise InvalidStructureError("needs even n >= 6 and 2 <= j <= n/2")
    half = n // 2
    allowed = {1, half} if source_is_qcsp else {1}
    rs = _resolve_for(s, half, allowed, "even-cycle reduction")
    r, alpha = even_cycle_offsets(n, j)

    names = _Names([q.variable for q in rs.prefix])
    w = [names.make(f"w~p~{i}") for i in range(r + 1)]
    v = [names.make(f"v~c~{i}") for i in range(n)]
    atoms: list[Atom] = []
    for i in range(n):
        atoms.append(("E", (v[i], v[(i + 1) % n])))
    for i in range(r):
        atoms.append(("E", (w[i], w[i + 1])))
    atoms.append(("E", (w[r], v[0])))

    prefix: list[Quantifier] = [Quantifier(1, w[0])]
    prefix.extend(Quantifier(j, v[a]) for a in alpha)
    rest = [w[i] for i in range(1, r + 1)] + [v[i] for i in range(n) if i not in set(alpha)]
    prefix.extend(Quantifier(1, u) for u in rest)

    _universals_as_paths(n, j, half, rs, names, prefix, atoms)

    for e, (x, y) in enumerate(_dedup_edges(rs)):
        fresh = _chain_of_copies(names, v, x, y, f"e{e}", atoms)
        prefix.extend(Quantifier(1, u) for u in fresh)
    return Sentence(tuple(prefix), tuple(atoms))


def _chain_of_copies(
    names: _Names, base: Sequence[str], x: str, y: str, tag: str, atoms: list[Atom]
) -> list[str]:
    """The edge gadget of the cycle reductions: 3n/2 stacked copies of the
    n-cycle ``base`` (itself the first copy), each vertex joined to its
    copy in the next layer; vertex n/2 of the last copy is y, and a path
    of n/2-2 edges runs from its vertex 0 to x.  Appends the atoms and
    returns the fresh variables in creation order."""
    n = len(base)
    half = n // 2
    copies = 3 * half
    fresh: list[str] = []
    layers = [list(base)]
    for c in range(2, copies + 1):
        layer = []
        for i in range(n):
            if c == copies and i == half:
                layer.append(y)
            else:
                layer.append(names.make(f"{tag}~g{c}~{i}"))
                fresh.append(layer[-1])
        layers.append(layer)
    for lower, upper in zip(layers, layers[1:]):
        atoms.extend(("E", (lower[i], upper[i])) for i in range(n))
    for layer in layers[1:]:
        atoms.extend(("E", (layer[i], layer[(i + 1) % n])) for i in range(n))
    tail = [names.make(f"{tag}~x~{t}") for t in range(1, half - 2)]
    chain = [layers[-1][0], *tail, x]
    atoms.extend(("E", edge) for edge in zip(chain, chain[1:]))
    return fresh + tail


# ---------------------------------------------------------------------------
# Girth isolation for bipartite templates of girth >= 6


@once_per_instance
def _isolation(h: Structure) -> tuple[int, Sentence, tuple[tuple[str, ...], ...]]:
    """girth/2, the spine sentence and its candidate cycles; built once
    per template."""
    g = require_graph(h)
    girth = g.girth()
    if girth is None:
        raise InvalidStructureError("template is acyclic; nothing to isolate")
    if girth % 2 or girth < 6:
        raise InvalidStructureError("needs a bipartite template of girth >= 6")
    if g.bipartition() is None:
        raise InvalidStructureError("template is not bipartite")
    d = g.diameter()
    if d is None:
        raise InvalidStructureError("template must be connected")
    j = girth // 2
    spine = [f"v~s~{i}" for i in range(1, d + 2)]
    prefix = [Quantifier(2, u) for u in spine]
    atoms: list[Atom] = [("E", (spine[i], spine[i + 1])) for i in range(d)]
    tail_quantifiers: list[Quantifier] = []
    cycles = []
    for i in range(1, d - j + 2):
        block = [f"x{i}~b~{t}" for t in range(1, j)]
        prefix.append(Quantifier(2, block[0]))
        tail_quantifiers.extend(Quantifier(1, u) for u in block[1:])
        atoms.append(("E", (block[0], spine[i - 1])))
        atoms.extend(("E", edge) for edge in zip(block, block[1:]))
        atoms.append(("E", (block[-1], spine[i - 1 + j])))
        cycles.append(tuple(spine[i - 1 : i + j]) + tuple(reversed(block)))
    return j, Sentence(tuple(prefix) + tuple(tail_quantifiers), tuple(atoms)), tuple(cycles)


def isolation_spine(h: Structure) -> Sentence:
    """The spine part of the girth-isolation sentence: a threshold-2 path of
    diameter+1 vertices plus one candidate cycle per window.

    Each candidate chain closes a window of the spine into a girth-length
    cycle; the chain's first vertex keeps threshold 2 (it is the adversary's
    probe that a stretched window really lies on a shortest cycle) while the
    remaining chain vertices are existential, since their completions along
    a tight arc are forced anyway.
    """
    return _isolation(h)[1]


def isolation_blocks(h: Structure) -> tuple[tuple[str, ...], ...]:
    """The candidate 2j-cycles of the spine, each in cyclic vertex order."""
    return _isolation(h)[2]


def _girth_isolation_sentence(h: Structure, s: Sentence) -> Sentence:
    """Compile a colouring sentence over the girth/2 clique into the
    bounded-prefix fragment over a bipartite template of girth >= 6.

    A threshold-2 spine with one candidate cycle per window guarantees at
    least one faithfully embedded short cycle; each candidate carries its
    own copy of the downstream chain construction and of the source
    variables.
    """
    j, spine_sentence, blocks = _isolation(h)
    rs = _resolve_for(s, j, {1}, "girth isolation")
    names = _Names(spine_sentence.variables())
    prefix = list(spine_sentence.prefix)
    atoms = list(spine_sentence.atoms)
    edges = _dedup_edges(rs)
    for bi, cyc in enumerate(blocks, start=1):
        copy_of = {q.variable: names.make(f"b{bi}~{q.variable}") for q in rs.prefix}
        w0 = names.make(f"b{bi}~w~0")
        prefix.append(Quantifier(1, w0))
        atoms.append(("E", (w0, cyc[0])))
        prefix.extend(Quantifier(1, copy_of[q.variable]) for q in rs.prefix)
        for e, (x, y) in enumerate(edges):
            fresh = _chain_of_copies(names, cyc, copy_of[x], copy_of[y], f"b{bi}~e{e}", atoms)
            prefix.extend(Quantifier(1, u) for u in fresh)
    return Sentence(tuple(prefix), tuple(atoms))


# ---------------------------------------------------------------------------
# The reflexive 4-cycle


def _reflexive_c4_sentence(s: Sentence) -> Sentence:
    """Compile a quantified 4-colouring sentence into thresholds {1,2,3,4}
    over the reflexive 4-cycle: a mixed-threshold fixed copy of the
    template plus one three-layer square gadget per source edge."""
    rs = _resolve_for(s, 4, {1, 4}, "reflexive-C4 reduction")
    names = _Names([q.variable for q in rs.prefix])
    z = [names.make(f"z~c~{p}") for p in range(1, 5)]
    prefix: list[Quantifier] = [
        Quantifier(1, z[0]),
        Quantifier(2, z[1]),
        Quantifier(3, z[2]),
        Quantifier(2, z[3]),
    ]
    atoms: list[Atom] = []
    for p in range(4):
        atoms.append(("E", (z[p], z[(p + 1) % 4])))
    for p in range(4):
        atoms.append(("E", (z[p], z[p])))
    for q in rs.prefix:
        prefix.append(Quantifier(4 if q.threshold == 4 else 1, q.variable))
    inner: list[str] = []
    for e, (x, y) in enumerate(_dedup_edges(rs)):
        layers = [z]
        for tag in ("a", "b", "c"):
            layer = []
            for p in range(1, 5):
                if tag == "c" and p == 3:
                    layer.append(y)
                else:
                    name = names.make(f"e{e}~{tag}~{p}")
                    layer.append(name)
                    inner.append(name)
            layers.append(layer)
        for layer in layers[1:]:
            for p in range(4):
                atoms.append(("E", (layer[p], layer[(p + 1) % 4])))
        for outer_layer, inner_layer in zip(layers, layers[1:]):
            for p in range(4):
                atoms.append(("E", (outer_layer[p], inner_layer[p])))
                atoms.append(("E", (outer_layer[p], inner_layer[(p + 1) % 4])))
        atoms.append(("E", (x, layers[3][0])))
    prefix.extend(Quantifier(1, u) for u in inner)
    return Sentence(tuple(prefix), tuple(atoms))


def _expand_reflexive_c4_macros(s: Sentence) -> Sentence:
    """Rewrite thresholds 2 and 3 into for-all/exists shorthand, valid on
    the reflexive 4-cycle: each threshold-2 quantifier gains one universal
    guard adjacent to it, each threshold-3 quantifier two."""
    rs = _resolve_for(s, 4, {1, 2, 3, 4}, "macro expansion")
    names = _Names([q.variable for q in rs.prefix])
    prefix: list[Quantifier] = []
    atoms = list(rs.atoms)
    for q in rs.prefix:
        if q.threshold in (2, 3):
            guards = [
                names.make(f"{q.variable}~p~{t}")
                for t in range(1, q.threshold)
            ]
            prefix.extend(Quantifier(4, guard) for guard in guards)
            prefix.append(Quantifier(1, q.variable))
            for guard in guards:
                atoms.append(("E", (guard, q.variable)))
        else:
            prefix.append(q)
    return Sentence(tuple(prefix), tuple(atoms))


# ---------------------------------------------------------------------------
# Verification


class _Result(Record):
    """A verification result: a record that stays mutable, and so
    unhashable, while the verifier fills it in."""

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class ReductionCase(_Result):
    _fields = (
        "index", "source", "source_verdict", "target_verdict", "status", "target_vars",
        "target_atoms", "seconds",
    )

    def __init__(
        self,
        index: int,
        source: str,
        source_verdict: str,
        target_verdict: str,
        status: str,
        target_vars: int = 0,
        target_atoms: int = 0,
        seconds: float = 0.0,
    ) -> None:
        self.index = index
        self.source = source
        self.source_verdict = source_verdict
        self.target_verdict = target_verdict
        self.status = status
        self.target_vars = target_vars
        self.target_atoms = target_atoms
        self.seconds = seconds

    def line(self) -> str:
        return f"{self.index} {self.source_verdict} {self.target_verdict} {self.status}"


class ReductionReport(_Result):
    _fields = ("rule", "cases")

    def __init__(self, rule: ReductionRule, cases: list[ReductionCase] | None = None) -> None:
        self.rule = rule
        self.cases = [] if cases is None else cases

    def lines(self) -> list[str]:
        return [c.line() for c in self.cases]

    def disagreements(self) -> list[ReductionCase]:
        return [c for c in self.cases if c.status == "DISAGREE"]

    def skipped(self) -> list[ReductionCase]:
        return [c for c in self.cases if c.status == "budget-skipped"]

    def ok(self) -> bool:
        return not self.disagreements()


def compile_rule(
    rule_: ReductionRule, source_template: Structure, source: Sentence
) -> tuple[Structure, Sentence]:
    """Compile one source under the rule; raises on precondition failure."""
    spec = RULES[rule_.name]
    if source_template != rule_.source_template():
        raise InvalidStructureError(spec.mismatch)
    compiled = spec.compile(rule_, source)
    return rule_.target_template(), compiled


def corrupt_compiled(target: tuple[Structure, Sentence]) -> tuple[Structure, Sentence]:
    """Deliberately break a compiled sentence by rewiring its last atom onto
    the first prefix variable; used by fault-injection tests to prove the
    verifier catches bad gadgets."""
    template, s = target
    if not s.atoms or not s.prefix:
        return target
    name, vs = s.atoms[-1]
    first = s.prefix[0].variable
    mutated = (name, tuple(first for _ in vs))
    return template, Sentence(s.prefix, s.atoms[:-1] + (mutated,))


def _random_graph_sentence(
    rng, n_vars: int, max_atoms: int, thresholds: Sequence[int | None]
) -> Sentence:
    names = [f"s{i}" for i in range(n_vars)]
    prefix = tuple(Quantifier(rng.choice(list(thresholds)), v) for v in names)
    atoms = []
    for _ in range(rng.randint(0, max_atoms)):
        a = rng.choice(names)
        b = rng.choice(names)
        atoms.append(("E", (a, b)))
    return Sentence(prefix, tuple(atoms))


def default_sources(rule_: ReductionRule, trials: int, seed: int) -> list[Sentence]:
    """A seeded source suite for command-line verification of a rule.
    ``random`` is imported here, not with the package, which needs it
    nowhere else."""
    import random

    return RULES[rule_.name].sources(rule_, trials, random.Random(seed))


def verify_reduction(
    rule_: ReductionRule,
    source_template: Structure,
    sources: Sequence[Sentence],
    *,
    budget: int | None = None,
    corrupt: bool = False,
) -> ReductionReport:
    """Evaluate each source and its compiled target with the oracle.

    Any disagreement is a hard failure (status DISAGREE).  Each oracle
    run gets ``budget`` nodes (None means the oracle's default, 10^7), and
    a case whose run exceeds it is reported as budget-skipped, never as
    passed.  Precondition violations are reported per source.
    """
    report = ReductionReport(rule_)
    for index, source in enumerate(sources):
        label = str(source)
        start = time.perf_counter()
        try:
            template, s = compile_rule(rule_, source_template, source)
            if corrupt:
                template, s = corrupt_compiled((template, s))
        except InvalidStructureError as exc:
            report.cases.append(
                ReductionCase(index, label, "?", "?", f"precondition({exc})")
            )
            continue
        # a node-budget stop leaves the verdicts not reached as '?'
        verdicts = ["?", "?"]
        try:
            verdicts[0] = _yes_no(oracle.evaluate(source_template, source, budget=budget))
            verdicts[1] = _yes_no(oracle.evaluate(template, s, budget=budget))
            status = "agree" if verdicts[0] == verdicts[1] else "DISAGREE"
        except oracle.BudgetExceededError:
            status = "budget-skipped"
        report.cases.append(ReductionCase(
            index, label, *verdicts, status, len(s.prefix), len(s.atoms),
            time.perf_counter() - start,
        ))
    return report


def _yes_no(verdict: bool) -> str:
    return "yes" if verdict else "no"


# ---------------------------------------------------------------------------
# The rule registry


class RuleSpec(Record):
    """One reduction rule, declared once: the ``params`` it needs, the
    templates its sources and its targets are evaluated on
    (``source_template(rule)``, ``target_template(rule)``), its compiler
    ``compile(rule, source sentence) -> target sentence``, its seeded
    source suite ``sources(rule, trials, rng)`` and the error for any other
    source template (``mismatch``)."""

    _fields = ("params", "source_template", "target_template", "compile", "sources", "mismatch")

    def __init__(
        self,
        params: tuple[str, ...],
        source_template: Callable[[ReductionRule], Structure],
        target_template: Callable[[ReductionRule], Structure],
        compile: Callable[[ReductionRule, Sentence], Sentence],
        sources: Callable[[ReductionRule, int, random.Random], list[Sentence]],
        mismatch: str,
    ) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "source_template", source_template)
        object.__setattr__(self, "target_template", target_template)
        object.__setattr__(self, "compile", compile)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "mismatch", mismatch)


def _nae_sources(rule_: ReductionRule, trials: int, rng: random.Random) -> list[Sentence]:
    names = ["a", "b", "c"]
    out = []
    for _ in range(trials):
        n_vars = rng.randint(1, 3)
        vs = names[:n_vars]
        prefix = tuple(Quantifier(rng.choice((1, 2)), v) for v in vs)
        atoms = []
        for _ in range(rng.randint(1, 2)):
            triple = [rng.choice(vs) for _ in range(3)]
            if len(set(triple)) == 1 and len(vs) > 1:
                # avoid the trivially-false all-equal atom most of the time
                triple[rng.randrange(3)] = rng.choice(
                    [v for v in vs if v != triple[0]]
                )
            atoms.append(("R", tuple(triple)))
        out.append(Sentence(prefix, tuple(atoms)))
    return out


def _random_sources(thresholds: Callable[[ReductionRule], list[int]]):
    """Random graph sentences of 1-3 variables and up to 3 atoms."""

    def sources(rule_: ReductionRule, trials: int, rng: random.Random) -> list[Sentence]:
        return [
            _random_graph_sentence(rng, rng.randint(1, 3), 3, thresholds(rule_))
            for _ in range(trials)
        ]

    return sources


def _fixed_sources(*texts: str):
    """A fixed suite cut to its first ``trials`` sentences; ``{A}`` in a
    text is the size of the rule's source template."""

    def sources(rule_: ReductionRule, trials: int, rng: random.Random) -> list[Sentence]:
        size = rule_.source_template().domain_size
        return [parse_sentence(text.format(A=size)) for text in texts][: max(0, trials)]

    return sources


_SMALL_SOURCES = ("E1 u |", "E1 u | E(u,u)", "E1 u E1 v | E(u,v)")


def _reflexive_c4_sources(rule_: ReductionRule, trials: int, rng: random.Random) -> list[Sentence]:
    """Four fixed sentences, then random ones: ``trials`` in all."""
    fixed = ("E1 u E1 v | E(u,v)", "E4 u E1 v | E(u,v)", "E4 u E4 v | E(u,v)", "E1 u | E(u,u)")
    out = [parse_sentence(text) for text in fixed]
    while len(out) < trials:
        out.append(_random_graph_sentence(rng, rng.randint(1, 3), 2, [1, 4]))
    return out[: max(0, trials)]


def _c4star_sources(rule_: ReductionRule, trials: int, rng: random.Random) -> list[Sentence]:
    """Every sentence of one or two variables and at most two atoms."""
    names = ["x", "y"]
    out = []
    for n_vars in (1, 2):
        vs = names[:n_vars]
        slots = [(a, b) for a in vs for b in vs]
        for combo_bits in range(1 << len(slots)):
            atom_list = [
                ("E", slots[i]) for i in range(len(slots)) if combo_bits >> i & 1
            ]
            if len(atom_list) > 2:
                continue
            for thresholds in itertools.product((1, 2, 3, 4), repeat=n_vars):
                prefix = tuple(Quantifier(t, v) for t, v in zip(thresholds, vs))
                out.append(Sentence(prefix, tuple(atom_list)))
    return out


RULES: dict[str, RuleSpec] = {
    "nae": RuleSpec(
        ("j", "n"),
        lambda r: build_template(nae_boolean()),
        lambda r: build_template(single_quantifier_template(r.get("n"), r.get("j"))),
        lambda r, s: _nae_sentence(r.get("j"), r.get("n"), s),
        _nae_sources,
        "nae sources live on the not-all-equal template",
    ),
    "clique-gj": RuleSpec(
        ("j",),
        lambda r: build_template(clique(math.comb(2 * r.get("j") + 1, r.get("j")))),
        lambda r: build_template(clique(2 * r.get("j") + 1)),
        lambda r, s: _clique_blocks_sentence(r.get("j"), s),
        _fixed_sources(
            *_SMALL_SOURCES,
            "E{A} u E1 v | E(u,v)",
            "E1 u E{A} v | E(u,v)",
            "E{A} u E{A} v | E(u,v)",
        ),
        "clique size mismatch for the block reduction",
    ),
    "clique-pad": RuleSpec(
        ("j", "n"),
        lambda r: build_template(clique(2 * r.get("j") + 1)),
        lambda r: build_template(clique(r.get("n"))),
        lambda r, s: _pad_clique_sentence(r.get("j"), r.get("n"), s),
        _random_sources(lambda r: [r.get("j")]),
        "padding sources live on the (2j+1)-clique",
    ),
    "clique-1j": RuleSpec(
        ("n", "j"),
        lambda r: build_template(clique(r.get("n"))),
        lambda r: build_template(clique(r.get("n"))),
        lambda r, s: _clique_one_j_sentence(r.get("n"), r.get("j"), s),
        _random_sources(lambda r: [1, r.get("n")]),
        "clique size mismatch",
    ),
    "odd-cycle-path": RuleSpec(
        ("n", "j"),
        lambda r: build_template(cycle(r.get("n"))),
        lambda r: build_template(cycle(r.get("n"))),
        lambda r, s: _odd_cycle_sentence(r.get("n"), r.get("j"), s),
        _random_sources(lambda r: [1, r.get("n")]),
        "sources live on the n-cycle",
    ),
    "even-cycle": RuleSpec(
        ("n", "j"),
        lambda r: build_template(clique(r.get("n") // 2)),
        lambda r: build_template(cycle(r.get("n"))),
        lambda r, s: _even_cycle_sentence(r.get("n"), r.get("j"), s, True),
        _fixed_sources(*_SMALL_SOURCES, "E{A} u E1 v | E(u,v)", "E{A} u E{A} v | E(u,v)"),
        "source template must be the n/2 clique",
    ),
    "even-cycle-csp": RuleSpec(
        ("n", "j"),
        lambda r: build_template(clique(r.get("n") // 2)),
        lambda r: build_template(cycle(r.get("n"))),
        lambda r, s: _even_cycle_sentence(r.get("n"), r.get("j"), s, False),
        _fixed_sources(*_SMALL_SOURCES, "E1 u E1 v E1 t | E(u,v) & E(v,t)"),
        "source template must be the n/2 clique",
    ),
    "girth-isolation": RuleSpec(
        ("h",),
        lambda r: build_template(clique(_isolation(r.get("h"))[0])),
        lambda r: r.get("h"),
        lambda r, s: _girth_isolation_sentence(r.get("h"), s),
        _fixed_sources(*_SMALL_SOURCES),
        "sources live on the girth/2 clique",
    ),
    "reflexive-c4": RuleSpec(
        (),
        lambda r: build_template(clique(4)),
        lambda r: build_template(reflexive_cycle(4)),
        lambda r, s: _reflexive_c4_sentence(s),
        _reflexive_c4_sources,
        "sources live on the 4-clique",
    ),
    "c4star-macros": RuleSpec(
        (),
        lambda r: build_template(reflexive_cycle(4)),
        lambda r: build_template(reflexive_cycle(4)),
        lambda r, s: _expand_reflexive_c4_macros(s),
        _c4star_sources,
        "macro sources live on the reflexive 4-cycle",
    ),
}
