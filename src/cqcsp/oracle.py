"""Ground-truth evaluation of counting-quantifier sentences.

``evaluate`` implements the recursive counting semantics directly: at each
quantifier with threshold j it counts the domain elements under which the
remaining suffix holds and succeeds iff the count reaches j.  Atoms are
checked as soon as their last variable is assigned, candidate values are
prefiltered through bitmask adjacency for unary/binary atoms, and verdicts
are memoised per (prefix position, assignment restricted to the live
variables -- those that still occur in an atom together with an unassigned
variable).  The search is pure, so results are independent of evaluation
order.

``extract_strategy`` returns the canonical witness-strategy tree (offered
sets are the smallest winning elements), ``verify_strategy`` replays every
adversary play of a given tree, and ``solve_retraction`` decides
constant-preserving homomorphism by arc consistency plus backtracking.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .model import Sentence, Structure

DEFAULT_NODE_BUDGET = 10_000_000
BUDGET_ENV_VAR = "CQ_NODE_BUDGET"


class BudgetExceededError(RuntimeError):
    """The search used more nodes than the configured budget."""

    def __init__(self, nodes: int) -> None:
        super().__init__(f"node budget exceeded after {nodes} nodes")
        self.nodes = nodes


class ThresholdError(ValueError):
    """A threshold falls outside 1..|B|, where the logic is undefined."""


class SignatureError(ValueError):
    """Sentence atoms do not match the template's signature."""


class StrategyShapeError(ValueError):
    """A strategy tree does not structurally match the sentence prefix."""


def resolve_thresholds(s: Sentence, n: int) -> Sentence:
    """``s`` with the for-all sugar resolved to ``n``; every threshold must
    lie in 1..n."""
    rs = s.resolved(n)
    for q in rs.prefix:
        if not 1 <= q.threshold <= n:
            raise ThresholdError(f"threshold {q.threshold} for {q.variable!r} outside 1..{n}")
    return rs


def effective_budget(budget: Optional[int]) -> int:
    if budget is not None:
        return budget
    return int(os.environ.get(BUDGET_ENV_VAR, DEFAULT_NODE_BUDGET))


@dataclass(frozen=True)
class StrategyNode:
    """A witness-strategy tree node: the offered set (ascending) and one
    child per offered element, in the same order.  Leaves are empty nodes
    at depth equal to the prefix length."""

    offer: tuple[int, ...] = ()
    children: tuple["StrategyNode", ...] = ()

    def is_leaf(self) -> bool:
        return not self.offer

    def depth_ok(self, m: int, at: int = 0) -> bool:
        if at == m:
            return self.is_leaf() and not self.children
        return len(self.children) == len(self.offer) and all(
            c.depth_ok(m, at + 1) for c in self.children
        )


LEAF = StrategyNode()


def _value_tables(b: Structure):
    """Per-relation value masks for the unary/binary fast paths, cached on
    the (immutable) structure instance."""
    cached = b.__dict__.get("_mask_tables")
    if cached is not None:
        return cached
    n = b.domain_size
    out_bits: dict[str, list[int]] = {}
    in_bits: dict[str, list[int]] = {}
    loop_bits: dict[str, int] = {}
    unary_bits: dict[str, int] = {}
    for name, arity in b.signature.relations:
        tups = b.tuples(name)
        if arity == 1:
            unary_bits[name] = sum(1 << t[0] for t in tups)
        elif arity == 2:
            out_m = [0] * n
            in_m = [0] * n
            loop_m = 0
            for a, c in tups:
                out_m[a] |= 1 << c
                in_m[c] |= 1 << a
                if a == c:
                    loop_m |= 1 << a
            out_bits[name] = out_m
            in_bits[name] = in_m
            loop_bits[name] = loop_m
    tables = (out_bits, in_bits, loop_bits, unary_bits)
    object.__setattr__(b, "_mask_tables", tables)
    return tables


class _Search:
    """Compiled evaluation state for one (structure, sentence) pair."""

    def __init__(self, b: Structure, s: Sentence, budget: Optional[int]) -> None:
        n = b.domain_size
        rs = resolve_thresholds(s, n)
        sig = b.signature
        for name, vs in rs.atoms:
            if name not in sig:
                raise SignatureError(f"relation {name!r} not in template signature")
            if sig.arity(name) != len(vs):
                raise SignatureError(f"relation {name!r} arity mismatch")

        self.n = n
        self.m = len(rs.prefix)
        self.thresholds = [q.threshold for q in rs.prefix]
        self.budget = effective_budget(budget)
        self.nodes = 0
        self.assign = [0] * self.m
        self.memo: dict[tuple, bool] = {}

        index = rs.var_index()
        full = (1 << n) - 1
        out_bits, in_bits, loop_bits, unary_bits = _value_tables(b)

        # static_mask[p]: values allowed at p regardless of earlier choices
        # dyn[p]: (value->mask table, earlier position) filters
        # general[p]: residual atom checks evaluated per candidate value
        self.static_mask = [full] * self.m
        self.dyn: list[list[tuple[list[int], int]]] = [[] for _ in range(self.m)]
        self.general: list[list[tuple[frozenset, tuple[int, ...]]]] = [
            [] for _ in range(self.m)
        ]
        occurs_with_later: list[set[int]] = [set() for _ in range(self.m)]

        for name, vs in rs.atoms:
            idxs = tuple(index[v] for v in vs)
            last = max(idxs)
            for i in idxs:
                for k in idxs:
                    if k > i:
                        occurs_with_later[i].add(k)
            arity = len(idxs)
            if arity == 1:
                self.static_mask[last] &= unary_bits[name]
            elif arity == 2:
                a, c = idxs
                if a == c:
                    self.static_mask[last] &= loop_bits[name]
                elif a == last:
                    self.dyn[last].append((in_bits[name], c))
                else:
                    self.dyn[last].append((out_bits[name], a))
            else:
                self.general[last].append((b.tuples(name), idxs))

        # live[p]: assigned positions that still co-occur with a position >= p
        self.live: list[tuple[int, ...]] = []
        co = [sorted(occurs_with_later[i]) for i in range(self.m)]
        for p in range(self.m):
            live = [i for i in range(p) if any(k >= p for k in co[i])]
            self.live.append(tuple(live))

    def _candidates(self, p: int) -> int:
        cand = self.static_mask[p]
        assign = self.assign
        for table, q in self.dyn[p]:
            cand &= table[assign[q]]
            if not cand:
                break
        return cand

    def _general_ok(self, p: int) -> bool:
        assign = self.assign
        for tups, idxs in self.general[p]:
            if tuple(assign[i] for i in idxs) not in tups:
                return False
        return True

    def run(self, p: int) -> bool:
        if p == self.m:
            return True
        key = (p, tuple(self.assign[i] for i in self.live[p]))
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        j = self.thresholds[p]
        cand = self._candidates(p)
        result = False
        remaining = cand.bit_count()
        if remaining >= j:
            count = 0
            mask = cand
            while mask:
                self.nodes += 1
                if self.nodes > self.budget:
                    raise BudgetExceededError(self.nodes)
                low = mask & -mask
                mask ^= low
                self.assign[p] = low.bit_length() - 1
                if (not self.general[p] or self._general_ok(p)) and self.run(p + 1):
                    count += 1
                    if count >= j:
                        result = True
                        break
                remaining -= 1
                if count + remaining < j:
                    break
        self.memo[key] = result
        return result

    def extract(self, p: int) -> StrategyNode:
        if p == self.m:
            return LEAF
        j = self.thresholds[p]
        cand = self._candidates(p)
        winners = []
        mask = cand
        while mask and len(winners) < j:
            low = mask & -mask
            mask ^= low
            v = low.bit_length() - 1
            self.assign[p] = v
            if (not self.general[p] or self._general_ok(p)) and self.run(p + 1):
                winners.append(v)
        if len(winners) < j:
            raise AssertionError("extraction entered a losing position")
        children = []
        for v in winners:
            self.assign[p] = v
            children.append(self.extract(p + 1))
        return StrategyNode(tuple(winners), tuple(children))


def evaluate(b: Structure, s: Sentence, *, budget: Optional[int] = None) -> bool:
    """Does the template satisfy the sentence under counting semantics."""
    return _Search(b, s, budget).run(0)


def extract_strategy(
    b: Structure, s: Sentence, *, budget: Optional[int] = None
) -> Optional[StrategyNode]:
    """A canonical winning strategy tree, or None on a no-instance.

    At every node the offered set consists of the smallest elements whose
    suffix evaluates true, so extraction is deterministic.  Any valid tree
    is accepted by ``verify_strategy``; this is just one shape.
    """
    search = _Search(b, s, budget)
    if not search.run(0):
        return None
    return search.extract(0)


def verify_strategy(b: Structure, s: Sentence, w: StrategyNode) -> bool:
    """Replay every adversary play of ``w``; true iff all plays satisfy
    the matrix.  Raises StrategyShapeError when the tree does not match
    the prefix."""
    n = b.domain_size
    rs = resolve_thresholds(s, n)
    m = len(rs.prefix)
    index = rs.var_index()
    atoms = []
    for name, vs in rs.atoms:
        if name not in b.signature or b.signature.arity(name) != len(vs):
            raise SignatureError(f"atom {name!r} does not match the signature")
        atoms.append((b.tuples(name), tuple(index[v] for v in vs)))
    assign = [0] * m

    def walk(node: StrategyNode, p: int) -> bool:
        if p == m:
            if not node.is_leaf() or node.children:
                raise StrategyShapeError("extra structure below the last quantifier")
            return all(tuple(assign[i] for i in idxs) in tups for tups, idxs in atoms)
        j = rs.prefix[p].threshold
        if len(node.offer) != j:
            raise StrategyShapeError(
                f"offer of size {len(node.offer)} at depth {p}, threshold {j}"
            )
        if len(set(node.offer)) != j:
            raise StrategyShapeError(f"repeated elements in offer at depth {p}")
        if any(not 0 <= v < n for v in node.offer):
            raise StrategyShapeError(f"offered element out of range at depth {p}")
        if len(node.children) != len(node.offer):
            raise StrategyShapeError(f"child count mismatch at depth {p}")
        for v, child in zip(node.offer, node.children):
            assign[p] = v
            if not walk(child, p + 1):
                return False
        return True

    return walk(w, 0)


# ---------------------------------------------------------------------------
# Retraction / constant-preserving homomorphism


def solve_retraction(
    h: Structure, instance: Structure, *, budget: Optional[int] = None
) -> bool:
    """Is there a homomorphism instance -> h mapping each named constant of
    the instance to the like-named constant of h?  Arc-consistency
    propagation first, then backtracking on smallest domains."""
    for name, arity in instance.signature.relations:
        if name not in h.signature or h.signature.arity(name) != arity:
            raise SignatureError(f"relation {name!r} missing or mismatched in target")
    for cname in instance.constants:
        if cname not in h.constants:
            raise SignatureError(f"constant {cname!r} not named in target")

    n_vars = instance.domain_size
    full = frozenset(range(h.domain_size))
    domains: list[set[int]] = [set(full) for _ in range(n_vars)]
    for cname, var in instance.constants.items():
        domains[var] &= {h.constants[cname]}

    constraints = []
    for name in instance.signature.names():
        target = h.tuples(name)
        for t in instance.tuples(name):
            constraints.append((target, t))

    by_var: list[list[int]] = [[] for _ in range(n_vars)]
    for ci, (_, t) in enumerate(constraints):
        for v in set(t):
            by_var[v].append(ci)

    max_nodes = effective_budget(budget)
    nodes = 0

    def supported(doms: list[set[int]], ci: int) -> dict[int, set[int]]:
        """Per-variable values of constraint ci that occur in some tuple
        drawn from the current domains."""
        target, t = constraints[ci]
        keep: dict[int, set[int]] = {v: set() for v in set(t)}
        for tup in target:
            if all(tup[k] in doms[t[k]] for k in range(len(t))):
                for k, v in enumerate(t):
                    keep[v].add(tup[k])
        return keep

    def propagate(doms: list[set[int]], queue: set[int]) -> bool:
        while queue:
            ci = queue.pop()
            keep = supported(doms, ci)
            for v, vals in keep.items():
                if doms[v] - vals:
                    doms[v] &= vals
                    if not doms[v]:
                        return False
                    queue.update(c for c in by_var[v] if c != ci)
        return True

    def search(doms: list[set[int]]) -> bool:
        nonlocal nodes
        undecided = [v for v in range(n_vars) if len(doms[v]) > 1]
        if not undecided:
            return all(
                tuple(next(iter(doms[v])) for v in t) in target
                for target, t in constraints
            )
        var = min(undecided, key=lambda v: len(doms[v]))
        for value in sorted(doms[var]):
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceededError(nodes)
            trial = [set(d) for d in doms]
            trial[var] = {value}
            if propagate(trial, set(by_var[var])) and search(trial):
                return True
        return False

    if any(not d for d in domains):
        return False
    if not propagate(domains, set(range(len(constraints)))):
        return False
    return search(domains)
