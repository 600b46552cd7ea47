"""Reference answers for the benchmark, computed without the cqcsp package.

Everything here is written from the definitions, not from the package's
code: templates are built from their textbook edge sets, sentences are
evaluated by unmemoised recursion over the counting semantics, complexity
classes come from the paper's theorem statements, and strategy trees are
replayed play by play.  Nothing in this module imports ``cqcsp``.

A sentence is a pair ``(prefix, atoms)``: ``prefix`` is a list of
``(threshold, variable)`` with integer thresholds, ``atoms`` a list of
``(relation, (variable, ...))``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Template:
    """A finite structure over ``0..n-1``: relation name -> set of tuples."""

    n: int
    relations: dict

    def tuples(self, name: str) -> frozenset:
        return self.relations[name]


def _graph(n: int, edges, loops=()) -> Template:
    pairs = set()
    for a, b in edges:
        pairs.add((a, b))
        pairs.add((b, a))
    for v in loops:
        pairs.add((v, v))
    return Template(n, {"E": frozenset(pairs)})


def clique(n: int) -> Template:
    return _graph(n, itertools.combinations(range(n), 2))


def cycle(n: int) -> Template:
    return _graph(n, [(i, (i + 1) % n) for i in range(n)])


def reflexive_cycle(n: int) -> Template:
    return _graph(n, [(i, (i + 1) % n) for i in range(n)], loops=range(n))


def path(n: int) -> Template:
    return _graph(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves: int) -> Template:
    return _graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(k: int, l: int) -> Template:
    return _graph(k + l, [(i, k + j) for i in range(k) for j in range(l)])


def graph(n: int, edges) -> Template:
    return _graph(n, edges)


def nae() -> Template:
    """Boolean not-all-equal: every triple except 000 and 111."""
    triples = {t for t in itertools.product((0, 1), repeat=3) if len(set(t)) > 1}
    return Template(2, {"R": frozenset(triples)})


def count_eval(b: Template, prefix, atoms) -> bool:
    """The counting semantics, straight from the definition: ``E^j x phi``
    holds iff at least j domain elements satisfy phi with x bound to them.
    The only shortcut is stopping a count once its outcome is fixed."""
    names = [v for _, v in prefix]
    thresholds = [j for j, _ in prefix]
    env: dict[str, int] = {}

    def matrix() -> bool:
        return all(tuple(env[v] for v in vs) in b.tuples(rel) for rel, vs in atoms)

    def rec(depth: int) -> bool:
        if depth == len(names):
            return matrix()
        need = thresholds[depth]
        count = 0
        for value in range(b.n):
            if count + (b.n - value) < need:
                return False
            env[names[depth]] = value
            if rec(depth + 1):
                count += 1
                if count >= need:
                    return True
        return count >= need

    return rec(0)


def check_strategy(b: Template, prefix, atoms, node) -> str | None:
    """Replay every adversary play of a witness-strategy tree.

    ``node`` only needs ``offer`` and ``children`` attributes.  Returns
    None when the tree proves the sentence, else the first defect found.
    """
    names = [v for _, v in prefix]
    env: dict[str, int] = {}

    def walk(nd, depth: int) -> str | None:
        if depth == len(names):
            if nd.offer or nd.children:
                return f"structure below the last quantifier at depth {depth}"
            for rel, vs in atoms:
                if tuple(env[v] for v in vs) not in b.tuples(rel):
                    return f"play {tuple(env[v] for v in names)} falsifies {rel}{vs}"
            return None
        j = prefix[depth][0]
        if len(nd.offer) != j or len(set(nd.offer)) != j:
            return f"offer {nd.offer} at depth {depth} is not {j} distinct elements"
        if any(not 0 <= v < b.n for v in nd.offer):
            return f"offer {nd.offer} at depth {depth} leaves the domain"
        if len(nd.children) != j:
            return f"{len(nd.children)} children under an offer of {j} at depth {depth}"
        for v, child in zip(nd.offer, nd.children):
            env[names[depth]] = v
            defect = walk(child, depth + 1)
            if defect:
                return defect
        return None

    return walk(node, 0)


def strategy_size(node) -> int:
    """Offer nodes in a strategy tree (leaves, which offer nothing, excluded)."""
    if not node.offer:
        return 0
    return 1 + sum(strategy_size(c) for c in node.children)


def offer_nodes(thresholds) -> int:
    """Offer nodes of any valid strategy tree for this prefix: level d has
    the product of the thresholds above it."""
    total, level = 0, 1
    for j in thresholds:
        total += level
        level *= j
    return total


# Complexity classes, as the paper states them.

L, NP, PSPACE, OPEN = "L", "NP-complete", "Pspace-complete", "Open"


def clique_class(n: int, xs: frozenset) -> str:
    """Theorem 1, {X}-CSP(K_n): L when n <= 2 or X avoids 1..n/2;
    NP-complete for X = {1}; Pspace-complete when X has some j with
    1 < j < n/2, or has 1 together with some j >= n/2 other than 1;
    open otherwise."""
    if n <= 2 or not any(1 <= j <= n // 2 for j in xs):
        return L
    if xs == {1}:
        return NP
    if any(1 < j and 2 * j < n for j in xs):
        return PSPACE
    if 1 in xs and any(j != 1 and 2 * j >= n for j in xs):
        return PSPACE
    return OPEN


def cycle_class(n: int, xs: frozenset) -> str:
    """Theorem 2, {X}-CSP(C_n): L when n = 4, or 1 is not in X, or n is even
    and X avoids 2..n/2; NP-complete for odd n and X = {1};
    Pspace-complete otherwise."""
    if n == 4 or 1 not in xs or (n % 2 == 0 and not any(2 <= j <= n // 2 for j in xs)):
        return L
    if n % 2 == 1 and xs == {1}:
        return NP
    return PSPACE
