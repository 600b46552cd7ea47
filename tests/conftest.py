"""Shared helpers: sentence enumeration, independent brute-force oracles,
and a small template zoo."""

from __future__ import annotations

import itertools
import random

import pytest

from cqcsp.model import Quantifier, Sentence, Structure, build_template
from cqcsp import fastpath, model, oracle


def undirected_slots(n_vars: int) -> list[tuple[int, int]]:
    """Loop and pair slots for matrices over one symmetric binary symbol."""
    return [(i, j) for i in range(n_vars) for j in range(i, n_vars)]


def matrices(n_vars: int, max_atoms: int) -> list[tuple[tuple[str, tuple[str, str]], ...]]:
    """All undirected matrices with at most max_atoms distinct atoms."""
    names = [f"x{i}" for i in range(n_vars)]
    slots = undirected_slots(n_vars)
    out = []
    for count in range(0, min(max_atoms, len(slots)) + 1):
        for combo in itertools.combinations(slots, count):
            out.append(tuple(("E", (names[i], names[j])) for i, j in combo))
    return out


def graph_sentences(n_vars: int, thresholds, max_atoms: int = 5):
    """Exhaustive sentences: every undirected matrix crossed with every
    threshold tuple from the given per-variable choices."""
    names = [f"x{i}" for i in range(n_vars)]
    mats = matrices(n_vars, max_atoms)
    for combo in itertools.product(thresholds, repeat=n_vars):
        prefix = tuple(Quantifier(t, v) for t, v in zip(combo, names))
        for atoms in mats:
            yield Sentence(prefix, atoms)


def directed_sentences(n_vars: int, max_atoms: int):
    """Exhaustive all-existential sentences over directed matrices."""
    names = [f"x{i}" for i in range(n_vars)]
    slots = [(i, j) for i in range(n_vars) for j in range(n_vars)]
    prefix = tuple(Quantifier(1, v) for v in names)
    for count in range(0, min(max_atoms, len(slots)) + 1):
        for combo in itertools.combinations(slots, count):
            yield Sentence(prefix, tuple(("E", (names[i], names[j])) for i, j in combo))


def random_graph_sentence(rng: random.Random, n_vars: int, thresholds, max_atoms: int) -> Sentence:
    names = [f"x{i}" for i in range(n_vars)]
    prefix = tuple(Quantifier(rng.choice(list(thresholds)), v) for v in names)
    atoms = []
    for _ in range(rng.randint(0, max_atoms)):
        atoms.append(("E", (rng.choice(names), rng.choice(names))))
    return Sentence(prefix, tuple(atoms))


def brute_hom_exists(s: Sentence, b: Structure) -> bool:
    """Plain homomorphism existence from the sentence's canonical database
    to b, by enumerating every variable assignment.  Kept deliberately
    independent of the package's solvers."""
    names = [q.variable for q in s.prefix]
    rels = {name: b.tuples(name) for name in b.signature.names()}
    for assign in itertools.product(range(b.domain_size), repeat=len(names)):
        env = dict(zip(names, assign))
        if all(tuple(env[v] for v in vs) in rels[name] for name, vs in s.atoms):
            return True
    return not s.atoms if not names else False


def brute_count_eval(b: Structure, s: Sentence) -> bool:
    """Reference implementation of the counting semantics: unmemoised
    recursion straight from the definition."""
    rs = s.resolved(b.domain_size)
    names = [q.variable for q in rs.prefix]
    thresholds = [q.threshold for q in rs.prefix]
    rels = {name: b.tuples(name) for name in b.signature.names()}

    def holds(env) -> bool:
        return all(tuple(env[v] for v in vs) in rels[name] for name, vs in rs.atoms)

    def rec(depth: int, env: dict) -> bool:
        if depth == len(names):
            return holds(env)
        count = 0
        for value in range(b.domain_size):
            env[names[depth]] = value
            if rec(depth + 1, env):
                count += 1
        del env[names[depth]]
        return count >= thresholds[depth]

    return rec(0, {})


def complete_bipartite_gate_failures(
    sides: tuple[tuple[int, int], ...] = ((2, 3), (1, 3)),
    exhaustive_vars: int = 3,
    random_cases: int = 2000,
    max_random_vars: int = 5,
    seed: int = 1,
) -> list[tuple[tuple[int, int], Sentence]]:
    """The gate of the complete-bipartite decider that `auto` routes to:
    the (sides, sentence) pairs on which its parity-propagation core and
    the oracle disagree, over every sentence of up to ``exhaustive_vars``
    variables and ``random_cases`` drawn ones per template."""
    failures = []
    rng = random.Random(seed)
    for k, l in sides:
        b = build_template(model.complete_bipartite(k, l))
        thresholds = range(1, k + l + 1)
        exhaustive = (
            s
            for n_vars in range(1, exhaustive_vars + 1)
            for s in graph_sentences(n_vars, thresholds, len(undirected_slots(n_vars)))
        )
        drawn = (
            random_graph_sentence(
                rng, rng.randint(exhaustive_vars + 1, max_random_vars), thresholds, 5
            )
            for _ in range(random_cases)
        )
        for s in itertools.chain(exhaustive, drawn):
            if fastpath.decide(fastpath.COMPLETE_BIPARTITE, b, s) != oracle.evaluate(b, s):
                failures.append(((k, l), s))
    return failures


@pytest.fixture(scope="session")
def zoo() -> dict[str, Structure]:
    return {
        "K1": build_template(model.clique(1)),
        "K2": build_template(model.clique(2)),
        "K3": build_template(model.clique(3)),
        "K4": build_template(model.clique(4)),
        "C4": build_template(model.cycle(4)),
        "C5": build_template(model.cycle(5)),
        "C6": build_template(model.cycle(6)),
        "P3": build_template(model.path(3)),
        "P4": build_template(model.path(4)),
        "P5": build_template(model.path(5)),
        "K23": build_template(model.complete_bipartite(2, 3)),
        "K13": build_template(model.star(3)),
        "C4star": build_template(model.reflexive_cycle(4)),
        "NAE": build_template(model.nae_boolean()),
    }
