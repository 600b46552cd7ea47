"""The complexity classifier: which fragment lands where, and why.

Eight representative threshold sets on cliques and cycles up to eight
vertices, plus the graph families with their own classification rows.
"""

from cqcsp import (
    BoundedPrefix,
    classify,
    clique,
    complete_bipartite,
    cycle,
    forest_from_edges,
    general_graph,
    hairy_cycle,
    hj_template,
    nae_boolean,
    path,
    reflexive_cycle,
    single_quantifier_template,
    threshold_set,
)

sets = [
    threshold_set(1),
    threshold_set(2),
    threshold_set(3),
    threshold_set(1, 2),
    threshold_set(1, 3),
    threshold_set(2, 3),
]

print("cliques:")
print(f"{'n':>3} " + "".join(f"{str(x):>16}" for x in sets))
for n in range(2, 9):
    row = []
    for x in sets:
        if max(x.thresholds) > n:
            row.append("-")
        else:
            row.append(classify(clique(n), x).complexity.label)
    print(f"{n:>3} " + "".join(f"{c:>16}" for c in row))

print("\ncycles:")
print(f"{'n':>3} " + "".join(f"{str(x):>16}" for x in sets))
for n in range(3, 9):
    row = []
    for x in sets:
        if max(x.thresholds) > n:
            row.append("-")
        else:
            row.append(classify(cycle(n), x).complexity.label)
    print(f"{n:>3} " + "".join(f"{c:>16}" for c in row))

print("\nfamily rows with citations:")
rows = [
    (clique(5), threshold_set(2)),
    (clique(6), threshold_set(3)),
    (cycle(4), threshold_set(1, 2, 3, 4)),
    (cycle(6), threshold_set(1, 2)),
    (complete_bipartite(2, 3), threshold_set(1, 2, 3, 4, 5)),
    (path(5), threshold_set(1, 3)),
    (hj_template(4), threshold_set(1, 4)),
    (nae_boolean(), threshold_set(1, 2)),
    (single_quantifier_template(5, 2), threshold_set(2)),
    (reflexive_cycle(4), threshold_set(1, 4)),
    (forest_from_edges([(0, 1), (1, 2)]), BoundedPrefix(2)),
    (hairy_cycle(6), BoundedPrefix(9)),
    (general_graph([(0, 1), (1, 2), (2, 0)]), threshold_set(1, 2)),
]
for family, frag in rows:
    verdict = classify(family, frag)
    print(f"  {str(family):>22} {str(frag):>16} -> {verdict}")
