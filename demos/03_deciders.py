"""The polynomial-time deciders, each side by side with the oracle.

Every decider answers a tractable fragment without search; on inputs in
its scope it returns exactly the oracle's verdict.
"""

from cqcsp import (
    build_template,
    clique,
    complete_bipartite,
    cycle,
    decide,
    dispatch,
    evaluate,
    parse_sentence,
    path,
)
from cqcsp.fastpath import (
    C4_CONTAINMENT,
    CLIQUE_HIGH,
    COMPLETE_BIPARTITE,
    CYCLE,
    FOREST,
    P5_ONE_THREE,
    SMALL_BIPARTITION,
)


def show(label, got, want):
    mark = "ok " if got == want else "BUG"
    print(f"  [{mark}] {label}: decider={got} oracle={want}")


print("cliques with thresholds above n/2 (the star criterion):")
k5 = build_template(clique(5))
s = parse_sentence("E3 a E3 b E3 c E3 x | E(a,x) & E(b,x) & E(c,x)")
show("5-clique, centre with 3 earlier neighbours",
     decide(CLIQUE_HIGH, k5, s), evaluate(k5, s))
s = parse_sentence("E3 a E3 x E3 b E3 c | E(a,x) & E(b,x) & E(c,x)")
show("same matrix, centre quantified second",
     decide(CLIQUE_HIGH, k5, s), evaluate(k5, s))

print("\ncycles (tractable branches):")
c6 = build_template(cycle(6))
for text in ["E3 x E2 y | E(x,y)", "E1 x E4 y | E(x,y)", "E4 x E1 y | E(x,y)"]:
    s = parse_sentence(text)
    show(f"6-cycle, {text}", decide(CYCLE, c6, s), evaluate(c6, s))

print("\ncomplete bipartite templates:")
k23 = build_template(complete_bipartite(2, 3))
for text in ["E2 x E2 y | E(x,y)", "E1 x E5 y | E(x,y)", "E3 x E3 y | E(x,y)"]:
    s = parse_sentence(text)
    show(f"K_2,3, {text}", decide(COMPLETE_BIPARTITE, k23, s), evaluate(k23, s))

print("\nsmall bipartition classes:")
p3 = build_template(path(3))
s = parse_sentence("E3 x E3 y | E(x,y)")
show("3-path, two linked threshold-3 variables",
     decide(SMALL_BIPARTITION, p3, s), evaluate(p3, s))

print("\nbipartite with a 4-cycle:")
c4 = build_template(cycle(4))
s = parse_sentence("E2 x E2 y E2 z | E(x,y) & E(y,z) & E(z,x)")
show("4-cycle, triangle matrix", decide(C4_CONTAINMENT, c4, s), evaluate(c4, s))

print("\nforests in the bounded 2-then-1 fragment:")
p4 = build_template(path(4))
s = parse_sentence("E2 x E2 y | E(x,y)")
show("4-path, adaptive pair choice needed",
     decide(FOREST, p4, s), evaluate(p4, s))

print("\nthe 5-path with thresholds {1,3}:")
p5 = build_template(path(5))
for text in ["E3 x E3 y | E(x,y)", "E3 x E1 y | E(x,y)", "E1 y E3 x | E(x,y)"]:
    s = parse_sentence(text)
    show(f"5-path, {text}", decide(P5_ONE_THREE, p5, s), evaluate(p5, s))

print("\nautomatic dispatch picks the decider whose precondition fires:")
for template, text in [
    (k5, "E3 x E3 y | E(x,y)"),
    (c6, "E2 x E2 y | E(x,y)"),
    (k23, "E4 x E1 y | E(x,y)"),
]:
    s = parse_sentence(text)
    match = dispatch(template, s)
    tag = match[0] if match else "oracle"
    print(f"  {text!r} -> {tag}")
