"""The gadget compiler: hardness reductions as executable transformations.

Each rule is compiled one way: ``compile_rule(rule(name, **params),
source_template, sentence)`` turns a source sentence into a (template,
sentence) pair; the verifier evaluates both sides with the oracle and
reports agreement line by line.
"""

from cqcsp import (
    build_template,
    clique,
    compile_rule,
    evaluate,
    nae_boolean,
    parse_sentence,
    reflexive_cycle,
    render_sentence,
    rule,
    verify_reduction,
)
from cqcsp.reductions import default_sources

# A universal quantifier over the not-all-equal template becomes a
# threshold-j quantifier pinned to the designated block by a U(x) conjunct.
nae = build_template(nae_boolean())
src = parse_sentence("A x E1 y E1 z | R(x,y,z)")
target, out = compile_rule(rule("nae", j=2, n=4), nae, src)
print("not-all-equal source:", src)
print("compiled:", render_sentence(out))
print("source verdict:", evaluate(nae, src), "target verdict:", evaluate(target, out))

# Mid-range thresholds on the reflexive 4-cycle expand into for-all
# guards: E2 x becomes 'for every guard there is an adjacent x'.
c4star = build_template(reflexive_cycle(4))
src = parse_sentence("E3 x | E(x,x)")
_, out = compile_rule(rule("c4star-macros"), c4star, src)
print("\nmacro expansion of E3 x | E(x,x):")
print(" ", render_sentence(out))
print("  equivalent on the reflexive 4-cycle:",
      evaluate(c4star, src) == evaluate(c4star, out))

# The even-cycle construction: a 3-colouring sentence compiled onto the
# 6-cycle.  The compiled instance is two orders of magnitude larger but the
# memoised oracle still settles it.
k3 = build_template(clique(3))
src = parse_sentence("E1 u E1 v E1 t | E(u,v) & E(v,t) & E(t,u)")
target, out = compile_rule(rule("even-cycle-csp", n=6, j=2), k3, src)
print("\neven-cycle compilation of the triangle:")
print(f"  {len(src.prefix)} variables -> {len(out.prefix)} variables,"
      f" {len(out.atoms)} atoms")
print("  source:", evaluate(k3, src), "target:", evaluate(target, out))

# The verifier in bulk: clique padding on fifty random sources.
pad = rule("clique-pad", j=2, n=6)
report = verify_reduction(pad, build_template(clique(5)),
                          default_sources(pad, trials=10, seed=1))
print("\nclique-padding verification report:")
for line in report.lines():
    print(" ", line)
print("  zero disagreements:", report.ok())
