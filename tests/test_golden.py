"""Golden outputs: sha256 digests of compiled reductions, dispatch tags,
classifier verdicts, `cqcsp verify` output and canonical strategy trees.

Dispatch lines carry the matched decider's answer as well as its tag.
The digests were computed on the code as it stood before each reduction
rule, tractable case and graph traversal came to be declared once; they
pin that this changed no rendered byte, dispatch tag, verdict string or
exit code.  The strategy digests were computed on the oracle as it stood
before it searched the components of the prefix separately; they pin the
canonical tree shape.  A failing test's id names its section and key;
rerunning that section's ``*_lines`` function shows the output that
changed.

Six classify digests were re-pinned when `classify` stopped reading the
family's name and read its template alone.  ``cycle:3``, ``path:2``,
``star:1``, ``bipartite:1,1``, ``bipartite:2,2`` and ``hj:3`` build K3,
K2, K2, K2, C4 and C6, so each now has its twin's verdicts, and its entry
is set from the twin's rather than written out.  Only ``hj:3`` changed a
verdict class (Open rows that the 6-cycle's theorem covers); the rest
changed citations only.

``odd-cycle-path`` gained its compile digest, and its verify digest was
re-pinned, when the rule became a compiler from QCSP(C_n): its `verify`
output moved from the path block's six fixed cases to twenty seeded
sources.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from cqcsp import cli, model, oracle, textio
from cqcsp import fastpath as fp
from cqcsp import reductions as rd
from cqcsp.model import Quantifier, Sentence, build_template

from conftest import matrices

# rule name, parameters, source template family
RULES = [
    ("clique-gj", {"j": 2}, model.clique(10)),
    ("clique-pad", {"j": 2, "n": 6}, model.clique(5)),
    ("clique-1j", {"n": 3, "j": 2}, model.clique(3)),
    ("nae", {"j": 2, "n": 4}, model.nae_boolean()),
    ("even-cycle", {"n": 6, "j": 2}, model.clique(3)),
    ("even-cycle-csp", {"n": 6, "j": 2}, model.clique(3)),
    ("girth-isolation", {"h": "cycle:6"}, model.clique(3)),
    ("reflexive-c4", {}, model.clique(4)),
    ("c4star-macros", {}, model.reflexive_cycle(4)),
    ("odd-cycle-path", {"n": 5, "j": 2}, model.cycle(5)),
]

CLASSIFY_FAMILIES = (
    [f"clique:{n}" for n in range(1, 8)]
    + [f"cycle:{n}" for n in range(3, 10)]
    + [f"path:{n}" for n in range(1, 8)]
    + [f"star:{n}" for n in range(1, 5)]
    + [f"bipartite:{k},{l}" for k in range(1, 4) for l in range(1, 4)]
    + [f"reflexive-cycle:{n}" for n in range(3, 6)]
    + [f"hj:{j}" for j in range(3, 6)]
    + ["hairy:3", "nae", "single:4,2", "single:5,3"]
    + ["graph:0-1,0-2,0-3,3-4", "graph:0-1,1-2,2-3,0-3,3-4"]
)

VERIFY_ARGS = {
    "clique-pad": ["j=2", "n=6"],
    "clique-1j": ["n=3", "j=2"],
    "nae": ["j=2", "n=4"],
    "c4star-macros": [],
    "reflexive-c4": [],
    "odd-cycle-path": ["n=5", "j=2"],
}


def _params(params: dict) -> dict:
    return {
        k: build_template(model.parse_family_spec(v)) if k == "h" else v
        for k, v in params.items()
    }


def compiled_lines(name: str) -> list[str]:
    params, family = next((p, f) for r, p, f in RULES if r == name)
    rule = rd.rule(name, **_params(params))
    source_template = build_template(family)
    out = []
    for source in rd.default_sources(rule, trials=20, seed=1):
        try:
            target, s = rd.compile_rule(rule, source_template, source)
        except model.InvalidStructureError as exc:
            out.append(f"{source} -> error: {exc}")
            continue
        out.append(textio.render_structure(target) + textio.render_sentence(s))
    return out


def _run(thunk) -> str:
    try:
        return str(thunk())
    except Exception as exc:
        return type(exc).__name__


def dispatch_lines(key: str, zoo) -> list[str]:
    b = zoo[key]
    thresholds = range(1, b.domain_size + 1)
    out = []
    for n_vars in range(1, 4):
        names = [f"x{i}" for i in range(n_vars)]
        mats = matrices(n_vars, 2)
        for combo in itertools.product(thresholds, repeat=n_vars):
            prefix = tuple(Quantifier(t, v) for t, v in zip(combo, names))
            for atoms in mats:
                match = fp.dispatch(b, Sentence(prefix, atoms))
                out.append("None" if match is None else f"{match[0]} {_run(match[1])}")
    return out


def classify_lines(spec: str) -> list[str]:
    family = model.parse_family_spec(spec)
    size = build_template(family).domain_size
    fragments = [
        model.ThresholdSet(frozenset(x))
        for r in range(1, size + 1)
        for x in itertools.combinations(range(1, size + 1), r)
    ] + [model.BoundedPrefix(m) for m in range(4)]
    return [f"{frag} {fp.classify(family, frag)}" for frag in fragments]


def verify_lines(name: str, capsys) -> list[str]:
    code = cli.main(["verify", name, *VERIFY_ARGS[name]])
    return [f"exit {code}", capsys.readouterr().out]


def _strategy_sentences(b):
    """Every sentence of 1-3 variables with thresholds in 1..n and at most
    three atoms (two for the ternary NAE relation)."""
    (name, arity), = b.signature.relations
    for m in (1, 2, 3):
        names = [f"x{i}" for i in range(m)]
        if arity == 2:
            mats = matrices(m, 3)
        else:
            triples = [(name, t) for t in itertools.product(names, repeat=3)]
            mats = [c for k in range(3) for c in itertools.combinations(triples, k)]
        for combo in itertools.product(range(1, b.domain_size + 1), repeat=m):
            prefix = tuple(Quantifier(t, v) for t, v in zip(combo, names))
            for atoms in mats:
                yield Sentence(prefix, atoms)


def strategy_lines(key: str, zoo) -> list[str]:
    b = zoo[key]
    out = []
    for s in _strategy_sentences(b):
        w = oracle.extract_strategy(b, s)
        if w is not None:
            out.append(textio.render_sentence(s) + "\n" + textio.render_strategy(w))
    return out


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


COMPILED = {
    "clique-gj": "2b14765cf8821230372f61f66ea34c5152ddb5ae5e959d2fbe60bb3ba8f12150",
    "clique-pad": "007c54dac80939a62822a0fe67f015ce7979d99e671e4b4804dbfa0067d9d012",
    "clique-1j": "0a22c99c767b483e0821f7ebb79be5fab19dc2e6a6ad9a766112a1bdd586aff1",
    "nae": "6d90d7890a07399915d5a3f47fa0185410fb67fabf9a3eac5187e087fbb8a5e6",
    "even-cycle": "1f758b2e8884ae4111285834984988b302f83ad5b3b43aabf17195eed7b994f7",
    "even-cycle-csp": "5960912c9cf1e3c39e9dd071e783b9f19c81907d502914192413492f225a20ab",
    "girth-isolation": "b91d7f6d7564bf556740cf84c2defa397d78688c1b4c0577e43ef1dd10026ddb",
    "reflexive-c4": "18ab8f004e2b4241a96f3bf340b5607f58c8818ffe4726bb73981bb10389528b",
    "c4star-macros": "afc4c8852901538aa7f7854bccb8f148a740968cada4feb3a1e0b3dd6f38d2f0",
    "odd-cycle-path": "906cc0d52cf4b59bf46d55d57eb751854935557056d57cb26b0ef83f0967d97c",
}
DISPATCH = {
    "K1": "b32ec90407adf1b3ee7dc9dbe045d9006b1dfb50a4b5b9c55fd67335f84a3d97",
    "K2": "08237251ae039c56912ca9add1f9c7e8856e11d35f18bbb079de60f75bd70b7b",
    "K3": "d79c2afaf33e729f04db4de2dc5cf81aa04f7355f89012f9620ac27062fa1f0b",
    "K4": "dd8e7fd052706e4f153eb9db1637aa39cbb253a7173202b4b9a65325d10dd054",
    "C4": "32c9e7cfa514c6669ea68e8644bdc96a6d953f8a57305c1bc461b6773cf38170",
    "C5": "12c045a3980f39f45a2a8ea75ed751b4502bcac7319f80d9844e218d43d90341",
    "C6": "83501b585991715297ff7fcf0466a21b4b733373308b6b213e6156bc91523b2d",
    "P3": "adbaf372d008bc0e19d9f03b0571ef0118be350f56d5e2fde54b7b14f73300be",
    "P4": "344b2fcb40a3f940ffd2876c6968caf083d37d5fa0f69bb457b711c92e6f3c8e",
    "P5": "f84efedd8e63ddd0f32b4a17b5ab694303de01348e2211f7af929f9ef145a961",
    "K23": "d3f1933c5f5c64bdd7cb6fc9185d55ddd6176a67b2755aef0a69be8489ba2222",
    "K13": "a5937c70bb4d321138d440915ee5038998ddc06790c561ee1daff2e457fc9640",
    "C4star": "be90ecac2d8ded572219d85eded9c2cc352723ad17b94483f7f34b411f3eca90",
    "NAE": "81bccdb3d2f08344732b35645f476073dd4c08f848ac271c35aaf368e108a7ad",
}
CLASSIFY = {
    "clique:1": "97f5a3c77db6dfdc842bfa9b09b6b0ff8115b4e3adae0217b84a44632e59a6d3",
    "clique:2": "566592636d06e35e44b308952e300c752058ccfea5877c9e334820753be783ab",
    "clique:3": "520616c6d72b1c43a7faa2a451d895169a74c508f0f9162b79bd72cb4e82955d",
    "clique:4": "eef67394bd13013af98cbf6e2129e4f7216bb75e67239557c1539ee907ed5e4e",
    "clique:5": "5a4144ab06140934cd129e7ff0fcce47347887fb5465d33981e72bdada90b8f4",
    "clique:6": "e906f214919054e8e1375db34c4da1d6ff40c0c56b939e1052020a431ab01e51",
    "clique:7": "4880d0cd79298600412db9b07ed8ec7b26d7b652132a8e38c04c6c815235460b",
    "cycle:4": "1790ac29af9b33cbbed20516dca4065bcb64707bec017dad93fd594234fc407c",
    "cycle:5": "95dfb67dbdd84d848cefa8af9046b655d8270bdcbb599975920141fcd9ad25ea",
    "cycle:6": "3c2099dbb343e395b3b35283c28b62f82a1ba8e360e4048980aa0943024df737",
    "cycle:7": "08d4659e12734c573d33614f5638b5c1871f6f2c25f86c34bdbf23e985d8c48c",
    "cycle:8": "72fc5971ddfb9611388752858af2387ff846db7babb39a77c57c425f54bd31ca",
    "cycle:9": "cb32682954f29b8b70f6a1dbfdf6729e0057579755c50bd51f8ced0301392127",
    "path:1": "97f5a3c77db6dfdc842bfa9b09b6b0ff8115b4e3adae0217b84a44632e59a6d3",
    "path:3": "1c10ee35f93854c78d4cbc9c6d9a485bdb1b28d89911e1582aa81a3445e3689f",
    "path:4": "7387999037b90c71e6c76d2b649a18bcd6b1d7798266fc780b8d15076ee270bd",
    "path:5": "65f38cce276fe9c457f6c55e110cc33632a4b1875e488d6fcba8e4031d3a2ba0",
    "path:6": "f571214f8033f6b58d735d16d5afc16fa4081d5eea96f3c8ef043529a8ed9aaf",
    "path:7": "affa0979ee3b404cac490b3982dd093f5a5a446a652663dd89bb1678076e0556",
    "star:2": "1c10ee35f93854c78d4cbc9c6d9a485bdb1b28d89911e1582aa81a3445e3689f",
    "star:3": "59d2182d67dd110f9b3e8c0e1961391cfa8cfa2d7d7d366fc74f39412a243fdc",
    "star:4": "438c84cef38915ac5b122197307dc03a9b708a13d039f97aebdd9f75fa18c319",
    "bipartite:1,2": "1c10ee35f93854c78d4cbc9c6d9a485bdb1b28d89911e1582aa81a3445e3689f",
    "bipartite:1,3": "59d2182d67dd110f9b3e8c0e1961391cfa8cfa2d7d7d366fc74f39412a243fdc",
    "bipartite:2,1": "1c10ee35f93854c78d4cbc9c6d9a485bdb1b28d89911e1582aa81a3445e3689f",
    "bipartite:2,3": "438c84cef38915ac5b122197307dc03a9b708a13d039f97aebdd9f75fa18c319",
    "bipartite:3,1": "59d2182d67dd110f9b3e8c0e1961391cfa8cfa2d7d7d366fc74f39412a243fdc",
    "bipartite:3,2": "438c84cef38915ac5b122197307dc03a9b708a13d039f97aebdd9f75fa18c319",
    "bipartite:3,3": "db671310c9476e73194c58e15e535e6383f77da41de1c09db7ac2637d345ab82",
    "reflexive-cycle:3": "40a9c33a460d871e8573285c421cd993ebbb5329b4e10b2354b7c8db82ac9155",
    "reflexive-cycle:4": "153906dc914e254c3a4c0f7f705693cf8bf1c2fe17d194e07c5f55624f16b1a8",
    "reflexive-cycle:5": "29f30ef587f4957ac9cab8703d2203e75c71af7e5c04376f59ab461e24202cd3",
    "hj:4": "0dcf6fcc67956bc9ee9117b55bcb02fb49ee1200abed10994eb65fa44f260f5b",
    "hj:5": "a6a778805ae4ffc58fb99fc7af3bf11bd250f8474329d3f4ecaf08daf5c19a30",
    "hairy:3": "63b81adb176a617cfaf071fffb9d4219c7f4f9025ea9205c9a9d1f9f8f6d3598",
    "nae": "5b51898b61085047a86b2ed538cb9f99c479ff82b2ecffb8b10aea930bd130f2",
    "single:4,2": "534799b4b13215c3cab8ef92c615c37d539d3e31a93f1eccd0b53bd96d24bbeb",
    "single:5,3": "a2cb9467a9e5ed1959ab705226c577cc5777c2f9f1997065e4d872c15a8efc8e",
    "graph:0-1,0-2,0-3,3-4": "ffc0ac0c993b50180755ea7c413f94edf81047d14e08b519aa93bed3439ebb6a",
    "graph:0-1,1-2,2-3,0-3,3-4": "16f829f352350018b87268a89247105f68af9926b27121760ced737b2d29e66b",
}
# other names of the same templates, which read their twins' verdicts
CLASSIFY.update({
    "cycle:3": CLASSIFY["clique:3"],
    "path:2": CLASSIFY["clique:2"],
    "star:1": CLASSIFY["clique:2"],
    "bipartite:1,1": CLASSIFY["clique:2"],
    "bipartite:2,2": CLASSIFY["cycle:4"],
    "hj:3": CLASSIFY["cycle:6"],
})
VERIFY = {
    "clique-pad": "fd8e6bd6f41e5c7fc61a5a519058580f3248dc6d7db224703a5ec3623ec737d7",
    "clique-1j": "580edcd91955495d7ac1768016e43db1228bf67cecad180ef3e1a4c674925be5",
    "nae": "9d0b91eabfe320d1204077c9dbb13ab750d3e91e4a969bedca98d667929db673",
    "c4star-macros": "6d01a953b0cf69ddfe353ab9fc572dde60a385c27c281c11fd5ad1323f7f26ce",
    "reflexive-c4": "bd8227ffce188453cfb0fd649c8d464f2c13445cf8e505deb8189410209c99de",
    "odd-cycle-path": "6ff3f47fb4d94981bd12e4eda9c90f058ff4ca8987b0ada1c75c9e31f7addd40",
}

STRATEGY = {
    "K2": "3a6ed3cf3fd83d487bb7cf5e5bf31397ddd37a16a69feb8c53d607e0b85f0c9e",
    "K3": "11a4c730127ef9a3aeae6475a2d1af78220562d0b6f5659bdbf106542e1a1a14",
    "K4": "5ae7104bde176897fe82c73a3698a36dd1f9e1cffa5a7803012dbd2c26ae7e6e",
    "C4": "e262685709592b75d8f6b080146df07e94355662a07ad125c1428f0febc0ce04",
    "P3": "5af0ae17223a52a5aff2a90f46121f93eccb9e1d1d0fe6b45342346958f2fa03",
    "K23": "3ec64f4dabf8dd390574d80e6029a719d0aaaff7acdad6339563291e55cf82ac",
    "C4star": "a50c0aa3eff92fa2559c706ecac96d38544c93f08f6870f6cf5482bc4a5e28e3",
    "NAE": "b5a54e45445c9dd23050466294c33b63c5ddf409484c2921c4065dd7ee1950ac",
}


@pytest.mark.parametrize("name", [r for r, _, _ in RULES])
def test_golden_compiled_rules(name):
    assert digest(compiled_lines(name)) == COMPILED[name]


@pytest.mark.parametrize(
    "key",
    ["K1", "K2", "K3", "K4", "C4", "C5", "C6", "P3", "P4", "P5", "K23", "K13", "C4star", "NAE"],
)
def test_golden_dispatch_tags(key, zoo):
    assert digest(dispatch_lines(key, zoo)) == DISPATCH[key]


@pytest.mark.parametrize("spec", CLASSIFY_FAMILIES)
def test_golden_classify(spec):
    assert digest(classify_lines(spec)) == CLASSIFY[spec]


def _edge_list_spec(spec: str) -> str | None:
    """The ``graph:`` spec of ``spec``'s template, when that is a loop-free
    graph whose last vertex lies on an edge, so the spec builds it again."""
    b = build_template(model.parse_family_spec(spec))
    g = model.graph_view(b)
    if g is None or g.loops:
        return None
    edges = sorted((a, c) for a, c in b.tuples("E") if a < c)
    if max((c for _, c in edges), default=0) != b.domain_size - 1:
        return None
    return "graph:" + ",".join(f"{a}-{c}" for a, c in edges)


def test_classify_agrees_across_names_of_one_template():
    """Every name of one template, a family spec or its edge list, gets
    the same verdict on every fragment."""
    specs = CLASSIFY_FAMILIES + [e for e in map(_edge_list_spec, CLASSIFY_FAMILIES) if e]
    groups: dict = {}
    for spec in dict.fromkeys(specs):
        groups.setdefault(build_template(model.parse_family_spec(spec)), []).append(spec)
    assert sum(len(g) > 1 for g in groups.values()) >= 10
    for names in groups.values():
        first = classify_lines(names[0])
        for other in names[1:]:
            assert classify_lines(other) == first, (names[0], other)


@pytest.mark.parametrize("name", list(VERIFY_ARGS))
def test_golden_verify_output(name, capsys):
    assert digest(verify_lines(name, capsys)) == VERIFY[name]


@pytest.mark.parametrize("key", list(STRATEGY))
def test_golden_strategy_trees(key, zoo):
    assert digest(strategy_lines(key, zoo)) == STRATEGY[key]
