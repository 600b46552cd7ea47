"""The package's records keep one set of semantics whatever implements
them: construction by position and by keyword with the same defaults, the
same validation messages, equality only with a record of the same class,
the hash of the field tuple, the same ``repr``, and no assignment or
deletion on the immutable ones."""

from __future__ import annotations

import pytest

from cqcsp.fastpath import ComplexityClass, ComplexityVerdict
from cqcsp.model import (
    GRAPH_SIGNATURE,
    BoundedPrefix,
    GraphView,
    InvalidStructureError,
    Quantifier,
    Sentence,
    Signature,
    Structure,
    TemplateFamily,
    ThresholdSet,
)
from cqcsp.modarith import ResidueSet
from cqcsp.oracle import StrategyNode
from cqcsp.reductions import GadgetBlueprint, ReductionCase, ReductionReport, ReductionRule
from cqcsp.textio import SourceSpan

Q = Quantifier(2, "x")
RULE = ReductionRule("clique-gj", (("j", 2),))

# class -> (field names, field values, repr of the record built from them)
RECORDS = {
    Signature: (("relations",), ((("E", 2),),), "Signature(relations=(('E', 2),))"),
    Quantifier: (
        ("threshold", "variable"), (2, "x"), "Quantifier(threshold=2, variable='x')"
    ),
    Sentence: (
        ("prefix", "atoms"),
        ((Q,), (("E", ("x", "x")),)),
        "Sentence(prefix=(Quantifier(threshold=2, variable='x'),), atoms=(('E', ('x', 'x')),))",
    ),
    TemplateFamily: (
        ("kind", "n", "k", "l", "j", "edges"),
        ("forest", 3, None, None, None, ((0, 1),)),
        "TemplateFamily(kind='forest', n=3, k=None, l=None, j=None, edges=((0, 1),))",
    ),
    ThresholdSet: (("thresholds",), (frozenset({2}),), "ThresholdSet(thresholds=frozenset({2}))"),
    BoundedPrefix: (("m",), (3,), "BoundedPrefix(m=3)"),
    GraphView: (
        ("n", "adj", "loops", "relation"),
        (2, (frozenset({1}), frozenset({0})), frozenset({1}), "E"),
        "GraphView(n=2, adj=(frozenset({1}), frozenset({0})), loops=frozenset({1}), "
        "relation='E')",
    ),
    ComplexityVerdict: (
        ("complexity", "citation"),
        (ComplexityClass.IN_L, "Thm 2 i"),
        "ComplexityVerdict(complexity=<ComplexityClass.IN_L: 'L'>, citation='Thm 2 i')",
    ),
    ComplexityClass: (("name", "label"), ("IN_L", "L"), "<ComplexityClass.IN_L: 'L'>"),
    ResidueSet: (("modulus", "bits"), (6, 5), "ResidueSet(modulus=6, bits=5)"),
    StrategyNode: (
        ("offer", "children"),
        ((1,), (StrategyNode(),)),
        "StrategyNode(offer=(1,), children=(StrategyNode(offer=(), children=()),))",
    ),
    SourceSpan: (
        ("line", "column", "length"), (3, 7, 2), "SourceSpan(line=3, column=7, length=2)"
    ),
    ReductionRule: (
        ("name", "params"), ("clique-gj", (("j", 2),)),
        "ReductionRule(name='clique-gj', params=(('j', 2),))",
    ),
    GadgetBlueprint: (
        ("fresh_variables", "quantifiers", "atoms", "attachments"),
        (("y",), (Q,), (("E", ("x", "y")),), ("x",)),
        "GadgetBlueprint(fresh_variables=('y',), quantifiers=(Quantifier(threshold=2, "
        "variable='x'),), atoms=(('E', ('x', 'y')),), attachments=('x',))",
    ),
}

MUTABLE = {
    ReductionCase: (
        ("index", "source", "source_verdict", "target_verdict", "status", "target_vars",
         "target_atoms", "seconds"),
        (1, "E1 u |", "yes", "yes", "ok", 4, 5, 0.5),
        "ReductionCase(index=1, source='E1 u |', source_verdict='yes', target_verdict='yes', "
        "status='ok', target_vars=4, target_atoms=5, seconds=0.5)",
    ),
    ReductionReport: (
        ("rule", "cases"),
        (RULE, []),
        "ReductionReport(rule=ReductionRule(name='clique-gj', params=(('j', 2),)), cases=[])",
    ),
}

ALL = {**RECORDS, **MUTABLE}


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction(cls):
    names, values, text = ALL[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, name) for name in names) == values
    assert repr(by_position) == repr(by_keyword) == text


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_equal_only_to_the_same_class(cls):
    names, values, _ = ALL[cls]
    r = cls(*values)
    assert r == cls(*values) and not r != cls(*values)
    assert r != values and not r == values
    other = type("Other" + cls.__name__, (cls,), {})
    assert r != other(*values) and other(*values) != r


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_hash_is_the_field_tuple_hash(cls):
    names, values, _ = RECORDS[cls]
    r = cls(*values)
    assert hash(r) == hash(values) == hash(cls(*values))
    assert len({r, cls(*values)}) == 1


@pytest.mark.parametrize("cls", [*RECORDS, Structure], ids=lambda c: c.__name__)
def test_immutable_records_refuse_assignment_and_deletion(cls):
    if cls is Structure:
        r = Structure(GRAPH_SIGNATURE, 1, {"E": frozenset()})
        names = ("signature", "domain_size", "relations")
    else:
        names, values, _ = RECORDS[cls]
        r = cls(*values)
    for name in names + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda c: c.__name__)
def test_reduction_results_are_mutable_and_unhashable(cls):
    names, values, _ = MUTABLE[cls]
    r = cls(*values)
    with pytest.raises(TypeError):
        hash(r)
    setattr(r, names[0], "changed")
    assert getattr(r, names[0]) == "changed"
    assert r != cls(*values)
    delattr(r, names[0])
    assert not hasattr(r, names[0])


def test_defaults():
    assert TemplateFamily("clique", n=3) == TemplateFamily("clique", 3, None, None, None, None)
    assert TemplateFamily("nae").n is None and TemplateFamily("nae").edges is None
    assert StrategyNode() == StrategyNode((), ()) == StrategyNode(offer=(), children=())
    assert ReductionRule("clique-gj", params=(("j", 2),)) == RULE
    case = ReductionCase(0, "s", "yes", "no", "DISAGREE")
    assert (case.target_vars, case.target_atoms, case.seconds) == (0, 0, 0.0)
    first, second = ReductionReport(RULE), ReductionReport(rule=RULE)
    assert first.cases == [] and first.cases is not second.cases


def test_structure_equality_and_hash_are_by_canonical_form():
    a = Structure(GRAPH_SIGNATURE, 2, {"E": frozenset({(0, 1), (1, 0)})})
    b = Structure(signature=GRAPH_SIGNATURE, domain_size=2,
                  relations={"E": frozenset({(1, 0), (0, 1)})})
    assert a == b and hash(a) == hash(b) == hash(a.canonical_form())
    assert a != a.canonical_form()
    assert repr(a) == "Structure(n=2, E:2)"
    assert a != Structure(GRAPH_SIGNATURE, 2, {"E": frozenset()})


def test_strategy_leaf_defaults_are_shared_empty_tuples():
    assert StrategyNode().offer == () and StrategyNode().children == ()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Signature((("E", 2), ("E", 1))), InvalidStructureError,
         "duplicate relation name in signature"),
        (lambda: Signature((("R", 0),)), InvalidStructureError, "relation 'R': arity must be >= 1"),
        (lambda: Structure(GRAPH_SIGNATURE, 0, {"E": frozenset()}), InvalidStructureError,
         "domain size must be positive"),
        (lambda: Structure(GRAPH_SIGNATURE, 2, {}), InvalidStructureError,
         "relation map does not match signature"),
        (lambda: Structure(GRAPH_SIGNATURE, 2, {"E": frozenset({(0,)})}), InvalidStructureError,
         "tuple (0,) has wrong arity for relation 'E'"),
        (lambda: Structure(GRAPH_SIGNATURE, 2, {"E": frozenset({(0, 5)})}),
         InvalidStructureError, "element 5 out of range in relation 'E'"),
        (lambda: Quantifier(0, "x"), InvalidStructureError, "quantifier threshold must be >= 1"),
        (lambda: Quantifier(None, "1x"), InvalidStructureError, "bad variable name '1x'"),
        (lambda: Sentence((Q, Q), ()), InvalidStructureError, "duplicate prefix variable 'x'"),
        (lambda: Sentence((Q,), (("E", ()),)), InvalidStructureError,
         "atom 'E' has no arguments"),
        (lambda: Sentence((Q,), (("E", ("x",)), ("E", ("x", "x")))), InvalidStructureError,
         "relation 'E' used with two arities"),
        (lambda: Sentence((Q,), (("E", ("x", "y")),)), InvalidStructureError,
         "atom variable 'y' not bound by the prefix"),
        (lambda: ThresholdSet(frozenset()), InvalidStructureError,
         "threshold set must be nonempty"),
        (lambda: ThresholdSet(frozenset({0, 2})), InvalidStructureError,
         "thresholds must be >= 1"),
        (lambda: BoundedPrefix(-1), InvalidStructureError, "prefix bound must be >= 0"),
        (lambda: ComplexityVerdict(ComplexityClass.IN_P, ""), InvalidStructureError,
         "non-open verdicts need a citation tag"),
        (lambda: ResidueSet(0, 0), ValueError, "modulus must be >= 1"),
        (lambda: ResidueSet(3, 8), ValueError, "bitmask out of range for modulus"),
        (lambda: ResidueSet(3, -1), ValueError, "bitmask out of range for modulus"),
        (lambda: ReductionRule("zz"), InvalidStructureError, "unknown reduction rule 'zz'"),
        (lambda: ReductionRule("clique-pad", (("j", 2),)), InvalidStructureError,
         "rule 'clique-pad' needs n=<value>"),
        (lambda: GadgetBlueprint(("x",), (), (), ("x",)), InvalidStructureError,
         "fresh variables overlap the attachment points"),
    ],
)
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_open_verdict_needs_no_citation():
    assert str(ComplexityVerdict(ComplexityClass.OPEN, "")) == "Open"


def test_complexity_classes_are_six_named_members():
    members = [ComplexityClass.IN_L, ComplexityClass.IN_P, ComplexityClass.NP_COMPLETE,
               ComplexityClass.NP_HARD, ComplexityClass.PSPACE_COMPLETE, ComplexityClass.OPEN]
    assert [c.label for c in members] == [
        "L", "P", "NP-complete", "NP-hard", "Pspace-complete", "Open"]
    assert all(getattr(ComplexityClass, c.name) is c for c in members)
