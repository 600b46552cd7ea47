"""Constraint satisfaction with counting quantifiers: a ground-truth game
solver, polynomial-time deciders with a complexity classifier, and the
hardness-reduction gadget compiler, cross-validated against each other."""

from .model import (
    BoundedPrefix,
    FragmentSpec,
    InvalidStructureError,
    Quantifier,
    Sentence,
    Signature,
    Structure,
    TemplateFamily,
    ThresholdSet,
    build_template,
    canonical_query,
    clique,
    complete_bipartite,
    cycle,
    forest_from_edges,
    general_graph,
    graph_structure,
    graph_view,
    hairy_cycle,
    hj_template,
    instance_graph,
    make_structure,
    nae_boolean,
    parse_family_spec,
    parse_fragment_spec,
    path,
    reflexive_cycle,
    sentence,
    single_quantifier_template,
    star,
    threshold_set,
)
from .modarith import ResidueSet, iterated_sumset, reachable_by_walk, sumset_mod
from .oracle import (
    BudgetExceededError,
    SignatureError,
    StrategyNode,
    StrategyShapeError,
    ThresholdError,
    evaluate,
    extract_strategy,
    verify_strategy,
)
from .fastpath import (
    ComplexityClass,
    ComplexityVerdict,
    PreconditionError,
    classify,
    decide,
    dispatch,
)
from .reductions import (
    GadgetBlueprint,
    ReductionReport,
    ReductionRule,
    block_distinctness_gadget,
    compile_rule,
    isolation_spine,
    rule,
    universal_path_gadget,
    verify_reduction,
)
from .textio import (
    ParseError,
    SourceSpan,
    parse_sentence,
    parse_strategy,
    parse_structure,
    render_sentence,
    render_strategy,
    render_structure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
