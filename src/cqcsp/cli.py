"""Command-line front end.

Exit codes: 0 yes/success, 1 no (or verification disagreement), 2
usage/parse error, 3 node budget exceeded, 4 internal error (a crash,
never a verdict).  ``verify`` exits 1 if any case disagrees, else 0 if
any agrees, else 3 if any was budget-skipped, else 2.  ``solve`` and
``verify`` fix the node budget before any search: ``--node-budget``, else
CQ_NODE_BUDGET, else the default.  No other module reads the environment.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import fastpath, oracle, reductions, textio
from .model import (
    InvalidStructureError,
    build_template,
    parse_family_spec,
    parse_fragment_spec,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise InvalidStructureError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise InvalidStructureError(f"cannot write {path}: {exc}") from exc


def _stem(path: str) -> str:
    """The file name without its last suffix, as ``pathlib`` reads it: a
    leading dot or a trailing one is not a suffix."""
    name = os.path.basename(path)
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


def _parse_params(tokens: list[str]) -> dict:
    params: dict = {}
    for tok in tokens:
        if "=" not in tok:
            raise InvalidStructureError(f"expected key=value parameter, got {tok!r}")
        key, value = tok.split("=", 1)
        if key in params:
            raise InvalidStructureError(f"parameter {key!r} given twice")
        if key == "h":
            params[key] = build_template(parse_family_spec(value))
        else:
            try:
                params[key] = int(value)
            except ValueError:
                raise InvalidStructureError(f"parameter {key!r} needs an integer") from None
    return params


def _count(text: str) -> int:
    """An argparse type: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _node_budget(args: argparse.Namespace) -> int:
    """``--node-budget``, else CQ_NODE_BUDGET, else the oracle's default."""
    if args.node_budget is not None:
        return args.node_budget
    text = os.environ.get("CQ_NODE_BUDGET")
    if text is None:
        return oracle.DEFAULT_NODE_BUDGET
    try:
        return _count(text)
    except argparse.ArgumentTypeError:
        raise ValueError(f"CQ_NODE_BUDGET must be a non-negative integer, got {text!r}") from None


def _check_writable(path: str) -> None:
    """Refuse a path that is a directory or lies in none, touching no file."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise InvalidStructureError(f"cannot write {path}: not a file in an existing directory")


def cmd_solve(args: argparse.Namespace) -> int:
    budget = _node_budget(args)
    if args.strategy_out:
        _check_writable(args.strategy_out)
    template = textio.parse_structure(_read(args.template))
    s = textio.parse_sentence(_read(args.sentence))
    match = fastpath.dispatch(template, s, budget=budget) if args.engine == "auto" else None
    engine, thunk = match or ("oracle", lambda: oracle.evaluate(template, s, budget=budget))
    verdict = thunk()
    # The strategy comes first, so a budget stop in extraction prints no verdict.
    if args.strategy_out:
        if verdict:
            strategy = oracle.extract_strategy(template, s, budget=budget)
            _write(args.strategy_out, textio.render_strategy(strategy))
        else:
            print("no strategy: no-instance", file=sys.stderr)
    print("yes" if verdict else "no")
    print(f"engine: {engine}")
    return EXIT_YES if verdict else EXIT_NO


def cmd_classify(args: argparse.Namespace) -> int:
    family = parse_family_spec(args.family)
    fragment = parse_fragment_spec(" ".join(args.fragment))
    verdict = fastpath.classify(family, fragment)
    print(verdict)
    return EXIT_YES


def cmd_gen(args: argparse.Namespace) -> int:
    family = parse_family_spec(args.family)
    text = textio.render_structure(build_template(family))
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write(args.out, text)
    return EXIT_YES


def cmd_reduce(args: argparse.Namespace) -> int:
    rule = reductions.rule(args.rule, **_parse_params(args.params))
    source_template = rule.source_template()
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise InvalidStructureError(f"cannot write {args.out_dir}: {exc}") from exc
    for source_path in args.sources:
        source = textio.parse_sentence(_read(source_path))
        compiled = reductions.compile_rule(rule, source_template, source)
        if args.inject_fault:
            compiled = reductions.corrupt_compiled(compiled)
        target_template, target_sentence = compiled
        stem = os.path.join(args.out_dir, _stem(source_path))
        _write(f"{stem}.target.structure", textio.render_structure(target_template))
        _write(f"{stem}.target.sentence", textio.render_sentence(target_sentence) + "\n")
    return EXIT_YES


def cmd_verify(args: argparse.Namespace) -> int:
    budget = _node_budget(args)
    rule = reductions.rule(args.rule, **_parse_params(args.params))
    source_template = rule.source_template()
    sources = reductions.default_sources(rule, trials=args.trials, seed=args.seed)
    report = reductions.verify_reduction(
        rule,
        source_template,
        sources,
        budget=budget,
        corrupt=args.inject_fault,
    )
    for line in report.lines():
        print(line)
    agree = sum(1 for c in report.cases if c.status == "agree")
    print(
        f"summary: {agree} agree, {len(report.disagreements())} disagree,"
        f" {len(report.skipped())} budget-skipped"
    )
    if report.disagreements():
        return EXIT_NO
    if agree:
        return EXIT_YES
    if report.skipped():
        return EXIT_BUDGET
    print("error: no case agreed, disagreed or ran out of budget", file=sys.stderr)
    return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqcsp",
        description="Decide, classify, and compile counting-quantifier constraint problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide a sentence on a template")
    p.add_argument("template")
    p.add_argument("sentence")
    p.add_argument("--engine", choices=("oracle", "auto"), default="oracle")
    p.add_argument("--strategy-out", default=None)
    p.add_argument("--node-budget", type=_count, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("classify", help="complexity classification of a family/fragment pair")
    p.add_argument("family")
    p.add_argument("fragment", nargs="+")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gen", help="write a template family to a structure file")
    p.add_argument("family")
    p.add_argument("out", nargs="?", default="-")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reduce", help="compile source sentences under a reduction rule")
    p.add_argument("rule", choices=tuple(reductions.RULES))
    p.add_argument("params", nargs="*", default=[], metavar="key=value")
    p.add_argument("--sources", nargs="+", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="oracle-check a reduction rule on a source suite")
    p.add_argument("rule", choices=tuple(reductions.RULES))
    p.add_argument("params", nargs="*", default=[], metavar="key=value")
    p.add_argument(
        "--trials",
        type=_count,
        default=20,
        metavar="N",
        help="check at most N source sentences (default 20); c4star-macros checks its"
        " exhaustive suite whatever N is",
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--node-budget", type=_count, default=None)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except oracle.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (textio.ParseError, InvalidStructureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only here: it loads linecache and tokenize

        print(f"error: internal: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
