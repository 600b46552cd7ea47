import re
from pathlib import Path

import pytest

from cqcsp import cli, model, textio
from cqcsp.model import build_template


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return tmp_path, write


def test_solve_yes_no_exit_codes(files, capsys):
    tmp, write = files
    c4 = write("c4.structure", textio.render_structure(build_template(model.cycle(4))))
    tri = write("tri.sentence", "E2 x E2 y E2 z | E(x,y) & E(y,z) & E(z,x)\n")
    assert run(["solve", c4, tri]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "no"

    k3 = write("k3.structure", textio.render_structure(build_template(model.clique(3))))
    phi = write("phi.sentence", "E1 a E1 b E1 c | E(a,b) & E(b,a) & E(b,c) & E(c,b) & E(c,a) & E(a,c)\n")
    assert run(["solve", k3, phi]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "yes"


def test_solve_engine_auto_reports_match(files, capsys):
    tmp, write = files
    c4 = write("c4.structure", textio.render_structure(build_template(model.cycle(4))))
    s = write("s.sentence", "E2 x E2 y | E(x,y)\n")
    assert run(["solve", c4, s, "--engine", "auto"]) == 0
    out = capsys.readouterr().out
    assert "engine: cycle tractable" in out


def test_solve_strategy_out(files, capsys):
    tmp, write = files
    c4 = write("c4.structure", textio.render_structure(build_template(model.cycle(4))))
    s = write("s.sentence", "E2 x E2 y | E(x,y)\n")
    strat = tmp / "strategy.txt"
    assert run(["solve", c4, s, "--strategy-out", str(strat)]) == 0
    text = strat.read_text()
    parsed = textio.parse_strategy(text, thresholds=[2, 2])
    assert parsed.offer == (0, 1)


def test_solve_parse_error_exit_2(files, capsys):
    tmp, write = files
    c4 = write("c4.structure", textio.render_structure(build_template(model.cycle(4))))
    bad = write("bad.sentence", "E2 x | E(x,y)\n")
    assert run(["solve", c4, bad]) == 2


def test_solve_refuses_a_const_line(files, capsys):
    """A structure names no elements, so a `const` line is an unknown
    directive under either engine."""
    tmp, write = files
    text = textio.render_structure(build_template(model.cycle(4))) + "const a 0\n"
    c4 = write("c4.structure", text)
    s = write("s.sentence", "E2 x E2 y | E(x,y)\n")
    for engine in ("oracle", "auto"):
        assert run(["solve", c4, s, "--engine", engine]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unexpected directive 'const'")


def test_solve_budget_exit_3(files):
    tmp, write = files
    c6 = write("c6.structure", textio.render_structure(build_template(model.cycle(6))))
    s = write("s.sentence", "E2 a E2 b E2 c | E(a,b) & E(b,c)\n")
    assert run(["solve", c6, s, "--node-budget", "2"]) == 3


def test_negative_node_budget_is_usage_error(files, capsys):
    """A negative budget is refused before any search, whether or not the
    sentence would spend a node."""
    tmp, write = files
    k3 = write("k3.structure", textio.render_structure(build_template(model.clique(3))))
    for text in ("E1 x |\n", "E1 x | E(x,x)\n"):
        s = write("s.sentence", text)
        assert run(["solve", k3, s, "--node-budget", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--node-budget: expected a non-negative integer, got '-5'" in captured.err
    assert run(["verify", "clique-gj", "j=2", "--trials", "1", "--node-budget", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--node-budget: expected a non-negative integer, got '-5'" in captured.err


@pytest.mark.parametrize("value", ["abc", "-3", "1.5", ""])
def test_bad_budget_variable_is_usage_error(files, capsys, monkeypatch, value):
    """A bad CQ_NODE_BUDGET is refused before any search, also where a
    decider would answer without one: `cycle tractable` on C4 here."""
    tmp, write = files
    k3 = write("k3.structure", textio.render_structure(build_template(model.clique(3))))
    c4 = write("c4.structure", textio.render_structure(build_template(model.cycle(4))))
    s = write("s.sentence", "E1 x | E(x,x)\n")
    c4s = write("c4s.sentence", "E2 x E2 y | E(x,y)\n")
    monkeypatch.setenv("CQ_NODE_BUDGET", value)
    for argv in (
        ["solve", k3, s],
        ["solve", c4, c4s, "--engine", "auto"],
        ["verify", "clique-gj", "j=2", "--trials", "1"],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: CQ_NODE_BUDGET must be a non-negative integer, got {value!r}\n"


def test_node_budget_flag_wins_over_the_variable(files, monkeypatch):
    """--node-budget is read first: the variable, bad or not, is then
    never read, on `solve` and on `verify` alike.  Without the flag the
    variable sets the budget."""
    tmp, write = files
    c6 = write("c6.structure", textio.render_structure(build_template(model.cycle(6))))
    s = write("s.sentence", "E2 a E2 b E2 c | E(a,b) & E(b,c)\n")
    verify = ["verify", "even-cycle-csp", "n=6", "j=2", "--trials", "2"]
    for value in ("abc", "0"):
        monkeypatch.setenv("CQ_NODE_BUDGET", value)
        assert run(["solve", c6, s, "--node-budget", "1000"]) == 0
        assert run([*verify, "--node-budget", "10000000"]) == 0
    monkeypatch.setenv("CQ_NODE_BUDGET", "10000000")
    assert run(["solve", c6, s, "--node-budget", "2"]) == 3
    assert run([*verify, "--node-budget", "10"]) == 3
    monkeypatch.setenv("CQ_NODE_BUDGET", "2")
    assert run(["solve", c6, s]) == 3
    monkeypatch.setenv("CQ_NODE_BUDGET", "0")
    p4 = write("p4.structure", textio.render_structure(build_template(model.path(4))))
    forest = write("f.sentence", "E2 x E1 y | E(x,y)\n")  # the forest decider searches
    assert run(["solve", p4, forest, "--engine", "auto"]) == 3
    monkeypatch.setenv("CQ_NODE_BUDGET", "10")
    assert run(verify) == 3


def test_only_the_cli_reads_the_environment():
    """The library takes its node budget from its arguments alone: no
    module of the package but the CLI reads the environment."""
    src = Path(cli.__file__).parent
    readers = [p.name for p in sorted(src.glob("*.py")) if re.search(r"environ|getenv", p.read_text())]
    assert readers == ["cli.py"]


def _chain_sentence(k: int) -> str:
    names = [f"x{i}" for i in range(k)]
    prefix = " ".join(f"E1 {v}" for v in names)
    return prefix + " | " + " & ".join(f"E({a},{b})" for a, b in zip(names, names[1:])) + "\n"


def test_deep_sentence_strategy_out_answers(files, capsys):
    """The oracle searches and extracts on explicit stacks, so a
    1,500-variable chain is answered and its strategy written."""
    tmp, write = files
    k2 = write("k2.structure", textio.render_structure(build_template(model.clique(2))))
    deep = write("deep.sentence", _chain_sentence(1500))
    strat = tmp / "strategy.txt"
    assert run(["solve", k2, deep, "--strategy-out", str(strat)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "yes"
    assert strat.read_text().count("offer") == 1500


def test_forest_decider_splits_threshold_two_blocks_by_component(files, capsys):
    """`auto`'s forest decider runs the oracle, which plays each
    instance-graph component's game on its own, so 1,200 threshold-2
    variables sharing no atom are 1,200 small games, not one game nested
    1,200 deep."""
    tmp, write = files
    p4 = write("p4.structure", textio.render_structure(build_template(model.path(4))))
    block = write("block.sentence", " ".join(f"E2 x{i}" for i in range(1200)) + " |\n")
    assert run(["solve", p4, block, "--engine", "auto"]) == 0
    assert capsys.readouterr().out.splitlines() == ["yes", "engine: forest bounded prefix"]


def test_auto_honours_node_budget(files, capsys):
    """`--node-budget` bounds `auto` as it bounds the oracle: the forest
    decider searches, so at budget 0 it stops with exit 3 and no verdict."""
    tmp, write = files
    p4 = write("p4.structure", textio.render_structure(build_template(model.path(4))))
    s = write("f.sentence", "E2 x E1 y | E(x,y)\n")
    for engine in ("oracle", "auto"):
        assert run(["solve", p4, s, "--engine", engine, "--node-budget", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "node budget exceeded" in captured.err


def test_deep_auto_answers(files, capsys):
    """`auto` decides a 3,000-variable chain with the small-bipartition
    decider, which counts template vertices and searches nothing."""
    tmp, write = files
    p4 = write("p4.structure", textio.render_structure(build_template(model.path(4))))
    deep = write("deep.sentence", "E3 h " + _chain_sentence(3000))
    assert run(["solve", p4, deep, "--engine", "auto"]) == 0
    assert capsys.readouterr().out.splitlines() == ["yes", "engine: small bipartition"]


def test_strategy_out_budget_exit_3(files, capsys):
    tmp, write = files
    k2 = write("k2.structure", textio.render_structure(build_template(model.clique(2))))
    s = write("s.sentence", " ".join(f"E2 x{i}" for i in range(25)) + " |\n")
    strat = tmp / "strategy.txt"
    argv = ["solve", k2, s, "--strategy-out", str(strat), "--node-budget", "1000"]
    assert run(argv) == 3
    assert not strat.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "node budget exceeded" in captured.err


def test_internal_error_exit_4(files, capsys, monkeypatch):
    tmp, write = files
    k2 = write("k2.structure", textio.render_structure(build_template(model.clique(2))))
    s = write("s.sentence", "E1 x E1 y | E(x,y)\n")

    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli.oracle, "evaluate", crash)
    assert run(["solve", k2, s, "--engine", "oracle"]) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal: RecursionError(")
    assert "Traceback (most recent call last):" in captured.err


def test_missing_rule_parameter_exit_2(capsys):
    assert run(["verify", "clique-pad", "j=2"]) == 2
    assert capsys.readouterr().err == "error: rule 'clique-pad' needs n=<value>\n"


def test_classify_output(files, capsys):
    assert run(["classify", "clique:5", "X=2"]) == 0
    assert capsys.readouterr().out.strip() == "Pspace-complete (Thm 1 iii)"
    assert run(["classify", "cycle:4", "X=1,2,3,4"]) == 0
    assert capsys.readouterr().out.strip() == "L (Thm 2 i)"
    assert run(["classify", "clique:6", "X=3"]) == 0
    assert capsys.readouterr().out.strip() == "Open"
    assert run(["classify", "graph:0-1,1-2", "prefix=2^3", "1*"]) == 0
    assert capsys.readouterr().out.strip() == "P (Thm 4)"
    assert run(["classify", "widget:9", "X=1"]) == 2
    # a cycle or a clique given as edges reads as the named family does
    assert run(["classify", "graph:0-1,1-2,2-3,3-4,0-4", "X=2"]) == 0
    assert capsys.readouterr().out.strip() == "L (Thm 2 i)"
    k5 = "graph:0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4"
    assert run(["classify", k5, "X=3,4"]) == 0
    assert capsys.readouterr().out.strip() == "L (Thm 1 i)"


def test_gen_outputs(files, capsys):
    tmp, write = files
    out = tmp / "c6.structure"
    assert run(["gen", "cycle:6", str(out)]) == 0
    b = textio.parse_structure(out.read_text())
    assert b.domain_size == 6 and len(b.tuples("E")) == 12

    assert run(["gen", "hairy:6"]) == 0
    text = capsys.readouterr().out
    assert textio.parse_structure(text).domain_size == 18

    assert run(["gen", "reflexive-cycle:4"]) == 0
    b = textio.parse_structure(capsys.readouterr().out)
    loops = [t for t in b.tuples("E") if t[0] == t[1]]
    assert len(loops) == 4 and len(b.tuples("E")) == 12

    assert run(["gen", "hj:4"]) == 0
    assert textio.parse_structure(capsys.readouterr().out).domain_size == 7

    assert run(["gen", "nonsense:1"]) == 2


def test_reduce_writes_artifacts(files, capsys):
    tmp, write = files
    src = write("src.sentence", "E2 x | E(x,x)\n")
    outdir = tmp / "out"
    assert run(["reduce", "c4star-macros", "--sources", src, "--out-dir", str(outdir)]) == 0
    sentence_text = (outdir / "src.target.sentence").read_text()
    s = textio.parse_sentence(sentence_text)
    assert set(q.threshold for q in s.prefix) <= {1, 4}
    template = textio.parse_structure((outdir / "src.target.structure").read_text())
    assert template == build_template(model.reflexive_cycle(4))


def test_reduce_artifact_stem():
    """Artifacts are named by the source's file name less its last suffix;
    a leading or trailing dot starts no suffix."""
    names = {"a.txt": "a", "d/a.b.c": "a.b", "a.": "a.", "a..": "a..", ".a": ".a", "..a": "."}
    assert {name: cli._stem(name) for name in names} == names


def test_verify_ok_and_fault_injection(files, capsys):
    assert run(["verify", "clique-pad", "j=2", "n=6", "--trials", "50", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "summary:" in out and "0 disagree" in out
    assert len([l for l in out.splitlines() if l.endswith(" agree")]) == 50

    assert (
        run(["verify", "clique-pad", "j=2", "n=6", "--trials", "12", "--seed", "7",
             "--inject-fault"])
        == 1
    )
    out = capsys.readouterr().out
    assert "DISAGREE" in out


def test_verify_budget_exit_3(files, capsys):
    code = run(["verify", "even-cycle-csp", "n=6", "j=2", "--trials", "2",
                "--node-budget", "10"])
    assert code == 3
    out = capsys.readouterr().out
    assert "budget-skipped" in out


def test_verify_negative_trials_is_usage_error(capsys):
    assert run(["verify", "clique-gj", "j=2", "--trials", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials: expected a non-negative integer, got '-3'" in captured.err


def test_verify_odd_cycle_path(files, capsys):
    assert run(["verify", "odd-cycle-path", "n=5", "j=2"]) == 0
    out = capsys.readouterr().out
    assert len([l for l in out.splitlines() if l.endswith(" agree")]) == 20
    assert out.splitlines()[-1] == "summary: 20 agree, 0 disagree, 0 budget-skipped"


def test_cli_determinism(files, capsys):
    args = ["verify", "clique-1j", "n=3", "j=2", "--trials", "15", "--seed", "3"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_usage_error_exit_2():
    assert run(["solve"]) == 2
    assert run(["reduce", "no-such-rule", "--sources", "x", "--out-dir", "y"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["even-cycle", "n=5", "j=2"], "no case agreed, disagreed or ran out of budget"),
    (["nae", "n=3", "j=2", "--trials", "0"], "no case agreed, disagreed or ran out of budget"),
    (["girth-isolation", "h=graph:0-1,1-2,2-0"], "needs a bipartite template of girth >= 6"),
    (["girth-isolation", "h=reflexive-cycle:6"], "needs a bipartite template of girth >= 6"),
    (["odd-cycle-path", "n=6", "j=2"], "no case agreed, disagreed or ran out of budget"),
])
def test_verify_with_no_case_checked_is_usage_error(argv, message, capsys):
    """`verify` exits 0 only when a case agreed: a run whose every source
    fails a precondition, or which has no source, checks nothing.  A
    girth-isolation template of short girth is refused as the rule is
    built."""
    assert run(["verify", *argv]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[-1:] in ([], ["summary: 0 agree, 0 disagree, 0 budget-skipped"])
    assert all(" ? ? precondition(" in line for line in lines[:-1])
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["clique-gj", "j=2"],
    ["even-cycle", "n=6", "j=2"],
    ["even-cycle-csp", "n=6", "j=2"],
    ["girth-isolation", "h=cycle:6"],
    ["reflexive-c4"],
    ["clique-pad", "j=2", "n=6"],
    ["odd-cycle-path", "n=5", "j=2"],
])
def test_verify_trials_zero_checks_no_source(argv, capsys):
    """``--trials N`` caps every seeded or fixed suite at N sentences, so
    ``--trials 0`` checks none and exits 2; ``--trials 1`` checks one."""
    assert run(["verify", *argv, "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "summary: 0 agree, 0 disagree, 0 budget-skipped\n"
    assert captured.err == "error: no case agreed, disagreed or ran out of budget\n"
    assert run(["verify", *argv, "--trials", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "summary: 1 agree, 0 disagree, 0 budget-skipped"
    )


def test_verify_trials_leaves_the_exhaustive_suite_whole(capsys):
    assert run(["verify", "c4star-macros", "--trials", "0"]) == 0
    zero = capsys.readouterr().out
    assert run(["verify", "c4star-macros"]) == 0
    assert capsys.readouterr().out == zero
    assert zero.splitlines()[-1] == "summary: 184 agree, 0 disagree, 0 budget-skipped"


def test_verify_help_says_what_trials_caps(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["verify", "--help"])
    # argparse wraps the help text, breaking lines after a hyphen too
    out = " ".join(capsys.readouterr().out.split()).replace("- ", "-")
    assert "--trials N check at most N source sentences (default 20)" in out
    assert "c4star-macros checks its exhaustive suite whatever N is" in out
    assert "fixed cases" not in out


def test_verify_girth_isolation_parses_template_parameter(capsys):
    assert run(["verify", "girth-isolation", "h=cycle:6", "--trials", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "summary: 3 agree, 0 disagree, 0 budget-skipped"


@pytest.mark.parametrize("params, message", [
    (["j=x", "n=6"], "parameter 'j' needs an integer"),
    (["j2"], "expected key=value parameter, got 'j2'"),
    (["j=2", "n=6", "bogus=1"], "rule 'clique-pad' takes no parameter 'bogus'"),
    (["j=2", "n=6", "j=3"], "parameter 'j' given twice"),
])
def test_bad_rule_parameter_exit_2(params, message, capsys):
    assert run(["verify", "clique-pad", *params]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_missing_template_file_exit_2(files, capsys):
    tmp, write = files
    s = write("s.sentence", "E1 x |\n")
    missing = str(tmp / "missing.structure")
    assert run(["solve", missing, s]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {missing}: ")


def test_strategy_out_is_checked_before_the_search(files, capsys):
    """A --strategy-out path that is a directory or lies in a missing one
    is refused before any search, so a zero budget still exits 2 with no
    verdict; the check itself creates and truncates nothing."""
    tmp, write = files
    c6 = write("c6.structure", textio.render_structure(build_template(model.cycle(6))))
    s = write("s.sentence", "E2 a E2 b E2 c | E(a,b) & E(b,c)\n")
    for path in (str(tmp / "missing" / "strategy.txt"), str(tmp)):
        assert run(["solve", c6, s, "--strategy-out", path, "--node-budget", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}: ")
    kept = write("kept.txt", "old\n")
    fresh = tmp / "fresh.txt"
    for path in (kept, str(fresh)):
        assert run(["solve", c6, s, "--strategy-out", path, "--node-budget", "0"]) == 3
        assert capsys.readouterr().out == ""
    assert Path(kept).read_text() == "old\n"
    assert not fresh.exists()


def test_strategy_out_on_no_instance_writes_nothing(files, capsys):
    tmp, write = files
    c4 = write("c4.structure", textio.render_structure(build_template(model.cycle(4))))
    tri = write("tri.sentence", "E2 x E2 y E2 z | E(x,y) & E(y,z) & E(z,x)\n")
    strat = tmp / "strategy.txt"
    assert run(["solve", c4, tri, "--strategy-out", str(strat)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "no"
    assert captured.err == "no strategy: no-instance\n"
    assert not strat.exists()


def test_reduce_inject_fault_changes_the_target(files):
    tmp, write = files
    src = write("src.sentence", "E2 a E2 b | E(a,b)\n")
    base = ["reduce", "clique-pad", "j=2", "n=6", "--sources", src, "--out-dir"]
    assert run([*base, str(tmp / "clean")]) == 0
    assert run([*base, str(tmp / "fault"), "--inject-fault"]) == 0
    clean = (tmp / "clean" / "src.target.sentence").read_text()
    fault = (tmp / "fault" / "src.target.sentence").read_text()
    assert clean != fault
    assert textio.parse_sentence(clean).prefix == textio.parse_sentence(fault).prefix


def test_reduce_odd_cycle_path_writes_both_target_files(files, capsys):
    tmp, write = files
    src = write("src.sentence", "E1 u A v | E(u,v)\n")
    argv = ["reduce", "odd-cycle-path", "n=5", "j=2", "--sources", src, "--out-dir", str(tmp / "out")]
    assert run(argv) == 0
    assert capsys.readouterr() == ("", "")
    structure = (tmp / "out" / "src.target.structure").read_text()
    assert textio.parse_structure(structure) == build_template(model.cycle(5))
    sentence = textio.parse_sentence((tmp / "out" / "src.target.sentence").read_text())
    assert {q.threshold for q in sentence.prefix} == {1, 2}
    assert len(sentence.prefix) == 7 and ("E", ("u", "v")) in sentence.atoms


@pytest.mark.parametrize("matrix, message", [
    ("F(x,y)", "relation 'F' not in template signature"),
    ("E(x,y,x)", "relation 'E' arity mismatch"),
])
def test_auto_refuses_foreign_atoms_as_the_oracle_does(matrix, message, files, capsys):
    """`auto` matches no decider when an atom is not the template's binary
    edge relation, so the oracle answers and refuses the atom."""
    tmp, write = files
    c4 = write("c4.structure", textio.render_structure(build_template(model.cycle(4))))
    s = write("s.sentence", f"E2 x E2 y | {matrix}\n")
    for engine in ("oracle", "auto"):
        assert run(["solve", c4, s, "--engine", engine]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"



@pytest.mark.parametrize("command", ["gen", "solve", "reduce"])
def test_unwritable_output_is_usage_error(command, files, capsys):
    """A path under a regular file cannot be written: each command that
    writes exits 2 naming the path, and `solve` prints no verdict."""
    tmp, write = files
    path = write("blocker", "") + "/out"
    c4 = write("c4.structure", textio.render_structure(build_template(model.cycle(4))))
    s = write("s.sentence", "E2 x E2 y | E(x,y)\n")
    argv = {
        "gen": ["gen", "clique:3", path],
        "solve": ["solve", c4, s, "--strategy-out", path],
        "reduce": ["reduce", "c4star-macros", "--sources", s, "--out-dir", path],
    }[command]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
