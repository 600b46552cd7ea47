"""Checks of the benchmark itself, on a few inputs per workload.

    python3 bench/selftest.py

- the reference evaluator, classifier table and strategy replay agree with
  hand-checked answers;
- every workload runs in smoke mode, untraced and traced, with no failed
  case and every metric BENCHMARK.json declares;
- gadget-verify with corrupted reductions reports failures, which shows the
  correctness check can fail;
- a directory holding only the benchmark, without the package sources,
  exits non-zero without printing a result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
from inputs import parse_plain, resolve  # noqa: E402

Node = namedtuple("Node", "offer children")
LEAF = Node((), ())
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def reference_semantics() -> None:
    cases = [
        (ref.clique(3), "E2 x E2 y | E(x,y)", True),
        (ref.clique(3), "E3 x E2 y | E(x,y)", True),
        (ref.clique(3), "E2 x E3 y | E(x,y)", False),
        (ref.clique(3), "E1 x | E(x,x)", False),
        (ref.clique(2), "A x E1 y | E(x,y)", True),
        (ref.cycle(4), "E1 x E1 y E1 z | E(x,y) & E(y,z) & E(z,x)", False),
        (ref.cycle(5), "E1 x E1 y E1 z E1 w E1 v | E(x,y) & E(y,z) & E(z,w) & E(w,v) & E(v,x)",
         True),
        (ref.path(3), "E2 x E2 y | E(x,y)", False),
        (ref.reflexive_cycle(4), "A x | E(x,x)", True),
        (ref.nae(), "E1 x E1 y E1 z | R(x,y,z)", True),
        (ref.nae(), "E1 x | R(x,x,x)", False),
        (ref.nae(), "A x E1 y | R(x,x,y)", True),
        (ref.clique(4), "E1 a E1 b E1 c E1 d | E(a,b) & E(a,c) & E(a,d) & E(b,c) & E(b,d) "
                        "& E(c,d)", True),
        (ref.clique(3), "E1 a E1 b E1 c E1 d | E(a,b) & E(a,c) & E(a,d) & E(b,c) & E(b,d) "
                        "& E(c,d)", False),
    ]
    for b, text, want in cases:
        prefix, atoms = parse_plain(text)
        check(ref.count_eval(b, resolve(prefix, b.n), atoms) == want,
              f"reference: {text} on a {b.n}-element template is {'yes' if want else 'no'}")


def reference_classes() -> None:
    cases = [
        (ref.clique_class, 2, {1}, ref.L), (ref.clique_class, 3, {1}, ref.NP),
        (ref.clique_class, 3, {2, 3}, ref.L), (ref.clique_class, 4, {2}, ref.OPEN),
        (ref.clique_class, 5, {2}, ref.PSPACE), (ref.clique_class, 4, {1, 3}, ref.PSPACE),
        (ref.cycle_class, 4, {1, 2}, ref.L), (ref.cycle_class, 5, {1}, ref.NP),
        (ref.cycle_class, 6, {1}, ref.L), (ref.cycle_class, 6, {1, 4}, ref.L),
        (ref.cycle_class, 6, {1, 2}, ref.PSPACE), (ref.cycle_class, 5, {2, 3}, ref.L),
    ]
    for rule, n, xs, want in cases:
        check(rule(n, frozenset(xs)) == want, f"reference: {rule.__name__}({n}, {sorted(xs)}) "
                                              f"is {want}")


def reference_strategies() -> None:
    k3 = ref.clique(3)
    prefix, atoms = [(2, "x"), (2, "y")], [("E", ("x", "y"))]
    good = Node((0, 1), (Node((1, 2), (LEAF, LEAF)), Node((0, 2), (LEAF, LEAF))))
    bad = Node((0, 1), (Node((0, 1), (LEAF, LEAF)), Node((0, 2), (LEAF, LEAF))))
    short = Node((0,), (Node((1, 2), (LEAF, LEAF)),))
    check(ref.check_strategy(k3, prefix, atoms, good) is None, "replay accepts a winning tree")
    check(ref.check_strategy(k3, prefix, atoms, bad) is not None, "replay rejects a losing play")
    check(ref.check_strategy(k3, prefix, atoms, short) is not None,
          "replay rejects an offer below the threshold")
    check(ref.strategy_size(good) == ref.offer_nodes([2, 2]) == 3, "offer-node count of a tree")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run([str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
                        "--seconds", "1", "--trace", str(trace), "--smoke"])
            what = f"smoke {workload} trace {trace}"
            if done.returncode != 0:
                check(False, f"{what}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            metrics = result["metrics"]
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{what}: every case correct ({result['attempted']} attempted)")
            check(list(metrics) == names and all(
                isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                for m in metrics.values()), f"{what}: the declared metrics, all finite")


def fault_injection() -> None:
    done = run([str(BENCH / "run.py"), "--workload", "gadget-verify", "--seed", "7",
                "--seconds", "1", "--trace", "0", "--smoke", "--fault-inject"])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(done.returncode == 0 and not result["correct"] and result["failed"] > 0,
          f"fault injection: {result['failed']} of {result['attempted']} cases reported failed")


def without_sources() -> None:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(["bench/run.py", "--workload", "small-sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          f"without the package sources: exit {done.returncode}, no result printed")


def main() -> int:
    reference_semantics()
    reference_classes()
    reference_strategies()
    smoke_runs()
    fault_injection()
    without_sources()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
