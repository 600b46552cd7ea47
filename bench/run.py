"""Run one benchmark workload against the cqcsp sources in this checkout.

    python3 bench/run.py --workload small-sweep --seed 1 --seconds 50 --trace 0

Generates the workload's inputs from the seed, computes reference answers
without the package, sets up, then runs passes over the inputs until
``--seconds`` would be exceeded, checking every verdict.  Set-up is timed
in fresh processes started between the passes.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics and the tracing overhead.
Every metric is printed with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics named in BENCHMARK.json.  A full report (all metrics, exact
counts, provenance) is written to bench/out/.

``--smoke`` runs a few inputs per workload for one pass; ``--fault-inject``
runs gadget-verify with deliberately corrupted reductions, which must be
reported as errors.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_ROUNDS = 31
FRONTIER_ROUNDS = 3
WITNESS_ROUNDS = 3
TAIL_MIN_SAMPLES = 100

sys.path.insert(0, str(BENCH))

from inputs import GENERATORS, TEMPLATES  # noqa: E402
from spans import LAYERS, NoTrace, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DISPATCH_TAGS, PASSES, RULES, frontier_probe, setup, template_errors, witness_probe)


def slug(tag: str) -> str:
    return "".join(ch if ch.isalnum() else "-" for ch in tag).strip("-").replace("--", "-")


def median(xs, default=0.0):
    return statistics.median(xs) if xs else default


def tail(samples):
    """The highest percentile with at least ten samples beyond it: its value,
    the percentile, and the sample count.  Below 100 samples that percentile
    would lie under p90, and the maximum is reported as p100 instead."""
    xs = sorted(samples)
    n = len(xs)
    if n >= TAIL_MIN_SAMPLES:
        return xs[n - 11], 100.0 * (n - 10) / n, n
    return xs[-1], 100.0, n


def commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cqcsp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fresh_setup(inp) -> tuple[float, str | None]:
    """One set-up in a fresh interpreter without ``site`` (fresh_setup.py):
    importing cqcsp and every module it needs, building the templates and
    one warm-up call per template, as timed by the child itself.  Returns
    the time and an error, if the child failed or a warm-up verdict was
    wrong."""
    cmd = [sys.executable, "-I", "-S", str(BENCH / "fresh_setup.py"), str(SRC), str(inp.budget),
           *(TEMPLATES[key][0] for key in inp.templates)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        return float("nan"), "fresh set-up did not end within 60 s"
    out = done.stdout.split()
    if done.returncode != 0 or out[1:] != ["True"] * len(inp.templates):
        return float("nan"), (f"fresh set-up: exit {done.returncode}, output "
                              f"{done.stdout.strip()!r}: {done.stderr[-300:]}")
    return float(out[0]), None


def measure(run_pass, seconds: float, traced: bool, smoke: bool, tracer, setup_round,
            setups):
    """Run passes until the next one would end after ``seconds``.  Traced
    runs alternate untraced and traced passes, at least one of each.  The
    set-up rounds are spread over the run, one when each
    ``seconds / SETUP_ROUNDS`` has gone by, so that they sample the whole
    run rather than one moment of it; smoke runs make one.  Returns the passes
    and, per mode, each case's fastest time."""
    rounds = 1 if smoke else SETUP_ROUNDS
    plain = NoTrace()
    passes = []
    best = {}
    durations = []
    start = last_setup = perf_counter()
    while True:
        if len(setups) < rounds and perf_counter() - last_setup >= seconds / rounds:
            setup_round()
            last_setup = perf_counter()
        mode = "traced" if traced and len(passes) % 2 == 1 else "plain"
        gc.collect()
        t0 = perf_counter()
        p = run_pass(tracer if mode == "traced" else plain)
        durations.append(perf_counter() - t0)
        best[mode] = fastest(best.get(mode), p.latencies)
        p.latencies = None
        passes.append((mode, p))
        if len(passes) >= (2 if traced else 1):
            if smoke or perf_counter() - start + statistics.median(durations) > seconds:
                break
    while len(setups) < rounds:
        setup_round()
    return passes, best


def fastest(best, latencies):
    """Each case's lowest time so far, with one more pass's times folded in.
    This machine alternates between speeds that differ by up to 2x for
    seconds at a time; a case's fastest repetition is the one least
    disturbed by other load (the rule ``timeit`` follows), and taking it per
    case rather than per pass lets every case find an undisturbed moment.
    Only the minima are kept, so that memory, and with it peak_rss_mb, does
    not grow with the number of passes a run makes."""
    return latencies if best is None else list(map(min, best, latencies))


def fastest_wall(best, passes) -> float:
    return sum(best) + min(p.classify_s for p in passes)


def end_to_end(plain, best, setups) -> tuple[dict, dict]:
    wall = fastest_wall(best, plain)
    tail_value, tail_pct, tail_n = tail(best)
    cases = len(best) * len(plain)
    metrics = {
        "setup_s": (median([x for x in setups if math.isfinite(x)]), "s"),
        "wall_s": (wall, "s"),
        "instances_per_s": (plain[0].completed / wall, "1/s"),
        "latency_p50_ms": (median(best) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "decided_share": (sum(p.decided for p in plain) / cases, "share"),
        "error_share": (sum(len(p.errors) for p in plain) / sum(p.attempted for p in plain),
                        "share"),
    }
    per_case = f"each case's fastest of {len(plain)} passes"
    notes = {"setup_s": f"median of {len(setups)} fresh-process set-ups",
             "wall_s": f"sum of {per_case}",
             "instances_per_s": f"{plain[0].completed} cases per wall_s",
             "latency_p50_ms": f"{tail_n} cases, {per_case}",
             "latency_tail_ms": f"p{tail_pct:.2f} of {tail_n} cases, {per_case}"}
    return {**metrics, **extra}, notes


def per_layer(tracer: Tracer, plain, traced, best, probes) -> dict:
    def med(layer, function, scale, *tags, within=tracer):
        return median(within.durations(layer, function, tags)) * scale

    counts = traced[0].counts
    witness_tracer, witness = probes.get("witness", (Tracer(""), []))
    frontier_tracer, frontier = probes.get("frontier", (Tracer(""), []))
    witness_counts = witness[0].counts if witness else {}
    m = {
        "textio.parse_sentence_us": (med("textio", "parse_sentence", 1e6), "us"),
        "textio.render_strategy_ms": (
            med("textio", "render_strategy", 1e3, within=witness_tracer), "ms"),
        "textio.parse_strategy_ms": (
            med("textio", "parse_strategy", 1e3, within=witness_tracer), "ms"),
        "textio.strategy_bytes": (witness_counts.get("strategy_bytes", 0), "count"),
        "model.build_template_ms": (
            median(tracer.durations("model", "build_template", in_setup=True)) * 1e3, "ms"),
        "model.instance_graph_us": (med("model", "instance_graph", 1e6), "us"),
        "fastpath.dispatch_us": (med("fastpath", "dispatch", 1e6), "us"),
        "fastpath.classify_us": (med("fastpath", "classify", 1e6), "us"),
    }
    for tag in DISPATCH_TAGS:
        m[f"fastpath.decider_us.{slug(tag)}"] = (med("fastpath", "decider", 1e6, tag), "us")
    for tag in DISPATCH_TAGS:
        m[f"fastpath.dispatch_hits.{slug(tag)}"] = (counts["dispatch_hits." + tag], "count")
    calls = counts["dispatch_calls"]
    hits = calls - counts["dispatch_hits.none"]
    m["fastpath.dispatch_hit_share"] = (hits / calls if calls else 0.0, "share")
    # a frontier target that stops at the budget reports its exact node count
    frontier_s = frontier_tracer.durations("oracle", "evaluate", ("frontier",))
    stopped_nodes = sum(p.counts["frontier_nodes"] for p in frontier)
    m.update({
        "oracle.evaluate_us": (med("oracle", "evaluate", 1e6, "auto", "oracle", "source"), "us"),
        "oracle.evaluate_ms": (med("oracle", "evaluate", 1e3, "target"), "ms"),
        "oracle.nodes_per_s": (stopped_nodes / sum(frontier_s) if stopped_nodes else 0.0, "1/s"),
        "oracle.frontier_nodes": (frontier[0].counts["frontier_nodes"] if frontier else 0,
                                  "count"),
        "oracle.frontier_ms": (median(frontier_s) * 1e3, "ms"),
        "oracle.extract_strategy_ms": (
            med("oracle", "extract_strategy", 1e3, within=witness_tracer), "ms"),
        "oracle.verify_strategy_ms": (
            med("oracle", "verify_strategy", 1e3, within=witness_tracer), "ms"),
        "oracle.strategy_nodes": (witness_counts.get("strategy_nodes", 0), "count"),
        "reductions.compile_rule_ms": (med("reductions", "compile_rule", 1e3), "ms"),
        "reductions.target_vars": (counts["target_vars"], "count"),
        "reductions.target_atoms": (counts["target_atoms"], "count"),
        "reductions.budget_skipped": (counts["budget_skipped"], "count"),
    })
    for rule in RULES:
        m[f"reductions.verify_reduction_s.{rule}"] = (
            median([p.rule_s[rule] for p in plain]), "s")
    roots = {s[0] for s in tracer.spans if s[1] == -1 and s[2] != "setup"}
    self_s = tracer.self_times(roots)
    total = sum(self_s.values())
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / len(traced), "s")
        m[f"{layer}.share"] = (self_s.get(layer, 0.0) / total if total else 0.0, "share")
    base = fastest_wall(best["plain"], plain)
    overhead = fastest_wall(best["traced"], traced) - base
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_share"] = (overhead / base if base else 0.0, "share")
    m["bench.share"] = (self_s.get("bench", 0.0) / total if total else 0.0, "share")
    return m


def declared(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in spec[kind]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few inputs, one pass")
    ap.add_argument("--fault-inject", action="store_true",
                    help="gadget-verify with corrupted reductions (untraced only)")
    args = ap.parse_args(argv)
    if args.fault_inject and (args.workload != "gadget-verify" or args.trace):
        ap.error("--fault-inject applies to gadget-verify with --trace 0")
    if not (SRC / "cqcsp" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: no cqcsp sources under {SRC} or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    inherited_budget = os.environ.pop("CQ_NODE_BUDGET", None)

    inp = GENERATORS[args.workload](args.seed, args.smoke)
    traced = bool(args.trace)
    tracer = Tracer(args.workload) if traced else None
    # Inputs and reference answers stay alive for the whole run; keep them
    # out of the collector's scans so they do not tax the timed calls, and
    # start every pass from a collected heap.
    gc.collect()
    gc.freeze()
    api, st = setup(inp, tracer if traced else NoTrace())
    setup_errors = template_errors(st, inp)
    setups = []

    def setup_round():
        elapsed, error = fresh_setup(inp)
        setups.append(elapsed)
        if error:
            setup_errors.append(error)

    gc.collect()
    gc.freeze()
    run_pass = PASSES[args.workload]
    if args.fault_inject:
        def one(tr):
            return run_pass(api, st, inp, tr, corrupt=True)
    else:
        def one(tr):
            return run_pass(api, st, inp, tr)
    passes, best = measure(one, args.seconds, traced, args.smoke, tracer, setup_round, setups)
    plain = [p for mode, p in passes if mode == "plain"]
    traced_passes = [p for mode, p in passes if mode == "traced"]
    everything = plain + traced_passes
    # The frontier case (gadget-verify) and the witness cases (small-sweep)
    # run after the passes, in traced runs only, each kind under its own
    # tracer so that they stay out of the passes' layer figures.
    probes = {}
    for kind, cases, probe, rounds in (("frontier", inp.frontier, frontier_probe, FRONTIER_ROUNDS),
                                       ("witness", inp.witness, witness_probe, WITNESS_ROUNDS)):
        if traced and cases:
            probe_tracer = Tracer(args.workload)
            runs = []
            for _ in range(1 if args.smoke else rounds):
                gc.collect()
                runs.append(probe(api, st, inp, probe_tracer))
            probes[kind] = (probe_tracer, runs)
    probe_runs = [p for _, runs in probes.values() for p in runs]

    errors = setup_errors + [e for p in everything + probe_runs for e in p.errors]
    attempted = len(st.templates) + len(setups) + sum(
        p.attempted for p in everything + probe_runs)
    metrics, notes = end_to_end(plain, best["plain"], setups)
    if traced:
        metrics.update(per_layer(tracer, plain, traced_passes, best, probes))
    counts = dict(everything[0].counts)
    if any(dict(p.counts) != counts for p in everything) or any(
            p.counts != runs[0].counts for _, runs in probes.values() for p in runs):
        errors.append("exact counts differ between passes over the same inputs")
    for _, runs in probes.values():
        counts.update(runs[0].counts)

    provenance = {
        "workload": args.workload, "seed": args.seed, "inputs_digest": inp.digest(),
        "node_budget": inp.budget, "inherited_CQ_NODE_BUDGET": inherited_budget,
        "frontier_budget": [c["budget"] for c in inp.frontier],
        "python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit(),
        "source_digest": source_digest(),
        "complete_bipartite_enabled": api.fastpath.complete_bipartite_enabled(),
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "fault_inject": args.fault_inject, "passes": len(everything),
        "cases_per_pass": len(inp.cases), "classify_per_pass": len(inp.classify),
        "witness_cases": len(inp.witness),
    }
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{args.workload:14s} {name:42s} {value:16.6f} {unit:6s} {note}")
    for name, value in sorted(counts.items()):
        print(f"{args.workload:14s} count.{name:36s} {value:16d}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for e in errors[:10]:
        print("ERROR " + e)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "provenance": provenance, "counts": counts, "notes": notes, "errors": errors[:100],
        "pass_walls": [[mode, p.wall] for mode, p in passes], "setups": setups,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, indent=1, sort_keys=True))
    if traced:
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
        for kind, (probe_tracer, _) in probes.items():
            probe_tracer.write(OUT / f"spans-{kind}.jsonl")

    names = declared("per_layer" if traced else "end_to_end")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
