"""Run workloads in fresh processes and print every metric, by name and unit.

    python3 bench/report.py                      # every workload, seed 1, untraced and traced
    python3 bench/report.py --seeds 10 --trace 0 # ten seeds: median, quartiles and spread
    python3 bench/report.py --write bench/BENCH_<label>.json

Each run is ``bench/run.py`` in its own process, one after another, so
set-up time and peak memory belong to one workload.  With several seeds
the spread of a metric is the distance between its first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of its median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    full = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    full["result"] = result
    return full


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    row = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--seeds", type=int, default=1, help="how many seeds per workload")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="+", default=[0, 1], choices=(0, 1))
    ap.add_argument("--write", type=Path, help="write the summary as JSON here")
    args = ap.parse_args(argv)

    seeds = range(1, args.seeds + 1)
    summary = {"seconds": args.seconds, "seeds": list(seeds), "workloads": {}}
    for workload in args.workloads:
        metrics: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        untraced: set[str] = set()
        runs = []
        for trace in sorted(args.trace):
            for seed in seeds:
                full = run_one(workload, seed, args.seconds, trace)
                runs.append({"seed": seed, "trace": trace, "correct": full["result"]["correct"],
                             "failed": full["result"]["failed"], "notes": full["notes"],
                             "counts": full["counts"], "provenance": full["provenance"]})
                for name, m in full["metrics"].items():
                    if trace == 1 and 0 in args.trace and name in untraced:
                        continue  # end-to-end metrics come from the untraced runs
                    if trace == 0:
                        untraced.add(name)
                    metrics.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
                print(f"# {workload} seed {seed} trace {trace}: correct "
                      f"{full['result']['correct']}, failed {full['result']['failed']}",
                      flush=True)
        rows = {name: {**summarize(vals), "unit": units[name]} for name, vals in metrics.items()}
        summary["workloads"][workload] = {"metrics": rows, "runs": runs}
        for name, row in rows.items():
            spread = f"spread {row['spread']:.3f}" if "spread" in row else ""
            print(f"{workload:14s} {name:42s} {row['median']:16.6f} {row['unit']:6s} {spread}")
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
