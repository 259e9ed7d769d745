"""Alternating parent/change benchmark pairs, summed up against the bounds.

Usage: python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seed S [--pairs 10]

PARENT and CHANGE are two checkouts of the repository. Pair i runs the
benchmark command of the parent's BENCHMARK.json (`python3
perfbench/run.py`) with `--workload W --seed S+i --seconds <run_seconds>
--trace 0` once in each checkout, the parent first in even pairs and the
change first in odd ones, and reads each run's last output line, its
JSON summary. For every end-to-end metric of the parent's BENCHMARK.json
it then prints each side's median and quartiles, the change in the
median, and in how many pairs the change did better. It exits 1 if a run
failed (a nonzero exit, no summary, or `failed` > 0), or if a median of
the change is worse than the parent's by more than the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(first quartile, median, third quartile) of one or more values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def summarize(bench: dict, pairs) -> tuple[list, bool]:
    """Report lines and whether every run passed and no median broke its
    bound. `pairs` holds one (parent, change) tuple of run summaries per
    pair, None for a run that gave none."""
    def passed(run):
        return run is not None and run["failed"] == 0

    lines = [f"pair {i}: the {side} run failed" for i, pair in enumerate(pairs)
             for side, run in zip(("parent", "change"), pair) if not passed(run)]
    ok = not lines
    done = [(p, c) for p, c in pairs if passed(p) and passed(c)]
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in done
                  if name in p["metrics"] and name in c["metrics"]]
        if not values:
            continue
        parent, change = (quartiles([v[k] for v in values]) for k in (0, 1))
        won = sum((c < p) if lower else (c > p) for p, c in values)
        rel = change[1] / parent[1] - 1.0
        worse = rel > m["bound"] if lower else -rel > m["bound"]
        ok = ok and not worse
        lines.append(f"{name} ({m['better']} is better, bound {m['bound']:.0%}): "
                     f"parent {parent[1]:.4g} [{parent[0]:.4g}, {parent[2]:.4g}] -> "
                     f"change {change[1]:.4g} [{change[0]:.4g}, {change[2]:.4g}] {m['unit']}, "
                     f"{rel:+.1%}, change better in {won}/{len(values)}"
                     + ("  WORSE THAN THE BOUND" if worse else ""))
    return lines, ok


def run_once(checkout: str, command: list) -> dict | None:
    """The JSON summary a benchmark run prints last, None if it gave none."""
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    try:
        summary = json.loads((proc.stdout.strip().splitlines() or [""])[-1])
    except json.JSONDecodeError:
        summary = None
    if proc.returncode != 0 or not isinstance(summary, dict):
        print(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        bench = json.load(f)
    pairs = []
    for i in range(args.pairs):
        command = bench["command"] + ["--workload", args.workload, "--seed", str(args.seed + i),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_once(getattr(args, side), command) for side in order}
        pairs.append((runs["parent"], runs["change"]))
        print(f"pair {i} seed {args.seed + i} ({order[0]} first) done", file=sys.stderr)
    lines, ok = summarize(bench, pairs)
    print(f"{args.workload}, {args.pairs} pairs from seed {args.seed}")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
