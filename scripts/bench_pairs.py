"""Alternating parent/change benchmark pairs, summed up against the bounds.

Usage: python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seed S [--pairs 10] [--tier1] [--out FILE]
       python3 scripts/bench_pairs.py --read FILE
       python3 scripts/bench_pairs.py --trajectory METRIC

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

`--out BENCH_<PR>_<workload>.json` also writes the evidence as one JSON
file: every run's summary by pair, with its seed and which side ran
first; the sha256 of each tree's `src/attndistill/*.py` (names and
bytes, in name order), since a tree need not be a git checkout; the
machine fingerprint the runs print (`perfbench.runner.fingerprint`); the
bounds used; and the printed summary. `--read FILE` recomputes the
summary from the runs a file holds, prints it, and exits 1 if it differs
from the one stored or does not pass.

`--tier1` first runs the Tier-1 test command of ROADMAP.md
(`PYTHONPATH=src python -m pytest -q --continue-on-collection-errors`),
with `--durations=5`, once in each checkout, the parent first, and prints
each tree's wall time, pass and fail counts and five slowest tests;
`--out` stores them in the file, and `--read` prints them after the
summary.

`--trajectory METRIC` reads every `BENCH_<PR>_<workload>.json` in the
repository root in PR order and prints one line per file: the PR, the
workload, and the parent's and the change's median of METRIC over the
pairs where both runs passed. A line whose machine fingerprint differs
from the previous file of the same workload says so, because medians
from two machines do not compare.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time


def quartiles(values):
    """(first quartile, median, third quartile) of one or more values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def passed(run) -> bool:
    """A run gave a summary and no operation of it failed."""
    return run is not None and run["failed"] == 0


def summarize(bench: dict, pairs) -> tuple[list, bool]:
    """Report lines and whether every run passed and no median broke its
    bound. `pairs` holds one (parent, change) tuple of run summaries per
    pair, None for a run that gave none."""
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


def source_sha256(checkout: str) -> str:
    """sha256 over the names and bytes of a tree's `src/attndistill/*.py`, in name order."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(checkout, "src", "attndistill", "*.py"))):
        with open(path, "rb") as f:
            h.update(os.path.basename(path).encode() + b"\0" + f.read())
    return h.hexdigest()


def run_once(checkout: str, command: list) -> dict | None:
    """The JSON summary a benchmark run prints last, with the `fingerprint`
    line it prints as a dict; None if it gave no summary."""
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads((lines or [""])[-1])
    except json.JSONDecodeError:
        summary = None
    if proc.returncode != 0 or not isinstance(summary, dict):
        print(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    fp = next((line[len("fingerprint "):] for line in lines if line.startswith("fingerprint ")), "")
    summary["fingerprint"] = dict(re.findall(r"(\w+)=(.*?)(?= \w+=|$)", fp))
    return summary


def tier1(checkout: str) -> dict:
    """One Tier-1 run in `checkout`: its wall time, pass and fail counts
    (errors count as failures) and its five slowest test phases."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=5"]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", (lines or [""])[-1])}
    slowest = [[float(m.group(1)), m.group(2), m.group(3)] for m in
               (re.fullmatch(r"(\d+(?:\.\d+)?)s (setup|call|teardown)\s+(.+)", line) for line in lines) if m]
    return {"wall_s": round(wall, 2), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0),
            "slowest": slowest[:5]}


def tier1_lines(runs: dict) -> list:
    """One line per tree of what `tier1` returned, then its slowest tests."""
    lines = []
    for side, run in runs.items():
        lines.append(f"tier-1 {side}: {run['passed']} passed, {run['failed']} failed in {run['wall_s']:.1f} s")
        lines += [f"  {secs:.2f} s {phase} {test}" for secs, phase, test in run["slowest"]]
    return lines


def write_bench(path: str, bench: dict, workload: str, trees: dict, runs: list, lines: list, ok: bool,
                tier1_runs: dict | None = None):
    """The evidence file of one set of pairs; `runs` holds one dict per pair with
    its `seed`, the side that ran `first`, and each side's summary; `tier1_runs`
    what `tier1` returned for each tree, if it ran."""
    fingerprint = next((r[side].get("fingerprint", {}) for r in runs for side in ("parent", "change") if r[side]), {})
    record = {"workload": workload, "end_to_end": bench["end_to_end"], "trees": trees,
              "fingerprint": fingerprint, "runs": runs, "summary": lines, "ok": ok}
    if tier1_runs:
        record["tier1"] = tier1_runs
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


def read_bench(path: str) -> tuple[list, bool]:
    """The summary lines recomputed from a file's runs, then the Tier-1 lines
    if it holds any, and whether the summary equals the stored one and passes."""
    with open(path) as f:
        record = json.load(f)
    pairs = [(r["parent"], r["change"]) for r in record["runs"]]
    lines, ok = summarize({"end_to_end": record["end_to_end"]}, pairs)
    return lines + tier1_lines(record.get("tier1", {})), ok and lines == record["summary"]


def trajectory(metric: str, root: str) -> list:
    """One line per `BENCH_<PR>_<workload>.json` in `root`, in PR order (see
    the module docstring)."""
    files = []
    for path in glob.glob(os.path.join(root, "BENCH_*_*.json")):
        m = re.fullmatch(r"BENCH_(\d+)_(.+)\.json", os.path.basename(path))
        if m:
            files.append((int(m.group(1)), m.group(2), path))
    lines, last = [], {}
    for pr, workload, path in sorted(files):
        with open(path) as f:
            record = json.load(f)
        done = [r for r in record["runs"] if passed(r["parent"]) and passed(r["change"])
                and metric in r["parent"]["metrics"] and metric in r["change"]["metrics"]]
        line = f"PR {pr} {workload}: "
        if done:
            parent, change = (statistics.median(r[side]["metrics"][metric]["value"] for r in done)
                              for side in ("parent", "change"))
            unit = done[0]["change"]["metrics"][metric]["unit"]
            line += f"parent {parent:.4g} -> change {change:.4g} {unit}"
        else:
            line += f"no {metric} values"
        if workload in last and last[workload][1] != record["fingerprint"]:
            line += f"  [fingerprint differs from PR {last[workload][0]}]"
        last[workload] = (pr, record["fingerprint"])
        lines.append(line)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, help="seed of the first pair")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--tier1", action="store_true", help="run the Tier-1 tests once in each tree first")
    ap.add_argument("--out", help="write the runs, tree hashes, fingerprint and summary here")
    ap.add_argument("--read", help="recompute and check the summary of a file --out wrote")
    ap.add_argument("--trajectory", metavar="METRIC",
                    help="print METRIC's medians from every BENCH file in the repository root, in PR order")
    args = ap.parse_args(argv)
    if args.trajectory:
        print("\n".join(trajectory(args.trajectory, os.path.join(os.path.dirname(__file__), ".."))))
        return 0
    if args.read:
        lines, ok = read_bench(args.read)
        print("\n".join(lines))
        return 0 if ok else 1
    if None in (args.parent, args.change, args.workload, args.seed):
        ap.error("PARENT, CHANGE, --workload and --seed are required")
    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        bench = json.load(f)
    tier1_runs = {side: tier1(getattr(args, side)) for side in ("parent", "change")} if args.tier1 else {}
    runs = []
    for i in range(args.pairs):
        command = bench["command"] + ["--workload", args.workload, "--seed", str(args.seed + i),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs.append({"seed": args.seed + i, "first": order[0],
                     **{side: run_once(getattr(args, side), command) for side in order}})
        print(f"pair {i} seed {args.seed + i} ({order[0]} first) done", file=sys.stderr)
    lines, ok = summarize(bench, [(r["parent"], r["change"]) for r in runs])
    print(f"{args.workload}, {args.pairs} pairs from seed {args.seed}")
    print("\n".join(lines + tier1_lines(tier1_runs)))
    if args.out:
        trees = {side: {"src_sha256": source_sha256(getattr(args, side))} for side in ("parent", "change")}
        write_bench(args.out, bench, args.workload, trees, runs, lines, ok, tier1_runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
