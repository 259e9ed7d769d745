"""Distillation benchmark: one run of one workload.

    python3 perfbench/run.py --workload toy-distill --seed 1 --seconds 25 --trace 0

Run it from the repository root. It prints every metric by name with its
unit, the machine fingerprint and the correctness checks, then as its
last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. It exits 1 if a correctness check or an operation failed
and 2 if the program's sources are missing. Run outputs, including the
trace file and a result.json with the fingerprint, go to .perfbench_runs/
under the repository root.
"""

import argparse
import json
import os
import sys
import time

T_START = time.perf_counter()

# One BLAS thread: on the 2-core reference machine a second thread gave no
# speed-up at these shapes and widened the run-to-run spread. The pin must
# be set before numpy is imported; the fingerprint records it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "attndistill", "train.py")):
        print(f"error: no attndistill sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import metrics, runner
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    import_s = time.perf_counter() - T_START
    result = runner.run(w, args.seed, args.seconds, bool(args.trace),
                        os.path.join(ROOT, ".perfbench_runs"), import_s=import_s)

    fp = runner.fingerprint(BLAS_THREADS)
    d = result["details"]
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {w.why}")
    print("fingerprint " + " ".join(f"{k}={v}" for k, v in fp.items()))
    print(f"inputs sha256 {d.get('inputs_sha256')} (datasets and teacher checkpoint)")
    for s in d["sessions"]:
        print(f"session {s['run']} traced={s['traced']} wall {s['wall_s']:.3f} s "
              f"steps {s['steps']} boundaries {s['boundaries']}")
    units = {name: unit for name, unit, *_ in metrics.END_TO_END + metrics.PER_LAYER}
    for name, value in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f" (imports {import_s:.3f} s + median of {len(d['setup_s_samples'])} set-ups)"
        elif name in ("step_s_p50", "step_s_tail"):
            note = f" (n={d['step_samples']}, tail percentile {d['step_tail_percentile']:.1f})"
        print(f"metric {name} {value:.6g} {units[name]}{note}")
    failed_ops = result["failed"] / result["attempted"]
    print(f"metric failed_ops {failed_ops:.6g} ratio ({result['failed']} of {result['attempted']} "
          "steps and eval batches, failed checks included)")
    for f in result["failures"]:
        print(f"check FAILED: {f}")
    if not result["failures"]:
        print("checks passed: finite losses, mask budget after every boundary, checkpoint "
              "round trip, repeatable set-up" + (", traced trajectory equals untraced" if args.trace else ""))
    if args.trace:
        print(f"trace file {d.get('trace_file')}")
    summary = {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }
    with open(os.path.join(d["work_dir"], "result.json"), "w") as f:
        json.dump({**summary, "fingerprint": fp, "failures": result["failures"], "details": d}, f, indent=1)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
