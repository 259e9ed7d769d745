"""Digests of every artifact that deterministic runs write.

Usage: python scripts/artifact_digest.py

Runs four `--deterministic` fixtures in a fresh temporary directory:
a toy teacher, toy hybrid distillation with irregular pruning (run
through `cli.main`, so flag parsing is covered as well), toy homogeneous
(attention stem) distillation with column pruning and an unpruned stem,
and student26 column distillation from an untrained teacher50 on 16
images. Output directories are relative, because `out_dir` is stored in
every manifest.
Prints `sha256  path` for every metrics CSV and checkpoint. Run it in two
checkouts and diff the outputs: equal lines mean byte-identical artifacts.
BLAS runs on one thread, so the digests do not depend on the core count.
After the digests it prints the process's peak resident set and minor
page faults to stderr, so a memory change can be compared with the same
command. That `maxrss` is bimodal on a single tree: repeated runs of one
checkout read either of two values about 91 MB apart (probably heap
placement). So a memory comparison needs several runs per side. Last it
prints the line count of `src/attndistill/*.py` (what `wc -l` counts), the
project's size measure, so that size and digests come from one command.
"""

import contextlib
import glob
import hashlib
import os
import resource
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from attndistill import cli, models, train  # noqa: E402
from attndistill.config import TrainConfig  # noqa: E402

TOY = dict(dataset="synthetic", synth_train=400, synth_test=200, classes=2, batch_size=50,
           depth="toy", heads=2, extent=3, seed=7, deterministic=True)
FULL = dict(dataset="synthetic", synth_train=16, synth_test=16, classes=10, batch_size=8,
            heads=8, extent=3, seed=7, deterministic=True)
DISTILL = dict(variant="hybrid", alpha=0.1, beta=1000.0, temperature=4.0, prune_rate0=0.5)


def run_fixtures():
    teacher, _ = train.train_teacher(TrainConfig(out_dir="toy-teacher", variant="conv", epochs=2,
                                                 lr=0.05, **TOY))
    # the same fields as TOY and DISTILL, through the CLI, so the digests cover flag parsing too
    rc = cli.main(["distill", "--teacher", teacher, "--out-dir", "toy-distill", "--epochs", "3",
                   "--lr", "0.003", "--density", "0.25", "--prune-mode", "irregular",
                   "--variant", "hybrid", "--alpha", "0.1", "--beta", "1000", "--temperature", "4",
                   "--prune-rate", "0.5", "--dataset", "synthetic", "--synth-train", "400",
                   "--synth-test", "200", "--classes", "2", "--batch-size", "50", "--depth", "toy",
                   "--heads", "2", "--extent", "3", "--seed", "7", "--deterministic"])
    if rc != 0:
        raise SystemExit(f"toy-distill: attndistill distill exited {rc}")
    train.sparse_distill(TrainConfig(out_dir="toy-homogeneous", epochs=2, lr=0.003, density=0.5,
                                     prune_mode="column", stem_prunable=False,
                                     **dict(DISTILL, variant="homogeneous"), **TOY), teacher)

    tcfg = TrainConfig(out_dir="teacher50", depth="teacher50", variant="conv", **FULL)
    spec = models.spec_by_name("teacher50", "teacher", "conv", tcfg.classes, tcfg.extent, tcfg.heads)
    model = models.build_model(spec, np.random.default_rng([tcfg.seed, 1]))
    teacher50 = train.save_model_checkpoint(os.path.join("teacher50", "teacher.atlt"), model, tcfg,
                                            "teacher", 0, phases=["untrained"])
    train.sparse_distill(TrainConfig(out_dir="student26", depth="student26", epochs=2, lr=0.01,
                                     density=0.5, prune_mode="column", **DISTILL, **FULL), teacher50)


def main():
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(sys.stderr):  # progress lines stay out of the digests
                run_fixtures()
            paths = sorted(os.path.normpath(os.path.join(d, f)) for d, _, files in os.walk(".")
                           for f in files if f.endswith((".csv", ".atlt")))
            for path in paths:
                with open(path, "rb") as f:
                    print(f"{hashlib.sha256(f.read()).hexdigest()}  {path}")
        finally:
            os.chdir(home)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"maxrss {usage.ru_maxrss / 1024:.1f} MB, minor faults {usage.ru_minflt}", file=sys.stderr)
    lines = 0
    for path in glob.glob(os.path.join(SRC, "attndistill", "*.py")):
        with open(path, "rb") as f:
            lines += f.read().count(b"\n")
    print(f"src/attndistill/*.py {lines} lines", file=sys.stderr)


if __name__ == "__main__":
    main()
