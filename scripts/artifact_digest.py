"""Digests of every artifact that deterministic runs write.

Usage: python scripts/artifact_digest.py

Runs four `--deterministic` fixtures in a fresh temporary directory:
a toy teacher, toy hybrid distillation with irregular pruning (run
through `cli.main`, so flag parsing is covered as well), toy homogeneous
(attention stem) distillation with column pruning and an unpruned stem,
and student26 column distillation from an untrained teacher50 on 16
images. Output directories are relative, because `out_dir` is stored in
every manifest.
Prints `sha256  path` for every metrics CSV and checkpoint, then one
`sha256  model-structure` line over seven freshly built models (teacher50,
student26 hybrid and conv, student38 homogeneous, the toy teacher and the
toy hybrid and homogeneous students): their parameter names, shapes and
initial bytes, buffers, `prunable()` names, order and shapes with and
without the stem, `count_params`, and `count_flops` unmasked and under
`init_mask` masks in both modes, with and without the stem. Run it in two
checkouts and diff the outputs: equal lines mean byte-identical artifacts
and the same models.
BLAS runs on one thread, and the splits that use a second CPU (the
halves of a no-grad eval-mode forward's batch before `fc`, whose ops
then run inline; in recorded passes `conv2d`'s images and its weight and
input gradients, `local_attention`'s chunks of images and its weight and
input gradient GEMMs, all but the chunks only above
`tensor._SPLIT_MACS` multiply-adds per thread) split only work that
gives the same bytes in either thread, so the digests must match at one
and at two CPUs: compare a plain run with one under `taskset -c 0`.
`DIGESTS.txt` holds the expected lines for each machine fingerprint.
After the digests it prints the process's peak resident set, minor page
faults and usable CPU count to stderr, so a memory change can be
compared with the same command. That `maxrss` is bimodal on a single
tree: repeated runs of one checkout read either of two values about 91
MB apart (probably heap placement). So a memory comparison needs several
runs per side. Then it prints a measure that does not depend on the
allocator, `graph MB: toy-teacher X, toy-student Y, student26 Z`: the
bytes (tracemalloc, in 10^6) that the recorded graph of one
cross-entropy step holds before its backward, for the toy teacher and
the toy hybrid student at 100 images and student26 at 8, and `step peak
MB: toy-distill X, full-distill Y`: the tracemalloc peak of one KD+AT
training step (alpha 0.1, beta 1000, T 4) from the teacher's forward to
the mask update, toy teacher -> toy hybrid at 100 images and teacher50
-> student26 at 8, with both models and the optimizer built before the
trace starts. At two CPUs it reads a few MB higher than under `taskset
-c 0`, and varies by a few MB from run to run, since both threads hold a
chunk's temporaries at once for as long as they overlap. Last it prints
the project's two size measures: the line count of
`src/attndistill/*.py` (what `wc -l` counts), then the option count, as
`TrainConfig F fields, ModelSpec M fields`, so that size, options and
digests come from one command.
"""

import contextlib
import dataclasses
import glob
import hashlib
import os
import resource
import sys
import tempfile
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from attndistill import cli, data, models, sparse, train  # noqa: E402
from attndistill.config import TrainConfig  # noqa: E402
from attndistill.distill import cross_entropy  # noqa: E402
from attndistill.tensor import Tensor  # noqa: E402

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
                   "--prune-rate0", "0.5", "--dataset", "synthetic", "--synth-train", "400",
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


def model_structure() -> str:
    """sha256 of what seven models are built with and count, one model alive at a time."""
    specs = [models.teacher50_spec(10), models.student_spec("student26", "hybrid"),
             models.student_spec("student26", "conv"), models.student_spec("student38", "homogeneous"),
             models.toy_spec("teacher", "conv"), models.toy_spec("student", "hybrid"),
             models.toy_spec("student", "homogeneous")]
    h = hashlib.sha256()
    for i, spec in enumerate(specs):
        model = models.build_model(spec, np.random.default_rng([i, 1]))
        for kind, table in (("param", {n: t.data for n, t in model.named_params().items()}),
                            ("buf", model.named_buffers())):
            for name, arr in table.items():
                h.update(f"{i} {kind} {name} {arr.shape} {arr.dtype}\n".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
        counts = [[(n, t.shape) for n, t in model.prunable(stem).items()] for stem in (True, False)]
        counts += [models.count_params(model), models.count_flops(model)]
        for mode in sparse.MODES:
            for stem in (True, False):
                masks = sparse.init_mask(model, 0.5, np.random.default_rng([i, 2]), mode=mode,
                                         include_stem=stem).masks
                counts += [models.count_params(model, masks), models.count_flops(model, masks)]
        h.update(f"{i} {counts}\n".encode())
        del model
    return h.hexdigest()


def graph_mb() -> str:
    """MB (10^6 bytes) that one recorded cross-entropy step holds before its backward, per model."""
    sizes = []
    for name, spec, batch in (("toy-teacher", models.toy_spec("teacher", "conv"), 100),
                              ("toy-student", models.toy_spec("student", "hybrid"), 100),
                              ("student26", models.student_spec("student26"), 8)):
        model = models.build_model(spec, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((batch, 3, 32, 32)).astype(np.float32))
        labels = rng.integers(0, spec.classes, batch)
        tracemalloc.start()
        try:
            loss = cross_entropy(model.forward_with_taps(x, training=True)[0], labels)
            sizes.append(f"{name} {tracemalloc.get_traced_memory()[0] / 1e6:.1f}")
        finally:
            tracemalloc.stop()
    return "graph MB: " + ", ".join(sizes)


def step_peak_mb() -> str:
    """MB (10^6 bytes) at the tracemalloc peak of one KD+AT training step of each distill
    workload, from the fixtures' teachers; set-up, eval and checkpoint writes are not traced."""
    runs = (("toy-distill", os.path.join("toy-teacher", "teacher.atlt"),
             dict(TOY, batch_size=100, synth_train=100, synth_test=10, lr=0.003, density=0.25,
                  prune_mode="irregular")),
            ("full-distill", os.path.join("teacher50", "teacher.atlt"),
             dict(FULL, depth="student26", synth_train=8, synth_test=8, lr=0.01, density=0.5,
                  prune_mode="column")))
    batches, peaks = data.batches, []

    def traced(dataset, batch_size, seed, epoch, train=True):
        for batch in batches(dataset, batch_size, seed, epoch, train):
            if train:
                tracemalloc.start()
            yield batch  # the training loop runs its step before it asks for the next batch
            if train:
                peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
                tracemalloc.stop()

    data.batches = traced
    try:
        for name, teacher, fields in runs:
            train.sparse_distill(TrainConfig(out_dir=f"step-{name}", epochs=1, **DISTILL, **fields), teacher)
    finally:
        data.batches = batches
        tracemalloc.stop()
    return "step peak MB: " + ", ".join(f"{name} {peak:.1f}" for (name, _, _), peak in zip(runs, peaks))


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
            print(f"{model_structure()}  model-structure")
            with contextlib.redirect_stdout(sys.stderr):
                step_peak = step_peak_mb()
        finally:
            os.chdir(home)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"maxrss {usage.ru_maxrss / 1024:.1f} MB, minor faults {usage.ru_minflt}, "
          f"cpus {len(os.sched_getaffinity(0))}", file=sys.stderr)
    print(graph_mb(), file=sys.stderr)
    print(step_peak, file=sys.stderr)
    lines = 0
    for path in glob.glob(os.path.join(SRC, "attndistill", "*.py")):
        with open(path, "rb") as f:
            lines += f.read().count(b"\n")
    print(f"src/attndistill/*.py {lines} lines", file=sys.stderr)
    print(f"TrainConfig {len(dataclasses.fields(TrainConfig))} fields, "
          f"ModelSpec {len(dataclasses.fields(models.ModelSpec))} fields", file=sys.stderr)


if __name__ == "__main__":
    main()
