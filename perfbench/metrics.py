"""Names, units and meaning of every metric the benchmark reports.

`BENCHMARK.json` lists the same names; a test keeps the two in step. The
`moves` text of a per-layer metric names the end-to-end metric and the
workload that a change to that layer should move; later work cites it by name.
"""

from __future__ import annotations

import statistics

from .probe import OPS

# (name, unit, better, bound as a share of the parent's median)
END_TO_END = (
    ("train_images_per_s", "1/s", "higher", 0.25),
    ("step_s_p50", "s", "lower", 0.25),
    ("step_s_tail", "s", "lower", 0.25),
    ("eval_images_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

_ATTN_OPS = ("window_gather", "nbhd_dot", "relpos_dot", "nbhd_mix", "gather", "softmax",
             "transpose", "reshape", "avg_pool2")
_OP_MOVES = {
    **{op: "step_s_p50 and eval_images_per_s on toy-distill; a little on full-distill; "
           "nothing on toy-teacher" for op in _ATTN_OPS},
    "conv2d": "step_s_p50 on toy-teacher and full-distill",
    "batch_norm": "step_s_p50 on toy-teacher and full-distill",
    "matmul": "step_s_p50 on toy-distill and full-distill",
    "relu": "step_s_p50 on all three workloads",
    "add": "step_s_p50 on all three workloads",
    "log_softmax": "step_s_p50 on toy-distill",
    "global_avg_pool": "step_s_p50 on all three workloads",
    "other": "step_s_p50 on toy-distill (loss elementwise and reductions)",
}
_KIND_MOVES = {
    "stem": "step_s_p50 on all three workloads",
    "conv1x1": "step_s_p50 on full-distill and toy-teacher",
    "sa": "step_s_p50 and eval_images_per_s on toy-distill",
    "conv3x3": "step_s_p50 on toy-teacher; teacher forward on the distill workloads",
    "bn": "step_s_p50 on toy-teacher and full-distill",
    "down": "step_s_p50 on full-distill",
    "fc": "step_s_p50 on all three workloads (tiny)",
}
STUDENT_KINDS = ("stem", "conv1x1", "sa", "bn", "down", "fc")  # the hybrid student has no conv3x3
TEACHER_KINDS = ("stem", "conv1x1", "conv3x3", "bn", "down", "fc")  # the conv teacher has no sa


def _per_layer():
    rows = []
    for op in OPS + ("other",):
        moves = _OP_MOVES[op]
        rows += [(f"tensor.{op}.calls", "count", "lower", moves),
                 (f"tensor.{op}.fwd_s", "s", "lower", moves),
                 (f"tensor.{op}.bwd_s", "s", "lower", moves),
                 (f"tensor.{op}.out_bytes", "bytes", "lower", moves)]
    graph = "step_s_p50 on all three workloads, most on the toy ones; peak_rss_mb"
    rows += [("tensor.backward_s", "s", "lower", graph),
             ("tensor.topo_order_s", "s", "lower", graph),
             ("tensor.graph_nodes", "count", "lower", graph)]
    rows += [(f"attention.{m}", u, "lower", "step_s_p50 on toy-distill")
             for m, u in (("calls", "count"), ("fwd_s", "s"), ("bwd_s", "s"))]
    rows += [("models.teacher.forward_s", "s", "lower",
              "step_s_p50 on toy-teacher and full-distill"),
             ("models.student.forward_s", "s", "lower",
              "step_s_p50 and eval_images_per_s on toy-distill and full-distill")]
    for k in STUDENT_KINDS:
        rows += [(f"models.student.{k}.fwd_s", "s", "lower", _KIND_MOVES[k]),
                 (f"models.student.{k}.bwd_s", "s", "lower", _KIND_MOVES[k])]
    rows += [(f"models.teacher.{k}.fwd_s", "s", "lower", _KIND_MOVES[k]) for k in TEACHER_KINDS]
    rows += [("data.batch_s", "s", "lower", "train_images_per_s on the toy workloads")]
    rows += [(f"distill.{m}_s", "s", "lower", "step_s_p50 on toy-distill")
             for m in ("loss", "ce", "kd", "at")]
    rows += [("optim.step_s", "s", "lower", "step_s_p50 on full-distill"),
             ("sparse.apply_mask_s", "s", "lower", "step_s_p50 on full-distill"),
             ("sparse.accumulate_momentum_s", "s", "lower", "step_s_p50 on full-distill")]
    boundary = "train_images_per_s on full-distill"
    rows += [("sparse.boundary_s", "s", "lower", boundary),
             ("sparse.pruned", "count", "lower", boundary),
             ("sparse.regrown", "count", "lower", boundary),
             ("sparse.budget_gap", "count", "lower", boundary),
             ("checkpoint.save_s", "s", "lower", boundary),
             ("checkpoint.bytes", "bytes", "lower", boundary),
             ("checkpoint.load_s", "s", "lower",
              "setup_s on full-distill; a session's wall time on full-distill")]
    rows += [("train.epoch_s", "s", "lower", "train_images_per_s on all three workloads"),
             ("train.eval_s", "s", "lower", "eval_images_per_s and train_images_per_s on all three"),
             ("train.metrics_write_s", "s", "lower", "train_images_per_s (tiny)")]
    phase = "step_s_p50 on the workload whose step it splits"
    rows += [(f"step.{p}_s", "s", "lower", phase) for p in STEP_PHASES + ("wall", "other")]
    rows += [("trace.untraced_images_per_s", "1/s", "higher", "train_images_per_s (tracing off)"),
             ("trace.traced_images_per_s", "1/s", "higher", "train_images_per_s (tracing on)"),
             ("trace.overhead_ratio", "ratio", "higher", "how far tracing slows the traced run")]
    return tuple(rows)


# phases of one training step, each a span the session opens directly
STEP_PHASES = ("data", "teacher_forward", "student_forward", "loss", "backward", "optim", "mask")
PHASE_OF_SPAN = {
    "data.batch": "data",
    "models.teacher.forward": "teacher_forward",
    "models.student.forward": "student_forward",
    "distill.loss": "loss",
    "tensor.backward": "backward",
    "optim.step": "optim",
    "sparse.apply_mask": "mask",
    "sparse.accumulate_momentum": "mask",
}

PER_LAYER = _per_layer()


def tail(samples):
    """(value, percentile) of the highest order statistic with at least ten
    samples above it; with fewer than 21 samples that is the median."""
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n
