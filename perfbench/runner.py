"""One benchmark run: set-up, timed sessions, checks, and metrics.

Untraced runs give the end-to-end metrics. A traced run first runs one
untraced session as its reference, then traced sessions, then one more
untraced session as the base of the tracing overhead; it reports the
per-layer metrics (averaged over the traced sessions), checks that the
traced training trajectory equals the untraced one, and writes the spans
to a trace file.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys

import numpy as np

from . import checks, metrics
from .probe import OPS, OTHER_OPS, Probe, clock
from .workloads import digest, run_session, session_config, setup

SETUPS = 3  # set-ups per untraced run; setup_s is their median


def blas_threads_runtime():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def fingerprint(pinned_threads) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_pinned": pinned_threads,
        "blas_threads_runtime": blas_threads_runtime(),
    }


def _step_phases(s) -> dict:
    """Mean per-step phase self times; `other` is what the phases leave
    unexplained. Fails if a phase span crosses a step boundary."""
    tr = s.tracer
    top = [sp for sp in tr.spans if sp[3] == 0]
    totals = dict.fromkeys(metrics.STEP_PHASES + ("wall", "other"), 0.0)
    crossing = []
    i = 0
    for t0, t1, _, _ in s.steps:
        while i < len(top) and top[i][1] < t0:
            i += 1
        explained = 0.0
        while i < len(top) and top[i][1] < t1:
            name, start, end = top[i][:3]
            if end > t1:
                crossing.append(f"span {name} crosses the end of a step")
            phase = metrics.PHASE_OF_SPAN.get(name)
            if phase is not None:
                totals[phase] += end - start
                explained += end - start
            i += 1
        totals["wall"] += t1 - t0
        totals["other"] += (t1 - t0) - explained
    s.failures += checks.failure("step phases", crossing)
    n = max(1, len(s.steps))
    return {f"step.{k}_s": v / n for k, v in totals.items()}


def _layer_metrics(s) -> dict:
    """Per-layer metrics of one traced session."""
    tr = s.tracer
    m = {}
    for op, group in [(op, (op,)) for op in OPS] + [("other", OTHER_OPS)]:
        keys = [f"tensor.{g}" for g in group]
        m[f"tensor.{op}.calls"] = sum(tr.calls[k] for k in keys)
        m[f"tensor.{op}.fwd_s"] = sum(tr.self_time[k] for k in keys)
        m[f"tensor.{op}.bwd_s"] = sum(tr.self_time[f"{k}.bwd"] for k in keys)
        m[f"tensor.{op}.out_bytes"] = sum(tr.counts[f"{k}.out_bytes"] for k in keys)
    m["tensor.backward_s"] = tr.incl["tensor.backward"]
    m["tensor.topo_order_s"] = tr.incl["tensor.topo_order"]
    m["tensor.graph_nodes"] = tr.counts["tensor.graph_nodes"] / max(1, tr.calls["tensor.backward"])
    m["attention.calls"] = tr.calls["attention"]
    m["attention.fwd_s"] = tr.incl["attention"]
    m["attention.bwd_s"] = tr.counts["attention.bwd_s"]
    for role in ("teacher", "student"):
        m[f"models.{role}.forward_s"] = tr.incl[f"models.{role}.forward"]
    for k in metrics.STUDENT_KINDS:
        m[f"models.student.{k}.fwd_s"] = tr.incl[f"models.student.{k}"]
        m[f"models.student.{k}.bwd_s"] = tr.counts[f"models.student.{k}.bwd_s"]
    for k in metrics.TEACHER_KINDS:
        m[f"models.teacher.{k}.fwd_s"] = tr.incl[f"models.teacher.{k}"]
    for name in ("data.batch", "distill.loss", "distill.ce", "distill.kd", "distill.at",
                 "optim.step", "sparse.apply_mask", "sparse.accumulate_momentum",
                 "sparse.boundary", "checkpoint.save", "checkpoint.load",
                 "train.eval", "train.metrics_write"):
        m[f"{name}_s"] = tr.incl[name]
    for name in ("sparse.pruned", "sparse.regrown", "sparse.budget_gap", "checkpoint.bytes"):
        m[name] = tr.counts[name]
    m["train.epoch_s"] = s.loop_s / max(1, len(s.epoch_starts))
    m.update(_step_phases(s))
    return m


def _session_checks(s, ckpt, csv, reference_csv) -> list:
    out = checks.failure("losses", checks.finite_losses(csv))
    path, model, state = s.saves[-1]
    if path != ckpt:
        out.append(f"last checkpoint written was {path}, the entry point returned {ckpt}")
    out += checks.failure("checkpoint round trip", checks.checkpoint_roundtrip(ckpt, model, state))
    if state is not None:
        out += checks.failure("final masks", checks.mask_state(state))
    if reference_csv is not None:
        out += checks.failure("trajectory", checks.same_trajectory(reference_csv, csv))
    return out


def _write_trace(path, sessions, t_zero):
    with open(path, "w") as f:
        for s in sessions:
            for name, start, end, parent, run, tag in s.tracer.spans:
                f.write(json.dumps({"name": name, "start": start - t_zero, "end": end - t_zero,
                                    "parent": parent, "run": run, "tag": tag}) + "\n")


def run(w, seed: int, seconds: float, trace: bool, work_root: str, import_s: float = 0.0) -> dict:
    """Run one workload; returns attempted, failed, failures, metrics and details."""
    t_zero = clock()
    work = os.path.join(work_root, f"{w.name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    failures, sessions, setup_times = [], [], []
    details = {"workload": w.name, "seed": seed, "trace": int(trace), "work_dir": work}
    with Probe() as probe, contextlib.redirect_stdout(sys.stderr):
        try:
            digests = []
            for _ in range(1 if trace else SETUPS):
                t0 = clock()
                # one directory for every set-up: the manifest records the path
                ready = setup(w, seed, os.path.join(work, "setup"))
                setup_times.append(clock() - t0)
                failures += ready.failures
                digests.append(digest(ready))
            if len(set(digests)) != 1:
                failures.append("repeated set-ups produced different inputs or teacher checkpoints")
            details["inputs_sha256"] = digests[0]
        except Exception as e:  # a failed set-up ends the run, reported below
            failures.append(f"set-up raised {type(e).__name__}: {e}")
            ready = None
        # whole sessions, as many as fit --seconds on the reference machine;
        # a fixed count keeps a run's work the same on a busier machine
        plan = [False] * max(1, round(seconds / w.session_s))
        if trace:
            # untraced reference, traced sessions, and a last untraced session
            # that is the overhead base, past the process's warm-up like them
            plan = [False] + [True] * len(plan) + [False]
        reference_csv = None
        for i, traced in enumerate(plan if ready is not None else []):
            cfg = session_config(w, seed, os.path.join(work, f"session{i}"))
            s = probe.start_session(f"{w.name}/seed{seed}/session{i}", traced)
            ckpt = csv = None
            try:
                ckpt, csv = run_session(w, cfg, ready, s)
            except Exception as e:  # the step or eval in progress failed
                s.failures.append(f"session {i} raised {type(e).__name__}: {e}")
            finally:
                probe.end_session()
            if traced and not s.failures:
                s.layer_metrics = _layer_metrics(s)
            sessions.append(s)
            if ckpt is not None:
                s.failures += _session_checks(s, ckpt, csv, reference_csv)
                reference_csv = reference_csv or csv
            for f in glob.glob(os.path.join(cfg.out_dir, "*.atlt")):
                os.remove(f)
            failures += s.failures
            print(f"session {i} ({'traced' if traced else 'untraced'}) {s.end - s.start:.2f} s")
            if s.failures:
                break
        for f in glob.glob(os.path.join(work, "setup", "*", "*.atlt")):
            os.remove(f)
    attempted = sum(s.attempted for s in sessions)
    result = {"attempted": max(1, attempted), "failed": len(failures), "failures": failures,
              "details": details}
    details["setup_s_samples"] = setup_times
    details["sessions"] = [{"run": s.run_id, "traced": s.traced, "wall_s": s.end - s.start,
                            "steps": len(s.steps), "boundaries": s.boundaries,
                            "train_images": s.train_images} for s in sessions]
    ok_sessions = [s for s in sessions if not s.failures and s.loop_start is not None]
    if not ok_sessions or failures:
        result["metrics"] = {}
        return result
    if trace:
        result["metrics"] = _traced_metrics(ok_sessions)
        _write_trace(os.path.join(work, "trace.jsonl"), [s for s in ok_sessions if s.traced], t_zero)
        details["trace_file"] = os.path.join(work, "trace.jsonl")
    else:
        result["metrics"] = _end_to_end(ok_sessions, setup_times, import_s)
        steps = [t1 - t0 for s in ok_sessions for t0, t1, _, _ in s.steps]
        details["step_samples"] = len(steps)
        details["step_tail_percentile"] = metrics.tail(steps)[1]
    return result


def _images_per_s(sessions) -> float:
    return sum(s.train_images for s in sessions) / sum(s.loop_s for s in sessions)


def _end_to_end(sessions, setup_times, import_s) -> dict:
    steps = [t1 - t0 for s in sessions for t0, t1, _, _ in s.steps]
    evals = [n / (t1 - t0) for s in sessions for t0, t1, _, n in s.eval_batches]
    return {
        "train_images_per_s": statistics.median(_images_per_s([s]) for s in sessions),
        "step_s_p50": statistics.median(steps),
        "step_s_tail": metrics.tail(steps)[0],
        "eval_images_per_s": statistics.median(evals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": import_s + statistics.median(setup_times),
    }


def _traced_metrics(sessions) -> dict:
    traced = [s for s in sessions if s.traced]
    per = [s.layer_metrics for s in traced]
    out = {k: statistics.fmean(p[k] for p in per) for k in per[0]}
    base, with_trace = _images_per_s(sessions[-1:]), _images_per_s(traced)
    out["trace.untraced_images_per_s"] = base
    out["trace.traced_images_per_s"] = with_trace
    out["trace.overhead_ratio"] = with_trace / base
    return out
