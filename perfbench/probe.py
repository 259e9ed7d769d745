"""Instrumentation of attndistill from outside the package.

`Probe` is always installed during a benchmark run. It times the
batches drawn from `data.batches` (a training step, or an eval batch, is
the interval between two successive batch requests), runs the
mask checks after every epoch boundary and remembers the last model each
checkpoint save wrote, so the run can verify the file afterwards.

`Tracer` is installed only around traced sessions. It wraps the public
functions of every layer (tensor primitives, attention, model layers,
losses, optimizer, mask engine, checkpoints, evaluation) and the backward
closure of every recorded tensor, and keeps spans in memory. Nothing
under `src/` changes: wrappers are patched into the modules and classes
and every original is put back when the probe or tracer closes.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

from attndistill import attention, data, distill, models, optim, sparse, tensor, train

from . import checks

clock = time.perf_counter

# tensor primitives reported one by one; every other recording op is "other"
OPS = ("conv2d", "batch_norm", "matmul", "relu", "add", "window_gather", "nbhd_dot",
       "relpos_dot", "nbhd_mix", "gather", "softmax", "log_softmax", "transpose",
       "reshape", "avg_pool2", "global_avg_pool")
OTHER_OPS = ("mul", "scale", "div", "sqrt", "abspow", "tsum", "tmean", "concat")

LAYER_CLASSES = (models.Conv2d, models.SelfAttention, models.BatchNorm, models.Linear)


def layer_kind(name: str) -> str:
    """Map a `Model.named_layers()` name to its kind, aggregated over stages."""
    if name in ("stem", "fc"):
        return name
    last = name.rsplit(".", 1)[-1]
    if last.startswith("bn") or last.endswith("_bn"):
        return "bn"
    return {"conv1": "conv1x1", "conv3": "conv1x1", "conv2": "conv3x3",
            "sa": "sa", "down": "down"}[last]


class Patches:
    """Replace attributes and put the originals back in reverse order."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make):
        """Wrap a module function everywhere the package refers to it,
        including modules that imported it by name."""
        orig = getattr(module, name)
        wrapped = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "attndistill" or mod_name.startswith("attndistill.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, orig))

    def method(self, cls, name, make):
        orig = cls.__dict__[name]
        setattr(cls, name, make(orig))
        self._undo.append((cls, name, orig))

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


@dataclass
class Session:
    """What one call of a workload's entry points did, timed from outside."""

    run_id: str
    traced: bool
    start: float
    end: float = 0.0
    loop_start: float | None = None  # first training batch request
    loop_end: float | None = None  # training entry point returned
    steps: list = field(default_factory=list)  # (start, end, epoch, images)
    eval_batches: list = field(default_factory=list)  # (start, end, epoch, images)
    epoch_starts: list = field(default_factory=list)
    attempted: int = 0  # training batches and eval batches handed out
    boundaries: int = 0
    in_loop_check_s: float = 0.0
    failures: list = field(default_factory=list)
    saves: list = field(default_factory=list)  # (path, model, state)
    tracer: "Tracer | None" = None
    layer_metrics: dict = field(default_factory=dict)  # per-layer metrics of a traced session

    @property
    def train_images(self) -> int:
        return sum(s[3] for s in self.steps)

    @property
    def loop_s(self) -> float:
        """Epoch-loop wall time without the checks the benchmark ran inside it."""
        return self.loop_end - self.loop_start - self.in_loop_check_s


class Probe:
    """Always-on light instrumentation; use as a context manager."""

    def __init__(self):
        self.session: Session | None = None
        self.tracer: Tracer | None = None
        self._patches = Patches()

    def __enter__(self):
        p = self._patches
        p.function(data, "batches", self._wrap_batches)
        p.function(sparse, "prune_regrow_epoch", self._wrap_boundary)
        p.function(sparse, "column_prune_regrow_epoch", self._wrap_boundary)
        p.function(train, "save_model_checkpoint", self._wrap_save)
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    def start_session(self, run_id: str, traced: bool) -> Session:
        self.session = Session(run_id, traced, clock())
        if traced:
            self.tracer = Tracer(run_id)
            self.session.tracer = self.tracer
            self.tracer.open()
            self.tracer.begin("session", self.session.start)
        return self.session

    def end_session(self) -> Session:
        s = self.session
        s.end = clock()
        if s.loop_end is None:
            s.loop_end = s.end
        if self.tracer is not None:
            self.tracer.unwind(s.end)
            self.tracer.close()
        self.session, self.tracer = None, None
        return s

    # --- wrappers ---

    def _wrap_batches(self, orig):
        @functools.wraps(orig)
        def batches(dataset, batch_size, seed, epoch, train=True):
            gen = orig(dataset, batch_size, seed, epoch, train)
            if self.session is None:
                return gen
            return self._timed_batches(gen, epoch, train)

        return batches

    def _timed_batches(self, gen, epoch, is_train):
        s, tr = self.session, self.tracer
        first = clock()
        if is_train:
            if s.loop_start is None:
                s.loop_start = first
            s.epoch_starts.append(first)
        intervals = s.steps if is_train else s.eval_batches
        prev = None  # (request time, images) of the batch in progress
        try:
            while True:
                t_req = clock() if prev is not None else first
                if prev is not None:
                    intervals.append((prev[0], t_req, epoch, prev[1]))
                if tr is not None:
                    tr.begin("data.batch" if is_train else "data.eval_batch", t_req)
                try:
                    item = next(gen)
                except StopIteration:
                    break
                finally:
                    if tr is not None:
                        tr.end()
                s.attempted += 1
                prev = (t_req, len(item[1]))
                yield item
        finally:
            gen.close()

    def _wrap_boundary(self, orig):
        @functools.wraps(orig)
        def boundary(state, model, optimizer):
            s, tr = self.session, self.tracer
            if s is None:
                return orig(state, model, optimizer)
            t0 = clock()
            before = {n: m.copy() for n, m in state.masks.items()} if tr is not None else None
            s.in_loop_check_s += clock() - t0
            if tr is not None:
                tr.begin("sparse.boundary")
            try:
                out = orig(state, model, optimizer)
            finally:
                if tr is not None:
                    tr.end()
            t0 = clock()
            s.boundaries += 1
            s.failures += checks.failure(f"masks after boundary {s.boundaries}", checks.mask_state(state))
            if tr is not None:
                tr.record_boundary(before, state)
            s.in_loop_check_s += clock() - t0
            return out

        return boundary

    def _wrap_save(self, orig):
        @functools.wraps(orig)
        def save_model_checkpoint(path, model, *args, **kwargs):
            s, tr = self.session, self.tracer
            if tr is not None:
                tr.begin("checkpoint.save")
            try:
                out = orig(path, model, *args, **kwargs)
            finally:
                if tr is not None:
                    tr.end()
            if s is not None:
                s.saves.append((path, model, kwargs.get("state")))
                if tr is not None:
                    tr.counts["checkpoint.bytes"] += os.path.getsize(path)
            return out

        return save_model_checkpoint


class Tracer:
    """Spans and counters for one traced session.

    A span is [name, start, end, parent index, run id, tag]; the tag holds
    the full layer name (per-stage detail) where there is one. Self time
    is a span's duration minus the time its children cover.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []  # [span index, time covered by children]
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._layers = {}  # id(layer) -> (aggregate span name, full layer name)
        self._layer_stack = []
        self._attention_depth = 0
        self._op_depth = 0
        self._patches = Patches()

    # --- spans ---

    def begin(self, name, t=None, tag=None):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, clock() if t is None else t, None, parent, self.run_id, tag])
        self._stack.append([len(self.spans) - 1, 0.0])

    def end(self, t=None) -> float:
        t = clock() if t is None else t
        idx, children = self._stack.pop()
        span = self.spans[idx]
        span[2] = t
        dur = t - span[1]
        self.incl[span[0]] += dur
        self.self_time[span[0]] += dur - children
        self.calls[span[0]] += 1
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def unwind(self, t):
        """Close every open span (the session span, or more after a failure)."""
        while self._stack:
            self.end(t)

    def _span(self, name):
        def make(orig):
            @functools.wraps(orig)
            def wrapped(*args, **kwargs):
                self.begin(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.end()

            return wrapped

        return make

    # --- installation ---

    def open(self):
        p = self._patches
        for op in OPS + OTHER_OPS:
            p.function(tensor, op, self._op(op))
        p.function(tensor, "topo_order", self._topo_order)
        p.method(tensor.Tensor, "backward", self._span("tensor.backward"))
        p.function(attention, "local_self_attention", self._attention)
        p.method(models.Model, "forward_with_taps", self._model_forward)
        for cls in LAYER_CLASSES:
            p.method(cls, "forward", self._layer_forward)
        p.function(distill, "loss_terms", self._span("distill.loss"))
        p.function(distill, "combine_terms", self._span("distill.loss"))
        p.function(distill, "cross_entropy", self._span("distill.ce"))
        p.function(distill, "kd_loss", self._span("distill.kd"))
        p.function(distill, "at_loss", self._span("distill.at"))
        p.method(optim.SGD, "step", self._span("optim.step"))
        p.function(sparse, "apply_mask", self._span("sparse.apply_mask"))
        p.method(sparse.SparseState, "accumulate_momentum", self._span("sparse.accumulate_momentum"))
        p.function(train, "model_from_checkpoint", self._span("checkpoint.load"))
        p.function(train, "evaluate_model", self._span("train.eval"))
        p.method(train.RunMetrics, "write", self._span("train.metrics_write"))
        return self

    def close(self):
        self._patches.restore()

    # --- wrappers with attribution ---

    def _op(self, op):
        name = f"tensor.{op}"

        def make(orig):
            @functools.wraps(orig)
            def wrapped(*args, **kwargs):
                self.begin(name)
                self._op_depth += 1
                try:
                    out = orig(*args, **kwargs)
                finally:
                    self._op_depth -= 1
                    self.end()
                if self._op_depth == 0:  # an op built from another op counts once
                    self.counts[f"{name}.out_bytes"] += out.data.nbytes
                    fn = out._backward_fn
                    if fn is not None:
                        out._backward_fn = self._timed_backward(fn, name)
                return out

            return wrapped

        return make

    def _timed_backward(self, fn, op_name):
        layer = self._layer_stack[-1] if self._layer_stack else (None, None)
        in_attention = self._attention_depth > 0
        name = f"{op_name}.bwd"

        def timed(g):
            self.begin(name, tag=layer[1])
            try:
                return fn(g)
            finally:
                dur = self.end()
                if layer[0] is not None:
                    self.counts[f"{layer[0]}.bwd_s"] += dur
                if in_attention:
                    self.counts["attention.bwd_s"] += dur

        return timed

    def _topo_order(self, orig):
        @functools.wraps(orig)
        def topo_order(root):
            self.begin("tensor.topo_order")
            try:
                order = orig(root)
            finally:
                self.end()
            self.counts["tensor.graph_nodes"] += len(order)
            return order

        return topo_order

    def _attention(self, orig):
        @functools.wraps(orig)
        def local_self_attention(*args, **kwargs):
            self.begin("attention")
            self._attention_depth += 1
            try:
                return orig(*args, **kwargs)
            finally:
                self._attention_depth -= 1
                self.end()

        return local_self_attention

    def _model_forward(self, orig):
        @functools.wraps(orig)
        def forward_with_taps(model, *args, **kwargs):
            role = model.spec.role
            outer = self._layers
            self._layers = {id(layer): (f"models.{role}.{layer_kind(n)}", f"{role}.{n}")
                            for n, layer in model.named_layers()}
            self.begin(f"models.{role}.forward")
            try:
                return orig(model, *args, **kwargs)
            finally:
                self.end()
                self._layers = outer

        return forward_with_taps

    def _layer_forward(self, orig):
        @functools.wraps(orig)
        def forward(layer, *args, **kwargs):
            key = self._layers.get(id(layer), ("models.unattributed", None))
            self.begin(key[0], tag=key[1])
            self._layer_stack.append(key)
            try:
                return orig(layer, *args, **kwargs)
            finally:
                self._layer_stack.pop()
                self.end()

        return forward

    # --- sparse dynamics ---

    def record_boundary(self, before, state):
        """Net mask transitions and the budget gap of one epoch boundary."""
        pruned = regrown = 0
        for n, after in state.masks.items():
            pruned += int(((before[n] > 0) & (after == 0)).sum())
            regrown += int(((before[n] == 0) & (after > 0)).sum())
        self.counts["sparse.pruned"] += pruned
        self.counts["sparse.regrown"] += regrown
        gap = abs(state.target_nonzero - state.nonzero())
        self.counts["sparse.budget_gap"] = max(self.counts["sparse.budget_gap"], gap)
