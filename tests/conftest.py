import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import attndistill.tensor as T
from attndistill.config import TrainConfig
from attndistill import train as TR

TINY = dict(
    dataset="synthetic",
    synth_train=200,
    synth_test=100,
    classes=2,
    batch_size=25,
    seed=7,
    deterministic=True,
    depth="toy",
    heads=2,
    extent=3,
)


def tiny_config(out_dir, **overrides):
    merged = dict(TINY)
    merged.update(overrides)
    return TrainConfig(out_dir=str(out_dir), **merged)


@pytest.fixture(scope="session")
def tiny_teacher(tmp_path_factory):
    """A small trained toy teacher shared across trainer tests."""
    out = tmp_path_factory.mktemp("teacher")
    cfg = tiny_config(out, epochs=5, lr=0.05, lr_drops=(4,), variant="conv")
    ckpt, metrics = TR.train_teacher(cfg)
    return {"ckpt": ckpt, "metrics": metrics, "cfg": cfg}


def hand_offs(monkeypatch):
    """The list that every second half handed to `tensor._halves`' worker
    thread from now on is appended to."""
    handed, submit = [], ThreadPoolExecutor.submit

    def counted(self, fn, *args, **kwargs):
        handed.append(fn)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
    return handed


def assert_worker_idle():
    """At most one worker thread exists, and no split holds it."""
    workers = [t for t in threading.enumerate() if t.name.startswith("attndistill-halves")]
    assert len(workers) <= 1 and not T._busy.locked()
