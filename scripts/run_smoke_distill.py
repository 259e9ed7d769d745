"""Desk-scale end-to-end experiment on the synthetic fixture.

Runs the recipe of acceptance criterion 8's fixture (`smoke_runs` in
tests/test_acceptance.py): trains the toy conv teacher, then distills two
sparse hybrid students at density 0.25 for 10 epochs at lr 0.003 (one
with the combined KD+AT loss, one cross-entropy-only) and prints the
final comparison plus the accounting report. At the default seed 0 it
trains what the fixture trains; other seeds sweep the same recipe.

Usage: python scripts/run_smoke_distill.py [--out-dir runs/smoke] [--seed 0] [--epochs 10]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from attndistill.config import TrainConfig
from attndistill import train as TR


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="runs/smoke")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=10)
    args = ap.parse_args()

    base = dict(
        dataset="synthetic", synth_train=1000, synth_test=500, classes=2,
        batch_size=100, seed=args.seed, deterministic=True,
        depth="toy", heads=2, extent=3,
    )

    teacher_cfg = TrainConfig(out_dir=os.path.join(args.out_dir, "teacher"),
                              epochs=8, lr=0.05, lr_drops=(5, 7), variant="conv", **base)
    teacher_ckpt, tm = TR.train_teacher(teacher_cfg)
    print(f"teacher accuracy: {tm.rows[-1]['test_acc']:.3f}")

    runs = {}
    for name, alpha, beta in (("kd_at", 0.1, 1000.0), ("ce_only", 1.0, 0.0)):
        cfg = TrainConfig(out_dir=os.path.join(args.out_dir, name), epochs=args.epochs,
                          lr=0.003, lr_drops=(8, 9), variant="hybrid",
                          alpha=alpha, beta=beta, temperature=4.0,
                          density=0.25, prune_mode="irregular", prune_rate0=0.5, **base)
        ckpt, metrics = TR.sparse_distill(cfg, teacher_ckpt)
        runs[name] = (ckpt, metrics)
        print(f"{name}: final accuracy {metrics.rows[-1]['test_acc']:.3f} "
              f"at density {metrics.rows[-1]['density']:.3f}")

    print()
    print(TR.format_report(TR.report(teacher_ckpt, runs["kd_at"][0])))


if __name__ == "__main__":
    main()
