"""Static parameter/FLOP accounting at full architecture scale.

Instantiates the 50-layer conv teacher and the attention students (no
training), applies random masks at the given densities, and prints the
resulting parameter and FLOP reduction ratios: `flops x` is the dense
architecture ratio (the paper's 2x, teacher50 / student26), `nz flops x`
counts only the student's unpruned multiplies.

Usage: python scripts/full_scale_report.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from attndistill.models import build_model, count_flops, count_params, student_spec, teacher50_spec
from attndistill.sparse import init_mask


def main():
    teacher = build_model(teacher50_spec(10), np.random.default_rng(0))
    t_total, _ = count_params(teacher)
    t_flops = count_flops(teacher)
    print(f"teacher50 (conv): {t_total:,} params, {t_flops:,} flops")
    print()
    print(f"{'student':<22} {'mode':<10} {'density':<8} {'nonzero':<12} {'param x':<9} {'flops x':<8} "
          "nz flops x")

    rows = [
        ("student26", "hybrid", "irregular", 0.1),
        ("student26", "hybrid", "column", 0.5),
        ("student26", "homogeneous", "irregular", 0.25),
        ("student26", "homogeneous", "column", 0.5),
        ("student38", "hybrid", "irregular", 0.1),
        ("student38", "hybrid", "column", 0.5),
    ]
    for depth, variant, mode, density in rows:
        spec = student_spec(depth, variant, 10, extent=3, heads=8)
        model = build_model(spec, np.random.default_rng(1))
        state = init_mask(model, density, np.random.default_rng(2), mode=mode)
        total, nonzero = count_params(model, state.masks)
        flops, nz_flops = count_flops(model), count_flops(model, state.masks)
        print(f"{depth + ' ' + variant:<22} {mode:<10} {density:<8} {nonzero:<12,} "
              f"{t_total / nonzero:<9.2f} {t_flops / flops:<8.2f} {t_flops / nz_flops:.2f}")


if __name__ == "__main__":
    main()
