"""Threshold calibration and the budget scaling sweep.

Reruns the calibration protocol at reduced trial counts, then sweeps the
combined tester's nominal budget over a range of domain sizes and fits
the scaling exponent.
"""

import numpy as np

from enttest.experiments import ExperimentSpec, calibrate
from enttest.pipeline import combined_budgets

# Calibration: for each primitive tester, find the threshold constant
# meeting the 90/90 null/far targets, doubling the sample multiplier
# until the window is wide enough.
spec = ExperimentSpec(kind="calibrate", n_values=[1000], eps_values=[0.1],
                      trials=120, seed=11)
cfg, provenance, rows = calibrate(spec)
print("calibration outcome:")
for line in provenance:
    print(f"  {line}")

# Budget comparison: the combined tester picks whichever branch is
# nominally cheaper at each (n, eps).
print("\nbranch choice across scales (eps = 0.3):")
for k in range(10, 17):
    n = 2**k
    eet_total, base_total = combined_budgets(n, 0.3, cfg=cfg)
    choice = "tv-baseline" if base_total <= eet_total else "cascade"
    print(f"  n = 2^{k:2d}: cascade {eet_total:>12,} vs baseline {base_total:>10,}"
          f" -> {choice}")

# The scaling exponent: slope of log(budget) against log(n).
ns = np.array([2**k for k in range(10, 17)], dtype=float)
budgets = np.array([min(combined_budgets(int(nv), 0.3, cfg=cfg)) for nv in ns], dtype=float)
slope = np.polyfit(np.log(ns), np.log(budgets), 1)[0]
print(f"\nfitted budget exponent: {slope:.4f} (sublinear regime)")
