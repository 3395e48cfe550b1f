#!/usr/bin/env python3
"""Figure 2: CPU strong scaling of the elemental assembly.

The machine model's turbo-binned curve for the paper's dual Icelake
(3.4 GHz up to 17 workers, then 3.1, then 2.6 -- the kinks in Fig. 2).
What a second core does for a sweep on *this* machine is measured in
EXPERIMENTS.md, "Two cores per C sweep".

Run:  python examples/scaling_study.py
"""

from repro.core import OptimizationStudy


def main() -> None:
    study = OptimizationStudy()
    curves = study.cpu_scaling(worker_counts=[1, 2, 4, 8, 16, 17, 18, 24,
                                              32, 48, 60, 71])
    print("machine-model scaling (Fig. 2 analogue), Melem/s:")
    header = "workers: " + "  ".join(f"{r['workers']:>6d}"
                                     for r in curves["B"])
    print(header)
    for variant, rows in curves.items():
        line = "  ".join(f"{r['melem_per_s']:6.0f}" for r in rows)
        print(f"{variant:>7s}: {line}")
    print("\nnote the slope changes after 17 and 24 workers/socket: the "
          "turbo frequency drops 3.4 -> 3.1 -> 2.6 GHz, exactly the kinks "
          "the paper's Figure 2 shows.")


if __name__ == "__main__":
    main()
