#!/usr/bin/env python3
"""Model validation: reproduce a slice of the paper's Figure 7.

Runs the simulated VOD server on one title (Poisson viewers, enrollment
windows, FF/RW/PAU with real boundary mechanics, a stream pool that never
starves) against the analytical model over a grid of configurations and
prints the paired curves — the reproduction of the paper's Section 4
validation.

Run:  python examples/model_validation.py            (couple of minutes)
      python examples/model_validation.py --quick    (smaller grid)
"""

import argparse

from repro.core import HitProbabilityModel, VCRMix, VCROperation
from repro.distributions import GammaDuration
from repro.experiments.figure7 import compare_model_and_simulation
from repro.vod import ServerWorkload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller grid")
    args = parser.parse_args()

    # The paper's Figure-7 workload.
    model = HitProbabilityModel(
        120.0, GammaDuration(shape=2.0, scale=4.0), mix=VCRMix.paper_figure7d()
    )
    workload = ServerWorkload(
        arrival_rate=0.5,  # 1/lambda = 2 minutes, as in the paper
        horizon=1200.0 if args.quick else 2400.0,
        warmup=240.0 if args.quick else 400.0,
    )
    partition_counts = [10, 30, 60] if args.quick else [10, 20, 30, 45, 60, 80, 100]
    replications = 2 if args.quick else 4

    panels = [
        ("(a) fast-forward only", VCROperation.FAST_FORWARD),
        ("(b) rewind only", VCROperation.REWIND),
        ("(c) pause only", VCROperation.PAUSE),
        ("(d) mixed 0.2/0.2/0.6", None),
    ]
    for title, operation in panels:
        print(f"\nFigure 7{title}: P(hit) vs n at w = 1 minute")
        print(
            f"{'n':>5} {'B':>7} {'model':>8} {'simulated':>10} {'+/-':>7} "
            f"{'RW@0':>7}"
        )
        points = compare_model_and_simulation(
            model,
            partition_counts,
            max_wait=1.0,
            workload=workload,
            replications=replications,
            operation=operation,
        )
        for point in points:
            flag = "" if point.absolute_error < 0.03 else "  <- larger gap"
            print(
                f"{point.num_partitions:>5} {point.config.buffer_minutes:>7.1f} "
                f"{point.model_hit:>8.4f} {point.simulated_hit:>10.4f} "
                f"{point.simulated_ci:>7.4f} {point.rewind_start_share:>7.4f}{flag}"
            )
    print(
        "\nExpected discrepancy pattern (paper Section 4): the model slightly\n"
        "over-estimates FF/PAU at small n (viewers cluster at partition\n"
        "leading edges) and under-estimates RW (rewind to minute 0 is booked\n"
        "a miss analytically but can re-enroll in the real mechanics; RW@0 is\n"
        "the share of operations that were such rewind-to-start hits)."
    )


if __name__ == "__main__":
    main()
