"""Batched-vs-scalar model evaluation: the vectorisation acceptance gate.

One grid sweep per Example-1 movie — the exact hot path behind
``test_bench_figure8`` and ``test_bench_sizing`` — evaluated twice: through
the production batch (``HitProbabilityModel.hit_probability_batch``) and
through a loop of the scalar oracle (``repro.core.hitsets.hit_probability``
per operation, mixed by Eq. (22)).  The two value vectors must agree **byte
for byte** (the batched kernels are exact re-associations of the scalar
arithmetic, not approximations), and the batch must clear the speedup
floor: 10x locally, relaxed to 5x in CI via ``BATCH_SPEEDUP_FLOOR`` because
shared runners time noisily.  The measured ladder lands in a JSON artifact
(``BATCH_BENCH_JSON``) that CI archives next to the service latency ladder.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter

from repro.core.hitsets import CdfTransform, hit_probability
from repro.core.vcrop import VCROperation
from repro.distributions import ExponentialDuration, GammaDuration
from repro.sizing.feasible import MovieSizingSpec

#: Where the speedup payload lands (CI uploads it as an artifact).
TIMING_PATH = Path(os.environ.get("BATCH_BENCH_JSON", "batched_speedup.json"))
#: Minimum acceptable speedup of the batched path over the scalar oracle.
SPEEDUP_FLOOR = float(os.environ.get("BATCH_SPEEDUP_FLOOR", "10.0"))

_SPECS = [
    MovieSizingSpec("movie1", 75.0, 0.1, GammaDuration(2.0, 4.0)),
    MovieSizingSpec("movie2", 60.0, 0.5, ExponentialDuration(5.0)),
    MovieSizingSpec("movie3", 90.0, 0.25, ExponentialDuration(2.0)),
]

#: Stream counts per movie; with three buffer levels each this is a
#: 300-configuration grid — one Figure-8 panel's worth of evaluations.
_STREAM_COUNTS = range(1, 101)
_BUFFER_FRACTIONS = (0.0, 0.5, 1.0)


def _grid(model, length):
    return [
        model.configuration(n, length * fraction)
        for n in _STREAM_COUNTS
        for fraction in _BUFFER_FRACTIONS
    ]


def _scalar_loop(model):
    """The oracle: Eq. (22) over the scalar per-operation kernel, per config."""
    ops = list(VCROperation)
    transforms = {op: CdfTransform(model.duration_of(op), model.movie_length) for op in ops}

    def evaluate(batch):
        values = []
        for config in batch:
            p_hit = 0.0
            for op in ops:
                p_hit += model.mix.probability_of(op) * hit_probability(
                    op, config, model.duration_of(op), transform=transforms[op]
                )
            values.append(p_hit)
        return values

    return evaluate


def _timed_sweep(spec, path):
    """(values, seconds) for one movie's grid through ``path``.

    Model construction (truncation, CDF transforms) is excluded: it is
    identical for both paths and already covered by the model cache
    benchmarks.  A small warmup batch absorbs one-time costs.
    """
    model = spec.build_model()
    configs = _grid(model, spec.length)
    evaluate = model.hit_probability_batch if path == "batched" else _scalar_loop(model)
    evaluate(configs[:6])  # warmup
    start = perf_counter()
    values = evaluate(configs)
    elapsed = perf_counter() - start
    return values, elapsed


def test_batched_speedup_and_equivalence():
    """Acceptance: batched evaluation is >= SPEEDUP_FLOOR x the scalar
    oracle loop, and the two value vectors are byte-identical per movie."""
    movies = {}
    totals = {"scalar": 0.0, "batched": 0.0}
    for spec in _SPECS:
        scalar_values, scalar_s = _timed_sweep(spec, "scalar")
        batched_values, batched_s = _timed_sweep(spec, "batched")
        assert batched_values == scalar_values, spec.name
        speedup = scalar_s / batched_s
        totals["scalar"] += scalar_s
        totals["batched"] += batched_s
        movies[spec.name] = {
            "grid_points": len(scalar_values),
            "scalar_s": round(scalar_s, 6),
            "batched_s": round(batched_s, 6),
            "speedup": round(speedup, 2),
            "byte_identical": True,
        }
        print(f"{spec.name}: scalar {scalar_s:.3f}s  batched {batched_s:.3f}s ({speedup:.1f}x)")

    # The gate matches the pipeline benchmarks (figure 8 / sizing sweep all
    # three movies back to back), so it is the aggregate ratio that must
    # clear the floor; per-movie ratios are reported for diagnosis.
    aggregate = totals["scalar"] / totals["batched"]
    payload = {
        "benchmark": "batched_model_evaluation",
        "floor": SPEEDUP_FLOOR,
        "aggregate_speedup": round(aggregate, 2),
        "movies": movies,
    }
    TIMING_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"aggregate: {aggregate:.1f}x  (floor {SPEEDUP_FLOOR:.0f}x)")

    assert aggregate >= SPEEDUP_FLOOR, (
        f"batched speedup {aggregate:.1f}x below the "
        f"{SPEEDUP_FLOOR:.0f}x floor; see {TIMING_PATH}"
    )
