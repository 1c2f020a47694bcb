"""``StreamPool`` occupancy against a reference that integrates every count.

The pool updates only the occupancy metrics whose count changed (plus
``streams.total``); the reference below integrates all four purposes and
the total at every transition.  Over a seeded random sequence of
acquisitions, retags, releases, revocations and resizes, each metric's
time average and peak must match the reference, and ``held_for`` must
match the reference count after every step.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import Environment
from repro.vod.streams import StreamPool, StreamPurpose

PURPOSES = tuple(StreamPurpose)
NAMES = [f"streams.{purpose.value}" for purpose in PURPOSES] + ["streams.total"]


class Reference:
    """Integrates all five counts over every interval between transitions."""

    def __init__(self) -> None:
        self.last = 0.0
        self.counts = [0] * len(NAMES)
        self.area = [0.0] * len(NAMES)
        self.peak = [0] * len(NAMES)

    def transition(self, now: float, held: dict[StreamPurpose, int]) -> None:
        for k, count in enumerate(self.counts):
            self.area[k] += count * (now - self.last)
        self.last = now
        self.counts = [held[purpose] for purpose in PURPOSES] + [sum(held.values())]
        self.peak = [max(p, c) for p, c in zip(self.peak, self.counts)]

    def mean(self, k: int, now: float) -> float:
        return (self.area[k] + self.counts[k] * (now - self.last)) / now


def _drive(env: Environment, pool: StreamPool, rng: random.Random, steps: int, seen: list):
    live = []
    held = {purpose: 0 for purpose in PURPOSES}
    reference = Reference()
    for _ in range(steps):
        yield env.timeout(rng.choice([0.0, rng.expovariate(1.0)]))
        action = rng.choices(
            ["try", "attach", "retag", "release", "revoke", "resize"],
            weights=[6, 2, 2, 5, 1, 1],
        )[0]
        if action == "try":
            purpose = rng.choice(PURPOSES)
            grant = pool.try_acquire(purpose)
            if grant is not None:
                live.append(grant)
                held[purpose] += 1
        elif action == "attach" and pool.available > 0:
            purpose = rng.choice(PURPOSES)
            request = pool.acquire(purpose)
            yield request
            live.append(pool.attach(request, purpose))
            held[purpose] += 1
        elif action == "retag" and live:
            grant = rng.choice(live)
            purpose = rng.choice(PURPOSES)
            held[grant.purpose] -= 1
            grant.retag(pool, purpose)
            held[purpose] += 1
        elif action == "release" and live:
            grant = live.pop(rng.randrange(len(live)))
            pool.release(grant)
            held[grant.purpose] -= 1
        elif action == "revoke":
            for grant in pool.revoke(rng.randrange(4)):
                live.remove(grant)
                held[grant.purpose] -= 1
        elif action == "resize":
            pool.resize(max(pool.in_use, 1) + rng.randrange(12))
        reference.transition(env.now, held)
        for purpose in PURPOSES:
            assert pool.held_for(purpose) == held[purpose]
        assert pool.in_use == sum(held.values())
    seen.append(reference)


@pytest.mark.parametrize("seed", range(8))
def test_occupancy_matches_a_reference_that_updates_every_count(seed):
    env = Environment()
    pool = StreamPool(env, 10)
    seen: list[Reference] = []
    env.process(_drive(env, pool, random.Random(seed), 600, seen))
    env.run()
    (reference,) = seen
    now = env.now
    assert now > 0.0
    for k, name in enumerate(NAMES):
        metric = pool.metrics.time_weighted(name)
        assert metric.mean(now) == pytest.approx(reference.mean(k, now), rel=1e-12, abs=0.0)
        assert metric.peak == reference.peak[k]
        assert metric.current == reference.counts[k]
