"""Throughput of the simulation substrate: DES engine and resources."""

from __future__ import annotations

from repro.sim.engine import Environment
from repro.sim.resources import Resource


def test_engine_event_throughput(benchmark):
    """Raw event-loop rate: a ping-pong of timeouts."""

    def run_events():
        env = Environment()

        def ticker():
            for _ in range(5000):
                yield env.timeout(1.0)

        env.process(ticker())
        env.run()
        return env.now

    now = benchmark(run_events)
    assert now == 5000.0


def test_resource_contention_throughput(benchmark):
    """Grant/queue/release cycles through a contended pool."""

    def run_pool():
        env = Environment()
        pool = Resource(env, 4)
        done = [0]

        def user():
            request = pool.request()
            yield request
            yield env.timeout(1.0)
            pool.release(request)
            done[0] += 1

        for _ in range(1000):
            env.process(user())
        env.run()
        return done[0]

    assert benchmark(run_pool) == 1000

