"""Serial vs parallel: byte-identical experiment output for any worker count."""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.core.hitmodel import VCRMix
from repro.core.hitsets import hit_probability
from repro.core.parameters import SystemConfiguration, VCRRates
from repro.core.vcrop import VCROperation
from repro.distributions import ExponentialDuration
from repro.experiments.figure7 import resume_counts, simulate_one_title
from repro.experiments.figure8 import figure8_tasks, run_figure8
from repro.experiments.figure9 import run_figure9
from repro.experiments.registry import run_experiment
from repro.parallel.executor import ParallelExecutor, fork_available
from repro.vod.server import ServerWorkload
from repro.vod.vcr import VCRBehavior

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)


class TestFigure8Determinism:
    def test_csv_byte_identical_across_worker_counts(self):
        serial = run_figure8(fast=True, workers=1)
        parallel = run_figure8(fast=True, workers=4)
        assert len(serial.tables) == len(parallel.tables) == 3
        for a, b in zip(serial.tables, parallel.tables):
            assert a.to_csv() == b.to_csv()
        assert serial.render() == parallel.render()
        assert serial.notes == parallel.notes

    def test_parallel_outcome_attached(self):
        result = run_figure8(fast=True, workers=2)
        assert result.parallel_outcome is not None
        assert result.parallel_outcome.tasks == 3
        assert result.parallel_outcome.workers == 2


class TestFigure9Determinism:
    def test_render_byte_identical_across_worker_counts(self):
        serial = run_figure9(fast=True, workers=1)
        parallel = run_figure9(fast=True, workers=4)
        assert serial.render() == parallel.render()
        for a, b in zip(serial.tables, parallel.tables):
            assert a.to_csv() == b.to_csv()
        # Two phases: per-movie maxima, then the budget allocation points.
        assert parallel.parallel_outcome.tasks == 6


@pytest.fixture(scope="module")
def scalar_figure8_csvs() -> list[str]:
    """The ``run figure8 --fast`` tables, computed with the scalar oracle.

    Every P(hit) comes straight from :func:`repro.core.hitsets.hit_probability`
    and is mixed by Eq. (22); rows and formatting follow the CLI's CSV.
    """
    csvs = []
    for task in figure8_tasks(fast=True):
        spec = task.spec
        model = spec.build_model()
        lines = ["B_minutes,n,P(hit),feasible"]
        for n in task.stream_counts:
            buffer_minutes = max(0.0, spec.length - n * spec.max_wait)
            config = model.configuration(n, buffer_minutes)
            p_hit = 0.0
            for op in VCROperation:
                p_hit += spec.mix.probability_of(op) * hit_probability(
                    op, config, model.duration_of(op)
                )
            feasible = "yes" if p_hit >= spec.p_star - 1e-12 else "no"
            lines.append(f"{buffer_minutes:.4f},{n},{p_hit:.4f},{feasible}")
        csvs.append("\n".join(lines) + "\n")
    return csvs


class TestFigure8ScalarOracle:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cli_csv_equals_scalar_grid(self, tmp_path, workers, scalar_figure8_csvs):
        out = tmp_path / f"workers-{workers}"
        assert cli_main(
            ["run", "figure8", "--fast", "--workers", str(workers), "--csv", str(out)]
        ) == 0
        written = [
            (out / f"figure8_{index}.csv").read_text() for index in range(3)
        ]
        assert written == scalar_figure8_csvs


def _simulate(replication: int) -> tuple[int, int, int]:
    """One seeded simulated-server replication (module level: it is pickled)."""
    config = SystemConfiguration(
        movie_length=60.0,
        num_partitions=6,
        buffer_minutes=30.0,
        rates=VCRRates.paper_default(),
    )
    server = simulate_one_title(
        config,
        VCRBehavior.uniform_duration_model(
            ExponentialDuration(5.0), VCRMix.paper_figure7d()
        ),
        ServerWorkload(
            arrival_rate=0.5, horizon=120.0, warmup=20.0, seed=424242 + replication
        ),
    )
    hits, trials = resume_counts(server.metrics)
    return (hits, trials, server.metrics.counter_value("viewers.started"))


class TestSimulatorReplications:
    def test_worker_count_invariant(self):
        serial = ParallelExecutor(workers=1).map(_simulate, range(4))
        parallel = ParallelExecutor(workers=4).map(_simulate, range(4))
        assert parallel.workers == 4
        assert serial.results == parallel.results
        # Independent seed-tree branches: the replications are not all alike.
        assert len(set(serial.results)) > 1


class TestRegistryKnob:
    def test_workers_forwarded_to_parallel_runners(self):
        result = run_experiment("figure8", fast=True, workers=2)
        assert result.parallel_outcome.workers == 2

    def test_runners_without_workers_still_run(self):
        # figure7 has no workers parameter; the knob must be ignored.
        result = run_experiment("figure7d", fast=True, workers=2)
        assert result.tables
