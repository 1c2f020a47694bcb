"""SystemSizer pipeline."""

from __future__ import annotations

import pytest

from repro.distributions import ExponentialDuration
from repro.exceptions import ConfigurationError
from repro.sizing.cost import CostModel
from repro.sizing.feasible import MovieSizingSpec
from repro.sizing.planner import SystemSizer


@pytest.fixture(scope="module")
def sizer():
    specs = [
        MovieSizingSpec("a", 60.0, 2.0, ExponentialDuration(5.0), p_star=0.5),
        MovieSizingSpec("b", 90.0, 1.5, ExponentialDuration(3.0), p_star=0.5),
    ]
    return SystemSizer(specs, cost_model=CostModel.from_phi(11.0))


class TestSolve:
    def test_report_consistency(self, sizer):
        report = sizer.solve()
        assert report.total_cost == pytest.approx(
            sizer.cost_model.allocation_cost(report.result)
        )
        assert report.pure_batching_cost == pytest.approx(
            70.0 * report.result.pure_batching_streams
        )
        assert report.cost_saving == report.pure_batching_cost - report.total_cost

    def test_budget_passthrough(self, sizer):
        free = sizer.solve()
        tight = sizer.solve(stream_budget=free.result.total_streams - 2)
        assert tight.result.total_streams <= free.result.total_streams - 2

    def test_summary_lines(self, sizer):
        lines = sizer.solve().summary_lines()
        text = "\n".join(lines)
        assert "movie" in text and "TOTAL" in text
        assert "streams saved" in text
        assert "phi=11.00" in text

    def test_allocation_for_server(self, sizer):
        allocation = sizer.allocation_for_server({"a": 0, "b": 1})
        assert set(allocation) == {0, 1}
        assert allocation[1].movie_length == 90.0
        for config in allocation.values():
            assert config.buffer_minutes >= 0.0


class TestValidation:
    def test_empty_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemSizer([])

    def test_duplicate_names_rejected(self):
        spec = MovieSizingSpec("a", 60.0, 2.0, ExponentialDuration(5.0))
        with pytest.raises(ConfigurationError):
            SystemSizer([spec, spec])

    def test_default_cost_model_is_paper(self):
        spec = MovieSizingSpec("a", 60.0, 2.0, ExponentialDuration(5.0))
        sizer = SystemSizer([spec])
        assert sizer.cost_model.cost_per_stream == pytest.approx(70.0)


class TestParallelPrewarm:
    def _specs(self):
        return [
            MovieSizingSpec("a", 60.0, 2.0, ExponentialDuration(5.0), p_star=0.5),
            MovieSizingSpec("b", 90.0, 1.5, ExponentialDuration(3.0), p_star=0.5),
        ]

    def test_parallel_solve_matches_serial(self):
        from repro.parallel.executor import fork_available

        serial = SystemSizer(self._specs(), workers=1).solve()
        workers = 2 if fork_available() else 1
        sizer = SystemSizer(self._specs(), workers=workers)
        parallel = sizer.solve()
        assert parallel.summary_lines() == serial.summary_lines()
        if workers > 1:
            outcome = sizer.last_parallel_outcome
            assert outcome is not None and outcome.tasks == 2

    def test_serial_sizer_reports_no_outcome(self):
        sizer = SystemSizer(self._specs(), workers=1)
        sizer.solve()
        assert sizer.last_parallel_outcome is None
