"""Root finding: correctness, bracketing contracts, convergence."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import NumericsError
from repro.numerics.rootfind import bisect, brent, find_bracket

SOLVERS = [pytest.param(bisect, id="bisect"), pytest.param(brent, id="brent")]


@pytest.mark.parametrize("solver", SOLVERS)
class TestSolvers:
    def test_linear(self, solver):
        assert solver(lambda x: 2 * x - 3, 0.0, 5.0) == pytest.approx(1.5, abs=1e-7)

    def test_transcendental(self, solver):
        root = solver(lambda x: math.cos(x) - x, 0.0, 1.0)
        assert root == pytest.approx(0.7390851332, abs=1e-6)

    def test_root_at_lower_endpoint(self, solver):
        assert solver(lambda x: x, 0.0, 1.0) == 0.0

    def test_root_at_upper_endpoint(self, solver):
        assert solver(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_rejects_no_sign_change(self, solver):
        with pytest.raises(NumericsError):
            solver(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_decreasing_function(self, solver):
        assert solver(lambda x: 1.0 - x, 0.0, 5.0) == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-170, 1e-200, 1e-300])
def test_tiny_values_keep_their_signs(solver, scale):
    # f(lo) * f(hi) underflows to 0 at these scales; a product sign test
    # then mistakes a same-sign pair for a bracket and walks off the root.
    def f(x):
        return math.copysign(abs(x - 0.3) ** 0.5, x - 0.3) * scale

    assert solver(f, 0.0, 1.0, tol=1e-12) == pytest.approx(0.3, abs=1e-9)


@pytest.mark.parametrize("solver", SOLVERS)
def test_tiny_same_sign_endpoints_are_rejected(solver):
    with pytest.raises(NumericsError):
        solver(lambda x: (x + 1.0) * 1e-200, 0.0, 1.0)


def test_find_bracket_keeps_tiny_signs():
    assert find_bracket(lambda x: (x + 1.0) * 1e-200, 0.0, 1.0, num_probes=5) is None


def test_brent_converges_faster_than_bisection_tolerance():
    calls = {"bisect": 0, "brent": 0}

    def counted(name):
        def f(x):
            calls[name] += 1
            return math.exp(x) - 2.0

        return f

    bisect(counted("bisect"), 0.0, 2.0, tol=1e-12)
    brent(counted("brent"), 0.0, 2.0, tol=1e-12)
    assert calls["brent"] < calls["bisect"]


class TestFindBracket:
    def test_finds_simple_bracket(self):
        bracket = find_bracket(lambda x: x - 0.37, 0.0, 1.0, num_probes=11)
        assert bracket is not None
        lo, hi = bracket
        assert lo <= 0.37 <= hi

    def test_none_when_no_crossing(self):
        assert find_bracket(lambda x: x * x + 1.0, -1.0, 1.0) is None

    def test_skips_non_finite_probes(self):
        def f(x):
            if abs(x - 0.5) < 0.01:
                return math.nan
            return x - 0.7

        bracket = find_bracket(f, 0.0, 1.0, num_probes=101)
        assert bracket is not None
        lo, hi = bracket
        assert lo <= 0.7 <= hi

    def test_rejects_single_probe(self):
        with pytest.raises(NumericsError):
            find_bracket(lambda x: x, 0.0, 1.0, num_probes=1)


@settings(max_examples=60, deadline=None)
@given(
    root=st.floats(-50, 50),
    slope=st.floats(0.1, 10),
    halfwidth=st.floats(0.5, 100),
)
@example(root=5e-324, slope=1.0, halfwidth=1.0)
def test_solvers_recover_planted_root(root, slope, halfwidth):
    lo, hi = root - halfwidth, root + halfwidth
    f = lambda x: slope * (x - root)
    assert bisect(f, lo, hi, tol=1e-10) == pytest.approx(root, abs=1e-6)
    assert brent(f, lo, hi) == pytest.approx(root, abs=1e-6)
