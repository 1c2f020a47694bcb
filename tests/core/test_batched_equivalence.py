"""Batched-vs-scalar equivalence: production must equal the oracle bit for bit.

The batched numpy kernels are the only production path for model
evaluation (``HitProbabilityModel``, ``hit_probability_batch``, the
``FeasibleSet`` frontier).  The scalar functions —
:func:`repro.core.hitsets.hit_probability` and each distribution's ``cdf`` —
are the readable form of the paper's equations and the oracle they must
reproduce *byte for byte*, not approximately.  The design restricts
vectorisation to exactly-rounded IEEE-754 operations (+, -, *, /,
comparisons) and routes every transcendental through the same ``math.*``
calls the scalar code makes, so any difference at all is a bug.
Accordingly every assertion here is ``==`` on floats, never ``approx``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hitmodel import HitBreakdown, HitProbabilityModel, VCRMix
from repro.core.hitsets import (
    DEFAULT_GRID_POINTS,
    CdfTransform,
    end_probability,
    hit_probability,
    hit_probability_batch,
)
from repro.core.vcrop import VCROperation
from repro.distributions import special
from repro.distributions import (
    DeterministicDuration,
    EmpiricalDuration,
    ExponentialDuration,
    GammaDuration,
    LognormalDuration,
    MixtureDuration,
    ScaledDuration,
    UniformDuration,
    WeibullDuration,
    truncate,
)
from repro.sizing.feasible import FeasiblePoint, FeasibleSet, MovieSizingSpec
from repro.workloads.fitting import ks_distance


def _model(length, dist, mix=None):
    return HitProbabilityModel(length, dist, mix=mix)


def _grid(model, length, count=7):
    """A small (n, B) grid along and around the ``B = l − n·w`` line."""
    configs = []
    for i in range(1, count + 1):
        n = 1 + 3 * i
        for fraction in (0.0, 0.35, 1.0):
            configs.append(model.configuration(n, length * fraction))
    return configs


#: Number types model inputs arrive as: Python floats, or numpy ``float64``
#: scalars as they come out of a numpy grid.  Both must reach the oracle's
#: bits, which are always computed from Python floats.
_NUMBER_TYPES = {"stdlib": float, "numpy": np.float64}
_number_type = pytest.mark.parametrize(
    "number", list(_NUMBER_TYPES.values()), ids=list(_NUMBER_TYPES)
)


def _distribution(kind, a, b):
    if kind == "exp":
        return ExponentialDuration(a)
    return GammaDuration(shape=a, scale=b)


class _Oracle:
    """The scalar Eq.-(21) kernels on one model's truncated durations.

    Each operation's :class:`CdfTransform` is built once, as the model does,
    so the oracle loop stays affordable.
    """

    def __init__(self, model):
        self._model = model
        self._transforms = {
            op: CdfTransform(model.duration_of(op), model.movie_length)
            for op in VCROperation
        }

    def hit(self, op, config):
        return hit_probability(
            op,
            config,
            self._model.duration_of(op),
            transform=self._transforms[op],
        )

    def breakdown(self, config):
        ff = VCROperation.FAST_FORWARD
        return HitBreakdown(
            p_hit_ff=self.hit(ff, config),
            p_hit_rw=self.hit(VCROperation.REWIND, config),
            p_hit_pause=self.hit(VCROperation.PAUSE, config),
            p_end_ff=end_probability(config, self._model.duration_of(ff)),
            mix=self._model.mix,
        )


class TestBackendsAgreeBitwise:
    """The production batched path against the scalar oracle, directly."""

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.floats(30.0, 300.0),
        n=st.integers(1, 60),
        fraction=st.floats(0.0, 1.0),
        kind=st.sampled_from(["exp", "gamma"]),
        a=st.floats(0.5, 40.0),
        b=st.floats(0.5, 20.0),
    )
    def test_hit_probability_equals_oracle(self, length, n, fraction, kind, a, b):
        model = _model(length, _distribution(kind, a, b))
        config = model.configuration(n, length * fraction)
        oracle = _Oracle(model).breakdown(config)
        assert model.breakdown(config) == oracle
        assert model.hit_probability(config) == oracle.p_hit
        for op in VCROperation:
            assert model.hit_probability_for(op, config) == oracle.probability_of(op)

    @pytest.mark.parametrize("kind,a,b", [("exp", 10.0, 0.0), ("gamma", 2.0, 5.0)])
    def test_batch_equals_loop_of_scalars(self, kind, a, b):
        length = 120.0
        model = _model(length, _distribution(kind, a, b))
        configs = _grid(model, length)
        scalar = _Oracle(model)
        oracle = [scalar.breakdown(c).p_hit for c in configs]
        assert model.hit_probability_batch(configs) == oracle
        assert [model.hit_probability(c) for c in configs] == oracle
        # The Figure-7 sweep: n along the Eq.-(2) line B = l − n·w, w = 2.
        line = [model.configuration(n, length - 2.0 * n) for n in range(1, 61, 4)]
        assert model.hit_probability_batch(line) == [
            scalar.breakdown(c).p_hit for c in line
        ]

    def test_per_operation_batch_matches_scalar(self):
        length = 120.0
        model = _model(length, GammaDuration.paper_figure7())
        configs = _grid(model, length)
        scalar = _Oracle(model)
        for op in VCROperation:
            oracle = [scalar.hit(op, c) for c in configs]
            assert model.hit_probability_for_batch(op, configs) == oracle
            assert hit_probability_batch(op, configs, model.duration_of(op)) == oracle

    @pytest.mark.parametrize(
        "n,fraction",
        [
            (1, 0.5),       # single partition: spacing = l
            (1, 1.0),       # n_max == 1 with a full buffer
            (5, 0.0),       # B = 0: pure batching, span = 0
            (60, 1.0),      # dense partitions, maximal span
            (3, 1e-9),      # vanishing buffer: near-empty hit sets
        ],
    )
    def test_degenerate_configurations(self, n, fraction):
        length = 120.0
        model = _model(length, ExponentialDuration(10.0))
        config = model.configuration(n, length * fraction)
        oracle = _Oracle(model).breakdown(config)
        assert model.breakdown(config) == oracle
        assert model.breakdown_batch([config]) == [oracle]
        for op in VCROperation:
            assert hit_probability_batch(op, [config], model.duration_of(op)) == [
                oracle.probability_of(op)
            ]

    @_number_type
    def test_single_operation_mixes(self, number):
        length = 90.0
        dist = GammaDuration(shape=1.5, scale=8.0)
        typed_dist = GammaDuration(shape=number(1.5), scale=number(8.0))
        for op in VCROperation:
            model = _model(number(length), typed_dist, mix=VCRMix.only(op))
            configs = _grid(model, number(length), count=4)
            oracle_model = _model(length, dist, mix=VCRMix.only(op))
            scalar = _Oracle(oracle_model)
            oracle = [scalar.hit(op, c) for c in _grid(oracle_model, length, count=4)]
            assert model.hit_probability_batch(configs) == oracle


class TestSizingLayerAgrees:
    def _spec(self, max_wait=2.0, number=float):
        return MovieSizingSpec(
            name="movie",
            length=number(120.0),
            max_wait=number(max_wait),
            durations=GammaDuration.paper_figure7(),
            p_star=0.5,
        )

    def _oracle_set(self, spec):
        """A set warm-started with every point from the scalar oracle.

        It never builds a model, so its frontier search runs on oracle
        values only.
        """
        model = spec.build_model()
        scalar = _Oracle(model)
        points = []
        for n in range(1, FeasibleSet(spec).max_possible_streams + 1):
            buffer_minutes = max(0.0, spec.length - n * spec.max_wait)
            config = model.configuration(n, buffer_minutes)
            points.append(FeasiblePoint(n, buffer_minutes, scalar.breakdown(config).p_hit))
        return FeasibleSet(spec, points=points)

    @_number_type
    def test_feasible_set_frontier(self, number):
        oracle = self._oracle_set(self._spec())
        fs = FeasibleSet(self._spec(number=number))
        assert fs.max_streams() == oracle.max_streams()
        ns = range(1, 40, 3)
        assert fs.curve(ns) == oracle.curve(ns)
        # Figure 8's view: one stream count per 5 minutes of buffer.
        steps = [round((120.0 - b) / 2.0) for b in range(5, 120, 5)]
        assert fs.curve(steps) == oracle.curve(steps)

    @_number_type
    def test_n_max_one_frontier(self, number):
        # A wait target so lax that a single stream already meets p*.
        fs = FeasibleSet(self._spec(max_wait=100.0, number=number))
        assert fs.max_streams() == self._oracle_set(self._spec(max_wait=100.0)).max_streams()

    def test_points_batch_equals_pointwise(self):
        ns = [1, 4, 9, 16, 25]
        batch_set = FeasibleSet(self._spec())
        point_set = FeasibleSet(self._spec())
        batched = batch_set.points_batch(ns)
        pointwise = [point_set.point(n) for n in ns]
        assert batched == pointwise


#: Truncation limit of the truncated families below.
_LIMIT = 120.0
#: Inputs every family must get right: zero, negatives, the truncation
#: limit and its neighbours, subnormals and the smallest normal.
_EDGE_XS = [
    0.0,
    -0.0,
    -1.0,
    -1e-300,
    5e-324,
    1e-310,
    2.2250738585072014e-308,
    _LIMIT,
    math.nextafter(_LIMIT, 0.0),
    math.nextafter(_LIMIT, math.inf),
]

_FAMILIES = {
    "exponential": lambda a, b: ExponentialDuration(a),
    "gamma": lambda a, b: GammaDuration(shape=a, scale=b),
    "lognormal": lambda a, b: LognormalDuration(math.log(a), b / 20.0),
    "weibull": lambda a, b: WeibullDuration(shape=b / 4.0, scale=a),
    "uniform": lambda a, b: UniformDuration(0.0, a + b),
    "deterministic": lambda a, b: DeterministicDuration(a),
    "empirical": lambda a, b: EmpiricalDuration([a, b, a + b, 2.0 * a]),
    "mixture": lambda a, b: MixtureDuration(
        [ExponentialDuration(a), GammaDuration(shape=2.0, scale=b)], [0.3, 0.7]
    ),
    "scaled": lambda a, b: ScaledDuration(GammaDuration(shape=2.0, scale=b), a / 10.0),
    "truncated-exponential": lambda a, b: truncate(ExponentialDuration(a * 10.0), _LIMIT),
    "truncated-gamma": lambda a, b: truncate(GammaDuration(shape=a, scale=b * 10.0), _LIMIT),
}


class TestDistributionBatchKernels:
    @pytest.mark.parametrize(
        "dist",
        [
            ExponentialDuration(10.0),
            GammaDuration(shape=2.0, scale=5.0),
            GammaDuration(shape=8.5, scale=1.5),
        ],
        ids=lambda d: d.describe(),
    )
    def test_cdf_batch_list_and_ndarray_match_scalar(self, dist):
        xs = [-1.0, 0.0, 1e-12, 0.5, 3.7, 12.0, 55.0, 119.0, 200.0]
        scalar = [dist.cdf(x) for x in xs]
        for batch_in in (xs, np.asarray(xs, dtype=float)):
            out = dist.cdf_batch(batch_in)
            assert isinstance(out, np.ndarray)
            assert out.tolist() == scalar

    def test_truncated_cdf_batch_paths_match(self):
        dist = truncate(ExponentialDuration(30.0), 120.0)
        xs = [-5.0, 0.0, 1.0, 60.0, 119.9999, 120.0, 500.0]
        scalar = [dist.cdf(x) for x in xs]
        assert dist.cdf_batch(xs).tolist() == scalar
        assert dist.cdf_batch(np.asarray(xs, dtype=float)).tolist() == scalar

    @settings(max_examples=40, deadline=None)
    @given(
        xs=st.lists(st.floats(-10.0, 400.0), min_size=1, max_size=30),
        mean=st.floats(0.5, 60.0),
    )
    def test_exponential_cdf_batch_property(self, xs, mean):
        dist = ExponentialDuration(mean)
        scalar = [dist.cdf(x) for x in xs]
        assert dist.cdf_batch(xs).tolist() == scalar
        assert dist.cdf_batch(np.asarray(xs, dtype=float)).tolist() == scalar

    @settings(max_examples=200, deadline=None)
    @given(
        family=st.sampled_from(sorted(_FAMILIES)),
        a=st.floats(0.5, 40.0),
        b=st.floats(0.5, 20.0),
        xs=st.lists(
            st.one_of(
                st.sampled_from(_EDGE_XS),
                st.floats(-10.0, 400.0),
                st.floats(0.0, 1e-300, allow_subnormal=True),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_every_family_cdf_batch_matches_scalar(self, family, a, b, xs):
        dist = _FAMILIES[family](a, b)
        values = dist.cdf_batch(np.asarray(xs, dtype=float))
        assert isinstance(values, np.ndarray)
        for k, x in enumerate(xs):
            assert values[k] == dist.cdf(x), (family, x)

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_every_family_edge_inputs(self, family):
        dist = _FAMILIES[family](7.5, 4.0)
        values = dist.cdf_batch(np.asarray(_EDGE_XS))
        assert values.tolist() == [dist.cdf(x) for x in _EDGE_XS]


class TestInterpolationKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        queries=st.lists(st.floats(-20.0, 140.0), min_size=1, max_size=30),
        kind=st.sampled_from(["exp", "gamma"]),
        a=st.floats(0.5, 40.0),
        b=st.floats(0.5, 20.0),
    )
    def test_transform_many_matches_scalar(self, queries, kind, a, b):
        transform = CdfTransform(truncate(_distribution(kind, a, b), 120.0), 120.0)
        cs = np.asarray(queries, dtype=float)
        assert transform.F_many(cs).tolist() == [transform.F(c) for c in queries]
        assert transform.H_many(cs).tolist() == [transform.H(c) for c in queries]
        # H_many carries G: inside (0, l) it is the scalar G(c) + (l − c)·F(c).
        inside = [c for c in queries if 0.0 < c < 120.0]
        assert transform.H_many(np.asarray(inside, dtype=float)).tolist() == [
            transform.G(c) + (120.0 - c) * transform.F(c) for c in inside
        ]


def _same_bits(a, b) -> bool:
    """Bitwise equality of two float arrays (tells -0.0 from 0.0; NaN-safe)."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _scalar_grid_transform(duration, length):
    """A transform whose grid is built the pre-batching way: one scalar
    ``cdf`` call per grid point, then the same trapezoid cumsum."""
    reference = CdfTransform(duration, length)
    xs = np.linspace(0.0, float(length), DEFAULT_GRID_POINTS)
    fs = np.asarray([duration.cdf(float(x)) for x in xs])
    gs = np.concatenate(([0.0], np.cumsum(0.5 * (fs[1:] + fs[:-1]) * np.diff(xs))))
    reference._fs = fs
    reference._gs = gs
    reference._g_slopes = np.diff(gs) / np.diff(xs)
    reference._g_total = float(gs[-1])
    return reference


class TestCdfBatchGrid:
    """``CdfTransform`` builds its grid with ``cdf_batch``; the old scalar
    grid is the reference it must reproduce bit for bit."""

    @pytest.mark.parametrize("params", [(7.5, 4.0), (31.0, 17.5)], ids=str)
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_transform_matches_scalar_grid(self, family, params):
        duration = truncate(_FAMILIES[family](*params), _LIMIT)
        transform = CdfTransform(duration, _LIMIT)
        reference = _scalar_grid_transform(duration, _LIMIT)
        grid = np.linspace(0.0, _LIMIT, DEFAULT_GRID_POINTS)
        rng = np.random.default_rng(1997)
        cs = np.concatenate(
            (
                grid,
                0.5 * (grid[1:] + grid[:-1]),
                rng.uniform(-5.0, _LIMIT + 5.0, 200),
                np.asarray(_EDGE_XS),
            )
        )
        assert _same_bits(transform._fs, reference._fs)
        assert _same_bits(transform.F_many(cs), reference.F_many(cs))
        assert _same_bits(transform.H_many(cs), reference.H_many(cs))
        assert [transform.G(c) for c in cs] == [reference.G(c) for c in cs]
        assert transform.F(_LIMIT) == reference.F(_LIMIT)
        assert transform.end_mass() == reference.end_mass()


def _gamma_empirical(extra=()):
    samples = np.random.default_rng(42).gamma(2.0, 6.0, size=300)
    return EmpiricalDuration(np.concatenate((samples, np.asarray(extra, dtype=float))))


class TestEmpiricalCdfBatch:
    """One ``np.interp`` over the batch equals the scalar ``cdf`` per point,
    on both of numpy's interp branches (with and without its slope table)."""

    @pytest.mark.parametrize(
        "extra", [(), (0.0, 5e-324, 1e-310)], ids=["gamma", "gamma+subnormal-knots"]
    )
    def test_matches_scalar_at_knots_edges_and_nan(self, extra):
        dist = _gamma_empirical(extra)
        knots = dist._knots
        assert knots.size >= 200
        rng = np.random.default_rng(5)
        special = np.asarray(
            [
                knots[0] - 1.0,
                0.5 * knots[0],
                math.nextafter(knots[0], -math.inf),
                math.nextafter(knots[-1], math.inf),
                knots[-1] + 1.0,
                0.0,
                -0.0,
                5e-324,
                1e-310,
                2.2250738585072014e-308,
                math.nan,
                -math.inf,
                math.inf,
            ]
        )
        inside = rng.uniform(knots[0], knots[-1], 40)
        long_batch = np.concatenate((knots, special, inside, 0.5 * (knots[1:] + knots[:-1])))
        short_batch = np.concatenate((special, inside[:5], knots[:3], knots[-3:]))
        assert long_batch.size > knots.size > short_batch.size
        for batch in (long_batch, short_batch):
            expected = [dist.cdf(float(x)) for x in batch]
            assert _same_bits(dist.cdf_batch(batch), expected)
            assert _same_bits(dist.cdf_batch(batch.tolist()), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        queries=st.lists(
            st.one_of(
                st.floats(-5.0, 80.0),
                st.sampled_from(_EDGE_XS),
                st.floats(0.0, 1e-300, allow_subnormal=True),
            ),
            min_size=1,
            max_size=400,
        ),
    )
    def test_random_knot_sets(self, seed, queries):
        rng = np.random.default_rng(seed)
        dist = EmpiricalDuration(rng.gamma(2.0, 6.0, size=int(rng.integers(2, 300))))
        xs = np.asarray(queries + dist._knots.tolist(), dtype=float)
        for batch in (xs, xs[: len(queries)]):
            assert _same_bits(dist.cdf_batch(batch), [dist.cdf(float(x)) for x in batch])


def _ks_scalar(samples, dist):
    """The pre-batching ``ks_distance``: one scalar ``cdf`` call per sample."""
    data = np.sort(np.asarray(samples, dtype=float))
    n = data.size
    cdf_values = np.asarray([dist.cdf(float(x)) for x in data])
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(upper - cdf_values), np.abs(cdf_values - lower))))


class TestKsDistanceBatch:
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_matches_scalar_loop(self, family):
        dist = _FAMILIES[family](7.5, 4.0)
        rng = np.random.default_rng(11)
        samples = np.concatenate(
            (np.atleast_1d(dist.sample(rng, 120)), [0.0, 7.5, 2.0 * _LIMIT])
        )
        assert ks_distance(samples, dist) == _ks_scalar(samples, dist)
        empirical = EmpiricalDuration(samples)
        assert ks_distance(samples, empirical) == _ks_scalar(samples, empirical)


class TestSharedTransforms:
    """One truncation and one transform per distinct distribution object."""

    @staticmethod
    def _count_transforms(monkeypatch):
        built = []
        original = CdfTransform.__init__

        def spy(self, duration, *args, **kwargs):
            built.append(duration)
            original(self, duration, *args, **kwargs)

        monkeypatch.setattr(CdfTransform, "__init__", spy)
        return built

    def test_one_distribution_builds_one_transform(self, monkeypatch):
        built = self._count_transforms(monkeypatch)
        model = HitProbabilityModel(120.0, ExponentialDuration(20.0))
        assert len(built) == 1
        assert all(model.duration_of(op) is built[0] for op in VCROperation)

    def test_shared_object_in_a_mapping_is_matched_by_identity(self, monkeypatch):
        built = self._count_transforms(monkeypatch)
        seek = GammaDuration(shape=2.0, scale=8.0)
        HitProbabilityModel(
            120.0,
            {
                VCROperation.FAST_FORWARD: seek,
                VCROperation.REWIND: seek,
                VCROperation.PAUSE: ExponentialDuration(10.0),
            },
        )
        assert len(built) == 2

    @pytest.mark.parametrize("kind", ["exp", "gamma"])
    def test_equal_instances_keep_their_own_transforms(self, monkeypatch, kind):
        built = self._count_transforms(monkeypatch)
        shared = _model(120.0, _distribution(kind, 20.0, 6.0))
        assert len(built) == 1
        distinct = _model(
            120.0, {op: _distribution(kind, 20.0, 6.0) for op in VCROperation}
        )
        assert len(built) == 4
        configs = _grid(shared, 120.0)
        assert shared.breakdown_batch(configs) == distinct.breakdown_batch(configs)


def _abs_gamma_series(a, x):
    """The series as written before its convergence test dropped ``abs()``."""
    ap = a
    total = 1.0 / a
    term = total
    for _ in range(special._MAX_ITERATIONS):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * special._EPS:
            return total * math.exp(-x + a * math.log(x) - special.log_gamma(a))
    raise AssertionError("reference series failed to converge")


def _abs_regularized_lower_gamma(a, x):
    if x <= 0.0:
        return 0.0
    if x < a + 1.0:
        return min(1.0, _abs_gamma_series(a, x))
    return min(1.0, max(0.0, 1.0 - special._gamma_continued_fraction(a, x)))


#: Shapes of the gamma family above (``a`` in [0.5, 40]) plus Figure 7's 2.
_GAMMA_SHAPES = [0.5, 1.0, 2.0, 7.5, 31.0, 40.0]


def _gamma_arguments(a):
    """The suite's gamma grid for one shape: every CDF grid point and edge
    input scaled as ``GammaDuration`` scales them, subnormals, and the
    series/continued-fraction switch at ``a + 1``."""
    xs = [x for x in _EDGE_XS if x > 0.0]
    for scale in (0.5, 4.0, 17.5, 20.0):
        xs.extend((np.linspace(0.0, _LIMIT, DEFAULT_GRID_POINTS) / scale).tolist())
        xs.extend(x / scale for x in _EDGE_XS)
    edge = a + 1.0
    xs.extend(
        (
            math.nextafter(edge, 0.0),
            math.nextafter(math.nextafter(edge, 0.0), 0.0),
            edge * (1.0 - 1e-12),
            edge,
            math.nextafter(edge, math.inf),
            math.ulp(0.0),
            1e-310,
            math.nextafter(2.2250738585072014e-308, 0.0),
        )
    )
    return xs


class TestGammaSeriesWithoutAbs:
    """The scalar series' convergence test compares ``term < total * eps``
    without ``abs()``; over the positive arguments it is called with, that
    must be the old ``abs()`` form bit for bit."""

    @pytest.mark.parametrize("a", _GAMMA_SHAPES)
    def test_matches_abs_reference_on_the_grid(self, a):
        for x in _gamma_arguments(a):
            assert _same_bits(
                special.regularized_lower_gamma(a, x), _abs_regularized_lower_gamma(a, x)
            ), (a, x)

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(0.05, 60.0),
        x=st.one_of(
            st.floats(0.0, 80.0),
            st.floats(0.0, 1e-300, allow_subnormal=True),
        ),
    )
    def test_matches_abs_reference_property(self, a, x):
        assert _same_bits(
            special.regularized_lower_gamma(a, x), _abs_regularized_lower_gamma(a, x)
        )
