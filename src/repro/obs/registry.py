"""Labelled metric families with Prometheus-style and JSON exposition.

The observability registry is the single sink every layer reports into:
simulation counters and occupancies (exported after a run via
:mod:`repro.obs.adapters`), controller decision counters, cache telemetry,
and the profiling spans of :mod:`repro.obs.spans`.

Two exposition **tiers** keep the reproducibility contract intact:

* ``TIER_STABLE`` — metrics that are a pure function of the inputs (sim
  counters, controller decisions, frontier statistics).  These are what the
  default Prometheus/JSON exposition writes, so exported files are
  byte-identical across runs, worker counts and hosts.
* ``TIER_PROCESS`` — wall-clock and process-local telemetry (span timings,
  per-shard cache hit/miss, pids).  Excluded from the default exposition;
  opt in with ``include_process=True`` for benchmark artifacts and logs.

Exposition is deterministic by construction: families sort by name, children
by label values, and floats render via ``repr`` (shortest round-trip form).
"""

from __future__ import annotations

import math
import re
from typing import Dict, Sequence, Tuple

from repro.exceptions import ObservabilityError

__all__ = [
    "TIER_STABLE",
    "TIER_PROCESS",
    "DEFAULT_BUCKETS",
    "REQUEST_LATENCY_BUCKETS",
    "log_buckets",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "ObsRegistry",
    "default_registry",
    "set_default_registry",
]

TIER_STABLE = "stable"
TIER_PROCESS = "process"

#: Default histogram buckets (seconds): micro-benchmark to long-experiment.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


def log_buckets(
    lower: float,
    upper: float,
    mantissas: Sequence[float] = (1.0, 2.0, 5.0),
) -> tuple[float, ...]:
    """Fixed log-spaced histogram bucket upper bounds.

    Walks the ``mantissa * 10^k`` ladder from the first edge at or above
    ``lower`` up to ``upper`` (always the final edge), so the buckets are a
    pure function of the arguments — every process, run and worker count
    builds the same ladder, keeping expositions byte-comparable.
    """
    if lower <= 0.0:
        raise ObservabilityError(f"log_buckets lower must be > 0, got {lower}")
    if upper <= lower:
        raise ObservabilityError(
            f"log_buckets upper must exceed lower, got [{lower}, {upper}]"
        )
    if not mantissas or any(not 1.0 <= m < 10.0 for m in mantissas):
        raise ObservabilityError(
            f"log_buckets mantissas must lie in [1, 10), got {mantissas!r}"
        )
    edges: list[float] = []
    exponent = math.floor(math.log10(lower)) - 1
    while True:
        for mantissa in sorted(mantissas):
            edge = mantissa * 10.0 ** exponent
            if edge < lower:
                continue
            if edge >= upper:
                edges.append(upper)
                return tuple(edges)
            edges.append(edge)
        exponent += 1


#: The request-latency ladder (seconds): 100 microseconds to one minute on
#: the 1-2-5 decade ladder.  Shared by the live service histogram and the
#: SLO monitor so their quantile readouts agree by construction.
REQUEST_LATENCY_BUCKETS: tuple[float, ...] = log_buckets(1e-4, 60.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value: float) -> str:
    """Deterministic Prometheus float rendering."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Counter:
    """A monotonically increasing child metric."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ObservabilityError(f"counter increment must be >= 0, got {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        """Current cumulative value."""
        return self._value


class Gauge:
    """A child metric that can go up and down."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self._value += amount

    @property
    def value(self) -> float:
        """Current value."""
        return self._value


class Histogram:
    """A fixed-bucket histogram child (cumulative buckets at exposition)."""

    __slots__ = ("_buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float]) -> None:
        self._buckets = tuple(buckets)
        self._counts = [0] * len(self._buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._sum += value
        self._count += 1
        for index, upper in enumerate(self._buckets):
            if value <= upper:
                self._counts[index] += 1
                break

    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """Per-bucket cumulative counts ``[(upper_bound, count), ...]``."""
        out = []
        running = 0
        for upper, count in zip(self._buckets, self._counts):
            running += count
            out.append((upper, running))
        return out

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile readout from the bucket counts.

        Returns the upper bound of the bucket holding the rank-``ceil(q*N)``
        observation — the same nearest-rank definition as
        :meth:`repro.service.loadgen.LoadReport.latency_percentile`, so the
        two readouts agree exactly whenever observations land on bucket
        edges, and the histogram otherwise overestimates by at most one
        bucket width.  Observations beyond the top bucket read as ``+Inf``;
        an empty histogram reads 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self._count))
        running = 0
        for upper, count in zip(self._buckets, self._counts):
            running += count
            if running >= rank:
                return upper
        return math.inf


class MetricFamily:
    """One named metric with a fixed label schema and typed children.

    With an empty label schema the family behaves as its single child:
    ``family.inc()`` / ``family.set()`` / ``family.observe()`` delegate to
    ``family.labels()``.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Sequence[str],
        tier: str,
        buckets: Sequence[float] | None = None,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ObservabilityError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ObservabilityError(f"invalid label name {label!r} for {name!r}")
        if tier not in (TIER_STABLE, TIER_PROCESS):
            raise ObservabilityError(f"unknown tier {tier!r} for {name!r}")
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self.tier = tier
        self._buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, *values: object) -> object:
        """The child metric for one label-value tuple (created on first use).

        Children are keyed by their label values as a tuple of ``str``, so
        an existing child asked for with ``str`` values (or, label-less,
        with none) is one dict lookup.  Any other value, and a wrong arity,
        misses that lookup and is checked and converted with ``str`` here.
        """
        child = self._children.get(values)
        if child is not None:
            return child
        if len(values) != len(self.labelnames):
            raise ObservabilityError(
                f"{self.name}: expected {len(self.labelnames)} label values "
                f"({self.labelnames}), got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                child = Histogram(self._buckets or DEFAULT_BUCKETS)
            self._children[key] = child
        return child

    # Conveniences for label-less families.
    def inc(self, amount: float = 1.0) -> None:
        """Increment the label-less child."""
        self.labels().inc(amount)  # type: ignore[attr-defined]

    def set(self, value: float) -> None:
        """Set the label-less gauge child."""
        self.labels().set(value)  # type: ignore[attr-defined]

    def observe(self, value: float) -> None:
        """Observe into the label-less histogram child."""
        self.labels().observe(value)  # type: ignore[attr-defined]

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        """Children sorted by label values (deterministic exposition order)."""
        return sorted(self._children.items())

    def _label_suffix(self, key: Tuple[str, ...], extra: str = "") -> str:
        pairs = [
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.labelnames, key)
        ]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""


class ObsRegistry:
    """A named collection of metric families with deterministic exposition.

    ``catalog`` optionally arms runtime catalog enforcement: registering any
    ``repro_``-prefixed family whose name is not in the given frozenset
    raises :class:`~repro.exceptions.ObservabilityError`.  Long-lived
    deployments (``repro-vod serve``) arm it with
    :data:`repro.obs.catalog.METRIC_CATALOG` so a typo'd or undeclared
    metric name fails loudly at registration instead of silently forking a
    new time series — the runtime half of the static ``metric-schema`` lint.
    """

    def __init__(self, catalog: frozenset[str] | None = None) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._catalog = catalog

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Sequence[str],
        tier: str,
        buckets: Sequence[float] | None = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.labelnames != tuple(labelnames):
                raise ObservabilityError(
                    f"metric {name!r} re-registered with a different "
                    f"kind/label schema"
                )
            return family
        if (
            self._catalog is not None
            and name.startswith("repro_")
            and name not in self._catalog
        ):
            raise ObservabilityError(
                f"metric {name!r} is not declared in METRIC_CATALOG; "
                f"add it to repro.obs.catalog (and the pinned self-check) "
                f"before registering it at runtime"
            )
        family = MetricFamily(name, kind, help_text, labelnames, tier, buckets)
        self._families[name] = family
        return family

    def counter(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        tier: str = TIER_STABLE,
    ) -> MetricFamily:
        """Get-or-create a counter family."""
        return self._family(name, "counter", help_text, labelnames, tier)

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        tier: str = TIER_STABLE,
    ) -> MetricFamily:
        """Get-or-create a gauge family."""
        return self._family(name, "gauge", help_text, labelnames, tier)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        tier: str = TIER_PROCESS,
    ) -> MetricFamily:
        """Get-or-create a histogram family (process tier by default)."""
        return self._family(name, "histogram", help_text, labelnames, tier, buckets)

    def families(self, include_process: bool = False) -> list[MetricFamily]:
        """Registered families sorted by name, optionally with process tier."""
        return [
            family
            for name, family in sorted(self._families.items())
            if include_process or family.tier == TIER_STABLE
        ]

    # ------------------------------------------------------------------
    # Exposition.
    # ------------------------------------------------------------------
    def render_prometheus(self, include_process: bool = False) -> str:
        """Prometheus text exposition format (version 0.0.4).

        By default only ``TIER_STABLE`` families are written, so the output
        is reproducible across worker counts and hosts.
        """
        lines: list[str] = []
        for family in self.families(include_process):
            lines.append(f"# HELP {family.name} {family.help_text}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.children():
                if family.kind == "histogram":
                    assert isinstance(child, Histogram)
                    for upper, count in child.cumulative():
                        suffix = family._label_suffix(
                            key, f'le="{_format_value(upper)}"'
                        )
                        lines.append(f"{family.name}_bucket{suffix} {count}")
                    suffix = family._label_suffix(key, 'le="+Inf"')
                    lines.append(f"{family.name}_bucket{suffix} {child.count}")
                    plain = family._label_suffix(key)
                    lines.append(
                        f"{family.name}_sum{plain} {_format_value(child.sum)}"
                    )
                    lines.append(f"{family.name}_count{plain} {child.count}")
                else:
                    suffix = family._label_suffix(key)
                    value = child.value  # type: ignore[attr-defined]
                    lines.append(f"{family.name}{suffix} {_format_value(value)}")
        return "\n".join(lines) + "\n" if lines else ""

    def to_json(self, include_process: bool = True) -> dict:
        """JSON-serialisable snapshot of the registry (artifact export)."""
        out: dict = {}
        for family in self.families(include_process):
            entry: dict = {
                "kind": family.kind,
                "help": family.help_text,
                "tier": family.tier,
                "labels": list(family.labelnames),
                "series": [],
            }
            for key, child in family.children():
                if family.kind == "histogram":
                    assert isinstance(child, Histogram)
                    entry["series"].append(
                        {
                            "labels": list(key),
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": [
                                [upper, count] for upper, count in child.cumulative()
                            ],
                        }
                    )
                else:
                    entry["series"].append(
                        {"labels": list(key), "value": child.value}  # type: ignore[attr-defined]
                    )
            out[family.name] = entry
        return out


#: Process-wide default registry (span timings, executor telemetry).
_DEFAULT = ObsRegistry()


def default_registry() -> ObsRegistry:
    """The process-wide default registry."""
    return _DEFAULT


def set_default_registry(registry: ObsRegistry) -> ObsRegistry:
    """Swap the process-wide default registry; returns the previous one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry
    return previous
