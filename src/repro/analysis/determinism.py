"""Determinism lints: wall clock, unseeded RNG, set-ordering iteration.

The reproducibility contract (PR 2–4) demands that traces and metrics be a
pure function of the inputs: byte-identical for any worker count, host or
run.  Three classes of code break that silently:

* **Wall-clock reads** (``time.time``, ``datetime.now``, …) leak host time
  into values that may reach a trace or a stable-tier metric;
* **Unseeded RNG construction** (``default_rng()`` with no seed, the global
  ``random``/``numpy.random`` state) decouples results from the seed
  lineage of :mod:`repro.sim.rng`;
* **Iteration over sets** orders elements by hash — for strings that order
  changes with ``PYTHONHASHSEED``, so any loop that feeds a trace, a metric
  or a task list from a set is run-to-run nondeterministic.

Wall-clock and set-order checks apply to the *determinism scope*: everything
under ``repro.sim``, ``repro.parallel``, ``repro.obs``, plus any module that
emits trace events (``.emit(...)`` call sites).  Unseeded-RNG construction is
never acceptable in this library, so that check covers every module.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.astutil import ImportMap, resolve_call_name
from repro.analysis.base import Finding, LintContext, ModuleInfo, register_rule

__all__ = [
    "WallClockRule",
    "UnseededRngRule",
    "SetOrderRule",
    "in_determinism_scope",
]

#: Dotted call targets that read the wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Package prefixes always inside the determinism scope.  The numerics and
#: distribution kernels are included because the batched model path promises
#: byte-identical replay of the scalar oracle — any hidden entropy or
#: wall-clock read there would silently break the equivalence gate.
_SCOPE_PREFIXES = (
    "repro.sim.",
    "repro.parallel.",
    "repro.obs.",
    "repro.numerics.",
    "repro.distributions.",
)
_SCOPE_MODULES = (
    "repro.sim",
    "repro.parallel",
    "repro.obs",
    "repro.numerics",
    "repro.distributions",
)

#: numpy.random attributes that are *constructors/lineage*, not the global
#: state; calling anything else on numpy.random samples the process-global
#: generator.
_NP_RANDOM_SAFE = frozenset(
    {"SeedSequence", "Generator", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
     "default_rng", "RandomState", "BitGenerator"}
)

#: Constructors that take a seed as their first argument and silently fall
#: back to entropy when called without one.
_SEEDABLE_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
    }
)


def in_determinism_scope(module: ModuleInfo) -> bool:
    """True for ``repro.sim``/``repro.parallel``/``repro.obs`` and any module
    that contains a trace-emission site (an ``.emit(...)`` attribute call)."""
    if module.module in _SCOPE_MODULES or module.module.startswith(_SCOPE_PREFIXES):
        return True
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
        ):
            return True
    return False


def _calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register_rule
class WallClockRule:
    """Flag wall-clock reads inside the determinism scope."""

    rule_id = "determinism-wallclock"
    description = (
        "no wall-clock reads (time.time, datetime.now, perf_counter, ...) in "
        "repro.sim/repro.parallel/repro.obs or trace-emitting modules"
    )

    def check(self, module: ModuleInfo, context: LintContext) -> Iterable[Finding]:
        """Flag wall-clock calls in determinism-scoped modules."""
        if not in_determinism_scope(module):
            return
        imports = ImportMap(module.tree)
        for call in _calls(module.tree):
            target = resolve_call_name(call, imports)
            if target in WALL_CLOCK_CALLS:
                yield Finding(
                    rule=self.rule_id,
                    path=module.relpath,
                    line=call.lineno,
                    col=call.col_offset,
                    message=(
                        f"wall-clock call {target}() in determinism-scoped module "
                        f"{module.module}; use the simulation clock (env.now) or a "
                        f"process-tier span"
                    ),
                )

    def finalize(self, context: LintContext) -> Iterable[Finding]:
        """No whole-tree findings for this rule."""
        return ()


@register_rule
class UnseededRngRule:
    """Flag RNG construction or use that is not derived from an explicit seed."""

    rule_id = "determinism-unseeded-rng"
    description = (
        "RNGs must be constructed from an explicit seed/SeedSequence; the "
        "global random/numpy.random state is forbidden everywhere"
    )

    def check(self, module: ModuleInfo, context: LintContext) -> Iterable[Finding]:
        """Flag RNG constructors/calls with no explicit seed."""
        imports = ImportMap(module.tree)
        for call in _calls(module.tree):
            target = resolve_call_name(call, imports)
            if target is None:
                continue
            if target in _SEEDABLE_CONSTRUCTORS and not call.args and not call.keywords:
                yield Finding(
                    rule=self.rule_id,
                    path=module.relpath,
                    line=call.lineno,
                    col=call.col_offset,
                    message=(
                        f"{target}() constructed without a seed; results will "
                        f"depend on OS entropy instead of the run's seed lineage"
                    ),
                )
                continue
            if target.startswith("numpy.random."):
                attr = target.rsplit(".", 1)[1]
                if attr not in _NP_RANDOM_SAFE:
                    yield Finding(
                        rule=self.rule_id,
                        path=module.relpath,
                        line=call.lineno,
                        col=call.col_offset,
                        message=(
                            f"{target}() samples numpy's process-global RNG; draw "
                            f"from a seeded Generator (repro.sim.rng) instead"
                        ),
                    )
            elif target.startswith("random.") and target != "random.Random":
                yield Finding(
                    rule=self.rule_id,
                    path=module.relpath,
                    line=call.lineno,
                    col=call.col_offset,
                    message=(
                        f"{target}() uses the stdlib's process-global RNG; draw "
                        f"from a seeded random.Random or numpy Generator instead"
                    ),
                )

    def finalize(self, context: LintContext) -> Iterable[Finding]:
        """No whole-tree findings for this rule."""
        return ()


def _set_construct(node: ast.expr, imports: ImportMap) -> bool:
    """True for a set display or a direct ``set(...)``/``frozenset(...)`` call."""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call):
        target = resolve_call_name(node, imports)
        return target in ("set", "frozenset")
    return False


@register_rule
class SetOrderRule:
    """Flag iteration whose order is a set's hash order (PYTHONHASHSEED)."""

    rule_id = "determinism-set-order"
    description = (
        "no iteration over set displays/set()/frozenset() in determinism-"
        "scoped modules; sort first (hash order varies with PYTHONHASHSEED)"
    )

    #: Wrapping calls whose output order is their argument's iteration order.
    _ORDER_PRESERVING = ("list", "tuple", "enumerate", "iter")

    def check(self, module: ModuleInfo, context: LintContext) -> Iterable[Finding]:
        """Flag order-dependent iteration over sets in scoped modules."""
        if not in_determinism_scope(module):
            return
        imports = ImportMap(module.tree)

        def finding(node: ast.AST) -> Finding:
            return Finding(
                rule=self.rule_id,
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    "iteration order of a set depends on PYTHONHASHSEED; wrap "
                    "it in sorted(...) before iterating"
                ),
            )

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _set_construct(node.iter, imports):
                    yield finding(node)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
                for comp in node.generators:
                    if _set_construct(comp.iter, imports):
                        yield finding(node)
            elif isinstance(node, ast.Call):
                target = resolve_call_name(node, imports)
                if target in self._ORDER_PRESERVING and node.args:
                    if _set_construct(node.args[0], imports):
                        yield finding(node)

    def finalize(self, context: LintContext) -> Iterable[Finding]:
        """No whole-tree findings for this rule."""
        return ()
