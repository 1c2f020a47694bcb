"""Engine behaviour: module collection, pragmas, baseline ratchet, registry."""

from __future__ import annotations

import pytest

from repro.analysis import (
    Baseline,
    available_rules,
    collect_modules,
    create_rules,
    run_lint,
)
from repro.analysis.base import RULE_FACTORIES, register_rule
from repro.analysis.determinism import WallClockRule
from repro.exceptions import ConfigurationError

DIRTY_SIM = "import time\n\ndef now():\n    return time.time()\n"


class TestCollectModules:
    def test_module_names_from_relpath(self, make_tree):
        root = make_tree({
            "repro/sim/engine.py": "x = 1\n",
            "repro/__init__.py": "",
        })
        context = collect_modules(root)
        names = {m.module for m in context.modules}
        assert names == {"repro", "repro.sim.engine"}
        assert context.module_named("repro.sim.engine") is not None

    def test_package_root_prepends_its_own_name(self, make_tree):
        root = make_tree({"__init__.py": "", "sim/engine.py": "x = 1\n"})
        names = {m.module for m in collect_modules(root).modules}
        # Root carries __init__.py, so it is itself the package.
        assert f"{root.name}.sim.engine" in names

    def test_missing_root_raises_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            collect_modules(tmp_path / "nope")

    def test_syntax_error_raises_configuration_error(self, make_tree):
        root = make_tree({"repro/bad.py": "def broken(:\n"})
        with pytest.raises(ConfigurationError, match="syntax error"):
            collect_modules(root)


class TestAllowPragma:
    def test_inline_pragma_suppresses_on_its_line(self, make_tree):
        root = make_tree({
            "repro/sim/engine.py": (
                "import time\n\ndef now():\n"
                "    return time.time()  # lint: allow(determinism-wallclock)\n"
            ),
        })
        report = run_lint(root, rules=[WallClockRule()])
        assert report.findings == []
        assert len(report.suppressed_pragma) == 1
        assert report.exit_code == 0

    def test_pragma_for_other_rule_does_not_suppress(self, make_tree):
        root = make_tree({
            "repro/sim/engine.py": (
                "import time\n\ndef now():\n"
                "    return time.time()  # lint: allow(unit-mix)\n"
            ),
        })
        report = run_lint(root, rules=[WallClockRule()])
        assert len(report.findings) == 1

    def test_wildcard_pragma(self, make_tree):
        root = make_tree({
            "repro/sim/engine.py": (
                "import time\n\ndef now():\n"
                "    return time.time()  # lint: allow(*)\n"
            ),
        })
        assert run_lint(root, rules=[WallClockRule()]).findings == []


class TestBaseline:
    def test_round_trip_suppresses_and_ratchets(self, make_tree, tmp_path):
        root = make_tree({"repro/sim/engine.py": DIRTY_SIM})
        first = run_lint(root, rules=[WallClockRule()])
        assert first.exit_code == 2

        path = tmp_path / "lint-baseline.json"
        Baseline.from_findings(first.findings).save(path)
        loaded = Baseline.load(path)
        assert len(loaded) == 1

        second = run_lint(root, rules=[WallClockRule()], baseline=loaded)
        assert second.exit_code == 0
        assert len(second.suppressed_baseline) == 1
        assert second.stale_baseline == []

    def test_fingerprint_survives_line_drift(self, make_tree, tmp_path):
        root = make_tree({"repro/sim/engine.py": DIRTY_SIM})
        baseline = Baseline.from_findings(run_lint(root, rules=[WallClockRule()]).findings)
        # Shift the finding down two lines; the fingerprint ignores line numbers.
        (root / "repro/sim/engine.py").write_text("# moved\n# moved\n" + DIRTY_SIM)
        report = run_lint(root, rules=[WallClockRule()], baseline=baseline)
        assert report.exit_code == 0 and len(report.suppressed_baseline) == 1

    def test_fixed_finding_reported_stale(self, make_tree):
        root = make_tree({"repro/sim/engine.py": DIRTY_SIM})
        baseline = Baseline.from_findings(run_lint(root, rules=[WallClockRule()]).findings)
        (root / "repro/sim/engine.py").write_text("def now(env):\n    return env.now\n")
        report = run_lint(root, rules=[WallClockRule()], baseline=baseline)
        assert report.exit_code == 0
        assert len(report.stale_baseline) == 1
        assert "stale" in report.render_text()

    def test_new_finding_not_masked_by_baseline(self, make_tree):
        root = make_tree({"repro/sim/engine.py": DIRTY_SIM})
        baseline = Baseline.from_findings(run_lint(root, rules=[WallClockRule()]).findings)
        (root / "repro/parallel").mkdir(parents=True)
        (root / "repro/parallel/pool.py").write_text(DIRTY_SIM)
        report = run_lint(root, rules=[WallClockRule()], baseline=baseline)
        assert report.exit_code == 2
        assert report.findings[0].path == "repro/parallel/pool.py"

    def test_load_missing_file_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "absent.json")) == 0

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "suppressions": []}')
        with pytest.raises(ConfigurationError):
            Baseline.load(path)


class TestRegistry:
    EXPECTED = {
        "async-await-span",
        "async-blocking",
        "async-task-leak",
        "broad-except",
        "determinism-set-order",
        "determinism-unseeded-rng",
        "determinism-wallclock",
        "exception-hygiene",
        "metric-schema",
        "trace-schema",
        "unit-mix",
    }

    def test_all_rule_families_registered(self):
        assert {rule_id for rule_id, _ in available_rules()} == self.EXPECTED

    def test_create_rules_default_builds_everything(self):
        assert {rule.rule_id for rule in create_rules()} == self.EXPECTED

    def test_create_rules_selects_subset(self):
        (rule,) = create_rules(["unit-mix"])
        assert rule.rule_id == "unit-mix"

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ConfigurationError, match="unknown rule"):
            create_rules(["no-such-rule"])

    def test_duplicate_registration_rejected(self):
        @register_rule
        class Throwaway:
            rule_id = "throwaway-test-rule"
            description = "duplicate-registration probe"

            def check(self, module, context):
                return ()

            def finalize(self, context):
                return ()

        try:
            with pytest.raises(ConfigurationError, match="registered twice"):
                register_rule(Throwaway)
        finally:
            RULE_FACTORIES.pop("throwaway-test-rule", None)
