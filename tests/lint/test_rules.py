"""Fixture tests of every reprolint rule, with exact line/col pins.

Each fixture is analyzed via ``analyze_file(path, module=...,
is_test=...)`` — the override API that treats a fixture as if it lived
at a chosen spot in the package — and the findings are compared as
exact ``(rule, line, col)`` tuples, so a rule that drifts by one token
fails loudly here. The whole-program rules also get small multi-file
projects, run through ``analyze_paths`` as the CLI runs them.
"""

from __future__ import annotations

from pathlib import Path

from reprolint.driver import analyze_file, analyze_paths
from reprolint.rules import ALL_RULES, PROGRAM_RULES
from reprolint.rules.parity import KernelScalarParity

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def lint_fixture(name: str, module: str, is_test: bool = False):
    """File rules only (no program rules), over one fixture."""
    findings = analyze_file(
        FIXTURES / name, ALL_RULES, module=module, is_test=is_test
    )
    return [(f.rule_id, f.line, f.col) for f in findings], findings


class TestRL001Units:
    def test_bad_fixture_exact_positions(self):
        marks, findings = lint_fixture(
            "rl001_bad.py", "repro.experiments.fixture"
        )
        assert marks == [
            ("RL001", 11, 14),  # freq_hz / 1e9 inside the f-string
            ("RL001", 15, 11),  # voltage * 1000
            ("RL001", 19, 11),  # hz_to_ghz(freq_ghz)
            ("RL001", 23, 11),  # mv_to_v(rail_v)
        ]
        assert "hz_to_ghz" in findings[0].message
        assert "v_to_mv" in findings[1].message
        assert "_ghz" in findings[2].message
        assert "_v" in findings[3].message

    def test_good_fixture_clean(self):
        marks, _ = lint_fixture(
            "rl001_good.py", "repro.experiments.fixture"
        )
        assert marks == []

    def test_exempt_module_is_skipped(self):
        marks, _ = lint_fixture("rl001_bad.py", "repro.units")
        assert [m for m in marks if m[0] == "RL001"] == []


class TestRL002Determinism:
    def test_bad_fixture_exact_positions(self):
        marks, _ = lint_fixture("rl002_bad.py", "repro.sim.fixture")
        assert marks == [
            ("RL002", 11, 11),  # random.Random()
            ("RL002", 15, 11),  # np.random.default_rng()
            ("RL002", 19, 11),  # random.uniform(...)
            ("RL002", 23, 11),  # np.random.normal()
            ("RL002", 27, 11),  # time.time()
            ("RL002", 31, 11),  # datetime.now()
            ("RL002", 36, 4),   # for core in {0, 1, 2}
            ("RL002", 38, 23),  # [c for c in set(cores)]
        ]

    def test_good_fixture_clean(self):
        marks, _ = lint_fixture("rl002_good.py", "repro.sim.fixture")
        assert marks == []

    def test_rule_scoped_to_deterministic_modules(self):
        marks, _ = lint_fixture(
            "rl002_bad.py", "repro.analysis.fixture"
        )
        assert marks == []

    def test_rule_exempts_test_code(self):
        marks, _ = lint_fixture(
            "rl002_bad.py", "repro.sim.fixture", is_test=True
        )
        assert marks == []


class TestRL004CachePurity:
    # Linted under a non-deterministic module so RL002 stays out of
    # the picture: RL004 applies to marked functions everywhere.
    def test_bad_fixture_exact_positions(self):
        marks, _ = lint_fixture(
            "rl004_bad.py", "repro.analysis.fixture"
        )
        assert marks == [
            ("RL004", 13, 18),  # os.environ["CACHE_SALT"]
            ("RL004", 18, 19),  # os.getenv("CACHE_SALT")
            ("RL004", 23, 21),  # time.time()
            ("RL004", 28, 4),   # global _COUNTER
        ]

    def test_good_fixture_clean(self):
        marks, _ = lint_fixture(
            "rl004_good.py", "repro.analysis.fixture"
        )
        assert marks == []


class TestRL005Hygiene:
    def test_bad_fixture_exact_positions(self):
        marks, _ = lint_fixture("rl005_bad.py", "repro.sim.fixture")
        assert marks == [
            ("RL005", 7, 0),    # @dataclass without slots
            ("RL005", 12, 0),   # @dataclass(frozen=True) without slots
            ("RL005", 17, 11),  # pfail == 0.0
            ("RL005", 21, 11),  # ratio != 1.0
            ("RL005", 29, 8),   # cancel immediately before schedule
            ("RL005", 34, 12),  # guarded cancel before sibling schedule
        ]

    def test_good_fixture_clean(self):
        marks, _ = lint_fixture("rl005_good.py", "repro.sim.fixture")
        assert marks == []

    def test_slots_rule_scoped_to_hot_modules(self):
        marks, _ = lint_fixture(
            "rl005_bad.py", "repro.experiments.fixture"
        )
        # Outside the hot modules only the float comparisons remain —
        # the slots and cancel/schedule checks are repro.sim-scoped.
        assert marks == [("RL005", 17, 11), ("RL005", 21, 11)]

    def test_float_eq_allowed_in_tests(self):
        marks, _ = lint_fixture(
            "rl005_bad.py", "repro.sim.fixture", is_test=True
        )
        assert marks == []


class TestRL006TelemetryNames:
    def test_bad_call_sites_exact_positions(self):
        marks, findings = lint_fixture(
            "rl006_bad.py", "repro.experiments.fixture"
        )
        assert marks == [
            ("RL006", 8, 18),   # raw string literal
            ("RL006", 9, 18),   # f-string
            ("RL006", 10, 22),  # "queue." + kind
            ("RL006", 11, 29),  # str(depth) keyword name
            ("RL006", 12, 24),  # span(kind) variable
        ]
        assert "raw string literal" in findings[0].message
        assert "f-string" in findings[1].message
        assert "string arithmetic" in findings[2].message
        assert "computed by a call" in findings[3].message
        assert "not a registry constant" in findings[4].message

    def test_good_call_sites_clean(self):
        marks, _ = lint_fixture(
            "rl006_good.py", "repro.experiments.fixture"
        )
        assert marks == []

    def test_call_sites_exempt_in_tests(self):
        marks, _ = lint_fixture(
            "rl006_bad.py", "repro.experiments.fixture", is_test=True
        )
        assert marks == []

    def test_names_module_shape_exact_positions(self):
        marks, findings = lint_fixture(
            "rl006_names_bad.py", "repro.telemetry.names"
        )
        assert marks == [
            ("RL006", 4, 12),  # "SimTicks" not dot.scoped
            ("RL006", 5, 17),  # "replans" single scope
            ("RL006", 6, 17),  # duplicate of SIM_RUNS
            ("RL006", 7, 0),   # non-string constant
        ]
        assert "not dot.scoped" in findings[0].message
        assert "duplicates `SIM_RUNS`" in findings[2].message
        assert "plain string literal" in findings[3].message

    def test_names_module_good_clean(self):
        marks, _ = lint_fixture(
            "rl006_names_good.py", "repro.telemetry.names"
        )
        assert marks == []


class TestRL007PlatformNames:
    def test_bad_fixture_exact_positions(self):
        marks, findings = lint_fixture(
            "rl007_bad.py", "repro.experiments.fixture"
        )
        assert marks == [
            ("RL007", 3, 12),   # module-level chip-name literal
            ("RL007", 7, 7),    # spec.name == "X-Gene 3"
            ("RL007", 13, 11),  # spec.name != "X-Gene 2"
            ("RL007", 17, 11),  # f-string fragment (JoinedStr anchor)
        ]
        assert "registry" in findings[0].message
        assert "dispatch by display name" in findings[1].message
        assert "dispatch by display name" in findings[2].message
        assert "chip display-name literal" in findings[3].message

    def test_good_fixture_clean(self):
        marks, _ = lint_fixture(
            "rl007_good.py", "repro.experiments.fixture"
        )
        assert marks == []

    def test_rule_applies_to_test_code(self):
        # Unlike most rules, tests are NOT exempt: display-name pins in
        # tests are exactly how chip-coupling survives refactors.
        marks, _ = lint_fixture(
            "rl007_bad.py", "test_fixture", is_test=True
        )
        assert [m[0] for m in marks] == ["RL007"] * 4

    def test_platform_package_exempt(self):
        marks, _ = lint_fixture("rl007_bad.py", "repro.platform.specs")
        assert marks == []


class TestRL010ActuationFunnel:
    def test_bad_fixture_exact_positions(self):
        marks, findings = lint_fixture(
            "rl010_bad.py", "repro.experiments.fixture"
        )
        assert marks == [
            ("RL010", 5, 4),    # chip.set_voltage(...)
            ("RL010", 9, 4),    # chip.set_pmd_frequency(...)
            ("RL010", 10, 4),   # chip.cppc.request(...)
            ("RL010", 14, 4),   # chip.set_all_frequencies(...)
            ("RL010", 15, 11),  # chip.cppc.request_all(...)
            ("RL010", 19, 4),   # slimpro.set_voltage_mv(...)
            ("RL010", 23, 4),   # system.migrate_many(...)
            ("RL010", 27, 4),   # system.admit(...)
        ]
        assert "apply_action" in findings[0].message
        assert "set_voltage" in findings[0].message

    def test_good_fixture_clean(self):
        marks, _ = lint_fixture(
            "rl010_good.py", "repro.experiments.fixture"
        )
        assert marks == []

    def test_policies_package_not_blanket_exempt(self):
        # Only the funnel module's reasoned suppressions are sanctioned;
        # a governor module calling mutators directly is still flagged.
        marks, _ = lint_fixture(
            "rl010_bad.py", "repro.policies.fixture"
        )
        assert [m[0] for m in marks] == ["RL010"] * 8

    def test_platform_package_exempt(self):
        marks, _ = lint_fixture("rl010_bad.py", "repro.platform.chip")
        assert marks == []

    def test_test_code_exempt(self):
        marks, _ = lint_fixture(
            "rl010_bad.py", "test_fixture", is_test=True
        )
        assert marks == []


class TestSuppressions:
    def test_reasoned_suppression_silences(self):
        marks, _ = lint_fixture(
            "suppression_ok.py", "repro.experiments.fixture"
        )
        assert marks == []

    def test_reasonless_suppression_is_rl000_and_silences_nothing(self):
        marks, _ = lint_fixture(
            "suppression_bad.py", "repro.experiments.fixture"
        )
        assert marks == [("RL000", 5, 0), ("RL001", 5, 10)]


class TestRL003Parity:
    def test_bad_project_exact_positions(self):
        rule = KernelScalarParity()
        findings = sorted(
            rule.check_project(FIXTURES / "rl003_bad"),
            key=lambda f: (f.path, f.line, f.col),
        )
        marks = [
            (Path(f.path).name, f.line, f.col) for f in findings
        ]
        assert marks == [
            ("parity.py", 4, 39),  # dangling kernel value
            ("parity.py", 5, 4),   # stale PARITY key
            ("parity.py", 9, 31),  # empty SCALAR_ONLY reason
            ("model.py", 8, 0),    # unregistered orphan_fn
        ]
        assert "orphan_fn" in findings[3].message
        assert "missing_grid" in findings[0].message

    def test_good_project_clean(self):
        rule = KernelScalarParity()
        assert list(rule.check_project(FIXTURES / "rl003_good")) == []

    def test_missing_registry_is_one_finding(self, tmp_path):
        rule = KernelScalarParity()
        findings = list(rule.check_project(tmp_path))
        assert len(findings) == 1
        assert "registry missing" in findings[0].message


def analyze_fixture(name: str, module: str, is_test: bool = False):
    """Whole-program rules only, over a one-file program."""
    findings = analyze_file(
        FIXTURES / name,
        (),
        PROGRAM_RULES,
        module=module,
        is_test=is_test,
    )
    return [(f.rule_id, f.line, f.col) for f in findings], findings


class TestRL008UnitFlow:
    def test_bad_fixture_exact_positions(self):
        marks, findings = analyze_fixture(
            "rl008_bad.py", "repro.experiments.fixture"
        )
        assert marks == [
            ("RL008", 20, 27),  # V flows into a *_mv parameter
            ("RL008", 24, 11),  # MHz + Hz
            ("RL008", 27, 0),   # declared mV, returns V
        ]
        # The converter sits two call frames away from the mismatch;
        # the diagnostic must carry the whole inference chain.
        call_flow = findings[0].message
        assert "argument flows V" in call_flow
        assert "`voltage_mv`" in call_flow
        assert "declared mV" in call_flow
        assert "assigned to `rail`" in call_flow
        assert "rail_volts` returns V" in call_flow
        assert "combining MHz with Hz" in findings[1].message
        assert "declared to return mV" in findings[2].message

    def test_good_fixture_clean(self):
        marks, _ = analyze_fixture(
            "rl008_good.py", "repro.experiments.fixture"
        )
        assert marks == []

    def test_rule_exempts_test_code(self):
        marks, _ = analyze_fixture(
            "rl008_bad.py", "repro.experiments.fixture", is_test=True
        )
        assert marks == []

    def test_units_module_itself_is_exempt(self):
        marks, _ = analyze_fixture("rl008_bad.py", "repro.units")
        assert marks == []


class TestRL009EffectPropagation:
    def test_bad_fixture_exact_positions(self):
        marks, findings = analyze_fixture(
            "rl009_bad.py", "repro.experiments.fixture"
        )
        assert marks == [
            ("RL009", 10, 43),  # the call that starts the impure path
        ]
        message = findings[0].message
        assert "cache-key producer" in message
        assert "transitively impure" in message
        assert "`repro.experiments.fixture._token`" in message
        assert "-> `repro.experiments.fixture._now`" in message
        assert "time.time()" in message

    def test_good_fixture_clean(self):
        marks, _ = analyze_fixture(
            "rl009_good.py", "repro.experiments.fixture"
        )
        assert marks == []

    def test_rule_exempts_test_code(self):
        marks, _ = analyze_fixture(
            "rl009_bad.py", "repro.experiments.fixture", is_test=True
        )
        assert marks == []


class TestCrossFile:
    """Program rules over a two-file project, as the CLI runs them."""

    def test_cross_file_rl008_mismatch(self, tmp_path):
        # The converter sits in helpers.py; the mismatch is in uses.py.
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        (tmp_path / "helpers.py").write_text(
            "from repro.units import mv_to_v\n"
            "\n"
            "\n"
            "def rail_volts(raw_mv):\n"
            "    return mv_to_v(raw_mv)\n"
        )
        (tmp_path / "uses.py").write_text(
            "from helpers import rail_volts\n"
            "\n"
            "\n"
            "def guardband(voltage_mv):\n"
            "    return voltage_mv - 50.0\n"
            "\n"
            "\n"
            "def bad(raw_mv):\n"
            "    return guardband(rail_volts(raw_mv))\n"
        )
        findings = analyze_paths(
            [tmp_path],
            ALL_RULES,
            program_rules=PROGRAM_RULES,
            root=tmp_path,
        )
        assert [
            (f.rule_id, Path(f.path).name, f.line, f.col) for f in findings
        ] == [("RL008", "uses.py", 9, 21)]
        assert "`helpers.rail_volts` returns V" in findings[0].message

    def test_cross_file_rl009_propagates(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        (tmp_path / "clock.py").write_text(
            "import time\n"
            "\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        (tmp_path / "keys.py").write_text(
            "from repro.vmin.cache import cache_key_producer\n"
            "\n"
            "from clock import stamp\n"
            "\n"
            "\n"
            "@cache_key_producer\n"
            "def make_key(cfg):\n"
            "    return (cfg, indirect())\n"
            "\n"
            "\n"
            "def indirect():\n"
            "    return stamp()\n"
        )
        findings = analyze_paths(
            [tmp_path],
            [],
            program_rules=PROGRAM_RULES,
            root=tmp_path,
        )
        rl009 = [f for f in findings if f.rule_id == "RL009"]
        assert len(rl009) == 1
        assert "`keys.indirect` -> `clock.stamp`" in rl009[0].message
        assert "transitively impure" in rl009[0].message
