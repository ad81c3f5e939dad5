"""The whole-program (``--deep``) lint layer.

The contract under test, from the ISSUE and README:

* the deep rules (RNG001, PURE001, SHARD001, IMP001) fire on their
  fixtures under ``tests/lint_fixtures/deep/`` — and only there do they
  fire (positives ≥1, negatives 0, no cross-rule contamination);
* the deliberately seeded regressions are caught: a crc32-colliding
  stream label pair (RNG001) and an ``os.environ`` read inside a kernel
  tick path (PURE001);
* deep rules stay out of the default (shallow) run and join under
  ``--deep`` or explicit ``--select``;
* the committed ``lint_baseline.json`` matches the tree exactly, and
  baseline comparison fails on drift in *either* direction;
* discovery skips ``tests``/``lint_fixtures`` when expanding a
  directory but lints them when targeted explicitly;
* ``--codes``/``--explain``/``--sarif`` and the noqa suppression
  grammar behave as documented.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.core.errors import ReproError
from repro.lint import (
    all_rules,
    compare_baseline,
    lint_paths,
    load_baseline,
    render_sarif,
    write_baseline,
)
from repro.lint.core import (
    FileContext,
    Rule,
    Violation,
    register,
    suppressed,
)
from repro.lint.dataflow import StrValue, resolve_str
from repro.lint.graph import ProjectGraph
from repro.lint.runner import iter_python_files

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
DEEP = REPO / "tests" / "lint_fixtures" / "deep"
BASELINE = REPO / "lint_baseline.json"

DEEP_CODES = ("IMP001", "PURE001", "RNG001", "SHARD001")

#: (code, fixture file relative to deep/, expected violation count).
FILE_CASES = [
    ("PURE001", "purity/pos_environ.py", 1),
    ("PURE001", "purity/pos_global_write.py", 3),
    ("PURE001", "purity/pos_mutable_read.py", 1),
    ("PURE001", "purity/pos_shared_cache.py", 2),
    ("PURE001", "purity/serve/repro/serve/pos_handler_env.py", 2),
    ("PURE001", "purity/quic/repro/quic/pos_pacer_env.py", 2),
    ("PURE001", "purity/neg_init_env.py", 0),
    ("PURE001", "purity/neg_constants.py", 0),
    ("PURE001", "purity/neg_not_kernel.py", 0),
    ("PURE001", "purity/serve/repro/serve/config.py", 0),
    ("PURE001", "purity/quic/repro/quic/neg_pure_pacer.py", 0),
    ("SHARD001", "shard/pos_sum_set.py", 1),
    ("SHARD001", "shard/pos_loop_dict.py", 1),
    ("SHARD001", "shard/pos_param_write.py", 1),
    ("SHARD001", "shard/pos_out_kwarg.py", 1),
    ("SHARD001", "shard/neg_sorted.py", 0),
    ("SHARD001", "shard/neg_list_reduce.py", 0),
    ("SHARD001", "shard/neg_fresh_array.py", 0),
]

#: (code, fixture directory relative to deep/, expected count) — the
#: cross-file cases: collisions, shared namespaces, cycles, layering.
DIR_CASES = [
    ("RNG001", "rng/pos_collision", 2),
    ("RNG001", "rng/pos_dynamic", 1),
    ("RNG001", "rng/pos_shared_namespace", 1),
    ("RNG001", "rng/neg_literals", 0),
    ("RNG001", "rng/neg_callgraph", 0),
    ("RNG001", "rng/neg_namespaced", 0),
    ("IMP001", "imports/pos_cycle", 2),
    ("IMP001", "imports/pos_sim_trace", 1),
    ("IMP001", "imports/pos_sim_trace_nested", 1),
    ("IMP001", "imports/pos_sim_runner", 1),
    ("IMP001", "imports/neg_runner_sim", 0),
    ("IMP001", "imports/neg_nested_cycle", 0),
]


class TestDeepGating:
    def test_deep_rules_registered(self):
        codes = {r.code for r in all_rules()}
        assert set(DEEP_CODES) <= codes
        for code in DEEP_CODES:
            rule = next(r for r in all_rules() if r.code == code)
            assert rule.deep

    def test_default_run_excludes_deep_rules(self):
        assert lint_paths([DEEP / "purity" / "pos_environ.py"]) == []

    def test_deep_flag_includes_them(self):
        violations = lint_paths(
            [DEEP / "purity" / "pos_environ.py"], deep=True
        )
        assert [v.code for v in violations] == ["PURE001"]

    def test_explicit_select_runs_deep_rule_without_flag(self):
        violations = lint_paths(
            [DEEP / "purity" / "pos_environ.py"], select=["PURE001"]
        )
        assert len(violations) == 1


class TestDeepFixtures:
    @pytest.mark.parametrize("code,rel,count", FILE_CASES)
    def test_file_fixture(self, code, rel, count):
        violations = lint_paths([DEEP / rel], select=[code])
        assert len(violations) == count
        assert all(v.code == code for v in violations)

    @pytest.mark.parametrize("code,rel,count", DIR_CASES)
    def test_dir_fixture(self, code, rel, count):
        violations = lint_paths([DEEP / rel], select=[code])
        assert len(violations) == count
        assert all(v.code == code for v in violations)

    @pytest.mark.parametrize(
        "subdir,code",
        [("purity", "PURE001"), ("shard", "SHARD001"),
         ("rng", "RNG001"), ("imports", "IMP001")],
    )
    def test_fixture_tree_fires_only_its_rule(self, subdir, code):
        # With every rule on, a rule's fixture tree produces findings
        # for that rule alone — fixtures are minimal.
        violations = lint_paths([DEEP / subdir], deep=True)
        assert violations, f"{subdir} fixtures produced nothing"
        assert {v.code for v in violations} == {code}


class TestSeededRegressions:
    """The two deliberately planted bugs the ISSUE requires CI to catch."""

    def test_rng001_catches_crc32_colliding_labels(self):
        violations = lint_paths([DEEP / "rng" / "pos_collision"], deep=True)
        assert len(violations) == 2  # flagged at both sites
        files = {Path(v.path).name for v in violations}
        assert files == {"host_entropy.py", "burst_entropy.py"}
        for v in violations:
            assert v.code == "RNG001"
            assert "crc32-collides" in v.message
            assert "1306201125" in v.message  # shared entropy value

    def test_pure001_catches_environ_read_in_tick_path(self):
        violations = lint_paths(
            [DEEP / "purity" / "pos_environ.py"], deep=True
        )
        assert len(violations) == 1
        v = violations[0]
        assert v.code == "PURE001"
        assert "environment" in v.message
        assert "EnvGatedKernel.step" in v.message

    def test_pure001_catches_environ_read_in_serve_handler(self):
        violations = lint_paths(
            [DEEP / "purity" / "serve"], deep=True
        )
        assert len(violations) == 2  # the handler file; config.py exempt
        for v in violations:
            assert v.code == "PURE001"
            assert Path(v.path).name == "pos_handler_env.py"
            assert "serve module repro.serve.pos_handler_env" in v.message
            assert "repro.serve.config" in v.message

    def test_pure001_serve_package_source_is_environ_clean(self):
        # The real daemon passes its own rule: no serve module outside
        # serve/config.py reads the environment.
        violations = lint_paths([SRC / "serve"], select=["PURE001"])
        assert violations == []


class TestProjectGraph:
    def test_fixture_modules_get_package_names(self):
        ctxs = [
            FileContext.load(p)
            for p in sorted((DEEP / "imports" / "pos_cycle").rglob("*.py"))
        ]
        graph = ProjectGraph.build(ctxs)
        assert set(graph.modules) == {"repro.alpha", "repro.beta"}

    def test_cycle_detection(self):
        ctxs = [
            FileContext.load(p)
            for p in sorted((DEEP / "imports" / "pos_cycle").rglob("*.py"))
        ]
        graph = ProjectGraph.build(ctxs)
        assert graph.cycles() == [["repro.alpha", "repro.beta"]]

    def test_nested_import_breaks_cycle_but_keeps_edge(self):
        ctxs = [
            FileContext.load(p)
            for p in sorted(
                (DEEP / "imports" / "neg_nested_cycle").rglob("*.py")
            )
        ]
        graph = ProjectGraph.build(ctxs)
        assert graph.cycles() == []
        nested = [e for e in graph.project_edges() if e.nested]
        assert [(e.source, e.target) for e in nested] == [
            ("repro.delta", "repro.gamma")
        ]

    def test_base_resolution_across_modules(self, tmp_path):
        (tmp_path / "basemod.py").write_text(
            "class Root:\n    pass\n\n\nclass Base(Root):\n    pass\n"
        )
        (tmp_path / "leafmod.py").write_text(
            "from basemod import Base\n\n\nclass Leaf(Base):\n    pass\n"
        )
        ctxs = [FileContext.load(p) for p in sorted(tmp_path.glob("*.py"))]
        graph = ProjectGraph.build(ctxs)
        leaf = graph.modules["leafmod"].classes["Leaf"]
        names = set(graph.base_names("leafmod", leaf))
        assert {"Base", "basemod.Base", "Root", "basemod.Root"} <= names

    def test_binding_classification(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import numpy as np\n"
            "ONCE = 1.5\n"
            "TWICE = 1.5\n"
            "TWICE = 2.5\n"
            "BOX = {}\n"
        )
        graph = ProjectGraph.build([FileContext.load(tmp_path / "mod.py")])
        bindings = graph.modules["mod"].bindings
        assert bindings["np"].kind == "import"
        assert bindings["ONCE"].kind == "constant"
        assert bindings["TWICE"].kind == "mutable"
        assert bindings["BOX"].kind == "mutable"  # a dict can be written


class TestDataflow:
    @staticmethod
    def value_of(src: str, env: dict | None = None) -> StrValue:
        node = ast.parse(src, mode="eval").body
        return resolve_str(node, env or {})

    def test_literal_and_concatenation(self):
        assert self.value_of('"host" + "-jitter"').value == "host-jitter"
        assert self.value_of('"host" + "-jitter"').complete

    def test_fstring_constant_prefix(self):
        value = self.value_of('f"task:{name}"')
        assert not value.complete
        assert value.prefix == "task:"

    def test_fstring_repr_conversion_is_not_static(self):
        # !r rewrites the text (quotes), so the label is not derivable.
        assert not self.value_of('f"{label!r}"').complete

    def test_name_resolution_through_env(self):
        env = {"suffix": StrValue("jitter", True)}
        value = self.value_of('"host-" + suffix', env)
        assert value.complete and value.value == "host-jitter"

    def test_unknown_name_is_unknown(self):
        value = self.value_of("mystery")
        assert not value.complete and value.prefix == ""


class TestBaseline:
    @staticmethod
    def _violation(path: str, line: int = 3) -> Violation:
        return Violation(
            path=path, line=line, col=1, code="IMP001", message="msg"
        )

    def test_round_trip_is_clean(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        violations = [self._violation(str(tmp_path / "a.py"))]
        assert write_baseline(violations, baseline) == 1
        diff = compare_baseline(violations, baseline)
        assert diff.clean and diff.matched == 1

    def test_new_finding_is_drift(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        tracked = [self._violation(str(tmp_path / "a.py"))]
        write_baseline(tracked, baseline)
        extra = self._violation(str(tmp_path / "b.py"), line=9)
        diff = compare_baseline(tracked + [extra], baseline)
        assert not diff.clean
        assert diff.new == [extra] and diff.stale == []

    def test_stale_entry_is_drift(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        tracked = [
            self._violation(str(tmp_path / "a.py")),
            self._violation(str(tmp_path / "b.py"), line=9),
        ]
        write_baseline(tracked, baseline)
        diff = compare_baseline(tracked[:1], baseline)
        assert not diff.clean
        assert diff.new == [] and len(diff.stale) == 1
        assert diff.stale[0]["path"] == "b.py"  # stored relative

    def test_load_errors_are_repro_errors(self, tmp_path):
        with pytest.raises(ReproError):
            load_baseline(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReproError):
            load_baseline(bad)
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        with pytest.raises(ReproError):
            load_baseline(empty)

    def test_committed_baseline_matches_tree(self):
        # The CI contract: deep lint over src/ must match
        # lint_baseline.json exactly, in both directions.
        violations = lint_paths([SRC], deep=True)
        diff = compare_baseline(violations, BASELINE)
        assert diff.clean, diff.render()

    def test_committed_baseline_is_deep_codes_only(self):
        codes = {entry["code"] for entry in load_baseline(BASELINE)}
        assert codes <= set(DEEP_CODES)


class TestDiscovery:
    def test_expanding_tests_skips_lint_fixtures(self):
        found = iter_python_files([REPO / "tests"])
        assert found  # the test modules themselves
        assert not any("lint_fixtures" in p.parts for p in found)

    def test_explicit_fixture_target_still_lints(self):
        found = iter_python_files([DEEP / "purity"])
        assert {p.name for p in found} >= {"pos_environ.py"}

    def test_discovery_is_sorted(self):
        found = iter_python_files([REPO / "src"])
        assert found == sorted(found, key=str)

    def test_repo_root_shallow_lint_is_clean(self):
        assert lint_paths([REPO]) == []


class TestRegistryGuards:
    def test_duplicate_code_rejected(self):
        with pytest.raises(ValueError, match="duplicate rule code"):
            @register
            class Dup(Rule):  # noqa: F811 - intentionally clashing
                code = "DET001"
                name = "dup"
                description = "dup"

    def test_deep_rules_have_docstrings_for_explain(self):
        for code in DEEP_CODES:
            rule = next(r for r in all_rules() if r.code == code)
            assert rule.summary().startswith(code)
            assert len(rule.explain()) > len(rule.summary())


class TestCli:
    def test_codes_lists_every_rule(self, capsys):
        assert main(["lint", "--codes"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert out.count(rule.code) >= 1
        assert "RNG001" in out

    def test_explain_known_code(self, capsys):
        assert main(["lint", "--explain", "RNG001"]) == 0
        out = capsys.readouterr().out
        assert "crc32" in out and "deep" in out

    def test_explain_unknown_code_is_clean_error(self, capsys):
        assert main(["lint", "--explain", "NOPE999"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_deep_flag_finds_fixture_violations(self, capsys):
        rc = main(
            ["lint", str(DEEP / "rng" / "pos_collision"), "--deep"]
        )
        assert rc == 1
        assert "RNG001" in capsys.readouterr().out

    def test_sarif_format(self, capsys):
        rc = main(
            ["lint", str(DEEP / "purity" / "pos_environ.py"),
             "--deep", "--format", "sarif"]
        )
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert {r["id"] for r in run["tool"]["driver"]["rules"]} >= set(
            DEEP_CODES
        )
        assert run["results"][0]["ruleId"] == "PURE001"

    def test_baseline_update_then_clean(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        target = str(DEEP / "rng" / "pos_collision")
        assert main(
            ["lint", target, "--deep",
             "--baseline", str(baseline), "--update-baseline"]
        ) == 0
        assert "2 tracked finding(s)" in capsys.readouterr().out
        assert main(
            ["lint", target, "--deep", "--baseline", str(baseline)]
        ) == 0
        assert "no drift" in capsys.readouterr().out

    def test_baseline_drift_fails_both_directions(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(
            ["lint", str(DEEP / "rng" / "pos_collision"), "--deep",
             "--baseline", str(baseline), "--update-baseline"]
        ) == 0
        capsys.readouterr()
        # Different target: its finding is new, the tracked two are stale.
        rc = main(
            ["lint", str(DEEP / "rng" / "pos_dynamic"), "--deep",
             "--baseline", str(baseline)]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "new:" in out and "stale:" in out

    def test_update_baseline_requires_baseline(self, capsys):
        assert main(["lint", "--update-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_sarif_baseline_mode_reports_drift_only(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        target = str(DEEP / "rng" / "pos_collision")
        main(["lint", target, "--deep",
              "--baseline", str(baseline), "--update-baseline"])
        capsys.readouterr()
        assert main(
            ["lint", target, "--deep", "--baseline", str(baseline),
             "--format", "sarif"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []  # tracked, not drifted


ALL_CODES = sorted(r.code for r in all_rules())


class TestNoqaGrammar:
    """Satellite: the ``# repro: noqa-<CODE>`` suppression grammar."""

    @staticmethod
    def _ctx(comment: str) -> FileContext:
        return FileContext(
            path=Path("x.py"), source=f"value = 1  {comment}\n"
        )

    @staticmethod
    def _violation(code: str) -> Violation:
        return Violation(path="x.py", line=1, col=1, code=code, message="m")

    def test_comma_list_with_arbitrary_whitespace(self):
        ctx = self._ctx("#  repro:   noqa-DET001 ,  RNG001,SHARD001")
        for code in ("DET001", "RNG001", "SHARD001"):
            assert suppressed(ctx, self._violation(code))
        assert not suppressed(ctx, self._violation("PURE001"))

    def test_no_space_variant(self):
        ctx = self._ctx("#repro:noqa-IMP001")
        assert suppressed(ctx, self._violation("IMP001"))

    def test_unknown_code_is_inert(self):
        ctx = self._ctx("# repro: noqa-ZZZ999")
        assert not suppressed(ctx, self._violation("DET001"))

    def test_unknown_code_in_list_does_not_break_known_ones(self):
        ctx = self._ctx("# repro: noqa-DET001, ZZZ999")
        assert suppressed(ctx, self._violation("DET001"))

    def test_wrong_line_is_not_suppressed(self):
        ctx = FileContext(
            path=Path("x.py"),
            source="value = 1  # repro: noqa-DET001\nother = 2\n",
        )
        v = Violation(path="x.py", line=2, col=1, code="DET001", message="m")
        assert not suppressed(ctx, v)

    @given(
        chosen=st.lists(
            st.sampled_from(ALL_CODES), min_size=1, max_size=4, unique=True
        ),
        pad=st.sampled_from(["", " ", "   "]),
        sep=st.sampled_from([",", ", ", " ,", " , "]),
    )
    def test_round_trip(self, chosen, pad, sep):
        comment = f"#{pad}repro:{pad}noqa-" + sep.join(chosen)
        ctx = self._ctx(comment)
        for code in ALL_CODES:
            assert suppressed(ctx, self._violation(code)) == (
                code in chosen
            )
