"""The perf gate: correctness smoke, baseline handling, regression logic."""

import json

from repro.perf.gate import main, run_checks, run_gate


class TestRunChecks:
    def test_all_green(self):
        assert run_checks() == []


class TestRunGate:
    def test_writes_baseline_when_missing(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        report, failures = run_gate(baseline_path=baseline, repeats=2)
        assert baseline.exists()
        saved = json.loads(baseline.read_text())
        assert saved["cases"].keys() == report["cases"].keys()
        # No regression failures possible on a fresh baseline; floor
        # failures would indicate the optimisations themselves broke.
        assert failures == []

    def test_flags_regression_against_absurd_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "cases": {
                "vector_group_aggregate": {"speedup": 10_000.0},
            },
        }))
        _, failures = run_gate(baseline_path=baseline, repeats=1)
        assert any("regressed" in failure for failure in failures)

    def test_informational_cases_exempt_from_drift_band(self, tmp_path):
        # vector_distinct has no FLOORS entry: its ratio is documented
        # but never gated, even against an absurd baseline.
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "cases": {"vector_distinct": {"speedup": 10_000.0}},
        }))
        _, failures = run_gate(baseline_path=baseline, repeats=1)
        assert failures == []

    def test_update_baseline_overwrites(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "cases": {"vector_group_aggregate": {"speedup": 10_000.0}},
        }))
        _, failures = run_gate(baseline_path=baseline,
                               update_baseline=True, repeats=2)
        saved = json.loads(baseline.read_text())
        assert saved["cases"]["vector_group_aggregate"]["speedup"] < 1000
        assert failures == []


class TestMain:
    def test_check_only_exits_zero(self, capsys):
        assert main(["--check-only"]) == 0
        assert "perf checks: ok" in capsys.readouterr().out

    def test_full_run_prints_table(self, tmp_path, capsys):
        code = main(["--baseline", str(tmp_path / "b.json"),
                     "--repeats", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "vector_group_aggregate" in out
        assert "prompt_encode_repeat" in out
