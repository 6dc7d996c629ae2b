"""Subcommand behaviour, exit codes, and output determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import estimeta as em
from conftest import CYCLIC_TRIAL_CSV, DULA_15, HBA1C, REFUSED_FACTOR_CSV, TWO_ESTIMANDS_CSV, WEIGHT
from estimeta import cli
from estimeta.cli import main
from estimeta.ingest import EvidenceBase, serialize_evidence

CASE = str(em.case_study_path())


@pytest.fixture(scope="module")
def no_s7_file(case_base, tmp_path_factory):
    trimmed = EvidenceBase(
        trials={t: r for t, r in case_base.trials.items() if t != "SUSTAIN 7"},
        contrasts=tuple(c for c in case_base.contrasts if c.trial_id != "SUSTAIN 7"),
        arm_summaries=tuple(a for a in case_base.arm_summaries if a.trial_id != "SUSTAIN 7"),
    )
    path = tmp_path_factory.mktemp("evidence") / "no_sustain7.csv"
    path.write_text(serialize_evidence(trimmed), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_clean_file(self, capsys):
        assert main(["validate", "--input", CASE]) == 0
        out = capsys.readouterr()
        assert "endpoint timepoints differ" in out.out
        assert "error" not in out.out

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "#trials\ntrial_id,arms\nT1,A;B\n"
            "#contrasts\n"
            "trial_id,estimand_label,endpoint_name,treatment,comparator,md,se,ci_lower,ci_upper,ci_level\n"
            "T1,primary,outcome,A,B,not_a_number,0.5,,,\n",
            encoding="utf-8",
        )
        assert main(["validate", "--input", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "--input", "/nonexistent/evidence.csv"]) == 2

    def test_json_format(self, capsys):
        assert main(["validate", "--input", CASE, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(issue["severity"] == "warning" for issue in payload["issues"])

    def test_csv_format_rejected(self, capsys):
        assert main(["validate", "--input", CASE, "--format", "csv"]) == 1
        assert "usage error" in capsys.readouterr().err


class TestOneCovarianceVerdict:
    """`validate` warns of exactly the multi-arm blocks `analyze` refuses, in its words."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (CYCLIC_TRIAL_CSV, "covariance of trial 'T1' is not positive definite: its contrasts are "
                               "linearly dependent (they close a cycle over its arms)"),
            (REFUSED_FACTOR_CSV, "covariance of trial 'T1' is not positive definite "
                                 "(its Cholesky factorization fails)"),
        ],
        ids=["cycle", "refused-factorization"],
    )
    def test_validate_warns_what_analyze_refuses(self, text, message, tmp_path, capsys):
        path = tmp_path / "evidence.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", "--input", str(path)]) == 0
        out = capsys.readouterr()
        assert out.out == f"warning: {message}\n"
        assert out.err.endswith("; 0 errors, 1 warnings\n")
        for force in ([], ["--force"]):
            assert main(["analyze", "--input", str(path), "--estimand", "hypothetical", *force]) == 3
            assert f"  [error] covariance_unidentifiable: {message}\n" in capsys.readouterr().err

    def test_forced_cycle_without_arm_rows_is_refused(self, tmp_path, capsys):
        # T1's B-A, C-A and C-B carry reported SEs and no arm rows: the fallback would count them as independent
        head, _ = CYCLIC_TRIAL_CSV.split("#arms")
        path = tmp_path / "evidence.csv"
        path.write_text(head.replace(",,,,", ",0.2,,,"), encoding="utf-8")
        cycle = ("covariance_unidentifiable: covariance of trial 'T1' is not positive definite: its contrasts "
                 "are linearly dependent (they close a cycle over its arms)")
        for force in ([], ["--force"]):
            assert main(["analyze", "--input", str(path), "--estimand", "hypothetical", *force]) == 3
            err = capsys.readouterr().err
            assert err.startswith("infeasible: ")
            assert (cycle in err) == bool(force)  # unforced, the missing arm rows are reason enough


class TestNetwork:
    def test_connected_exit_zero(self, capsys):
        assert main(["network", "--input", CASE, "--endpoint", "hba1c"]) == 0
        out = capsys.readouterr()
        assert len(out.out.strip().split("\n")) == 8  # both estimand labels contribute edges
        assert "connected" in out.err

    def test_restricted_slice_has_four_edges(self, capsys):
        code = main(
            ["network", "--input", CASE, "--endpoint", "hba1c", "--estimand", "hypothetical"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 4

    def test_all_endpoints_tagged(self, capsys):
        assert main(["network", "--input", CASE]) == 0
        out = capsys.readouterr().out
        assert out.count("#endpoint,") == 2

    def test_disconnected_exit_three(self, no_s7_file, capsys):
        assert main(["network", "--input", no_s7_file, "--endpoint", "hba1c"]) == 3
        assert "disconnected" in capsys.readouterr().err

    def test_disconnected_stderr_starts_infeasible(self, no_s7_file, capsys):
        # every endpoint's status follows the verdict, as with analyze's reasons
        assert main(["network", "--input", no_s7_file]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == f"infeasible: no connected evidence network for {HBA1C}, {WEIGHT}"
        assert [line.split(": ")[0] for line in lines[1:]] == [HBA1C, WEIGHT]

    def test_plan_target_without_contrasts_exit_three(self, tmp_path, capsys):
        # the planned target handles discontinuation while on treatment, as no HbA1c estimand does
        handling = {"event_name": "premature treatment discontinuation", "strategy": "while_on_treatment"}
        config = tmp_path / "plan.json"
        config.write_text(json.dumps({"meta_estimands": [{**_FULL, "ie_handlings": [handling]}]}), encoding="utf-8")
        argv = ["network", "--input", CASE, "--endpoint", "hba1c", "--estimand", "custom", "--config", str(config)]
        assert main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"infeasible: no connected evidence network for {HBA1C}", f"{HBA1C}: no contrasts"
        ]

    def test_format_rejected(self, capsys):
        assert main(["network", "--input", CASE, "--endpoint", "hba1c", "--format", "json"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_empty_estimand_usage_error(self, capsys):
        assert main(["network", "--input", CASE, "--endpoint", "hba1c", "--estimand", ""]) == 1
        assert "unknown meta-estimand ''" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--tolerance", "0"], ["--strict"], ["--lenient"], ["--config", ""]],
                             ids=["tolerance", "strict", "lenient", "config"])
    def test_matching_flag_without_estimand_usage_error(self, flag, tmp_path, capsys):
        out = tmp_path / "edges.csv"
        code = main(["network", "--input", CASE, "--endpoint", "hba1c", "--output", str(out), *flag])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert f"usage error: matching flags need --estimand: {flag[0]}" in captured.err

    @pytest.mark.parametrize("command", ["network", "analyze"])
    @pytest.mark.parametrize("endpoint", ["", "  "])
    @pytest.mark.parametrize("one_endpoint", [False, True])
    def test_blank_endpoint_usage_error(self, command, endpoint, one_endpoint, tmp_path, capsys):
        path = CASE
        if one_endpoint:
            path = tmp_path / "two_estimands.csv"
            path.write_text(TWO_ESTIMANDS_CSV, encoding="utf-8")
        argv = [command, "--input", str(path), "--endpoint", endpoint]
        assert main(argv + (["--estimand", "hypothetical"] if command == "analyze" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --endpoint must name an endpoint")


class TestAnalyze:
    def test_league_table_text(self, capsys):
        code = main(
            ["analyze", "--input", CASE, "--estimand", "hypothetical", "--endpoint", "hba1c"]
        )
        assert code == 0
        out = capsys.readouterr()
        lines = out.out.strip().split("\n")
        assert len(lines) == 21  # header + 20 ordered pairs
        row = next(
            l for l in lines
            if l.startswith("semaglutide 2.0 mg QW") and "dulaglutide 3.0 mg QW" in l
        )
        assert "-0.47" in row and "(-0.70, -0.24)" in row

    def test_infeasible_exit_three(self, no_s7_file, capsys):
        code = main(
            ["analyze", "--input", no_s7_file, "--estimand", "hypothetical", "--endpoint", "hba1c"]
        )
        assert code == 3
        assert "disconnected" in capsys.readouterr().err

    def test_evidence_without_endpoints_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "trials_only.csv"
        path.write_text("#trials\n", encoding="utf-8")
        code = main(["analyze", "--input", str(path), "--estimand", "hypothetical"])
        assert (code, capsys.readouterr().err) == (2, "data error: evidence base declares no endpoints\n")

    DEGENERATE = (
        "#trials\ntrial_id,arms\nT1,A;B\nT2,B;C\n"
        "#estimands\n"
        "trial_id,label,population,endpoint_name,units,timepoint_weeks,summary_measure,ie_handlings\n"
        "T1,primary,adults,outcome,u,12,mean_difference,dropout:hypothetical\n"
        "T2,primary,adults,outcome,u,12,mean_difference,dropout:hypothetical\n"
        "#contrasts\n"
        "trial_id,estimand_label,endpoint_name,treatment,comparator,md,se,ci_lower,ci_upper,ci_level\n"
        "T1,primary,outcome,A,B,1.0,1e-8,,,\n"
        "T2,primary,outcome,B,C,1.0,1e8,,,\n"
    )

    def test_numerical_failure_exit_four(self, tmp_path, capsys):
        path = tmp_path / "degenerate.csv"
        path.write_text(self.DEGENERATE, encoding="utf-8")
        code = main(["analyze", "--input", str(path), "--estimand", "hypothetical",
                     "--endpoint", "outcome"])
        assert code == 4
        assert "numerical failure: normal equations too ill-conditioned" in capsys.readouterr().err

    def test_network_cross_checks_degenerate_weights(self, tmp_path, capsys):
        path = tmp_path / "degenerate.csv"
        path.write_text(self.DEGENERATE, encoding="utf-8")
        assert main(["network", "--input", str(path), "--endpoint", "outcome"]) == 4
        assert "numerical failure: connectivity checks disagree" in capsys.readouterr().err

    def test_unknown_estimand_usage_error(self, capsys):
        code = main(["analyze", "--input", CASE, "--estimand", "bogus", "--endpoint", "hba1c"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_ambiguous_endpoint_usage_error(self, capsys):
        code = main(["analyze", "--input", CASE, "--estimand", "hypothetical"])
        assert code == 1
        assert "--endpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("endpoint, message", [
        ("cholesterol", f"unknown endpoint 'cholesterol'; file has: {HBA1C}, {WEIGHT}"),
        ("change", f"endpoint 'change' is ambiguous: {HBA1C}, {WEIGHT}"),
    ])
    def test_unresolved_endpoint_usage_error(self, endpoint, message, capsys):
        code = main(["analyze", "--input", CASE, "--estimand", "hypothetical", "--endpoint", endpoint])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_missing_input_usage_error(self, capsys):
        assert main(["analyze", "--estimand", "hypothetical"]) == 1

    def test_reference_flag(self, capsys):
        code = main(
            [
                "analyze", "--input", CASE, "--estimand", "treatment_policy",
                "--endpoint", "body weight", "--reference", "semaglutide 2.0 mg QW",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reference"] == "semaglutide 2.0 mg QW"

    def test_strict_mode_drops_forte(self, capsys):
        code = main(
            ["analyze", "--input", CASE, "--estimand", "hypothetical", "--endpoint", "hba1c",
             "--strict"]
        )
        assert code == 0
        out = capsys.readouterr()
        # SUSTAIN FORTE declares an extra dose-change event, so strict matching
        # drops it and semaglutide 2.0 mg leaves the network entirely.
        assert "semaglutide 2.0 mg QW" not in out.out
        assert "3 contrasts used, 13 excluded" in out.err

    def test_contrasts_under_several_estimands_exit_three(self, tmp_path, capsys):
        path = tmp_path / "two_estimands.csv"
        path.write_text(TWO_ESTIMANDS_CSV, encoding="utf-8")
        assert main(["analyze", "--input", str(path), "--estimand", "hypothetical"]) == 3
        err = capsys.readouterr().err
        assert "covariance_unidentifiable: trial 'T1' contributes contrasts under several estimands" in err

    def test_forced_contrasts_under_several_estimands_exit_three(self, tmp_path, capsys):
        path = tmp_path / "two_estimands.csv"
        path.write_text(TWO_ESTIMANDS_CSV, encoding="utf-8")
        assert main(["analyze", "--input", str(path), "--estimand", "hypothetical", "--force"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible: ")
        assert "covariance_unidentifiable: trial 'T1' contributes contrasts under several estimands" in err

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_unbuildable_block_is_infeasible_whatever_the_reference(self, tmp_path, capsys, force):
        path = tmp_path / "two_estimands.csv"
        path.write_text(TWO_ESTIMANDS_CSV, encoding="utf-8")
        code = main(["analyze", "--input", str(path), "--estimand", "hypothetical", "--reference", "Z", *force])
        assert code == 3
        assert "covariance_unidentifiable" in capsys.readouterr().err

    def test_forced_unknown_reference_usage_error(self, capsys):
        code = main(["analyze", "--input", CASE, "--estimand", "hypothetical", "--endpoint", "hba1c",
                     "--force", "--reference", "Z"])
        assert code == 1
        assert "unknown treatment 'Z'" in capsys.readouterr().err

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "plan.json"
        config.write_text(
            json.dumps(
                {
                    "meta_estimands": [{"label": "hypothetical", "strategy": "hypothetical"}],
                    "reference": "dulaglutide 1.5 mg QW",
                    "ci_level": 0.9,
                }
            ),
            encoding="utf-8",
        )
        code = main(
            ["analyze", "--input", CASE, "--estimand", "hypothetical", "--endpoint", "hba1c",
             "--config", str(config), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ci_level"] == 0.9


_FULL = {
    "label": "custom",
    "population": "adults",
    "treatments": ["semaglutide 2.0 mg QW", "dulaglutide 3.0 mg QW"],
    "endpoint_name": "change from baseline in HbA1c",
    "units": "%-points",
    "timepoint_weeks": 40,
    "summary_measure": "mean_difference",
    "ie_handlings": [{"event_name": "premature treatment discontinuation", "strategy": "hypothetical"}],
}
_SHORTHAND = {"label": "hypothetical", "strategy": "hypothetical"}


class TestPlanFileFaults:
    """Every fault in a plan file is a data error at its place, never a traceback."""

    @pytest.mark.parametrize(
        "plan, where",
        [
            ({"meta_estimands": [{k: v for k, v in _FULL.items() if k != "units"}]}, "meta_estimands[0]"),
            ({"meta_estimands": [{k: v for k, v in _FULL.items() if k != "label"}]}, "meta_estimands[0]"),
            ({"meta_estimands": [{**_FULL, "ie_handlings": ["x"]}]}, "meta_estimands[0]"),
            ({"meta_estimands": _SHORTHAND}, "config"),
            ([1, 2], "config"),
            ({"meta_estimands": [{**_SHORTHAND, "timepoint_tolerance_weeks": 4.9}]}, "meta_estimands[0]"),
            ({"meta_estimands": [_SHORTHAND], "endpoints": "change from baseline in hba1c"}, "config"),
            ("{not json", "config"),
        ],
        ids=["no-units", "no-label", "handling-not-object", "estimands-object", "top-level-list",
             "fractional-tolerance", "endpoints-string", "invalid-json"],
    )
    def test_data_error_at_its_place(self, plan, where, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(plan if isinstance(plan, str) else json.dumps(plan), encoding="utf-8")
        code = main(["analyze", "--input", CASE, "--estimand", "hypothetical", "--endpoint", "hba1c",
                     "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {where}: ")
        assert err.count("\n") == 1

    def test_one_treatment_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"meta_estimands": [{**_FULL, "treatments": ["A"]}]}), encoding="utf-8")
        code = main(["analyze", "--input", CASE, "--estimand", "custom", "--endpoint", "hba1c", "--config", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: meta_estimands[0]: a comparative estimand needs at least two treatments\n")

    def test_label_declared_twice_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        records = [{"label": "target", "strategy": "hypothetical"},
                   {"label": "Target", "strategy": "treatment_policy", "matching_mode": "strict"}]
        path.write_text(json.dumps({"meta_estimands": records}), encoding="utf-8")
        code = main(["analyze", "--input", CASE, "--estimand", "Target", "--endpoint", "hba1c",
                     "--config", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: meta_estimands[1]: meta-estimand 'Target' is declared twice")

    @pytest.mark.parametrize("record, estimand", [(_SHORTHAND, "hypothetical"), (_FULL, "custom")],
                             ids=["shorthand", "full"])
    def test_negative_tolerance_is_a_data_error(self, record, estimand, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"meta_estimands": [{**record, "timepoint_tolerance_weeks": -1}]}),
                        encoding="utf-8")
        code = main(["analyze", "--input", CASE, "--estimand", estimand, "--endpoint", "hba1c",
                     "--config", str(path)])
        assert (code, capsys.readouterr().err) == (
            2, "data error: meta_estimands[0]: timepoint tolerance must be nonnegative\n"
        )

    def test_unsatisfiable_shorthand_stays_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"meta_estimands": [{"strategy": "composite"}]}), encoding="utf-8")
        code = main(["analyze", "--input", CASE, "--estimand", "hypothetical", "--endpoint", "hba1c",
                     "--config", str(path)])
        assert code == 1
        assert "no intercurrent event is handled by composite" in capsys.readouterr().err


SLICE_ARGV = {
    "analyze": ["analyze", "--input", CASE, "--estimand", "hypothetical", "--endpoint", "hba1c"],
    "compare": ["compare", "--input", CASE, "--estimands", "hypothetical", "treatment_policy",
                "--endpoint", "hba1c"],
}


class TestEmptyOptionValues:
    """An option given the empty string takes that value; it is not the option left out."""

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("planned", [False, True])
    def test_empty_reference_is_an_unknown_treatment(self, command, planned, tmp_path, capsys):
        plan = []
        if planned:  # a plan's reference does not stand in for the one given
            path = tmp_path / "plan.json"
            path.write_text(json.dumps({"meta_estimands": [_SHORTHAND], "reference": DULA_15}), encoding="utf-8")
            plan = ["--config", str(path)]
        assert main([*SLICE_ARGV[command], *plan, "--reference", ""]) == 1
        out = capsys.readouterr()
        assert "unknown treatment ''" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_empty_config_is_a_missing_plan(self, command, capsys):
        assert main([*SLICE_ARGV[command], "--config", ""]) == 2
        out = capsys.readouterr()
        assert out.err.startswith("data error: ")
        assert out.out == ""

    @pytest.mark.parametrize("argv", [["validate", "--input", CASE], *SLICE_ARGV.values()],
                             ids=["validate", *SLICE_ARGV])
    def test_empty_output_is_a_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--output", ""]) == 1
        out = capsys.readouterr()
        assert out.err == "usage error: --output must name a file, got ''\n"
        assert out.out == ""
        assert list(tmp_path.iterdir()) == []


class TestMatchingFlagsOverPlan:
    """--tolerance, --strict and --lenient override a configured record's matching policy."""

    @pytest.fixture
    def plan(self, tmp_path):
        def write(**policy):
            path = tmp_path / "plan.json"
            record = {"label": "hyp", "strategy": "hypothetical", **policy}
            path.write_text(json.dumps({"meta_estimands": [record], "endpoints": [HBA1C]}),
                            encoding="utf-8")
            return ["--input", CASE, "--endpoint", "hba1c", "--estimand", "hyp", "--config", str(path)]

        return write

    @staticmethod
    def used(capsys) -> str:
        (line,) = [line for line in capsys.readouterr().err.splitlines() if "contrasts used" in line]
        return line.split(": ")[1]

    def test_analyze_flags_take_precedence(self, plan, capsys):
        argv = ["analyze", *plan()]
        for flags, used in [([], 4), (["--strict"], 3), (["--tolerance", "0"], 2),
                            (["--tolerance", "0", "--strict"], 1)]:
            assert main([*argv, *flags]) == 0
            assert self.used(capsys) == f"{used} contrasts used, {16 - used} excluded", flags

    def test_flags_left_out_keep_the_record_policy(self, plan, capsys):
        argv = ["analyze", *plan(timepoint_tolerance_weeks=0, matching_mode="strict")]
        for flags, used in [([], 1), (["--lenient"], 2), (["--lenient", "--tolerance", "4"], 4)]:
            assert main([*argv, *flags]) == 0
            assert self.used(capsys) == f"{used} contrasts used, {16 - used} excluded", flags

    def test_network_flags_take_precedence(self, plan, capsys):
        assert main(["network", *plan(), "--tolerance", "0", "--strict"]) == 0
        assert "2 treatments, 1 comparisons, connected" in capsys.readouterr().err


class TestOutputDeterminism:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_machine_output_is_byte_identical(self, fmt, tmp_path):
        paths = [tmp_path / f"run{i}.{fmt}" for i in (1, 2)]
        for path in paths:
            code = main(
                ["analyze", "--input", CASE, "--estimand", "hypothetical",
                 "--endpoint", "hba1c", "--format", fmt, "--output", str(path)]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_full_precision(self, tmp_path):
        path = tmp_path / "league.csv"
        main(["analyze", "--input", CASE, "--estimand", "hypothetical", "--endpoint", "hba1c",
              "--format", "csv", "--output", str(path)])
        header, *rows = path.read_text(encoding="utf-8").strip().split("\n")
        assert header == "treatment,comparator,md,ci_lower,ci_upper,se"
        assert len(rows) == 20
        sample = rows[0].split(",")
        assert len(sample[2]) > 6  # repr precision, not 2-decimal rounding


class TestCompare:
    def test_attenuation_column(self, capsys):
        code = main(
            ["compare", "--input", CASE, "--estimands", "hypothetical", "treatment_policy",
             "--endpoint", "body weight"]
        )
        assert code == 0
        out = capsys.readouterr().out
        header, *rows = out.strip().split("\n")
        assert "attenuated" in header
        sema_rows = [r for r in rows if r.startswith("semaglutide 2.0 mg QW")]
        assert sema_rows and all(r.rstrip().endswith("yes") for r in sema_rows)

    def test_reports_each_slice_on_stderr(self, capsys):
        code = main(
            ["compare", "--input", CASE, "--estimands", "hypothetical", "treatment_policy",
             "--endpoint", "body weight"]
        )
        assert code == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if "contrasts used" in line]
        assert lines == [
            "change from baseline in body weight / hypothetical: 4 contrasts used, 12 excluded",
            "change from baseline in body weight / treatment_policy: 4 contrasts used, 12 excluded",
        ]

    def test_json_payload(self, capsys):
        code = main(
            ["compare", "--input", CASE, "--estimands", "hypothetical", "treatment_policy",
             "--endpoint", "hba1c", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["attenuated_label"] == "treatment_policy"
        row = next(
            r for r in payload["rows"]
            if r["treatment"] == "semaglutide 2.0 mg QW"
            and r["comparator"] == "dulaglutide 3.0 mg QW"
        )
        assert row["attenuation"] is True
        assert row["hypothetical"]["md"] == pytest.approx(-0.47, abs=0.03)

    @pytest.mark.parametrize("second", ["hypothetical", "HYPOTHETICAL"])
    def test_one_meta_estimand_twice_is_a_usage_error(self, second, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_analysis", lambda *args, **kwargs: ran.append(args))
        code = main(["compare", "--input", CASE, "--endpoint", "hba1c", "--estimands", "hypothetical", second])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --estimands names the meta-estimand 'hypothetical' twice\n"
        assert ran == []

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_labels_with_one_column_name_are_a_usage_error(self, fmt, capsys):
        """Two spellings of one strategy token would name the same CSV columns twice."""
        code = main(["compare", "--input", CASE, "--endpoint", "hba1c", "--format", fmt,
                     "--estimands", "treatment policy", "treatment_policy"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --estimands names the meta-estimand 'treatment policy' twice\n"

    def test_slices_covering_different_treatments_are_infeasible(self, tmp_path, capsys):
        # T1 reports B-A under both strategies, T2 reports C-A under the hypothetical one only
        path = tmp_path / "evidence.csv"
        path.write_text(
            "#trials\ntrial_id,arms\nT1,A;B\nT2,A;C\n"
            "#estimands\ntrial_id,label,population,endpoint_name,units,timepoint_weeks,summary_measure,ie_handlings\n"
            "T1,hyp,adults,outcome,u,12,mean_difference,dropout:hypothetical\n"
            "T1,tp,adults,outcome,u,12,mean_difference,dropout:treatment_policy\n"
            "T2,hyp,adults,outcome,u,12,mean_difference,dropout:hypothetical\n"
            "T2,tp,adults,outcome,u,12,mean_difference,dropout:treatment_policy\n"
            "#contrasts\ntrial_id,estimand_label,endpoint_name,treatment,comparator,md,se,ci_lower,ci_upper,ci_level\n"
            "T1,hyp,outcome,B,A,1.0,0.2,,,\nT1,tp,outcome,B,A,0.8,0.2,,,\nT2,hyp,outcome,C,A,0.5,0.3,,,\n",
            encoding="utf-8",
        )
        argv = ["compare", "--input", str(path), "--estimands", "hypothetical", "treatment_policy"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "infeasible: results cover different treatment sets: some slices lack ['c']\n"


class TestHelp:
    @pytest.mark.parametrize("argv", [["--help"], ["validate", "--help"], ["network", "--help"],
                                      ["analyze", "--help"], ["compare", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_analyze_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        text = capsys.readouterr().out
        for flag in ("--input", "--endpoint", "--estimand", "--reference", "--ci-level",
                     "--format", "--strict", "--lenient", "--tolerance", "--force",
                     "--config", "--output"):
            assert flag in text

    def test_compare_help_explains_shared_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["compare", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "confidence level (default: 0.95)" in text
        assert "downgrade recoverable feasibility errors to warnings" in text


class TestJsonInput:
    def test_json_evidence_auto_detected(self, case_base, tmp_path, capsys):
        path = tmp_path / "case.json"
        path.write_text(serialize_evidence(case_base, format="json"), encoding="utf-8")
        code = main(["analyze", "--input", str(path), "--estimand", "hypothetical",
                     "--endpoint", "hba1c", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {(r["treatment"], r["comparator"]): r for r in payload["comparisons"]}
        key = ("semaglutide 2.0 mg QW", "dulaglutide 3.0 mg QW")
        assert rows[key]["md"] == pytest.approx(-0.47, abs=0.03)


class TestCiLevel:
    """An explicit --ci-level is used as given, so an invalid one is a usage error."""

    @pytest.mark.parametrize("level", ["0", "1", "1.5", "1e-300"])
    def test_analyze_rejects_invalid_level(self, level, capsys):
        code = main(["analyze", "--input", CASE, "--estimand", "hypothetical",
                     "--endpoint", "hba1c", "--ci-level", level])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "confidence level" in captured.err

    @pytest.mark.parametrize("level", ["0", "1"])
    def test_compare_rejects_invalid_level(self, level, capsys):
        code = main(["compare", "--input", CASE, "--estimands", "hypothetical", "treatment_policy",
                     "--endpoint", "hba1c", "--ci-level", level])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "confidence level" in captured.err

    def test_valid_level_is_used(self, capsys):
        code = main(["analyze", "--input", CASE, "--estimand", "hypothetical",
                     "--endpoint", "hba1c", "--ci-level", "0.9"])
        assert code == 0
        assert "90% CI" in capsys.readouterr().out

    @pytest.mark.parametrize("level, shown", [("0.999", "99.9%"), ("0.995", "99.5%"), ("0.004", "0.4%"),
                                              ("0.9999999999999998", "99.99999999999997%")])
    def test_header_never_rounds_to_zero_or_a_hundred(self, level, shown, capsys):
        argv = ["--input", CASE, "--endpoint", "hba1c", "--ci-level", level]
        assert main(["analyze", "--estimand", "hypothetical", *argv]) == 0
        assert capsys.readouterr().out.splitlines()[0].split()[-3:] == ["md", shown, "CI"]
        assert main(["compare", "--estimands", "hypothetical", "treatment_policy", *argv]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert f"hypothetical md ({shown} CI)" in header and f"treatment_policy md ({shown} CI)" in header


class TestJsonDataErrors:
    """Faults in JSON evidence are data errors (exit 2) naming the record, as in CSV."""

    @pytest.mark.parametrize("md", ["abc", None])
    def test_bad_contrast_md(self, md, case_base, tmp_path, capsys):
        doc = json.loads(serialize_evidence(case_base, format="json"))
        doc["contrasts"][3]["md"] = md
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "contrasts[3]" in err and "'md'" in err


class TestExtremeSe:
    """An SE whose square or inverse square is not a finite nonzero number is a data error."""

    ROW = "semaglutide 2.0 mg QW,semaglutide 1.0 mg QW,-0.23,,"

    @pytest.mark.parametrize("se", ["1e-170", "1e-160", "1e200"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["analyze", "--estimand", "hypothetical", "--endpoint", "hba1c"],
            ["network", "--endpoint", "hba1c"],
        ],
        ids=["validate", "analyze", "network"],
    )
    def test_exit_two_naming_se(self, argv, se, tmp_path, capsys):
        text = Path(CASE).read_text(encoding="utf-8")
        assert text.count(self.ROW) == 1
        path = tmp_path / "extreme_se.csv"
        path.write_text(text.replace(self.ROW, f"{self.ROW[:-1]}{se},"), encoding="utf-8")
        assert main([argv[0], "--input", str(path), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "line" in err and "'se'" in err


class TestExtremeArmSe:
    """An arm row whose interval gives an SE without a finite nonzero square is a data error."""

    ROW = "AWARD-11,efficacy,change from baseline in HbA1c,dulaglutide 1.5 mg QW,612,-1.53,-1.61,-1.45,0.95"

    @pytest.mark.parametrize(
        "argv",
        [["validate"], ["analyze", "--estimand", "hypothetical", "--endpoint", "hba1c"]],
        ids=["validate", "analyze"],
    )
    def test_exit_two_at_the_arm_line(self, argv, tmp_path, capsys):
        lines = Path(CASE).read_text(encoding="utf-8").splitlines(keepends=True)
        (number,) = [n for n, line in enumerate(lines, start=1) if line.rstrip("\n") == self.ROW]
        lines[number - 1] = self.ROW.replace("-1.61,-1.45", "-1e200,1e200") + "\n"
        path = tmp_path / "extreme_arm.csv"
        path.write_text("".join(lines), encoding="utf-8")
        assert main([argv[0], "--input", str(path), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert f"data error: line {number}: " in err and "out of range" in err
