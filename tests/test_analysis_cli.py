"""Tests for the ``dovado-repro lint`` subcommand: exit codes and formats."""

import json

import pytest

from repro.core.cli import main

NULLABLE_SV = """
module nullable #(parameter W = 4) (
  input  logic clk,
  output logic [W-2:0] q
);
endmodule
"""

CLOCKLESS_SV = "module warny(input logic a, output logic q); endmodule"


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "nullable.sv"
    path.write_text(NULLABLE_SV)
    return str(path)


@pytest.fixture
def warn_file(tmp_path):
    path = tmp_path / "warny.sv"
    path.write_text(CLOCKLESS_SV)
    return str(path)


class TestExitCodes:
    def test_clean_design_exits_zero(self, capsys):
        assert main(["lint", "--design", "cv32e40p-fifo"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_errors_exit_two(self, bad_file, capsys):
        assert main(["lint", bad_file, "--at", "W=1"]) == 2
        out = capsys.readouterr().out
        assert "P001" in out and "1 error(s)" in out

    def test_warnings_exit_zero_without_strict(self, warn_file):
        assert main(["lint", warn_file, "--no-box"]) == 0

    def test_warnings_exit_one_under_strict(self, warn_file, capsys):
        assert main(["lint", warn_file, "--no-box", "--strict"]) == 1
        assert "W002" in capsys.readouterr().out

    def test_disable_silences_rule(self, warn_file):
        code = main(
            ["lint", warn_file, "--no-box", "--strict", "--disable", "W002"]
        )
        assert code == 0

    def test_missing_inputs_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint"])


class TestFormats:
    def test_list_rules_prints_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("E001", "E005", "W004", "P001", "P005", "B001", "H002"):
            assert code in out

    def test_json_format(self, bad_file, capsys):
        assert main(["lint", bad_file, "--at", "W=1", "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        [finding] = [f for f in payload["findings"] if f["code"] == "P001"]
        assert finding["severity"] == "error"
        assert finding["module"] == "nullable"
        assert finding["fingerprint"]

    def test_sarif_format_shape(self, bad_file, capsys):
        assert main(["lint", bad_file, "--at", "W=1", "--format", "sarif"]) == 2
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "P001" in rule_ids and "E001" in rule_ids
        [result] = run["results"]
        assert result["ruleId"] == "P001"
        assert result["level"] == "error"
        assert result["partialFingerprints"]["dovadoRepro/v1"]
        location = result["locations"][0]
        assert location["logicalLocations"][0]["name"] == "nullable"

    def test_sarif_clean_has_empty_results(self, capsys):
        code = main(
            ["lint", "--design", "cv32e40p-fifo", "--format", "sarif"]
        )
        assert code == 0
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["runs"][0]["results"] == []

    def test_output_file(self, bad_file, tmp_path, capsys):
        report = tmp_path / "report.sarif"
        code = main(
            ["lint", bad_file, "--at", "W=1", "--format", "sarif",
             "--output", str(report)]
        )
        assert code == 2  # exit code reflects findings even when redirected
        assert json.loads(report.read_text())["runs"]
        assert str(report) in capsys.readouterr().out


class TestBaseline:
    def test_roundtrip_suppresses_and_blocks_new(self, warn_file, tmp_path, capsys):
        baseline = str(tmp_path / "drc-baseline.json")
        assert main(
            ["lint", warn_file, "--no-box",
             "--baseline", baseline, "--update-baseline"]
        ) == 0
        assert "baseline written" in capsys.readouterr().out
        # Baselined warnings no longer fail strict runs.
        assert main(
            ["lint", warn_file, "--no-box", "--strict", "--baseline", baseline]
        ) == 0
        # A *different* finding is not covered by the baseline.
        other = tmp_path / "other.sv"
        other.write_text("module other(input logic x, output logic y); endmodule")
        assert main(
            ["lint", str(other), "--no-box", "--strict", "--baseline", baseline]
        ) == 1

    def test_update_baseline_requires_path(self, warn_file):
        with pytest.raises(SystemExit, match="--update-baseline"):
            main(["lint", warn_file, "--update-baseline"])


class TestDesignSweep:
    @pytest.mark.parametrize(
        "name", ["corundum-cqm", "cv32e40p", "cv32e40p-fifo", "neorv32", "tirex"]
    )
    def test_builtin_designs_strict_clean(self, name, capsys):
        assert main(["lint", "--design", name, "--strict"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_explicit_point(self, capsys):
        code = main(
            ["lint", "--design", "cv32e40p-fifo", "--at", "DEPTH=4"]
        )
        assert code == 0

    def test_dead_parameter_of_module_after_endmodule(self, tmp_path, capsys):
        two = tmp_path / "two.v"
        two.write_text(
            "module child(input wire clk); endmodule\n"
            "module top #(parameter USED = 2, parameter DEAD = 3)(\n"
            "  input wire clk, output wire [USED-1:0] q);\n"
            "  child u_child (.clk(clk));\n"
            "endmodule\n"
        )
        main(["lint", str(two), "--top", "top", "--no-box"])
        out = capsys.readouterr().out
        assert "D001" in out and "DEAD" in out

    def test_eval_surfaces_drc_error(self, bad_file, capsys):
        # The eval flow hits the evaluator's gate and reports, exit 1.
        code = main(
            ["eval", "--source", bad_file, "--top", "nullable",
             "--set", "W=1"]
        )
        assert code == 1
        assert "DRC pre-flight" in capsys.readouterr().err
