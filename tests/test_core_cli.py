"""Tests for the command-line interface."""

import pytest

from repro.core.cli import build_parser, main


class TestParser:
    def test_metric_parsing(self):
        args = build_parser().parse_args(
            ["dse", "--design", "tirex", "--metric", "LUT:min",
             "--metric", "frequency:max"]
        )
        assert [m.canonical_name() for m in args.metrics] == ["LUT", "frequency"]

    def test_param_dim_parsing(self):
        args = build_parser().parse_args(
            ["dse", "--source", "x.v", "--top", "m",
             "--param", "W:4:32", "--param", "MEM:3:6:pow2"]
        )
        assert args.dims[0].name == "W"
        assert args.dims[1].decode(4) == 16

    def test_assignment_parsing(self):
        args = build_parser().parse_args(
            ["eval", "--design", "neorv32", "--set", "MEM_INT_IMEM_SIZE=0x2000"]
        )
        assert dict(args.assignments)["MEM_INT_IMEM_SIZE"] == 0x2000


class TestCommands:
    def test_list_designs(self, capsys):
        assert main(["list-designs"]) == 0
        out = capsys.readouterr().out
        for name in ("corundum-cqm", "cv32e40p-fifo", "neorv32", "tirex"):
            assert name in out

    def test_list_parts(self, capsys):
        assert main(["list-parts"]) == 0
        out = capsys.readouterr().out
        assert "XC7K70TFBV676-1" in out
        assert "XCZU3EG-SBVA484-1" in out

    def test_eval_command(self, capsys):
        rc = main([
            "eval", "--design", "corundum-cqm",
            "--set", "OP_TABLE_SIZE=16", "--set", "PIPELINE=3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OP_TABLE_SIZE=16" in out
        assert "Utilization" in out
        assert "WNS" in out

    def test_dse_command(self, capsys, tmp_path):
        rc = main([
            "dse", "--design", "corundum-cqm", "--generations", "2",
            "--population", "8", "--no-model", "--seed", "3",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Non-dominated set" in out
        assert "tool-hours" in out
        assert (tmp_path / "dse.json").exists()

    def test_dse_with_raw_source(self, capsys, tmp_path):
        src = tmp_path / "m.v"
        src.write_text(
            "module m #(parameter W = 8)"
            "(input wire clk, input wire [W-1:0] d, output reg [W-1:0] q);"
            " endmodule"
        )
        rc = main([
            "dse", "--source", str(src), "--top", "m",
            "--param", "W:4:16", "--generations", "2", "--population", "6",
            "--no-model",
        ])
        assert rc == 0
        assert "Non-dominated set" in capsys.readouterr().out

    def test_dse_raw_source_needs_params(self, tmp_path):
        src = tmp_path / "m.v"
        src.write_text("module m(input wire clk); endmodule")
        with pytest.raises(SystemExit, match="--param"):
            main(["dse", "--source", str(src), "--top", "m"])

    def test_source_without_top_exits(self):
        with pytest.raises(SystemExit):
            main(["eval", "--source", "whatever.v"])

    def test_hierarchy_command(self, capsys, tmp_path):
        src = tmp_path / "soc.v"
        src.write_text(
            "module soc(input wire clk); cpu u_cpu(.clk(clk)); endmodule\n"
            "module cpu(input wire clk); endmodule\n"
        )
        assert main(["hierarchy", str(src)]) == 0
        out = capsys.readouterr().out
        assert "soc" in out and "u_cpu: cpu" in out

    def test_hierarchy_explicit_root(self, capsys, tmp_path):
        src = tmp_path / "soc.v"
        src.write_text(
            "module soc(input wire clk); cpu u_cpu(.clk(clk)); endmodule\n"
            "module cpu(input wire clk); endmodule\n"
        )
        assert main(["hierarchy", str(src), "--root", "cpu"]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[0] == "cpu"

    def test_dse_workers_flag(self, capsys, tmp_path):
        """--workers fans population evaluation over the persistent pool
        and must reproduce the serial run bit for bit."""
        common = [
            "dse", "--design", "corundum-cqm", "--generations", "2",
            "--population", "8", "--no-model", "--seed", "3",
        ]
        assert main(common + ["--out", str(tmp_path / "serial")]) == 0
        serial_out = capsys.readouterr().out
        assert main(
            common + ["--workers", "2", "--out", str(tmp_path / "pool")]
        ) == 0
        pool_out = capsys.readouterr().out
        assert "Non-dominated set" in pool_out

        def sans_paths(text):
            return [ln for ln in text.splitlines() if str(tmp_path) not in ln]

        assert sans_paths(pool_out) == sans_paths(serial_out)

        from repro.util.io import load_json

        serial = load_json(tmp_path / "serial" / "dse.json")
        pool = load_json(tmp_path / "pool" / "dse.json")
        assert serial["pareto"] == pool["pareto"]
        assert serial["evaluations"] == pool["evaluations"]

    def test_dse_refit_flags_parse(self):
        args = build_parser().parse_args(
            ["dse", "--design", "tirex", "--workers", "4",
             "--refit-every", "8", "--refit-gamma-drift", "0.05"]
        )
        assert args.workers == 4
        assert args.refit_every == 8
        assert args.refit_gamma_drift == 0.05

    def test_dse_incremental_flag_reaches_the_evaluator(self):
        from repro.core.cli import _make_session

        args = build_parser().parse_args(
            ["dse", "--design", "cv32e40p-fifo", "--incremental"]
        )
        assert _make_session(args, True).evaluator.incremental

    def test_dse_mosa_algorithm(self, capsys):
        rc = main([
            "dse", "--design", "corundum-cqm", "--generations", "2",
            "--population", "6", "--no-model", "--algorithm", "mosa",
        ])
        assert rc == 0
        assert "Non-dominated set" in capsys.readouterr().out

    def test_dse_auto_algorithm_reports_choice(self, capsys):
        rc = main([
            "dse", "--design", "neorv32", "--no-model", "--algorithm", "auto",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "algorithm choice:" in out
        # Neorv32's canonical space has 25 points: enumerated.
        assert "exhaustive" in out

    def test_flow_error_returns_1(self, capsys):
        rc = main([
            "eval", "--design", "tirex", "--part", "XC7A35T",
            "--set", "NCLUSTER=8", "--set", "INSTR_MEM_SIZE=64",
            "--set", "DATA_MEM_SIZE=64",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestInputErrors:
    """A bad input file or name prints one ``error:`` line and returns 1."""

    @pytest.mark.parametrize("argv", [
        ["hierarchy", "{missing}"],
        ["stats", "{missing}"],
        ["eval", "--source", "{missing}", "--top", "t"],
        ["dse", "--source", "{missing}", "--top", "t", "--param", "W:1:4"],
        ["sweep", "--source", "{missing}", "--top", "t", "--grid", "W=1,2"],
        ["eval", "--design", "nope"],
        ["stats", "{not_jsonl}"],
    ], ids=["hierarchy", "stats", "eval-source", "dse-source", "sweep-source",
            "eval-design", "stats-not-jsonl"])
    def test_one_error_line(self, argv, tmp_path, capsys):
        not_jsonl = tmp_path / "fifo.v"
        not_jsonl.write_text("module fifo; endmodule\n")
        names = {"missing": tmp_path / "nope.v", "not_jsonl": not_jsonl}
        assert main([arg.format(**names) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestReadOnlyCommands:
    """Commands that only read a store or queue create neither."""

    @pytest.mark.parametrize("action", ["stats", "export", "clear", "compact"])
    def test_cache_on_missing_store(self, action, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["cache", action, "--store", str(store)]) == 1
        assert "no result store" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize("argv", [["jobs"], ["cancel", "job-000000"]])
    def test_queue_commands_on_missing_root(self, argv, tmp_path, capsys):
        root = tmp_path / "svc"
        assert main(argv + ["--root", str(root)]) == 1
        assert "no job queue" in capsys.readouterr().err
        assert not root.exists()

    def test_submit_still_creates_its_root(self, tmp_path, capsys):
        root = tmp_path / "svc"
        assert main(["submit", "--root", str(root), "--design", "tirex"]) == 0
        assert main(["jobs", "--root", str(root)]) == 0
        assert "tirex" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_grid(self, capsys):
        rc = main([
            "sweep", "--design", "corundum-cqm",
            "--grid", "OP_TABLE_SIZE=8,16", "--grid", "PIPELINE=2,4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Sweep: 4 configurations" in out
        assert "Pareto subset" in out

    def test_sweep_csv_export(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--design", "corundum-cqm",
            "--grid", "OP_TABLE_SIZE=8,24", "--csv", str(csv_path),
        ])
        assert rc == 0
        assert csv_path.exists()

    def test_sweep_requires_grid(self):
        with pytest.raises(SystemExit, match="--grid"):
            main(["sweep", "--design", "corundum-cqm"])

    def test_sweep_bad_grid_format(self):
        with pytest.raises(SystemExit, match="NAME=V1"):
            main(["sweep", "--design", "corundum-cqm", "--grid", "OPS"])


class TestTelemetryCli:
    def test_explore_alias(self, capsys):
        rc = main([
            "explore", "--design", "cv32e40p-fifo", "--generations", "1",
            "--population", "6", "--pretrain", "4",
        ])
        assert rc == 0
        assert "Non-dominated set" in capsys.readouterr().out

    def test_dse_trace_writes_valid_jsonl_and_summary(self, capsys, tmp_path):
        from repro.observe import current_telemetry, read_trace, validate_trace

        trace = tmp_path / "trace.jsonl"
        rc = main([
            "dse", "--design", "cv32e40p-fifo", "--generations", "2",
            "--population", "6", "--pretrain", "6", "--seed", "2",
            "--trace", str(trace),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Run ledger" in out
        assert "trace written" in out
        # Telemetry is torn down after the run.
        assert current_telemetry() is None
        assert validate_trace(trace) == []
        parsed = read_trace(trace)
        assert parsed["meta"]["command"] == "dse"
        assert len(parsed["ledger"]) > 0
        assert parsed["generations"]

    def test_sweep_trace(self, capsys, tmp_path):
        from repro.observe import validate_trace

        trace = tmp_path / "sweep.jsonl"
        rc = main([
            "sweep", "--design", "corundum-cqm",
            "--grid", "OP_TABLE_SIZE=8,16", "--trace", str(trace),
        ])
        assert rc == 0
        assert validate_trace(trace) == []

    def test_stats_command_renders_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "dse", "--design", "cv32e40p-fifo", "--generations", "1",
            "--population", "6", "--pretrain", "4", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Run ledger" in out
        assert "Spans" in out


class TestResultStoreCli:
    def test_sweep_warm_store_replays(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        args = [
            "sweep", "--design", "corundum-cqm",
            "--grid", "OP_TABLE_SIZE=8,16", "--result-store", store,
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        # Same table rows, but the warm run answers from the store.
        assert "tool" in cold
        assert "cache" in warm

    def test_cache_stats_and_export(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        main([
            "sweep", "--design", "corundum-cqm",
            "--grid", "OP_TABLE_SIZE=8,16", "--result-store", store,
        ])
        capsys.readouterr()

        assert main(["cache", "stats", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "unique_keys" in out
        assert "kind:point" in out

        export = tmp_path / "dump.jsonl"
        assert main(["cache", "export", "--store", store,
                     "--out", str(export)]) == 0
        assert export.exists()
        assert len(export.read_text().splitlines()) == 2

    def test_cache_clear(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        main([
            "sweep", "--design", "corundum-cqm",
            "--grid", "OP_TABLE_SIZE=8", "--result-store", store,
        ])
        capsys.readouterr()
        assert main(["cache", "clear", "--store", store]) == 0
        assert "1" in capsys.readouterr().out

    def test_dse_accepts_result_store(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        rc = main([
            "dse", "--design", "corundum-cqm", "--generations", "1",
            "--population", "6", "--no-model", "--seed", "3",
            "--result-store", store,
        ])
        assert rc == 0
        from repro.cache import ResultStore

        assert len(ResultStore(store)) > 0


class TestServeCli:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--capacity", "0"),
            ("--capacity", "-2"),
            ("--slots", "0"),
            ("--shards", "0"),
            # The admission flags are gone: passing one is a usage error.
            ("--admission-backoff", "1.5"),
            ("--admission-backoff", "0"),
            ("--admission-backoff", "1"),
            ("--admission", "fixed"),
            ("--max-claim", "4"),
        ],
    )
    def test_bad_option_is_a_usage_error(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([
                "serve", "--root", str(tmp_path / "svc"), "--max-idle", "0.2",
                flag, value,
            ])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_no_coalesce_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "serve", "--root", str(tmp_path / "svc"), "--max-idle", "0.2",
                "--no-coalesce",
            ])
        assert exc.value.code == 2

    def test_zero_slots_leaves_the_queued_job_queued(self, tmp_path):
        from repro.serve import FileJobQueue, JobState

        root = tmp_path / "svc"
        assert main([
            "submit", "--root", str(root), "--design", "cv32e40p-fifo",
            "--generations", "1", "--population", "4",
        ]) == 0
        with pytest.raises(SystemExit) as exc:
            main([
                "serve", "--root", str(root), "--slots", "0",
                "--stop-after", "1", "--max-idle", "0.2",
            ])
        assert exc.value.code == 2
        (job,) = FileJobQueue(root / "queue").jobs()
        assert job.state == JobState.QUEUED
