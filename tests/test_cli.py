"""Tests for the command-line interface."""

import pytest

from repro.cli import main, resolve_circuit


class TestResolve:
    def test_catalog_name(self):
        assert resolve_circuit("s27").name == "s27"

    def test_bench_file(self, tmp_path, s27):
        from repro.circuit.bench_parser import write_bench_file

        path = tmp_path / "c.bench"
        write_bench_file(s27, path)
        assert resolve_circuit(str(path)).num_gates == 10

    def test_verilog_file(self, tmp_path, s27):
        from repro.circuit.verilog import write_verilog_file

        path = tmp_path / "c.v"
        write_verilog_file(s27, path)
        assert resolve_circuit(str(path)).num_gates == 10

    def test_unknown(self):
        with pytest.raises(KeyError):
            resolve_circuit("nonexistent")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "s27" in out and "synthetic" in out

    def test_stats(self, capsys):
        assert main(["stats", "s27"]) == 0
        assert "pi=4" in capsys.readouterr().out

    def test_stats_with_testability(self, capsys):
        assert main(["stats", "s27", "--testability"]) == 0
        assert "SCOAP" in capsys.readouterr().out

    def test_faults(self, capsys):
        assert main(["faults", "s27"]) == 0
        out = capsys.readouterr().out
        assert "collapsed: 32" in out

    def test_lint_clean_circuit(self, capsys):
        assert main(["lint", "s27"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_lint_json(self, capsys):
        import json

        assert main(["lint", "s27", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["circuit"] == "s27" and data["errors"] == 0

    def test_lint_broken_bench_file(self, tmp_path, capsys):
        path = tmp_path / "broken.bench"
        path.write_text(
            "INPUT(a)\nOUTPUT(x)\nx = AND(a, ghost)\n"
        )
        assert main(["lint", str(path)]) == 1
        assert "ghost" in capsys.readouterr().out

    def test_lint_strict_fails_on_warnings(self, tmp_path, capsys):
        path = tmp_path / "dangles.bench"
        path.write_text(
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nunused = BUFF(a)\n"
        )
        assert main(["lint", str(path)]) == 0
        assert main(["lint", str(path), "--strict"]) == 1
        # T005 fires too: the dangling net's faults have p_detect = 0.
        assert main(["lint", str(path), "--strict",
                     "--suppress", "S006,T002,T005"]) == 0

    def test_lint_without_target(self, capsys):
        assert main(["lint"]) == 2

    def test_lint_tier_requires_all(self, capsys):
        assert main(["lint", "s27", "--tier", "small"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_lint_all_tier_restricts_sweep(self, capsys):
        assert main(["lint", "--all", "--tier", "small"]) == 0
        out = capsys.readouterr().out
        assert "s27" in out
        assert "s38584" not in out  # large tier excluded

    def test_analyze_text(self, capsys):
        assert main(["analyze", "s27"]) == 0
        out = capsys.readouterr().out
        assert "collapsed faults: 32" in out
        assert "RPR" in out

    def test_analyze_json_schema(self, capsys):
        import json

        assert main(["analyze", "s208", "--json", "--top", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == 1
        assert data["circuit"] == "s208"
        assert len(data["fingerprint"]) == 64
        assert data["faults"]["rpr"] > 0
        assert len(data["top_rpr_faults"]) == 3
        assert all(
            entry["p"] < data["rpr_threshold"]
            for entry in data["top_rpr_faults"]
        )

    def test_analyze_threshold(self, capsys):
        import json

        # Threshold 0 keeps only exactly-untestable faults in RPR.
        assert main(["analyze", "s27", "--json", "--threshold", "1e-9"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rpr_threshold"] == 1e-9
        assert data["faults"]["rpr"] == 0

    def test_analyze_uses_cache(self, tmp_path, capsys):
        import json

        argv = ["analyze", "s27", "--json", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cache_hit"] is False
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cache_hit"] is True
        # The cache only changes the flag, never the analysis.
        cold.pop("cache_hit"), warm.pop("cache_hit")
        assert cold == warm

    def test_analyze_unparseable_file(self, tmp_path, capsys):
        path = tmp_path / "broken.bench"
        path.write_text("INPUT(a)\nOUTPUT(x)\nx = AND(a, ghost)\n")
        assert main(["analyze", str(path)]) == 1

    def test_run_candidate_bias_flag(self, capsys):
        argv = ["run", "s27", "--la", "4", "--lb", "8", "--n", "8"]
        assert main(argv + ["--candidate-bias", "testability"]) == 0
        assert "complete" in capsys.readouterr().out

    def test_run(self, capsys):
        code = main(["run", "s27", "--la", "4", "--lb", "8", "--n", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "complete" in out

    def test_run_checkpoint_and_resume(self, tmp_path, capsys):
        journal = tmp_path / "s27.journal"
        argv = ["run", "s27", "--la", "4", "--lb", "8", "--n", "8",
                "--checkpoint", str(journal)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert journal.exists()
        # Resuming a finished journal replays it to identical output.
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_run_resume_requires_checkpoint(self, capsys):
        code = main(["run", "s27", "--resume"])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_first_complete(self, capsys):
        code = main(["first-complete", "s27", "--max-combos", "4"])
        assert code == 0
        assert "s27" in capsys.readouterr().out

    def test_table5(self, capsys):
        assert main(["table", "5"]) == 0
        assert "N_SV = 21" in capsys.readouterr().out

    def test_table_unknown(self, capsys):
        assert main(["table", "99"]) == 2

    def test_convert_to_verilog_and_back(self, tmp_path, capsys):
        v_path = tmp_path / "s27.v"
        b_path = tmp_path / "s27.bench"
        assert main(["convert", "s27", str(v_path)]) == 0
        assert main(["convert", str(v_path), str(b_path)]) == 0
        from repro.circuit.bench_parser import parse_bench_file

        assert parse_bench_file(b_path).num_gates == 10

    def test_convert_unknown_format(self, tmp_path, capsys):
        assert main(["convert", "s27", str(tmp_path / "x.json")]) == 2


class TestFuzzCommand:
    def test_fuzz_smoke(self, capsys):
        code = main([
            "fuzz", "--budget", "10", "--seed", "0", "--no-sandbox",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "seed=0 budget=10" in out
        assert "no unique failures" in out

    def test_fuzz_deterministic_output(self, capsys):
        main(["fuzz", "--budget", "8", "--seed", "3", "--no-sandbox"])
        first = capsys.readouterr().out
        main(["fuzz", "--budget", "8", "--seed", "3", "--no-sandbox"])
        assert capsys.readouterr().out == first

    def test_fuzz_json(self, capsys):
        import json

        code = main([
            "fuzz", "--budget", "5", "--seed", "1", "--no-sandbox", "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 1
        assert sum(report["counts"].values()) == 5

    def test_fuzz_replay_corpus(self, capsys):
        from pathlib import Path

        corpus = Path(__file__).parent / "corpus"
        assert main(["fuzz", "--replay", str(corpus)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_fuzz_replay_missing_dir(self, tmp_path, capsys):
        assert main(["fuzz", "--replay", str(tmp_path)]) == 2


class TestConfigErrors:
    @pytest.mark.parametrize("cmd", ["run", "first-complete"])
    @pytest.mark.parametrize(
        "opts, message",
        [
            (["--jobs", "0"], "n_jobs must be >= 1"),
            (["--la", "9", "--lb", "4"], "L_A < L_B"),
        ],
    )
    def test_bad_value_is_one_error_line(self, cmd, opts, message, capsys):
        assert main([cmd, "s27", *opts]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and message in line


class TestIngestionErrors:
    def test_unparseable_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.bench"
        bad.write_text("INPUT(a)\nOUTPUT(x)\nx = FROB(a)\n")
        assert main(["stats", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "E002" in err

    def test_unknown_benchmark_exits_2(self, capsys):
        assert main(["stats", "no-such-circuit"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_error_lists_every_issue(self, tmp_path, capsys):
        bad = tmp_path / "multi.bench"
        bad.write_text(
            "INPUT(a)\nINPUT(a)\nOUTPUT(x)\nx = FROB(ghost)\nx = NOT(a)\n"
        )
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "E002" in out and "E004" in out
