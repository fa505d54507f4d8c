"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _validate_args, build_parser, main


class TestParser:
    def test_workload_args(self):
        args = build_parser().parse_args(
            ["workload", "--sessions", "10", "--out", "t.json"]
        )
        assert args.command == "workload"
        assert args.sessions == 10

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.mode == "ca"
        assert args.model == "llama-13b"

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--model", "gpt-99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "llama-13b" in out
        assert "falcon-40b" in out

    def test_workload_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main(
            ["workload", "--sessions", "12", "--out", str(out_file)]
        ) == 0
        assert out_file.exists()
        assert "12 sessions" in capsys.readouterr().out

    def test_run_on_saved_trace(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        main(["workload", "--sessions", "10", "--out", str(out_file)])
        assert main(
            [
                "run",
                "--trace", str(out_file),
                "--model", "llama-13b",
                "--batch-size", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "cache hit rate" in out
        assert "mean TTFT" in out

    def test_run_re_mode(self, capsys):
        assert main(
            ["run", "--sessions", "8", "--mode", "re", "--batch-size", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "[re]" in out

    def test_run_with_ablation_flags(self, capsys):
        assert main(
            [
                "run", "--sessions", "8", "--batch-size", "4",
                "--no-prefetch", "--no-preload", "--sync-save",
                "--policy", "lru",
            ]
        ) == 0
        assert "store:" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(
            ["compare", "--sessions", "10", "--batch-size", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "CachedAttention" in out
        assert "cost saving" in out

    def test_capacity(self, capsys):
        assert main(
            ["capacity", "--sessions", "20", "--ttl", "600"]
        ) == 0
        out = capsys.readouterr().out
        assert "CCpUT" in out
        assert "DSpUT" in out


class TestFlagValidation:
    """``run``/``trace`` flags that would be silently ignored exit 2."""

    @pytest.mark.parametrize("command", ["run", "trace"])
    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--trace", "{trace}", "--share-ratio", "0.5"], "--share-ratio"),
            (["--no-failover"], "--no-failover"),
            (["--router", "least-loaded"], "--router least-loaded"),
            (["--trace", "{missing}"], "missing.json: no such file"),
        ],
    )
    def test_ignored_flag_exits_2(self, command, flags, named, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        main(["workload", "--sessions", "2", "--out", str(trace)])
        argv = [command] + [
            f.format(trace=trace, missing=tmp_path / "missing.json") for f in flags
        ]
        if command == "trace":
            argv += ["-o", str(tmp_path / "chrome.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "chrome.json").exists()

    def test_cluster_flags_pass_with_instances(self):
        args = build_parser().parse_args(
            ["run", "--instances", "2", "--router", "rr", "--no-failover"]
        )
        _validate_args(args)

    SERVING = ["run", "trace", "compare", "run-sweep"]
    LOADS_TRACE = SERVING + ["capacity"]

    @pytest.mark.parametrize(
        "command, flags, named",
        [
            (command, flags, named)
            for flags, named, commands in [
                (
                    ["--trace", "{missing}"],
                    "missing.json: no such file",
                    ["compare", "capacity", "run-sweep"],
                ),
                (["--trace", "{garbled}"], "garbled.json: Expecting", LOADS_TRACE),
                (
                    ["--trace", "{fractional}"],
                    "fractional.json: conversation 0: turn 0 q_tokens must be "
                    "an int, got 10.5",
                    LOADS_TRACE,
                ),
                (["--instances", "0"], "--instances 0", ["run", "trace"]),
                (["--batch-size", "-3"], "--batch-size -3", SERVING),
                (
                    ["--param", "batch-size", "--values", "4,-3"],
                    "--batch-size -3",
                    ["run-sweep"],
                ),
                (["--dram-gb", "-1"], "--dram-gb -1.0", SERVING),
                (["--sessions", "0"], "--sessions 0", LOADS_TRACE + ["workload"]),
                (["--warmup-turns", "-4"], "--warmup-turns -4", SERVING),
                (
                    ["--fault-profile", "chaos-cluster"],
                    "--fault-profile chaos-cluster",
                    ["run", "trace", "run-sweep"],
                ),
                (["--arrival-rate", "0"], "--arrival-rate 0.0", ["workload"]),
                (["--ttl", "0"], "--ttl 0.0", ["capacity"]),
                (["--share-ratio", "1.5"], "--share-ratio 1.5", SERVING + ["workload"]),
                (["--share-ratio", "-0.5"], "--share-ratio -0.5", SERVING + ["workload"]),
                (
                    ["--param", "batch-size", "--values", "abc"],
                    "--values abc",
                    ["run-sweep"],
                ),
            ]
            for command in commands
        ],
    )
    def test_bad_input_exits_2_with_one_line(
        self, command, flags, named, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        main(["workload", "--sessions", "2", "--out", str(trace)])
        (tmp_path / "garbled.json").write_text("{not json")
        payload = json.loads(trace.read_text())
        payload["conversations"][0]["turns"][0][0] = 10.5
        (tmp_path / "fractional.json").write_text(json.dumps(payload))
        capsys.readouterr()
        extra = {
            "trace": ["-o", str(tmp_path / "chrome.json")],
            "run-sweep": ["--param", "policy", "--values", "lru"],
            "workload": ["--out", str(tmp_path / "out.json")],
        }.get(command, [])
        paths = {
            name: tmp_path / f"{name}.json"
            for name in ("missing", "garbled", "fractional")
        }
        argv = [command] + extra + [f.format(**paths) for f in flags]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: error: ")
        assert named in err
        assert err.count("\n") == 1 and "Traceback" not in err
