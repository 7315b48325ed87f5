"""Tests for the command-line interface."""

from __future__ import annotations

import io
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--bench", "mult8"])
        assert args.bench == "mult8"
        assert args.thresholds == [0.05]
        assert args.k == 10 and args.m == 10
        assert args.jobs == 1 and args.cache_dir is None

    def test_default_weights_match_paper_flow(self):
        # Regression: the CLI used to default to "uniform" (Figure 4's
        # control arm) while ExplorerConfig and the paper use WQoR.
        from repro.core.explorer import ExplorerConfig

        args = build_parser().parse_args(["run", "--bench", "mult8"])
        assert args.weights == "significance"
        assert args.weights == ExplorerConfig().weight_mode

    def test_bare_run_uses_config_searcher_defaults(self):
        # Regression: --anneal-t0 defaulted to 0.05 while ExplorerConfig
        # (and BENCH_search.json) used 0.2, so the CLI ran a different
        # annealing schedule than the Python API.
        from repro.cli import _config
        from repro.core.explorer import ExplorerConfig

        config = _config(build_parser().parse_args(["run", "--bench", "but"]))
        default = ExplorerConfig()
        for name in ("anneal_t0", "anneal_alpha", "anneal_stall",
                     "ranker_epsilon", "ranker_lr"):
            assert getattr(config, name) == getattr(default, name), name

    def test_searcher_flags_override_defaults(self):
        from repro.cli import _config

        config = _config(build_parser().parse_args(
            ["run", "--bench", "but", "--anneal-t0", "0.05",
             "--ranker-lr", "0.25"]
        ))
        assert config.anneal_t0 == 0.05 and config.ranker_lr == 0.25

    @pytest.mark.parametrize("argv", [["--strategy", "bo"],
                                      ["--bo-init", "6"],
                                      ["--bo-lengthscale", "0.25"]])
    def test_bo_strategy_and_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--bench", "but"] + argv)
        assert "error" in capsys.readouterr().err

    def test_runtime_flags_parsed(self):
        args = build_parser().parse_args(
            ["run", "--bench", "mult8", "--jobs", "0", "--cache-dir", "/tmp/c"]
        )
        assert args.jobs == 0
        assert args.cache_dir == "/tmp/c"

    @pytest.mark.parametrize("command", ["serve", "submit", "jobs", "job",
                                         "shutdown"])
    def test_no_service_subcommands(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])
        assert "invalid choice" in capsys.readouterr().err

    def test_thresholds_parsed(self):
        args = build_parser().parse_args(
            ["run", "--bench", "mult8", "--thresholds", "0.05", "0.25"]
        )
        assert args.thresholds == [0.05, 0.25]


class TestCommands:
    def test_run_without_circuit_fails(self, capsys):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_run_small_bench(self, capsys, tmp_path):
        out = tmp_path / "approx.blif"
        rc = main([
            "run", "--bench", "but", "--thresholds", "0.2",
            "--samples", "512", "--k", "8", "--m", "8", "--out", str(out),
        ])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "baseline" in captured
        assert out.exists()

    def test_run_blif_input(self, capsys, tmp_path):
        from repro.bench import ripple_adder
        from repro.circuit import write_blif

        src = tmp_path / "add.blif"
        write_blif(ripple_adder(6), str(src))
        rc = main([
            "run", "--blif", str(src), "--thresholds", "0.2",
            "--samples", "512", "--k", "6", "--m", "6",
        ])
        assert rc == 0

    def test_verilog_output(self, capsys, tmp_path):
        out = tmp_path / "approx.v"
        rc = main([
            "run", "--bench", "but", "--thresholds", "0.3",
            "--samples", "512", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        assert "module" in out.read_text()

    def test_table1_lists_all_benchmarks(self, capsys):
        rc = main(["table1", "--samples", "256"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("Adder32", "Mult8", "BUT", "MAC", "SAD", "FIR"):
            assert name in out

    def test_run_with_cache_and_jobs(self, capsys, tmp_path):
        argv = [
            "run", "--bench", "but", "--thresholds", "0.2",
            "--samples", "512", "--k", "8", "--m", "8",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "runtime:" in cold and "runtime:" in warm
        assert " 0 factorizations" in warm and " 0 syntheses" in warm

    def test_compare_runs(self, capsys):
        rc = main([
            "compare", "--bench", "but", "--thresholds", "0.25",
            "--samples", "512", "--k", "8", "--m", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "BLASYS" in out and "SALSA" in out


class TestCheckpointFlagCoherence:
    """S3: checkpoint modifiers without a checkpoint path are hard errors."""

    def test_checkpoint_every_requires_checkpoint(self):
        from repro.errors import ExplorationError

        with pytest.raises(ExplorationError, match="--checkpoint-every"):
            main(["run", "--bench", "but", "--samples", "256",
                  "--checkpoint-every", "2"])

    def test_resume_requires_checkpoint(self):
        from repro.errors import ExplorationError

        with pytest.raises(ExplorationError, match="--resume"):
            main(["run", "--bench", "but", "--samples", "256",
                  "--resume", "/tmp/nowhere.ckpt"])

    def test_checkpoint_alone_still_works(self, capsys, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        rc = main([
            "run", "--bench", "but", "--thresholds", "0.2",
            "--samples", "512", "--k", "8", "--m", "8",
            "--checkpoint", str(ckpt),
        ])
        assert rc == 0

    def test_compare_validates_too(self):
        from repro.errors import ExplorationError

        with pytest.raises(ExplorationError, match="--checkpoint-every"):
            main(["compare", "--bench", "but", "--samples", "256",
                  "--checkpoint-every", "3"])


class TestSignalHandling:
    """S1: SIGINT/SIGTERM interrupt a plain run cleanly — pools closed,
    final checkpoint flushed, ``128 + signum`` exit code."""

    def test_sigterm_flushes_checkpoint_then_resume_completes(self, tmp_path):
        import signal
        import subprocess
        import sys
        import time

        ckpt = tmp_path / "run.ckpt"
        argv = [
            sys.executable, "-m", "repro.cli", "run", "--bench", "mult8",
            "--samples", "1024", "--k", "8", "--m", "8",
            "--thresholds", "0.2", "--checkpoint", str(ckpt),
        ]
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + 120
        while not ckpt.exists():
            if time.monotonic() > deadline or proc.poll() is not None:
                proc.kill()
                pytest.fail("checkpoint never appeared")
            time.sleep(0.02)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 128 + signal.SIGTERM
        assert "interrupted by SIGTERM" in err
        assert "checkpoint flushed" in err
        assert ckpt.exists()

        resumed = subprocess.run(
            argv + ["--resume", str(ckpt)], env=env,
            capture_output=True, text=True, timeout=600,
        )
        assert resumed.returncode == 0
        assert "thr=" in resumed.stdout
