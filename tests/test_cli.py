"""Tests for the command-line interface (analysis and serving subcommands)."""

import glob

import numpy as np
import pytest

from repro.cli import _oracle_mismatches, build_parser, main
from repro.utils import load_json, load_state_dict


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """Train a tiny model through the CLI once and reuse the checkpoint."""
    directory = tmp_path_factory.mktemp("cli")
    checkpoint = directory / "model.npz"
    report = directory / "report.json"
    code = main([
        "train",
        "--dataset", "cifar10",
        "--arch", "vgg",
        "--epochs", "2",
        "--samples", "160",
        "--image-size", "8",
        "--timesteps", "2",
        "--checkpoint", str(checkpoint),
        "--report", str(report),
        "--seed", "3",
    ])
    assert code == 0
    return checkpoint, report


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    def test_defaults(self):
        args = build_parser().parse_args(["train", "--checkpoint", "x.npz"])
        assert args.dataset == "cifar10"
        assert args.arch == "vgg"
        assert args.loss == "per_timestep"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--checkpoint", "x.npz", "--dataset", "imagenet"])


class TestTrainCommand:
    def test_checkpoint_written_and_loadable(self, trained_checkpoint):
        checkpoint, _ = trained_checkpoint
        state = load_state_dict(checkpoint)
        assert any(key.endswith("weight") for key in state)

    def test_report_written(self, trained_checkpoint):
        _, report = trained_checkpoint
        payload = load_json(report)
        assert payload["epochs"] == 2
        assert len(payload["eval_accuracy"]) == 2
        assert 0.0 <= payload["final_eval_accuracy"] <= 1.0


class TestAnalysisCommands:
    COMMON = [
        "--dataset", "cifar10",
        "--arch", "vgg",
        "--samples", "160",
        "--image-size", "8",
        "--timesteps", "2",
        "--seed", "3",
    ]

    def test_evaluate_prints_static_and_dynamic(self, trained_checkpoint, capsys):
        checkpoint, _ = trained_checkpoint
        code = main(["evaluate", "--checkpoint", str(checkpoint), *self.COMMON])
        assert code == 0
        output = capsys.readouterr().out
        assert "Static SNN accuracy" in output
        assert "DT-SNN" in output
        assert "exits at T=1" in output

    def test_sweep_without_edp(self, trained_checkpoint, capsys):
        checkpoint, _ = trained_checkpoint
        code = main([
            "sweep", "--checkpoint", str(checkpoint), *self.COMMON,
            "--thresholds", "0.1", "0.5",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Entropy-threshold sweep" in output
        assert output.count("\n") >= 4

    def test_sweep_with_edp_adds_columns(self, trained_checkpoint, capsys):
        checkpoint, _ = trained_checkpoint
        code = main([
            "sweep", "--checkpoint", str(checkpoint), *self.COMMON,
            "--thresholds", "0.2", "--with-edp",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "EDP (x static)" in output

    def test_chip_report(self, trained_checkpoint, capsys):
        checkpoint, _ = trained_checkpoint
        code = main(["chip-report", "--checkpoint", str(checkpoint), *self.COMMON,
                     "--max-timesteps", "4"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Chip summary" in output
        assert "Fig. 1A" in output
        assert "Fig. 1B" in output
        assert "Area breakdown" in output


class TestServingCommands:
    """The serving half of the CLI driven in-process: PASS lines, exit codes
    and artifacts of `serve` / `replay` / `backtest` / `loadgen`."""

    SELF_TEST = ["serve", "--self-test", "--num-requests", "48"]

    @pytest.mark.parametrize(
        "flags",
        [[], ["--reference-path"], ["--workers", "2"], ["--replicas", "2"],
         ["--rate", "400", "--burst", "16"]],
        ids=["plain", "oracle", "2-workers", "2-replicas", "bursty"],
    )
    def test_self_test_passes_on_every_composition(self, flags, capsys):
        assert main([*self.SELF_TEST, *flags]) == 0
        assert "SELF-TEST PASS" in capsys.readouterr().out

    def test_self_test_writes_a_stats_dump(self, tmp_path, capsys):
        dump = tmp_path / "stats.json"
        assert main([*self.SELF_TEST, "--stats-dump", str(dump)]) == 0
        assert "SELF-TEST PASS" in capsys.readouterr().out
        assert {"metrics", "snapshot", "spans"} <= set(load_json(dump))
        samples = [
            line.rsplit(" ", 1)
            for line in (tmp_path / "stats.json.prom").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert samples and all(float(value) >= 0.0 for _, value in samples)

    def test_replica_self_test_leaves_no_shared_memory(self, capsys):
        before = set(glob.glob("/dev/shm/repro-*"))
        assert main([*self.SELF_TEST, "--replicas", "2"]) == 0
        assert "SELF-TEST PASS" in capsys.readouterr().out
        assert set(glob.glob("/dev/shm/repro-*")) <= before

    def test_self_test_fails_when_the_oracle_disagrees(self, monkeypatch, capsys):
        # Judge the served stream against an oracle at threshold 0 (nothing
        # exits early): the calibrated serve path exits some requests early,
        # so the gate must see the exit timesteps diverge and exit 1.
        def judged_at_zero(model, stream, completions, threshold, timesteps):
            return _oracle_mismatches(model, stream, completions, 0.0, timesteps)

        monkeypatch.setattr("repro.cli._oracle_mismatches", judged_at_zero)
        assert main(self.SELF_TEST) == 1
        output = capsys.readouterr().out
        assert "SELF-TEST FAIL: serve exit timesteps diverge" in output
        assert "SELF-TEST PASS" not in output

    def test_record_replay_backtest_round_trip(self, tmp_path, capsys):
        trace, sweep = str(tmp_path / "trace.jsonl"), tmp_path / "sweep.json"
        assert main([*self.SELF_TEST, "--record-trace", trace]) == 0
        assert main(["replay", "--trace", trace, "--workers", "2"]) == 0
        assert "REPLAY PASS" in capsys.readouterr().out
        assert main([
            "backtest", "--trace", trace, "--thresholds", "0.05", "0.2", "0.5",
            "--workers", "2", "--cross-check", "--out", str(sweep),
        ]) == 0
        assert capsys.readouterr().out.count("BACKTEST PASS") == 2
        assert load_json(sweep)["schema_version"] == 1

    def test_loadgen_prints_the_sweep_table(self, capsys):
        assert main(["loadgen", "--rates", "200", "--num-requests", "24"]) == 0
        assert "Load sweep" in capsys.readouterr().out
