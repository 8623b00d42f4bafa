"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_t2a_applet_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["t2a", "--applet", "A9"])


class TestCommands:
    def test_t2a_e3(self, capsys):
        assert main(["t2a", "--applet", "A2", "--scenario", "E3", "--runs", "3"]) == 0
        out = capsys.readouterr().out
        assert "A2 under E3" in out
        assert "p50=" in out

    def test_t2a_unknown_scenario(self, capsys):
        assert main(["t2a", "--scenario", "E9", "--runs", "1"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_timeline(self, capsys):
        assert main(["timeline", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "polls trigger service" in out

    def test_loops_explicit(self, capsys):
        assert main(["loops", "--kind", "explicit", "--duration", "1800"]) == 0
        out = capsys.readouterr().out
        assert "self-sustained: True" in out
        assert "static analysis (blind): 1" in out

    def test_loops_runtime_detection(self, capsys):
        assert main(["loops", "--kind", "implicit", "--duration", "3600",
                     "--runtime-detection"]) == 0
        out = capsys.readouterr().out
        assert "flagged" in out

    def test_fleet(self, capsys):
        assert main(["fleet", "--applets", "10", "--publications", "1"]) == 0
        out = capsys.readouterr().out
        assert "actions executed: 10" in out

    def test_ecosystem_with_save(self, capsys, tmp_path):
        path = tmp_path / "snapshots.json"
        assert main(["ecosystem", "--scale", "0.005", "--save", str(path)]) == 0
        out = capsys.readouterr().out
        assert "IoT:" in out
        assert path.exists()


class TestChaosCommand:
    def test_chaos_sharded_run(self, capsys):
        assert main(["chaos", "--scenario", "outage", "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "sharded chaos scenario 'outage'" in out
        assert "shards=4" in out
        assert "(victim)" in out
        assert "silently-lost=0" in out

    def test_chaos_sharded_snapshot_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main(["chaos", "--scenario", "outage", "--seed", "7",
                         "--shards", "4", "--snapshot", str(path)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_chaos_shards_one_is_single_engine_world(self, capsys):
        assert main(["chaos", "--scenario", "outage", "--shards", "1"]) == 0
        out = capsys.readouterr().out
        assert "sharded" not in out
        assert "silently-lost=0" in out

    def test_chaos_invalid_shards_rejected(self, capsys):
        assert main(["chaos", "--scenario", "outage", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--parallel", "--shards", "1"], "--parallel requires --shards >= 2"),
            (["--shards", "4", "--jobs", "4"], "--jobs requires --parallel"),
            (["--jobs", "3"], "--jobs requires --parallel"),
        ],
        ids=["parallel-one-shard", "jobs-sharded-serial", "jobs-one-shard"],
    )
    def test_chaos_stepping_flags_rejected(self, capsys, flags, message):
        assert main(["chaos", "--scenario", "outage", *flags]) == 2
        assert message in capsys.readouterr().err

    def test_chaos_invalid_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--shard-strategy", "modulo"])

    def test_chaos_replay_reports_catchup_burst(self, capsys):
        assert main(["chaos", "--scenario", "outage", "--replay"]) == 0
        out = capsys.readouterr().out
        assert "replay [batched (limit=50)]" in out
        assert "catch-up burst" in out
        assert "unbatched" in out
        assert "silently-lost=0" in out

    def test_chaos_replay_snapshot_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main(["chaos", "--scenario", "outage", "--seed", "7",
                         "--replay", "--snapshot", str(path)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert b"engine.replay." in a.read_bytes()

    def test_chaos_replay_sharded(self, capsys):
        assert main(["chaos", "--scenario", "outage", "--shards", "4",
                     "--replay"]) == 0
        out = capsys.readouterr().out
        assert "sharded chaos scenario 'outage'" in out
        assert "replay [batched (limit=50)]" in out
        assert "silently-lost=0" in out

    def test_chaos_replay_invalid_batch_limit_rejected(self, capsys):
        assert main(["chaos", "--scenario", "outage", "--replay",
                     "--replay-batch-limit", "0"]) == 2
        assert "--replay-batch-limit" in capsys.readouterr().err

    def test_chaos_sharded_with_custom_plan(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            '{"faults": [{"kind": "service_outage", "service": "chaos_sink",'
            ' "at": 20.0, "duration": 10.0}]}'
        )
        assert main(["chaos", "--scenario", "outage", "--shards", "4",
                     "--faults", str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "activated=1" in out
        assert "silently-lost=0" in out


class TestNewCommands:
    def test_decompose(self, capsys):
        assert main(["decompose", "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "wait_for_poll" in out

    def test_export_figures(self, capsys, tmp_path):
        assert main(["export-figures", "--output", str(tmp_path),
                     "--scale", "0.005", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "fig4_a1_a4" in out
        assert (tmp_path / "fig2_heatmap.csv").exists()
