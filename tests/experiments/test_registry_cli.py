"""Tests for the experiment registry and CLI."""

from __future__ import annotations

import shlex

import pytest

from repro.experiments import ext_scaling
from repro.experiments.cli import _resume_command, build_parser, main
from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.resilience import ShardId, ShardJournal, ShardRecord


class TestRegistry:
    def test_all_paper_figures_registered(self):
        figures = {
            "fig01", "fig02", "fig03", "fig04", "fig05", "fig06",
            "fig07", "fig08", "fig09", "fig10", "fig11",
        }
        extensions = {
            "ext_latency", "ext_interference", "ext_scaling", "ext_faults",
        }
        assert set(list_experiments()) == figures | extensions

    def test_lookup(self):
        runner = get_experiment("fig01")
        assert callable(runner)

    def test_unknown_id_lists_valid_ones(self):
        with pytest.raises(KeyError, match="fig01"):
            get_experiment("fig99")


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "fig11" in out

    def test_run_single_experiment(self, capsys, tmp_path):
        code = main(
            ["run", "fig11", "--runs", "500", "--seed", "3",
             "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig11" in out
        assert (tmp_path / "fig11.csv").exists()
        assert (tmp_path / "fig11.txt").exists()
        csv = (tmp_path / "fig11.csv").read_text()
        assert csv.splitlines()[0].startswith("x (positive nodes)")

    def test_run_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestFarmCli:
    def test_farm_backend_requires_journal(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["run", "fig01", "--backend", "farm", "--no-journal"])
        assert ei.value.code == 2
        assert "requires the run journal" in capsys.readouterr().err

    def test_run_farm_backend_end_to_end(self, capsys, tmp_path):
        """A small sweep through real subprocess workers matches the
        serial backend byte-for-byte and cleans up after itself."""
        serial = tmp_path / "serial"
        farm = tmp_path / "farm"
        common = [
            "run", "fig11", "--runs", "40", "--seed", "7", "--no-cache",
            "--journal-dir", str(tmp_path / "journal"),
        ]
        assert main(common + ["--jobs", "1", "--out", str(serial)]) == 0
        code = main(
            common
            + [
                "--jobs", "2", "--backend", "farm",
                "--spool-dir", str(tmp_path / "spool"),
                "--out", str(farm),
            ]
        )
        assert code == 0
        assert (farm / "fig11.csv").read_bytes() == (
            serial / "fig11.csv"
        ).read_bytes()
        # Success leaves neither a spool nor a journal behind.
        spool_root = tmp_path / "spool"
        assert not spool_root.exists() or not any(spool_root.iterdir())
        assert not list((tmp_path / "journal").glob("*.journal"))

    def test_resume_command_is_shell_quoted(self, tmp_path):
        out = tmp_path / "my results"
        spool = tmp_path / "spool dir"
        args = build_parser().parse_args(
            [
                "run", "fig01", "--runs", "5",
                "--out", str(out),
                "--backend", "farm",
                "--spool-dir", str(spool),
            ]
        )
        cmd = _resume_command(args)
        assert f"'{out}'" in cmd  # space-y paths survive quoting
        parts = shlex.split(cmd)
        assert parts[:3] == ["tcast-experiments", "run", "fig01"]
        assert str(out) in parts  # round-trips through a shell verbatim
        assert str(spool) in parts
        idx = parts.index("--backend")
        assert parts[idx + 1] == "farm"
        assert parts[-1] == "--resume"


class TestJournalledMultiEngineFigure:
    def test_ext_scaling_journalled_equals_library_run(self, tmp_path):
        """ext_scaling reuses its labels on one engine per n; a journal
        keyed without the engine's seed and n replayed n=32's costs for
        every larger n."""
        out = tmp_path / "out"
        argv = [
            "run", "ext_scaling", "--runs", "10", "--no-cache",
            "--journal-dir", str(tmp_path / "journal"), "--out", str(out),
        ]
        assert main(argv) == 0
        expected = ext_scaling.run(runs=10).to_csv() + "\n"
        assert (out / "ext_scaling.csv").read_text() == expected


class TestJournalInfoCli:
    def test_reports_quarantined_and_record_counts(self, capsys, tmp_path):
        journal = ShardJournal(
            tmp_path / "figX-abc.journal",
            exp_id="figX",
            key="k" * 64,
            fsync=False,
        )
        journal.record(ShardRecord(ShardId(7, 16, 2, "a", 1, 0, 2), costs=[1.0, 2.0]))
        journal.record(ShardRecord(ShardId(7, 16, 2, "a", 2, 0, 2), costs=[3.0, 4.0]))
        journal.record_quarantine(
            ShardId(7, 16, 2, "a", 3, 0, 2), "worker died twice"
        )
        journal.close()
        assert main(["journal", "info", "--journal-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "figX-abc.journal" in out
        assert "2 shard record(s)" in out
        # A record's range may index aggregates: no run count is claimed.
        assert "run(s)" not in out
        assert "2 cell(s)" in out
        assert "1 quarantined" in out

    def test_unreadable_journal_is_flagged(self, capsys, tmp_path):
        (tmp_path / "bad.journal").write_text("not a journal header")
        assert main(["journal", "info", "--journal-dir", str(tmp_path)]) == 0
        assert "unreadable header" in capsys.readouterr().out
