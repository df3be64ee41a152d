"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.output == "campaign.jsonl"
        assert args.seed == 2014

    def test_validate_requires_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["validate"])


SMALL = ["--scale", "0.0", "--days", "3", "--interval-hours", "24"]


@pytest.fixture(scope="module")
def archived_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "campaign.jsonl"
    code = main(["run", *SMALL, "--output", str(path)])
    assert code == 0
    return path


class TestCommands:
    def test_run_writes_jsonl(self, archived_dataset):
        content = archived_dataset.read_text().splitlines()
        assert len(content) > 10

    def test_validate_clean_dataset(self, archived_dataset, capsys):
        code = main(["validate", str(archived_dataset)])
        captured = capsys.readouterr()
        assert code == 0
        assert "0 errors" in captured.out

    def test_validate_broken_dataset(self, tmp_path, archived_dataset, capsys):
        lines = archived_dataset.read_text().splitlines()
        record_line = next(
            line for line in lines if not line.startswith('{"_metadata"')
        )
        broken = record_line.replace('"latitude":', '"latitude": 999, "x":')
        assert broken != record_line
        bad_path = tmp_path / "bad.jsonl"
        bad_path.write_text(broken + "\n")
        code = main(["validate", str(bad_path)])
        assert code == 1

    def test_report_from_dataset(self, archived_dataset, capsys):
        code = main(["report", *SMALL, "--dataset", str(archived_dataset)])
        captured = capsys.readouterr()
        assert code == 0
        assert "Table 1" in captured.out
        assert "Fig 7" in captured.out

    def test_run_report_streams_report_and_identical_archive(
        self, archived_dataset, tmp_path, capsys
    ):
        """``run --report`` prints the post-hoc report without re-reading
        the archive, and writes byte-identical dataset lines."""
        from repro.measure.records import Dataset

        main(["report", *SMALL, "--dataset", str(archived_dataset)])
        posthoc = capsys.readouterr().out

        streamed_path = tmp_path / "streamed.jsonl"
        code = main(["run", *SMALL, "--report", "-o", str(streamed_path)])
        streamed = capsys.readouterr().out
        assert code == 0
        assert streamed == posthoc
        assert (
            Dataset.load(str(streamed_path)).content_hash()
            == Dataset.load(str(archived_dataset)).content_hash()
        )

    def test_run_sharded_joins_pool_workers(self, tmp_path, monkeypatch,
                                            capsys):
        """``run`` closes the warm pool itself: no worker outlives
        ``main``, even when the campaign sits in a reference cycle that
        only the (paused) cyclic collector could break."""
        import multiprocessing

        from repro import cli
        from repro.core.heap import pause_cyclic_gc

        build_study = cli._study_from_args

        def study_in_cycle(args):
            study = build_study(args)
            study.campaign.cycle = study.campaign
            return study

        monkeypatch.setattr(cli, "_study_from_args", study_in_cycle)
        # Pools other tests left to their own ``__del__`` may still be
        # winding down; only workers this run started count.
        before = set(multiprocessing.active_children())
        # Keep the collector paused after ``main`` too, as a batch
        # caller would, so nothing but ``run`` itself can close the pool.
        restore_gc = pause_cyclic_gc()
        try:
            code = main([
                "run", *SMALL, "--executor", "sharded", "--workers", "2",
                "-o", str(tmp_path / "sharded.jsonl"),
            ])
            assert code == 0
            assert set(multiprocessing.active_children()) - before == set()
        finally:
            restore_gc()

    def test_export_from_dataset(self, archived_dataset, tmp_path, capsys):
        out_dir = tmp_path / "figures"
        code = main([
            "export", *SMALL,
            "--dataset", str(archived_dataset),
            "--output-dir", str(out_dir),
        ])
        assert code == 0
        assert any(out_dir.iterdir())
