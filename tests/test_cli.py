"""Tests for the command-line interface (:mod:`repro.cli`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.io import load_dataset_file, load_result


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected_by_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "NOPE"])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestGenerate:
    def test_generate_writes_npz(self, tmp_path, capsys):
        out = tmp_path / "ds.npz"
        rc = main(["generate", "cF_10k_5N", "--scale", "0.06", "-o", str(out)])
        assert rc == 0
        pts, truth, meta = load_dataset_file(out)
        assert pts.shape == (600, 2)
        assert truth is not None
        assert meta["name"] == "cF_10k_5N"
        assert "wrote 600 points" in capsys.readouterr().out


class TestCluster:
    def test_cluster_registry_dataset(self, tmp_path, capsys):
        save = tmp_path / "labels.npz"
        summary = tmp_path / "clusters.csv"
        rc = main(
            [
                "cluster",
                "cF_10k_5N",
                "--scale",
                "0.06",
                "--eps",
                "2.0",
                "--minpts",
                "4",
                "--save",
                str(save),
                "--summary",
                str(summary),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "clusters" in out
        res = load_result(save)
        assert res.n_points == 600
        assert summary.exists()

    def test_cluster_npz_file(self, tmp_path, capsys):
        out = tmp_path / "ds.npz"
        main(["generate", "cF_10k_5N", "--scale", "0.06", "-o", str(out)])
        rc = main(["cluster", str(out), "--eps", "2.0", "--minpts", "4"])
        assert rc == 0


class TestSweep:
    def test_sweep_prints_table(self, capsys):
        rc = main(
            [
                "sweep",
                "cF_10k_5N",
                "--scale",
                "0.06",
                "--eps",
                "2.0,3.0",
                "--minpts",
                "4,8",
                "--executor",
                "serial",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "(2,8)" in out or "(2,4)" in out

    def test_sweep_simulated_threads(self, capsys):
        rc = main(
            [
                "sweep",
                "cF_10k_5N",
                "--scale",
                "0.06",
                "--eps",
                "2.0,3.0",
                "--minpts",
                "4,8",
                "--executor",
                "simulated",
                "--threads",
                "4",
                "--kernel",
                "bfs",
                "--scheduler",
                "SCHEDMINPTS",
                "--policy",
                "CLUSDEFAULT",
            ]
        )
        assert rc == 0
        assert "SCHEDMINPTS" in capsys.readouterr().out

    def test_cluster_cellgraph_index(self, capsys):
        rc = main(
            [
                "cluster",
                "cF_10k_5N",
                "--scale",
                "0.06",
                "--eps",
                "2.0",
                "--minpts",
                "4",
                "--index",
                "cellgraph",
            ]
        )
        assert rc == 0
        assert "index=cellgraph" in capsys.readouterr().out

    def test_cluster_rejects_unknown_index(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "cF_10k_5N", "--eps", "2.0", "--minpts", "4",
                 "--index", "octree"]
            )

    @pytest.mark.parametrize("kind", ["grid", "kdtree"])
    def test_cluster_rejects_internal_index_kinds(self, kind):
        # The classes remain importable; only the CLI choice is gone.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "cF_10k_5N", "--eps", "2.0", "--minpts", "4",
                 "--index", kind]
            )

    def test_sweep_cellgraph_kernel(self, capsys):
        rc = main(
            [
                "sweep",
                "cF_10k_5N",
                "--scale",
                "0.06",
                "--eps",
                "2.0,3.0",
                "--minpts",
                "4,8",
                "--kernel",
                "cellgraph",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "scratch" in out

    def test_sweep_rejects_unknown_kernel(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "cF_10k_5N", "--eps", "2.0", "--minpts", "4",
                 "--kernel", "quantum"]
            )

    def test_sweep_cellgraph_matches_bfs(self, tmp_path, capsys):
        args = [
            "sweep", "cF_10k_5N", "--scale", "0.06",
            "--eps", "2.0,3.0", "--minpts", "4,8",
        ]
        assert main([*args, "--kernel", "bfs"]) == 0
        bfs_out = capsys.readouterr().out
        assert main([*args, "--kernel", "cellgraph"]) == 0
        cg_out = capsys.readouterr().out
        # same variant table: cluster/noise counts agree line for line
        def pick(text):
            return [
                line.split()[:3]
                for line in text.splitlines()
                if line.startswith("(")
            ]

        assert pick(cg_out) == pick(bfs_out)


class TestRunFlags:
    ARGS = ["SW1", "--scale", "0.001", "--eps", "0.4,0.5", "--minpts", "4,8"]

    def test_trace_bfs_takes_the_scheduler(self, capsys):
        rc = main(["trace", *self.ARGS, "--kernel", "bfs", "--scheduler", "SCHEDMINPTS"])
        assert rc == 0
        assert "scheduler=SCHEDMINPTS" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sweep", "trace"])
    @pytest.mark.parametrize(
        "flag", [["--scheduler", "SCHEDMINPTS"], ["--policy", "CLUSSIZE"], ["--r", "50"]]
    )
    def test_reuse_flags_need_bfs(self, command, flag):
        with pytest.raises(SystemExit, match="--kernel bfs"):
            main([command, *self.ARGS, *flag])

    def test_sweep_title_names_reuse_knobs_only_under_bfs(self, capsys):
        assert main(["sweep", *self.ARGS]) == 0
        assert "SCHEDGREEDY" not in capsys.readouterr().out
        assert main(["sweep", *self.ARGS, "--kernel", "bfs", "--policy", "CLUSSIZE"]) == 0
        assert "SCHEDGREEDY, CLUSSIZE" in capsys.readouterr().out


class TestFigure:
    def test_table1(self, capsys):
        assert main(["figure", "table1", "--scale", "0.001"]) == 0
        assert "SW1" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["figure", "fig5", "--scale", "0.001"]) == 0
        assert "CLUSDENSITY" in capsys.readouterr().out
