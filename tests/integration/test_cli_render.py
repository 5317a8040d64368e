"""CLI rendering flags and remaining edge paths."""

import pytest

from repro.cli import main


class TestDemoRenderFlags:
    def test_show_tree(self, capsys):
        assert main(
            ["demo", "--n", "80", "--data-capacity", "4", "--fanout", "4",
             "--show-tree", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "index node" in out or "data page" in out

    def test_show_partition(self, capsys):
        assert main(
            ["demo", "--n", "80", "--data-capacity", "4", "--fanout", "4",
             "--show-partition"]
        ) == 0
        out = capsys.readouterr().out
        assert "page" in out.splitlines()[-1]

    def test_partition_rejected_for_3d(self, capsys):
        # The GeometryError reaches the CLI's error edge: one line, exit 2.
        assert main(
            ["demo", "--n", "50", "--dims", "3", "--data-capacity", "4",
             "--fanout", "4", "--show-partition"]
        ) == 2
        assert "needs a 2-d space" in capsys.readouterr().err

    def test_compare_includes_spatial_free_kinds_only(self, capsys):
        # The compare table covers the point structures; spatial-object
        # structures are exercised by E-OBJ instead.
        assert main(["compare", "--n", "500", "--structures", "bv",
                     "--data-capacity", "4", "--fanout", "4"]) == 0
        assert "bv" in capsys.readouterr().out
