"""Unit tests for the scale sweep path: ``scale_smoke_points``, the
``smoke --grid`` / ``refresh-baseline`` / ``summarize`` CLI commands, and
the events/sec plumbing they share.  The CLI runs shrink the registered
scale grid to toy sizes — the real 1024-4096 grid is the CI smoke
matrix's ``scale`` cell."""

from __future__ import annotations

import functools
import json

import pytest

from repro.orchestrate.__main__ import main
from repro.orchestrate.benchjson import load_bench_json
from repro.orchestrate.points import (GRIDS, Grid, baseline_path,
                                      scale_smoke_points)


@pytest.fixture
def toy_scale(monkeypatch):
    """Point the registry's ``scale`` entry at a toy-sized grid."""
    def use(*sizes):
        monkeypatch.setitem(GRIDS, "scale", Grid(
            functools.partial(scale_smoke_points, sizes=sizes),
            race=False))
    return use


def test_scale_grid_covers_sizes_and_topologies():
    points = scale_smoke_points()
    assert len(points) == 6
    cells = {(p.config.size, p.config.net.topology) for p in points}
    assert cells == {(size, topo)
                     for size in (1024, 2048, 4096)
                     for topo in ("fattree", "torus")}
    for p in points:
        assert p.experiment == "scale_smoke"
        assert p.kind == "cpu_util"
        assert p.build == "ab"
        assert p.config.factory == "extrapolated"
        # Scale points run without the invariant monitor: the wall-clock
        # budget is the point, and the smoke grids own invariant coverage.
        assert not p.collect_invariants


def test_scale_keys_are_distinct():
    keys = [json.dumps(p.key(), sort_keys=True)
            for p in scale_smoke_points()]
    assert len(set(keys)) == len(keys)


def test_smoke_scale_cli_writes_bench_json(tmp_path, toy_scale):
    toy_scale(4, 8)
    rc = main(["smoke", "--grid", "scale", "--jobs", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = load_bench_json(tmp_path / "BENCH_scale.json")
    assert payload["name"] == "scale"
    assert len(payload["points"]) == 4
    assert payload["events_per_sec"] > 0
    for record in payload["points"]:
        assert record["events_per_sec"] > 0
    report = json.loads(
        (tmp_path / "scale-invariant-report.json").read_text())
    assert report["violation_count"] == 0


def test_refresh_baseline_cli(tmp_path, monkeypatch, toy_scale, capsys):
    # Baseline paths are repo-relative: run from a scratch directory so
    # the committed in-tree baselines are never touched by a test run.
    toy_scale(4)
    monkeypatch.chdir(tmp_path)
    rc = main(["refresh-baseline", "--grid", "scale", "--jobs", "1"])
    assert rc == 0
    payload = load_bench_json(tmp_path / baseline_path("scale"))
    assert payload["name"] == "scale"
    assert [r["key"] for r in payload["points"]] == \
        [p.key() for p in GRIDS["scale"].factory()]
    assert "commit it" in capsys.readouterr().out


def test_default_baseline_is_committed():
    """The CI gate compares every grid against its committed baseline;
    each must exist in-tree and hold exactly the keys of the grid's
    default points (what CI's default run produces)."""
    for name, grid in GRIDS.items():
        payload = load_bench_json(baseline_path(name))
        assert payload["name"] == name
        assert [r["key"] for r in payload["points"]] == \
            [p.key() for p in grid.factory()], name
        for record in payload["points"]:
            assert record["metrics"], name


def test_summarize_cli_renders_markdown(tmp_path, toy_scale, capsys):
    toy_scale(4)
    rc = main(["smoke", "--grid", "scale", "--jobs", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["summarize", str(tmp_path / "BENCH_scale.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("| sweep | point |")
    assert "**total**" in out
    assert "| scale |" in out


def test_summarize_cli_rejects_missing_file(tmp_path, capsys):
    rc = main(["summarize", str(tmp_path / "nope.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
