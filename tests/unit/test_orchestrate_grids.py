"""Unit tests for the smoke-grid registry (``repro.orchestrate.points.GRIDS``)
and the one ``smoke --grid`` command that runs it, plus the CI matrix
that must list exactly the registered grids."""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest
import yaml

import repro.orchestrate.__main__ as cli
from repro.orchestrate.benchjson import load_bench_json
from repro.orchestrate.points import GRIDS, Grid, smoke_points

CI_YML = Path(__file__).resolve().parents[2] / ".github/workflows/ci.yml"


def _tiny_smoke(**kwargs):
    return smoke_points(sizes=(2,), **{"iterations": 2, **kwargs})


def test_registry_names_and_race_flags():
    assert list(GRIDS) == ["smoke", "topo_smoke", "faults_smoke",
                           "pipeline_smoke", "schedule_smoke",
                           "tenancy_smoke", "pap_smoke", "scale"]
    assert [name for name, grid in GRIDS.items() if not grid.race] == \
        ["scale"]
    for name, grid in GRIDS.items():
        keys = [json.dumps(p.key(), sort_keys=True)
                for p in grid.factory(iterations=1)]
        assert keys and len(set(keys)) == len(keys), name


def test_ci_matrix_lists_every_grid():
    workflow = yaml.safe_load(CI_YML.read_text())
    assert sorted(workflow["jobs"]) == ["race", "smoke", "test"]
    matrix = workflow["jobs"]["smoke"]["strategy"]["matrix"]
    assert matrix["grid"] == sorted(GRIDS)


def test_smoke_unknown_grid_exits_2_and_lists_names(capsys):
    assert cli.main(["smoke", "--grid", "nope"]) == 2
    err = capsys.readouterr().err
    assert "nope" in err
    for name in [*GRIDS, "all"]:
        assert name in err


def test_smoke_writes_bench_and_report_per_grid(tmp_path):
    assert cli.main(["smoke", "--grid", "smoke", "--jobs", "1",
                     "--iterations", "2", "--out", str(tmp_path)]) == 0
    payload = load_bench_json(tmp_path / "BENCH_smoke.json")
    assert payload["name"] == "smoke"
    assert [r["key"] for r in payload["points"]] == \
        [p.key() for p in smoke_points(iterations=2)]
    report = json.loads(
        (tmp_path / "smoke-invariant-report.json").read_text())
    assert report["violation_count"] == 0
    assert all(entry["report"]["checks"] > 0
               for entry in report["points"])


def test_smoke_all_runs_every_registered_grid(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "GRIDS", {
        "a": Grid(_tiny_smoke),
        "b": Grid(functools.partial(_tiny_smoke, seed=2), race=False)})
    assert cli.main(["smoke", "--grid", "all", "--jobs", "1",
                     "--out", str(tmp_path)]) == 0
    for name in ("a", "b"):
        assert load_bench_json(tmp_path / f"BENCH_{name}.json")["points"]
        assert (tmp_path / f"{name}-invariant-report.json").exists()


def test_smoke_planted_invariant_violation_exits_1(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setitem(GRIDS, "smoke", Grid(_tiny_smoke))
    real_run_points = cli.run_points

    def run_points_with_violation(points, **kwargs):
        results = real_run_points(points, **kwargs)
        results[0].invariant_report = {
            "checks": 1, "violation_count": 1,
            "violations": [{"invariant": "INV-PLANTED"}]}
        return results

    monkeypatch.setattr(cli, "run_points", run_points_with_violation)
    assert cli.main(["smoke", "--grid", "smoke", "--jobs", "1",
                     "--out", str(tmp_path)]) == 1
    assert "protocol invariant violations: 1" in capsys.readouterr().err
    report = json.loads(
        (tmp_path / "smoke-invariant-report.json").read_text())
    assert report["violation_count"] == 1


@pytest.mark.parametrize("argv", [["smoke"], ["refresh-baseline"]])
def test_grid_is_required(argv):
    assert cli.main(argv) == 2
