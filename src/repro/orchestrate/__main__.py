"""CLI front end: ``python -m repro.orchestrate <command>``.

Commands:

``run-point '<json>'``
    Replay a single sweep point serially in this process and print its
    metrics.  The JSON is a :meth:`SweepPoint.to_dict` payload — exactly
    what worker-failure errors embed in their repro command.

``smoke --grid NAME|all [--jobs N] [--seed S] [--iterations N] [--out DIR]``
    Run a CI smoke grid from :data:`~repro.orchestrate.points.GRIDS` (or
    every grid, in registry order), merged deterministically, and write
    ``BENCH_<name>.json`` plus ``<name>-invariant-report.json`` into
    ``--out``.  Exit 1 if any point breaks a protocol invariant.
    ``--iterations`` overrides the grid's per-point default; the
    committed baselines always use the defaults.

``refresh-baseline --grid NAME|all [--jobs N]``
    Re-run a grid at its defaults and overwrite its committed perf-gate
    baseline, ``benchmarks/baselines/BENCH_<name>.baseline.json``.  Run
    it whenever a deliberate change moves a grid's metrics or counters,
    commit the result, and say why in the commit message.

``summarize BENCH.json ...``
    Render one or more BENCH_*.json files as a GitHub-flavored markdown
    table (sweep, points, sim events, wall, events/sec) — what the CI
    jobs append to ``$GITHUB_STEP_SUMMARY``.

(The compare gate lives at ``python -m repro.orchestrate.compare``, the
schedule-perturbation determinism gate at ``python -m
repro.analysis.races``.)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .benchjson import load_bench_json, write_bench_json
from .points import GRIDS, SweepPoint, baseline_path, execute_point
from .runner import run_points


def _cmd_run_point(args: argparse.Namespace) -> int:
    try:
        spec = json.loads(args.spec)
        point = SweepPoint.from_dict(spec)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: bad point spec: {exc}", file=sys.stderr)
        return 2
    res = execute_point(point)
    print(json.dumps({
        "key": res.point.key(),
        "metrics": res.metrics,
        "wall_time_s": res.wall_time_s,
        "counters": res.counters,
        "invariant_report": res.invariant_report,
    }, indent=2, sort_keys=True))
    return 0


def _grid_names(grid: str) -> list[str]:
    return list(GRIDS) if grid == "all" else [grid]


def _run_grid(name: str, jobs: int, **kwargs) -> list:
    print(f"{name}:", flush=True)
    return run_points(GRIDS[name].factory(**kwargs), jobs=jobs,
                      progress=lambda line: print(f"  {line}", flush=True))


def _cmd_smoke(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    kwargs = {"seed": args.seed}
    if args.iterations is not None:
        kwargs["iterations"] = args.iterations
    rc = 0
    for name in _grid_names(args.grid):
        results = _run_grid(name, args.jobs, **kwargs)
        bench_path = write_bench_json(name, results, directory=out_dir,
                                      jobs=args.jobs)
        report = {
            "schema": 1,
            "points": [
                {"key": r.point.key(), "report": r.invariant_report}
                for r in results
            ],
            "violation_count": sum(
                (r.invariant_report or {}).get("violation_count", 0)
                for r in results),
        }
        report_path = out_dir / f"{name}-invariant-report.json"
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True)
                               + "\n")
        print(f"wrote {bench_path} and {report_path}")
        if report["violation_count"]:
            print(f"{name}: protocol invariant violations: "
                  f"{report['violation_count']}", file=sys.stderr)
            rc = 1
    return rc


def _cmd_refresh_baseline(args: argparse.Namespace) -> int:
    for name in _grid_names(args.grid):
        results = _run_grid(name, args.jobs)
        written = write_bench_json(name, results, path=baseline_path(name),
                                   jobs=args.jobs)
        print(f"wrote {written} — commit it to refresh the CI perf-gate "
              f"baseline")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    lines = ["| sweep | point | sim events | wall (s) | events/sec |",
             "| --- | --- | ---: | ---: | ---: |"]
    for bench in args.bench:
        try:
            payload = load_bench_json(bench)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        name = payload.get("name", "?")
        for record in payload["points"]:
            key = record["key"]
            label = (f"{key.get('kind')} n={key.get('size')} "
                     f"{key.get('build')} ({key.get('variant')})")
            events = record.get("counters", {}).get("events", 0)
            eps = record.get("events_per_sec")
            lines.append(
                f"| {name} | {label} | {events:,} | "
                f"{record['wall_time_s']:.2f} | "
                + (f"{eps:,.0f} |" if eps else "n/a |"))
        total_eps = payload.get("events_per_sec")
        lines.append(
            f"| {name} | **total** | | "
            f"{payload.get('total_wall_s', 0.0):.2f} | "
            + (f"**{total_eps:,.0f}** |" if total_eps else "n/a |"))
    print("\n".join(lines))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.orchestrate",
        description="parallel sweep orchestration utilities")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run-point",
                           help="replay one sweep point serially")
    p_run.add_argument("spec", help="SweepPoint JSON (from a failure's "
                                    "repro command)")

    grid_choices = [*GRIDS, "all"]
    p_smoke = sub.add_parser("smoke", help="run CI smoke grid(s) with "
                                           "invariant collection")
    p_smoke.add_argument("--grid", required=True, choices=grid_choices)
    p_smoke.add_argument("--jobs", type=int, default=2)
    p_smoke.add_argument("--seed", type=int, default=1)
    p_smoke.add_argument("--iterations", type=int, default=None,
                         help="per-point iterations (default: the grid's)")
    p_smoke.add_argument("--out", default="ci-artifacts")

    p_base = sub.add_parser("refresh-baseline",
                            help="re-run smoke grid(s) at their defaults "
                                 "and overwrite the committed perf-gate "
                                 "baseline(s)")
    p_base.add_argument("--grid", required=True, choices=grid_choices)
    p_base.add_argument("--jobs", type=int, default=2)

    p_sum = sub.add_parser("summarize",
                           help="render BENCH_*.json files as a markdown "
                                "table (for $GITHUB_STEP_SUMMARY)")
    p_sum.add_argument("bench", nargs="+",
                       help="BENCH_*.json file(s) to summarize")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "run-point":
        return _cmd_run_point(args)
    if args.command == "smoke":
        return _cmd_smoke(args)
    if args.command == "refresh-baseline":
        return _cmd_refresh_baseline(args)
    if args.command == "summarize":
        return _cmd_summarize(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
