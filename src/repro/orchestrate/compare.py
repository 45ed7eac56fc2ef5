"""Perf-regression gate: diff two BENCH_*.json files.

Usage::

    python -m repro.orchestrate.compare OLD.json NEW.json --tolerance 10

Exit codes: 0 — clean; 1 — metric or counter drift, wall-time regression
past the tolerance, points missing from NEW, a point key listed twice in
either file, or shared points in a different order; 2 — usage error
(unreadable files, bad schema, bad flags).  Points only NEW has are
reported but do not fail; compare both ways to require equal point lists.

Two different gates, because the two number families have different
physics:

* **metrics** and **counters** are bit-deterministic outputs of the
  simulator — *any* difference is drift and fails the gate;
* **wall times** are host measurements — only a total-sweep slowdown of
  more than ``--tolerance`` percent (default 10) fails, and per-point
  slowdowns are reported but advisory.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from collections import Counter

from .benchjson import load_bench_json, point_index

EXIT_CLEAN = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.orchestrate.compare",
        description="diff two BENCH_*.json files; nonzero exit on metric "
                    "or counter drift or wall-time regression")
    parser.add_argument("old", help="baseline BENCH_*.json")
    parser.add_argument("new", help="candidate BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=10.0,
                        metavar="PCT",
                        help="allowed total wall-time regression in "
                             "percent (default 10)")
    return parser


def _same(old, new) -> bool:
    # A NaN that stays NaN is not drift.
    return old == new or (old != old and new != new)


def _rel_diff(old, new) -> float:
    if not all(isinstance(v, (int, float)) for v in (old, new)):
        return float("inf")
    denom = max(abs(old), abs(new))
    return abs(new - old) / denom if denom else float("inf")


def _drifts(old: dict, new: dict, family: str) -> list[dict]:
    """Every ``family`` ("metrics"/"counters") value of one point that
    differs between ``old`` and ``new``, or exists on only one side."""
    o, n = old.get(family) or {}, new.get(family) or {}
    return [{"key": old["key"], "name": name, "old": o.get(name),
             "new": n.get(name), "rel": _rel_diff(o.get(name), n.get(name))}
            for name in sorted(set(o) | set(n))
            if name not in o or name not in n or not _same(o[name], n[name])]


def _keys(payload: dict) -> list[str]:
    return [json.dumps(r["key"], sort_keys=True) for r in payload["points"]]


def _label(key: dict) -> str:
    return (f"{key.get('experiment')}/{key.get('kind')} "
            f"n={key.get('size')} skew={key.get('skew_us'):g} "
            f"{key.get('build')} elems={key.get('elements')} "
            f"seed={key.get('seed')}")


def _render_rows(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(header[c]), *(len(r[c]) for r in rows))
              for c in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths))
              for row in rows]
    return "\n".join(lines)


def compare_payloads(old: dict, new: dict, *,
                     tolerance_pct: float = 10.0) -> dict:
    """Pure comparison; returns a verdict dict the CLI renders."""
    old_idx = point_index(old)
    new_idx = point_index(new)
    shared = [k for k in old_idx if k in new_idx]
    missing = sorted(k for k in old_idx if k not in new_idx)
    added = sorted(k for k in new_idx if k not in old_idx)
    # point_index keeps one record per key, so duplicates and order are
    # checked on the raw lists: the runner merges in submission order.
    old_keys, new_keys = _keys(old), _keys(new)
    duplicates = sorted({k for keys in (old_keys, new_keys)
                         for k, n in Counter(keys).items() if n > 1})
    reordered = ([k for k in old_keys if k in new_idx]
                 != [k for k in new_keys if k in old_idx])

    drifts = {"metrics": [], "counters": []}
    walls = []
    for key in shared:
        o, n = old_idx[key], new_idx[key]
        for family, found in drifts.items():
            found.extend(_drifts(o, n, family))
        walls.append({"key": o["key"], "old": o["wall_time_s"],
                      "new": n["wall_time_s"]})

    old_wall = sum(w["old"] for w in walls)
    new_wall = sum(w["new"] for w in walls)
    wall_pct = ((new_wall - old_wall) / old_wall * 100.0) if old_wall else 0.0
    wall_regressed = wall_pct > tolerance_pct

    return {
        "shared_points": len(shared),
        "missing_points": [json.loads(k) for k in missing],
        "added_points": [json.loads(k) for k in added],
        "duplicate_points": [json.loads(k) for k in duplicates],
        "reordered": reordered,
        "metric_drifts": drifts["metrics"],
        "counter_drifts": drifts["counters"],
        "wall": {"old_s": old_wall, "new_s": new_wall,
                 "pct": wall_pct, "tolerance_pct": tolerance_pct,
                 "regressed": wall_regressed,
                 "per_point": walls},
        "ok": (not drifts["metrics"] and not drifts["counters"]
               and not wall_regressed and not missing
               and not duplicates and not reordered),
    }


def render_verdict(verdict: dict, old_name: str, new_name: str) -> str:
    """Render the verdict, naming *every* missing point and drifted value."""
    lines = [f"bench compare: {old_name} -> {new_name}",
             f"  shared points: {verdict['shared_points']}"]
    if verdict["added_points"]:
        lines.append(f"  new points (ignored): "
                     f"{len(verdict['added_points'])}")
    missing = verdict["missing_points"]
    if missing:
        lines.append(f"  MISSING from new: {len(missing)} point(s)")
        lines += [f"    - {_label(key)}" for key in missing]
    duplicates = verdict["duplicate_points"]
    if duplicates:
        lines.append(f"  DUPLICATE keys: {len(duplicates)} point(s)")
        lines += [f"    - {_label(key)}" for key in duplicates]
    if verdict["reordered"]:
        lines.append("  ORDER differs: shared points are listed in a "
                     "different order in new")

    for family in ("metric", "counter"):
        drifts = verdict[f"{family}_drifts"]
        if not drifts:
            continue
        lines.append(f"  {family.upper()} DRIFT in {len(drifts)} value(s):")
        rows = [[_label(d["key"]), d["name"], f"{d['old']}",
                 f"{d['new']}",
                 ("inf" if d["rel"] == float("inf")
                  else f"{d['rel'] * 100.0:.4g}%")]
                for d in drifts]
        lines.append("    " + _render_rows(
            ["point", family, "old", "new", "rel diff"],
            rows).replace("\n", "\n    "))

    wall = verdict["wall"]
    slow = sorted((w for w in wall["per_point"] if w["old"] > 0),
                  key=lambda w: w["new"] / w["old"], reverse=True)[:5]
    lines.append(f"  wall time: {wall['old_s']:.3f}s -> "
                 f"{wall['new_s']:.3f}s ({wall['pct']:+.1f}%, "
                 f"tolerance {wall['tolerance_pct']:g}%)"
                 + ("  REGRESSED" if wall["regressed"] else ""))
    if slow and wall["regressed"]:
        rows = [[_label(w["key"]), f"{w['old']:.3f}s", f"{w['new']:.3f}s",
                 f"{(w['new'] / w['old'] - 1) * 100.0:+.1f}%"]
                for w in slow]
        lines.append("    slowest movers:")
        lines.append("    " + _render_rows(
            ["point", "old", "new", "delta"], rows).replace("\n", "\n    "))
    lines.append("  verdict: " + ("OK" if verdict["ok"] else "FAIL"))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_CLEAN

    # Load both files before bailing so one run reports every problem
    # (a baseline *and* a candidate can be broken at the same time).
    payloads = {}
    errors = []
    for role, path in (("old", args.old), ("new", args.new)):
        try:
            payloads[role] = load_bench_json(path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            errors.append(f"error: {role} ({path}): {exc}")
    if errors:
        for line in errors:
            print(line, file=sys.stderr)
        return EXIT_USAGE

    verdict = compare_payloads(payloads["old"], payloads["new"],
                               tolerance_pct=args.tolerance)
    print(render_verdict(verdict, args.old, args.new))
    return EXIT_CLEAN if verdict["ok"] else EXIT_REGRESSION


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
