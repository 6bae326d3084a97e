#!/usr/bin/env python3
"""Bench gate: compare a fresh BENCH_*.json against its committed baseline.

Every bench writes one schema (bench::JsonReport, bench/bench_common.hh):
{"bench", "scale", "kinds": {metric: kind}, "results": {cell: {metric:
value}}}. The bench that produces a metric declares its kind, and this
gate reads it from the file:

  sim          deterministic simulated value: must match exactly
  host-higher  host measurement, higher is better: >= baseline / tolerance
  host-lower   host measurement, lower is better: <= baseline * tolerance
  info         reported for the record, never compared

Both documents must come from the same bench at the same scale and hold
the same cells and metrics, so a new cell cannot land ungated. When a
simulated number changes on purpose, re-run the bench and re-commit its
baseline.

Usage: perf_smoke.py <committed.json> <fresh.json> [--tolerance 1.25]
Exit status 0 = pass, 1 = regression or mismatch, 2 = bad input.
"""

import argparse
import json
import sys

KINDS = ("sim", "host-higher", "host-lower", "info")


class BadInput(Exception):
    """The documents cannot be compared (exit status 2)."""


def load(path):
    """Read one report as ((bench, scale), kinds, {(cell, metric): value})."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        ident, kinds = (doc["bench"], doc["scale"]), doc["kinds"]
        values = {
            (cell, metric): value
            for cell, row in doc["results"].items()
            for metric, value in row.items()
        }
        for (cell, metric), value in values.items():
            if kinds.get(metric) not in KINDS:
                raise BadInput(f"{path}: {cell}.{metric} has no valid kind")
            if not isinstance(value, (int, float)):
                raise BadInput(f"{path}: {cell}.{metric} is not a number")
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
        raise BadInput(f"cannot read {path}: {err!r}") from err
    return ident, kinds, values


def check(name, kind, base, now, tolerance):
    """Return True when one metric passes its kind's gate."""
    if kind == "info":
        return True
    if kind == "sim":
        ok, bound = now == base, "exact"
    elif kind == "host-higher":
        ok, bound = now >= base / tolerance, f"floor {base / tolerance:.3f}"
    else:
        ok, bound = now <= base * tolerance, f"ceiling {base * tolerance:.3f}"
    if kind != "sim" or not ok:
        print(f"perf_smoke: {name}: baseline {base}, measured {now} "
              f"({bound}) ... {'ok' if ok else 'FAIL'}")
    return ok


def compare(committed_path, fresh_path, tolerance):
    """Return how many values fail between the two reports."""
    base_id, base_kinds, base = load(committed_path)
    fresh_id, fresh_kinds, now = load(fresh_path)
    if base_id != fresh_id:
        raise BadInput(f"(bench, scale) differ: committed {base_id}, "
                       f"fresh {fresh_id}")
    failures = 0
    for side, keys in (("fresh run", base.keys() - now.keys()),
                       ("baseline", now.keys() - base.keys())):
        for cell, metric in sorted(keys):
            print(f"perf_smoke: {cell}.{metric} missing from the {side}")
            failures += 1
    for key in sorted(base.keys() & now.keys()):
        name, kind = ".".join(key), base_kinds[key[1]]
        if fresh_kinds[key[1]] != kind:
            print(f"perf_smoke: {name} is {kind} in the baseline but "
                  f"{fresh_kinds[key[1]]} in the fresh run")
            failures += 1
        elif not check(name, kind, base[key], now[key], tolerance):
            failures += 1
    print(f"perf_smoke: {base_id[0]}: {len(base)} baseline values, "
          f"{failures} failure(s)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("committed", help="baseline BENCH_*.json")
    parser.add_argument("fresh", help="just-measured BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=1.25,
                        help="host regression factor (default 1.25 = 25%%)")
    args = parser.parse_args()
    try:
        failures = compare(args.committed, args.fresh, args.tolerance)
    except BadInput as err:
        print(f"perf_smoke: {err}", file=sys.stderr)
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
