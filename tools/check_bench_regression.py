#!/usr/bin/env python3
"""Compare BENCH_*.json results against a committed baseline.

Usage:
  tools/check_bench_regression.py --baseline bench/baseline.json \
      --results <dir-with-BENCH_*.json> [--tolerance 0.25]

The baseline (bench/baseline.json) maps "<bench>/<entry>" to the
wall_micros measured on the reference machine.  CI machines differ in
absolute speed, so raw comparison would be meaningless: instead the
checker computes each entry's ratio current/baseline and normalizes by
the *median* ratio across all entries.  A uniformly slower machine moves
every ratio equally and cancels out; a genuine regression moves one
entry's normalized ratio past 1 + tolerance and fails the build.

When $GITHUB_STEP_SUMMARY is set (GitHub Actions), a markdown ratio
table is appended to it so the comparison shows up on the job summary
page without digging through logs.

Exit codes: 0 ok, 1 regression found, 2 usage/IO error.
"""

import argparse
import glob
import json
import os
import sys


def load_results(results_dir):
    """Returns ({"<bench>/<entry>": wall_micros}, {"<bench>/<metric>": value},
    {bench names that produced a results file}) from every BENCH_*.json."""
    out = {}
    metrics = {}
    benches_run = set()
    paths = sorted(glob.glob(os.path.join(results_dir, "BENCH_*.json")))
    if not paths:
        print(f"error: no BENCH_*.json files in {results_dir}", file=sys.stderr)
        sys.exit(2)
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        # v2 adds an optional "observability" block; entries are unchanged.
        if doc.get("schema_version") not in (1, 2):
            print(f"error: {path}: unsupported schema_version "
                  f"{doc.get('schema_version')!r}", file=sys.stderr)
            sys.exit(2)
        bench = doc["bench"]
        benches_run.add(bench)
        for entry in doc.get("entries", []):
            wall = entry.get("wall_micros", 0.0)
            if wall > 0:
                out[f"{bench}/{entry['name']}"] = wall
        for name, value in doc.get("metrics", {}).items():
            metrics[f"{bench}/{name}"] = value
    return out, metrics, benches_run


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def kernel_ratio_rows(metrics):
    """Extracts sorted (name, speedup) rows from "ratio.*" bench metrics.

    bench_micro emits one "ratio.<kernel>" metric per old-vs-new kernel
    pair (old wall / new wall, >1 means the shipped kernel is faster); see
    ExportKernelRatios in bench/bench_micro.cc.
    """
    rows = []
    for name, value in sorted(metrics.items()):
        bench, _, metric = name.partition("/")
        if not metric.startswith("ratio."):
            continue
        rows.append((f"{bench}/{metric[len('ratio.'):]}", value))
    return rows


def evaluate_metric_gates(gates, metrics, benches_run):
    """Checks baseline "metric_gates" against collected bench metrics.

    Each gate maps "<bench>/<metric>" to {"max": x} and/or {"min": y}
    (plus an optional "why" note).  Gated metrics are machine-independent
    by construction (wall ratios, hit rates), so they are compared raw —
    no median normalization.  Returns (rows, failures, missing, absent):
    rows = [(name, value, bound_desc, ok)]; missing holds gates whose
    bench produced no results file at all (legitimately skipped — not
    every job runs every bench); absent holds gates whose bench DID run
    but never emitted the metric, which is a hard error — a renamed or
    dropped AddMetric call would otherwise silently un-gate the bound.
    """
    rows = []
    failures = []
    missing = []
    absent = []
    for name, gate in sorted(gates.items()):
        if name not in metrics:
            if name.partition("/")[0] not in benches_run:
                missing.append(name)
            else:
                absent.append(name)
            continue
        value = metrics[name]
        bounds = []
        ok = True
        if "max" in gate:
            bounds.append(f"<= {gate['max']}")
            if value > gate["max"]:
                ok = False
        if "min" in gate:
            bounds.append(f">= {gate['min']}")
            if value < gate["min"]:
                ok = False
        row = (name, value, " and ".join(bounds), ok)
        rows.append(row)
        if not ok:
            failures.append(row)
    return rows, failures, missing, absent


def print_metric_gates(rows, missing, absent=()):
    if not rows and not missing and not absent:
        return
    print(f"\n{len(rows)} metric gates:")
    for name, value, bounds, ok in rows:
        flag = "" if ok else "  <-- GATE FAILED"
        print(f"  {name}: {value:.3f} (bound {bounds}){flag}")
    if missing:
        print(f"  note: {len(missing)} gated metrics missing from results "
              "(bench not run in this job): " + ", ".join(missing))
    for name in absent:
        bench = name.partition("/")[0]
        print(f"  {name}: METRIC ABSENT — BENCH_{bench}.json is present but "
              "contains no such metric  <-- GATE FAILED")


def print_kernel_ratios(rows):
    if not rows:
        return
    print(f"\n{len(rows)} kernel speedup metrics (old wall / new wall):")
    for name, speedup in rows:
        print(f"  {name}: {speedup:.2f}x")
    speedups = [s for _, s in rows]
    print(f"  median: {median(speedups):.2f}x")


def write_step_summary(scale, tolerance, table_rows, failures, kernel_rows,
                       gate_rows=(), gate_missing=(), gate_absent=()):
    """Appends a markdown ratio table to $GITHUB_STEP_SUMMARY if set."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = ["## Bench regression gate", ""]
    if failures:
        lines.append(f"**FAIL** — {len(failures)} entr"
                     f"{'y' if len(failures) == 1 else 'ies'} regressed more "
                     f"than {tolerance:.0%} after normalization.")
    else:
        lines.append("**OK** — no wall-clock regressions beyond "
                     f"{tolerance:.0%} tolerance.")
    lines += ["",
              f"Machine-speed scale factor (median raw ratio): `{scale:.3f}`",
              "",
              "| entry | raw ratio | normalized | status |",
              "|---|---|---|---|"]
    failed_names = {name for name, _ in failures}
    for name, ratio, normalized in table_rows:
        status = ":x: regression" if name in failed_names else ":white_check_mark:"
        lines.append(f"| `{name}` | {ratio:.2f}x | {normalized:.2f}x "
                     f"| {status} |")
    if kernel_rows:
        lines += ["", "## Kernel speedups (old vs new)", "",
                  "Per-kernel wall ratio of the pre-optimization reference "
                  "implementation over the shipped kernel, measured on "
                  "identical inputs in the same bench_micro run "
                  "(machine speed cancels; >1.00x means the shipped kernel "
                  "is faster).", "",
                  "| kernel | speedup |",
                  "|---|---|"]
        for name, speedup in kernel_rows:
            lines.append(f"| `{name}` | {speedup:.2f}x |")
        speedups = [s for _, s in kernel_rows]
        lines.append(f"| **median** | **{median(speedups):.2f}x** |")
    if gate_rows or gate_missing or gate_absent:
        lines += ["", "## Metric gates", "",
                  "Machine-independent bench metrics (ratios, rates) "
                  "compared raw against the bounds in baseline.json's "
                  "`metric_gates`.", "",
                  "| metric | value | bound | status |",
                  "|---|---|---|---|"]
        for name, value, bounds, ok in gate_rows:
            status = ":white_check_mark:" if ok else ":x: gate failed"
            lines.append(f"| `{name}` | {value:.3f} | {bounds} | {status} |")
        for name in gate_missing:
            lines.append(f"| `{name}` | — | — | skipped (not run) |")
        for name in gate_absent:
            lines.append(f"| `{name}` | — | — | :x: metric absent "
                         "(bench ran but never emitted it) |")
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--results", required=True,
                        help="directory containing BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed normalized slowdown (0.25 = +25%%)")
    parser.add_argument("--min-micros", type=float, default=100.0,
                        help="ignore entries faster than this in the "
                             "baseline (too noisy to gate on)")
    args = parser.parse_args()

    try:
        with open(args.baseline) as f:
            baseline_doc = json.load(f)
    except OSError as e:
        print(f"error: cannot read baseline: {e}", file=sys.stderr)
        sys.exit(2)
    baseline = baseline_doc["entries"]
    current, metrics, benches_run = load_results(args.results)
    kernel_rows = kernel_ratio_rows(metrics)
    gate_rows, gate_failures, gate_missing, gate_absent = (
        evaluate_metric_gates(
            baseline_doc.get("metric_gates", {}), metrics, benches_run))

    ratios = {}
    skipped = []
    for name, base_wall in sorted(baseline.items()):
        if name not in current:
            skipped.append(name)
            continue
        if base_wall < args.min_micros:
            continue
        ratios[name] = current[name] / base_wall

    if len(ratios) < 3:
        print(f"error: only {len(ratios)} comparable entries — baseline and "
              "results barely overlap; refusing to certify", file=sys.stderr)
        sys.exit(2)

    scale = median(ratios.values())
    print(f"{len(ratios)} comparable entries; machine-speed scale factor "
          f"{scale:.3f} (median raw ratio)")
    if skipped:
        print(f"note: {len(skipped)} baseline entries missing from results: "
              + ", ".join(skipped[:5])
              + ("..." if len(skipped) > 5 else ""))

    failures = []
    table_rows = []
    for name, ratio in sorted(ratios.items(), key=lambda kv: -kv[1]):
        normalized = ratio / scale
        flag = ""
        if normalized > 1.0 + args.tolerance:
            failures.append((name, normalized))
            flag = "  <-- REGRESSION"
        table_rows.append((name, ratio, normalized))
        print(f"  {name}: raw {ratio:.2f}x, normalized {normalized:.2f}x{flag}")

    print_kernel_ratios(kernel_rows)
    print_metric_gates(gate_rows, gate_missing, gate_absent)
    write_step_summary(scale, args.tolerance, table_rows, failures,
                       kernel_rows, gate_rows, gate_missing, gate_absent)

    if failures:
        print(f"\nFAIL: {len(failures)} entr{'y' if len(failures) == 1 else 'ies'} "
              f"regressed more than {args.tolerance:.0%} after machine-speed "
              "normalization:", file=sys.stderr)
        for name, normalized in failures:
            print(f"  {name}: {normalized:.2f}x", file=sys.stderr)
        sys.exit(1)
    if gate_failures:
        print(f"\nFAIL: {len(gate_failures)} metric gate"
              f"{'' if len(gate_failures) == 1 else 's'} out of bounds:",
              file=sys.stderr)
        for name, value, bounds, _ in gate_failures:
            print(f"  {name}: {value:.3f} (bound {bounds})", file=sys.stderr)
        sys.exit(1)
    if gate_absent:
        print(f"\nFAIL: {len(gate_absent)} metric gate"
              f"{'' if len(gate_absent) == 1 else 's'} name"
              f"{'s' if len(gate_absent) == 1 else ''} a metric the bench "
              "never emitted:", file=sys.stderr)
        for name in gate_absent:
            bench = name.partition("/")[0]
            print(f"  {name}: BENCH_{bench}.json is present but has no such "
                  "metric — the gate name in baseline.json and the bench's "
                  "AddMetric call are out of sync (a rename or a dropped "
                  "export would otherwise silently disable this gate)",
                  file=sys.stderr)
        sys.exit(1)
    print("OK: no wall-clock regressions beyond tolerance; all metric "
          "gates in bounds")


if __name__ == "__main__":
    main()
