#!/usr/bin/env python3
"""Run a bench binary and diff its key metrics against the previously saved
point.

    tools/bench_report.py bench_table2_predictions
    tools/bench_report.py bench_sec4_estimation_cost -- --reps 4
    tools/bench_report.py bench_table2_predictions --threshold 0.25 --update
    tools/bench_report.py bench_engine_microbench --gbench --name engine \\
        -- --benchmark_filter=BM_EngineEvents
    tools/bench_report.py --scale-diff old_scale.json new_scale.json
    tools/bench_report.py --self-test

Two kinds of binaries are understood:

  * run-report binaries (default): run with `--report <tmp>` and emit a
    lmo.run_report/1 document. The report is flattened to numeric leaves;
    wall-clock and host-dependent values (created_unix, wall_seconds,
    thread_pool, sim.host_ns, estimate.reps_discarded, sim.sessions_built)
    are excluded because they vary run to run. Everything else is a
    deterministic function of the seed, so any drift is a real behavior
    change.
  * --gbench binaries: google-benchmark microbenchmarks, run with
    `--benchmark_out=<tmp> --benchmark_out_format=json`. Timings are kept
    (real_time, cpu_time, items_per_second, custom counters); the host
    context and bookkeeping fields are dropped. Timings are inherently
    noisy — compare with a generous --threshold.

The previous point lives at <history>/BENCH_<name>.json (default
bench/reports/; --name overrides the <name> part, which otherwise is the
binary name). With no previous point the run just saves one. A relative
change above --threshold on any shared key is a regression, and a metric
appearing in or vanishing from the report is reported the same way — a
rename or a lost counter is just as much a behavior change as a moved
value. Any of these prints, and the script exits 1 without overwriting the
point (pass --update to accept the new values).

The fidelity, tuner and serving acceptance bars are not checked here: each
bench binary gates its own run (--fidelity-baseline, --max-regret,
--min-qps).

--scale-diff OLD NEW compares two lmo.bench_scale/1 documents (written by
bench/bench_scale) series-row by series-row, keyed on the rank count N.
Work counts (events, triplets, experiment and store-entry totals) are a
deterministic function of the seed and must match exactly; timings and
peak RSS are host-noisy and only fail above --threshold (default 0.50 in
this mode). An N value appearing in or vanishing from the series is a
failure too — that is coverage changing, not noise. Exit 1 on any
violation.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

# Keys whose values depend on the host, wall clock, or jobs count rather
# than on the simulated behavior under test.
VOLATILE = {
    "created_unix",
    "wall_seconds",
    "thread_pool",
    "provenance",
    "sim.host_ns",
    "estimate.reps_discarded",
    "sim.sessions_built",
}

# google-benchmark per-benchmark bookkeeping that is not a measurement.
GBENCH_SKIP = {
    "name",
    "run_name",
    "run_type",
    "repetitions",
    "repetition_index",
    "family_index",
    "per_family_instance_index",
    "threads",
    "iterations",
    "aggregate_name",
    "time_unit",
}


def flatten(value, prefix=""):
    """Numeric leaves of a JSON document as {dotted.path: float}."""
    out = {}
    if isinstance(value, dict):
        for key, sub in value.items():
            if key in VOLATILE:
                continue
            out.update(flatten(sub, f"{prefix}{key}."))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            out.update(flatten(sub, f"{prefix}{i}."))
    elif isinstance(value, bool):
        pass
    elif isinstance(value, (int, float)):
        out[prefix[:-1]] = float(value)
    return out


def flatten_gbench(report):
    """google-benchmark JSON output as {benchmark_name.metric: float}.

    The `context` block (host name, CPU info, build type) is dropped
    entirely; per-benchmark bookkeeping fields are skipped so the metrics
    are the timings and custom counters only.
    """
    out = {}
    for bench in report.get("benchmarks", []):
        name = bench.get("name", "?")
        for key, value in bench.items():
            if key in GBENCH_SKIP or isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                out[f"{name}.{key}"] = float(value)
    return out


def rel_change(old, new):
    """Relative change in [0, inf]. NaN never propagates: equal values
    (including two NaNs, which compare unequal but mean "same undefined
    metric" here) give 0.0, and a value moving to or from a non-finite
    state counts as an infinite change rather than NaN — the old code
    returned NaN for those, which failed every `change > threshold`
    comparison and silently hid the regression."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    denom = max(abs(old), abs(new))
    return abs(new - old) / denom


def diff_points(old, new, threshold):
    """Compare two flattened metric dicts.

    Returns (regressions, added, dropped): regressions is a list of
    (change, key) over the shared keys exceeding the threshold, sorted
    worst first; added/dropped are sorted key lists present in only one
    point. All three are reportable changes — callers should fail if any
    list is non-empty.
    """
    regressions = []
    for key in set(old) & set(new):
        change = rel_change(old[key], new[key])
        if change > threshold:
            regressions.append((change, key))
    regressions.sort(reverse=True)
    return regressions, sorted(set(new) - set(old)), sorted(set(old) - set(new))


# Per-N fields of a bench_scale series row that are pure work counts:
# deterministic functions of the seed and cluster shape, so any drift is a
# behavior change, not noise.
SCALE_EXACT = (
    "events",
    "triplets",
    "roundtrip_experiments",
    "one_to_two_experiments",
    "store_entries",
)

# Per-N fields that depend on the host: compare with a generous threshold.
SCALE_NOISY = ("setup_s", "events_per_s", "scale_fit_s", "peak_rss_kb")


def load_scale(path):
    """A scale-series document written by bench/bench_scale."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "lmo.bench_scale/1":
        sys.exit(f"error: {path} is not a bench_scale document "
                 f"(schema {doc.get('schema')!r})")
    return doc


def diff_scale(old, new, threshold):
    """Violations between two scale-series documents, as printable strings.

    Rows are matched on their "ranks" value, so the comparison is
    insensitive to --max-ranks truncation order. Exact-match fields
    (SCALE_EXACT) fail on any difference; noisy fields (SCALE_NOISY) fail
    past the relative threshold. Ns present in only one document fail.
    """
    failures = []
    old_by_n = {row["ranks"]: row for row in old.get("series", [])}
    new_by_n = {row["ranks"]: row for row in new.get("series", [])}
    for n in sorted(set(old_by_n) - set(new_by_n)):
        failures.append(f"N={n} vanished from the series")
    for n in sorted(set(new_by_n) - set(old_by_n)):
        failures.append(f"N={n} appeared in the series")
    for n in sorted(set(old_by_n) & set(new_by_n)):
        o, w = old_by_n[n], new_by_n[n]
        for key in SCALE_EXACT:
            if key in o and key in w and o[key] != w[key]:
                failures.append(f"N={n} {key}: {o[key]:g} -> {w[key]:g} "
                                f"(work count must match exactly)")
        for key in SCALE_NOISY:
            if key not in o or key not in w:
                continue
            change = rel_change(float(o[key]), float(w[key]))
            if change > threshold:
                failures.append(f"N={n} {key}: {o[key]:g} -> {w[key]:g} "
                                f"({change:+.0%})")
    return failures


def run_binary(binary, extra, gbench):
    """Run the bench binary, return its flattened metric dict."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    try:
        if gbench:
            cmd = [binary, f"--benchmark_out={out_path}",
                   "--benchmark_out_format=json"] + extra
        else:
            cmd = [binary, "--report", out_path] + extra
        print(f"running: {' '.join(cmd)}")
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        with open(out_path) as f:
            report = json.load(f)
    finally:
        os.unlink(out_path)

    if gbench:
        if "benchmarks" not in report:
            sys.exit("error: no 'benchmarks' array in the gbench output")
    elif report.get("schema") != "lmo.run_report/1":
        sys.exit(f"error: unexpected report schema {report.get('schema')!r}")
    return report


def self_test():
    """Pytest-free sanity checks for the pure helpers (tools/check.sh runs
    this; keep it dependency-free)."""
    nan = float("nan")
    # rel_change: plain ratios, and no NaN leaking through comparisons.
    assert rel_change(1.0, 1.0) == 0.0
    assert rel_change(0.0, 0.0) == 0.0
    assert abs(rel_change(100.0, 90.0) - 0.1) < 1e-12
    assert abs(rel_change(90.0, 100.0) - 0.1) < 1e-12
    assert rel_change(nan, nan) == 0.0
    assert rel_change(nan, 1.0) == math.inf
    assert rel_change(1.0, nan) == math.inf
    assert rel_change(math.inf, 1.0) == math.inf
    assert rel_change(math.inf, math.inf) == 0.0
    assert rel_change(0.0, 1.0) == 1.0
    # The NaN cases must actually trip a threshold comparison.
    assert rel_change(nan, 1.0) > 0.1

    # flatten: nested dicts/lists, volatile keys skipped, bools skipped.
    doc = {
        "a": {"b": 1, "wall_seconds": 9.9},
        "list": [2, {"c": 3}],
        "flag": True,
        "created_unix": 123,
    }
    assert flatten(doc) == {"a.b": 1.0, "list.0": 2.0, "list.1.c": 3.0}

    # flatten_gbench: metrics kept, bookkeeping and context dropped.
    gb = {
        "context": {"num_cpus": 64, "mhz_per_cpu": 3000},
        "benchmarks": [
            {
                "name": "BM_X/8",
                "family_index": 0,
                "iterations": 1000,
                "real_time": 12.5,
                "cpu_time": 12.0,
                "time_unit": "ns",
                "items_per_second": 8e7,
                "allocs_per_event": 0.0,
            }
        ],
    }
    assert flatten_gbench(gb) == {
        "BM_X/8.real_time": 12.5,
        "BM_X/8.cpu_time": 12.0,
        "BM_X/8.items_per_second": 8e7,
        "BM_X/8.allocs_per_event": 0.0,
    }

    # diff_points: shared-key regressions plus added/dropped keys.
    old = {"keep": 1.0, "moved": 100.0, "dropped": 5.0, "to_nan": 1.0}
    new = {"keep": 1.05, "moved": 50.0, "added": 7.0, "to_nan": nan}
    regs, added, dropped = diff_points(old, new, threshold=0.10)
    assert [k for _, k in regs] == ["to_nan", "moved"]  # worst first
    assert regs[0][0] == math.inf
    assert added == ["added"]
    assert dropped == ["dropped"]
    regs, added, dropped = diff_points({"a": 1.0}, {"a": 1.0}, 0.10)
    assert (regs, added, dropped) == ([], [], [])

    # diff_scale: identity passes, noisy drift inside the threshold passes,
    # work-count drift of any size fails, Ns may not come or go.
    def scale(*rows):
        return {"schema": "lmo.bench_scale/1",
                "series": [
                    {"ranks": n, "events": ev, "triplets": tr,
                     "scale_fit_s": fit, "peak_rss_kb": rss}
                    for n, ev, tr, fit, rss in rows]}

    sbase = scale((16, 3200, 3, 0.004, 4096), (256, 51200, 9, 0.18, 5120))
    assert diff_scale(sbase, sbase, 0.50) == []
    # Timings 40% apart: inside the generous 50% band.
    assert diff_scale(sbase, scale((16, 3200, 3, 0.0056, 4096),
                                   (256, 51200, 9, 0.25, 5120)), 0.50) == []
    # A fit 3x slower is a failure even in the noisy band.
    fails = diff_scale(sbase, scale((16, 3200, 3, 0.012, 4096),
                                    (256, 51200, 9, 0.18, 5120)), 0.50)
    assert len(fails) == 1 and "scale_fit_s" in fails[0] and "N=16" in fails[0]
    # One event more is a failure: work counts are deterministic.
    fails = diff_scale(sbase, scale((16, 3201, 3, 0.004, 4096),
                                    (256, 51200, 9, 0.18, 5120)), 0.50)
    assert len(fails) == 1 and "events" in fails[0] and "exactly" in fails[0]
    # Dropping and adding an N both fail, keyed by ranks not row order.
    fails = diff_scale(sbase, scale((256, 51200, 9, 0.18, 5120),
                                    (1024, 819200, 12, 2.3, 8192)), 0.50)
    assert sorted(fails) == ["N=1024 appeared in the series",
                             "N=16 vanished from the series"]

    print("bench_report.py self-test passed")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "bench", nargs="?",
        help="bench binary name, e.g. bench_table2_predictions")
    parser.add_argument("--build-dir", default="build", help="CMake build directory")
    parser.add_argument(
        "--history", default="bench/reports", help="directory holding BENCH_*.json points"
    )
    parser.add_argument(
        "--name",
        help="point file name: BENCH_<name>.json (default: the binary name)",
    )
    parser.add_argument(
        "--gbench",
        action="store_true",
        help="the binary is a google-benchmark microbenchmark, not a "
        "--report binary",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="relative change that counts as a regression "
        "(default 0.10; 0.50 with --scale-diff)",
    )
    parser.add_argument(
        "--update", action="store_true", help="save the new point even on regressions"
    )
    parser.add_argument(
        "--scale-diff", nargs=2, metavar=("OLD", "NEW"),
        help="compare two bench_scale series documents by rank count "
        "instead of running a binary",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="run the built-in checks of the pure helpers and exit",
    )
    # Split off bench-binary arguments ourselves: argparse (before 3.13)
    # mis-parses option-like tokens after "--" as unrecognized options.
    argv = sys.argv[1:]
    extra = []
    if "--" in argv:
        split = argv.index("--")
        argv, extra = argv[:split], argv[split + 1:]
    args = parser.parse_args(argv)
    args.extra = extra

    if args.self_test:
        self_test()
        return
    if args.scale_diff:
        threshold = 0.50 if args.threshold is None else args.threshold
        old_path, new_path = args.scale_diff
        new_doc = load_scale(new_path)
        failures = diff_scale(load_scale(old_path), new_doc, threshold)
        for failure in failures:
            print(f"scale: FAIL {failure}")
        if failures:
            sys.exit(1)
        ns = [str(row["ranks"]) for row in new_doc.get("series", [])]
        print(f"scale: series match at N = {', '.join(ns)} (work counts "
              f"exact, timings within {threshold:.0%})")
        return
    if not args.bench:
        parser.error("bench binary name required (or --self-test / "
                     "--scale-diff)")
    if args.threshold is None:
        args.threshold = 0.10

    binary = os.path.join(args.build_dir, "bench", args.bench)
    if not os.path.exists(binary):
        sys.exit(f"error: {binary} not found (build the repo first)")

    report = run_binary(binary, args.extra, args.gbench)
    new = flatten_gbench(report) if args.gbench else flatten(report)
    print(f"{len(new)} numeric metrics in the new report")

    os.makedirs(args.history, exist_ok=True)
    point_name = args.name if args.name else args.bench
    point_path = os.path.join(args.history, f"BENCH_{point_name}.json")
    if not os.path.exists(point_path):
        with open(point_path, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
        print(f"no previous point; saved baseline to {point_path}")
        return

    with open(point_path) as f:
        old_report = json.load(f)
    old = flatten_gbench(old_report) if args.gbench else flatten(old_report)

    regressions, added, dropped = diff_points(old, new, args.threshold)
    for key in added:
        print(f"  new metric: {key} = {new[key]:g}")
    for key in dropped:
        print(f"  dropped metric: {key} (was {old[key]:g})")

    if regressions:
        print(f"\n{len(regressions)} metric(s) moved more than "
              f"{args.threshold:.0%} vs {point_path}:")
        for change, key in regressions:
            print(f"  {key}: {old[key]:g} -> {new[key]:g}  ({change:+.1%})")
    else:
        shared = len(set(old) & set(new))
        print(f"all {shared} shared metrics within "
              f"{args.threshold:.0%} of {point_path}")

    failed = bool(regressions or added or dropped)
    if not failed or args.update:
        with open(point_path, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
        print(f"saved new point to {point_path}")
    if failed and not args.update:
        sys.exit(1)


if __name__ == "__main__":
    main()
