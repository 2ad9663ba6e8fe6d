#!/usr/bin/env python3
"""Advisory perf-trajectory check for the hot-path bench.

Compares a freshly produced BENCH_hotpath.json against the committed
baseline copy and *warns* — never fails — when a tracked metric moved the
wrong way by more than the threshold (default 25%). Tracked metrics:

  fast_path.probes_per_sec                    higher is better (required)
  giant_shard.split8_8threads_seconds         lower is better
  giant_shard.split8_speedup_vs_unsplit       higher is better
  doubletree_split.split4_8threads_seconds    lower is better
  scaling.threads_8_probes_per_sec            higher is better
  scaling.efficiency_8t                       higher is better
  churn.probes_per_sec_1t                     higher is better
  churn.probes_per_sec_8t                     higher is better
  reactor.*_probes_per_sec                    higher is better
  reactor.*_p99_sched_us                      lower is better
  reactor.peak_rss_mb                         lower is better

The `churn` metrics track throughput with a DynamicsSchedule live; the
dynamics check on the hot path (a null test with no schedule, a cursor
compare with one) must stay cheap, and these advisory numbers are the
trajectory record for that. Correctness under churn is NOT this script's
job: bench_hotpath itself hard-fails (nonzero exit) when the 1t/8t churn
checksums diverge or the schedule is inert.

The two `scaling` metrics track the parallel backend's 8-thread
throughput and efficiency (speedup / 8); like every thread-sweep number
they are only comparable between runs on identical hardware (the JSON's
`machine.hardware_threads` stamp), which is one more reason this check
warns instead of failing.

The `giant_shard` / `doubletree_split` metrics are optional on both
sides: the committed baseline may predate those bench sections, and a
narrowed bench run may omit them. A missing optional metric prints a
`skip` note instead of dying — the check must stay useful across
baseline generations. `fast_path.probes_per_sec` has been in every
baseline since the section existed, so its absence means broken wiring
and exits 2.

Warn-only is deliberate: runners are noisy neighbours, and the committed
JSON itself says "compare like scales and machines only". The value of
this check is the paper trail — a `::warning` annotation on the PR the
moment the trajectory bends — not a gate that would flake on runner
weather. A genuine regression shows up as the warning appearing on
*every* run of a PR while neighbouring PRs stay quiet.

Cross-machine comparisons are refused. Both JSONs carry a
`machine.hardware_threads` stamp; when the stamps differ, or either is
missing, the check prints both stamps and a `::notice`, compares nothing
and exits 0. A 1-thread baseline against a 4-thread run measures the
machine, not the change.

Exit codes: 0 always for comparisons (including a triggered warning and
a refused cross-machine pair); 2 for operator errors (missing file,
malformed JSON, missing required field) so a broken wiring of the check
itself does fail loudly. `--self-test` runs the check over built-in
fixture pairs and exits 0 when every case gives its expected verdict,
1 otherwise.

Usage:
  tools/check_bench_regression.py BASELINE.json FRESH.json [--threshold 0.25]
  tools/check_bench_regression.py --self-test
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

# (dotted path, higher_is_better, required). Seconds metrics regress by
# growing; throughput/speedup metrics regress by shrinking.
METRICS: list[tuple[str, bool, bool]] = [
    ("fast_path.probes_per_sec", True, True),
    ("giant_shard.split8_8threads_seconds", False, False),
    ("giant_shard.split8_speedup_vs_unsplit", True, False),
    ("doubletree_split.split4_8threads_seconds", False, False),
    ("scaling.threads_8_probes_per_sec", True, False),
    ("scaling.efficiency_8t", True, False),
    ("churn.probes_per_sec_1t", True, False),
    ("churn.probes_per_sec_8t", True, False),
    # bench_reactor (BENCH_reactor.json): multi-tenant campaign service.
    # Throughput regresses by shrinking; per-slot scheduling latency (the
    # p99 step() dispatch cost) regresses by growing. Compared with
    # --only reactor, since these live in a different JSON than the
    # hot-path metrics and fast_path.probes_per_sec is required there.
    ("reactor.small_probes_per_sec", True, False),
    ("reactor.small_p99_sched_us", False, False),
    ("reactor.large_probes_per_sec", True, False),
    ("reactor.large_p99_sched_us", False, False),
    # Peak RSS of the whole bench_reactor process, lower is better.
    ("reactor.peak_rss_mb", False, False),
]


def die(msg: str) -> None:
    print(f"check_bench_regression: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        die(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        die(f"{path} is not valid JSON: {e}")
    raise AssertionError("unreachable")


def lookup(doc: dict, path: str, src: str, required: bool) -> float | None:
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                die(f"{src} has no {path}")
            return None
        node = node[part]
    if not isinstance(node, (int, float)) or isinstance(node, bool) or node <= 0:
        die(f"{src}: {path} is {node!r}, expected a positive number")
    return float(node)


def hardware_threads(doc: dict) -> int | None:
    """The JSON's machine.hardware_threads stamp, None when absent."""
    machine = doc.get("machine")
    threads = machine.get("hardware_threads") if isinstance(machine, dict) else None
    if isinstance(threads, int) and not isinstance(threads, bool) and threads > 0:
        return threads
    return None


def same_machine(base_doc: dict, fresh_doc: dict, base: str, fresh: str) -> bool:
    """True when both stamps are present and equal; otherwise say why the
    pair is refused."""
    base_threads = hardware_threads(base_doc)
    fresh_threads = hardware_threads(fresh_doc)
    if base_threads is not None and base_threads == fresh_threads:
        return True
    def stamp(threads: int | None) -> str:
        return "missing" if threads is None else str(threads)
    print(f"baseline {base}: machine.hardware_threads {stamp(base_threads)}")
    print(f"fresh    {fresh}: machine.hardware_threads {stamp(fresh_threads)}")
    print("::notice title=bench comparison refused::the two runs do not carry "
          "the same machine.hardware_threads stamp, so their numbers are not "
          "comparable; nothing was compared. Rebaseline on this machine.")
    return False


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?", help="committed BENCH_hotpath.json")
    ap.add_argument("fresh", nargs="?", help="just-produced BENCH_hotpath.json")
    ap.add_argument("--self-test", action="store_true",
                    help="check the verdicts on built-in fixture pairs")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="warn when a metric moved the wrong way by more "
                         "than this fraction (default 0.25)")
    ap.add_argument("--only", metavar="PREFIX", default=None,
                    help="restrict the comparison to metrics whose dotted "
                         "path starts with PREFIX (e.g. --only reactor for "
                         "BENCH_reactor.json); a prefix selecting no known "
                         "metric, or one none of whose metrics appear in "
                         "the fresh JSON, exits 2 (broken wiring)")
    args = ap.parse_args(argv)
    if args.self_test:
        return run_self_test()
    if args.baseline is None or args.fresh is None:
        ap.error("BASELINE and FRESH are required")

    base_doc = load(args.baseline)
    fresh_doc = load(args.fresh)

    metrics = METRICS
    if args.only is not None:
        metrics = [m for m in METRICS if m[0].startswith(args.only)]
        if not metrics:
            die(f"--only {args.only!r} selects no known metric")
        if all(lookup(fresh_doc, path, args.fresh, False) is None
               for path, _, _ in metrics):
            die(f"{args.fresh} has none of the --only {args.only!r} metrics")

    if not same_machine(base_doc, fresh_doc, args.baseline, args.fresh):
        return 0

    warned = False
    for path, higher_better, required in metrics:
        base = lookup(base_doc, path, args.baseline, required)
        fresh = lookup(fresh_doc, path, args.fresh, required)
        if base is None or fresh is None:
            missing = args.baseline if base is None else args.fresh
            print(f"skip {path}: not in {missing} (section predates it)")
            continue
        ratio = fresh / base
        # Normalize so >1 always means "got worse" regardless of direction.
        worse = (base / fresh) if higher_better else ratio
        line = (f"{path}: baseline {base:,.2f} -> fresh {fresh:,.2f} "
                f"({ratio:.1%} of baseline, "
                f"{'higher' if higher_better else 'lower'} is better)")
        if worse > 1.0 + args.threshold:
            warned = True
            # GitHub Actions annotation syntax; plain stderr elsewhere.
            print(f"::warning title=hot-path bench regression::{line} — "
                  f"moved the wrong way by more than {args.threshold:.0%}. "
                  f"Machine variance is expected; investigate only if this "
                  f"repeats across runs.")
            print(f"WARN {line}", file=sys.stderr)
        else:
            print(f"ok   {line}")
    if not warned:
        print("check_bench_regression: no metric crossed the threshold")
    return 0


def fixture(threads: int | None, probes_per_sec: float | None) -> dict:
    doc: dict = {"fast_path": {}} if probes_per_sec is None else {
        "fast_path": {"probes_per_sec": probes_per_sec}}
    if threads is not None:
        doc["machine"] = {"hardware_threads": threads}
    return doc


# (name, baseline, fresh, expected exit code, a line the output must hold,
# a line it must not hold).
SELF_TEST_CASES = [
    ("same machine, within threshold", fixture(4, 1e6), fixture(4, 0.9e6),
     0, "no metric crossed the threshold", "::warning"),
    ("same machine, regressed", fixture(4, 1e6), fixture(4, 0.5e6),
     0, "::warning", "no metric crossed"),
    ("stamps differ", fixture(1, 1e6), fixture(4, 0.5e6),
     0, "::notice", "fast_path.probes_per_sec"),
    ("fresh stamp missing", fixture(4, 1e6), fixture(None, 0.5e6),
     0, "machine.hardware_threads missing", "fast_path.probes_per_sec"),
    ("baseline stamp missing", fixture(None, 1e6), fixture(4, 1e6),
     0, "::notice", "no metric crossed"),
    ("required metric missing", fixture(4, 1e6), fixture(4, None),
     2, "has no fast_path.probes_per_sec", "::notice"),
]


def run_self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, base_doc, fresh_doc, want_code, want, unwanted in SELF_TEST_CASES:
            base = Path(tmp) / "base.json"
            fresh = Path(tmp) / "fresh.json"
            base.write_text(json.dumps(base_doc))
            fresh.write_text(json.dumps(fresh_doc))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                try:
                    code = main([str(base), str(fresh)])
                except SystemExit as e:
                    code = e.code
            text = out.getvalue()
            ok = code == want_code and want in text and unwanted not in text
            print(f"self-test: {name}: exit {code} [{'ok' if ok else 'FAIL'}]")
            if not ok:
                failures += 1
                print(f"  expected exit {want_code}, {want!r} present and "
                      f"{unwanted!r} absent; output was:")
                print("  " + text.replace("\n", "\n  ").rstrip())
    if failures:
        print(f"self-test: {failures} case(s) failed", file=sys.stderr)
        return 1
    print(f"self-test: {len(SELF_TEST_CASES)} case(s) verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
