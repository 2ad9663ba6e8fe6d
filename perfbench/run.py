#!/usr/bin/env python3
"""The repository benchmark: build the workload program, run one workload,
check its output and print the result line.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
      --trace <0|1>
  python3 perfbench/run.py ... --record-golden   # store this seed's digest
  python3 perfbench/run.py compare <base> <new>  # reports: files or dirs

Run it from the root of a checkout. It builds perfbench/ (which pulls in
the library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the workload in its own process and prints,
as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports every end-to-end
metric of BENCHMARK.json, --trace 1 every per-layer metric (0 where a
layer does not take part in the workload). The full report, with the
machine and build stamp, is kept under results/ in the build directory; a
traced run also writes a Chrome trace there. Output is correct when every
check inside the program passed and, for a seed with a recorded golden,
the output digest matches it. See perfbench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("perfbench:", msg)
    sys.exit(code)


def spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} is missing")
    return json.loads(path.read_text())


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd, timeout):
    """Run a child with its output on our stderr; stdout is the result's."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)


def build():
    """Configure once, then build incrementally. Returns the program."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die("the library sources (CMakeLists.txt, src/) are not here")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", str(out), "--target",
                  "perfbench_workload", "-j", jobs])
    for cmd in steps:
        try:
            done = run_quiet(cmd, BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            die(f"build failed: {err}")
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)} exited {done.returncode}")
    return out / "perfbench_workload"


def load_goldens():
    return json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}


def run(args):
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; one of {', '.join(names)}")
    program = build()
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = results / f"{stem}.json"
    report_path.unlink(missing_ok=True)
    cmd = [str(program), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--report", str(report_path)]
    if args.trace:
        cmd += ["--chrome", str(results / f"{stem}.trace.json")]
    try:
        done = run_quiet(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if not report_path.is_file():
        die(f"{args.workload} exited {done.returncode} without a report")
    report = json.loads(report_path.read_text())

    failed = int(report["failed"])
    errors = list(report["errors"])
    goldens = load_goldens()
    golden = goldens.get(args.workload, {}).get(str(args.seed))
    if args.record_golden:
        if failed or errors:
            die("not recording a golden from a run whose checks failed")
        goldens.setdefault(args.workload, {})[str(args.seed)] = \
            report["digest"]
        GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True)
                           + "\n")
        log(f"recorded golden {report['digest']} for {args.workload} "
            f"seed {args.seed}")
    elif golden is not None and golden != report["digest"]:
        failed += 1
        errors.append(f"digest {report['digest']} differs from the "
                      f"golden {golden}")
    report["golden"] = golden
    report_path.write_text(json.dumps(report, indent=2) + "\n")

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in bench[group]:
        if m["name"] in report[group]:
            value = report[group][m["name"]]
        elif args.trace:
            value = 0  # this layer does not take part in the workload
        else:
            die(f"the program did not report {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for e in errors:
        log("check failed:", e)
    correct = failed == 0 and not errors and done.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def reports(path):
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out = []
    for f in files:
        if f.name.endswith(".trace.json"):
            continue
        r = json.loads(f.read_text())
        if "stamp" in r and "end_to_end" in r:
            out.append(r)
    if not out:
        die(f"no reports under {path}")
    return out


def compare(base_path, new_path):
    """Median of each end-to-end metric per workload, base against new,
    with the benchmark's bound. Refuses runs whose stamps differ."""
    bench = spec()
    base, new = reports(base_path), reports(new_path)
    stamps = {json.dumps(r["stamp"], sort_keys=True) for r in base + new}
    if len(stamps) != 1:
        log("refusing to compare: the runs carry different machine or "
            "build stamps:")
        for s in sorted(stamps):
            log("  ", s)
        return 3
    log("stamp:", stamps.pop())
    worse_found = False
    for w in [w["name"] for w in bench["workloads"]]:
        b = [r for r in base if r["workload"] == w and r["trace"] == 0]
        n = [r for r in new if r["workload"] == w and r["trace"] == 0]
        if not b or not n:
            continue
        print(f"{w} ({len(b)} base runs, {len(n)} new runs)")
        for m in bench["end_to_end"]:
            mb = statistics.median(r["end_to_end"][m["name"]] for r in b)
            mn = statistics.median(r["end_to_end"][m["name"]] for r in n)
            change = (mn - mb) / mb if mb else 0.0
            worse = (change if m["better"] == "lower" else -change) \
                > m["bound"]
            worse_found |= worse
            print(f"  {m['name']:<20} {mb:>14.6g} -> {mn:<14.6g} "
                  f"{m['unit']:<6} {change:+8.2%} (bound {m['bound']:.0%})"
                  f"{'  WORSE' if worse else ''}")
    return 1 if worse_found else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            die("usage: run.py compare <base reports> <new reports>")
        return compare(sys.argv[2], sys.argv[3])
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    return run(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
