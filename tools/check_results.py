#!/usr/bin/env python3
"""Results ledger: the paper-reproduction programs must print what they printed.

Runs every `bench_table*`, `bench_fig*`, `bench_study_*`, `bench_ablation_*`
and `example_*` program in a build directory at fixed arguments, digests
each program's stdout (SHA-256) and compares the digests with the committed
ledger, RESULTS.json. Any difference fails: a missing or extra program, a
nonzero exit, or a single changed byte of output. The programs are
deterministic in (topology seed, config) and print no wall-clock figure,
so the comparison is exact.

Fixed arguments: a program that reads a scale runs at 0.15
(`bench_table7_campaigns` as `0.15 2`: scale 0.15 on two worker threads;
`example_yarrp6sim` as `--scale 0.15 --output /dev/stdout`, so its trace
dump is the digested output). Every other program ignores argv and runs at
its built-in scale.

A deliberate change to the science re-blesses the ledger with `--bless`,
which rewrites RESULTS.json from the current build. Every re-bless needs a
CHANGES.md line saying why the results moved.

Usage:
  python3 tools/check_results.py [--build-dir build] [--bless]

Exit codes: 0 when every digest matches (or after --bless), 1 on any
mismatch or program failure, 2 on operator errors (missing build
directory, unreadable ledger).
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
LEDGER = REPO / "RESULTS.json"
PATTERNS = ("bench_table*", "bench_fig*", "bench_study_*", "bench_ablation_*",
            "example_*")

# Programs that read argv; every other one ignores it.
ARGS = {
    "bench_table7_campaigns": ["0.15", "2"],
    "bench_fig6_result_features": ["0.15"],
    "bench_fig7_discovery_power": ["0.15"],
    "bench_fig8_subnets": ["0.15"],
    "bench_study_subnet_validation": ["0.15"],
    "example_campaign": ["0.15"],
    "example_yarrp6sim": ["--scale", "0.15", "--output", "/dev/stdout"],
}

TIMEOUT_S = 900


def discover(build_dir):
    names = set()
    for pattern in PATTERNS:
        for path in build_dir.glob(pattern):
            if path.is_file() and os.access(path, os.X_OK):
                names.add(path.name)
    return sorted(names)


def run_one(build_dir, name):
    args = ARGS.get(name, [])
    start = time.monotonic()
    try:
        proc = subprocess.run([str(build_dir / name), *args], cwd=build_dir,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return name, {"error": f"timed out after {TIMEOUT_S} s"}, 0.0
    seconds = time.monotonic() - start
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return name, {"error": f"exit {proc.returncode}: {' | '.join(tail)}"}, seconds
    entry = {
        "args": args,
        "sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "bytes": len(proc.stdout),
        "lines": proc.stdout.count(b"\n"),
    }
    return name, entry, seconds


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--build-dir", default=str(REPO / "build"))
    ap.add_argument("--bless", action="store_true",
                    help="rewrite RESULTS.json from this build")
    opts = ap.parse_args()

    build_dir = pathlib.Path(opts.build_dir).resolve()
    if not build_dir.is_dir():
        print(f"check_results: no build directory {build_dir}", file=sys.stderr)
        return 2
    ledger = {}
    if not opts.bless:
        try:
            ledger = json.loads(LEDGER.read_text())["programs"]
        except (OSError, ValueError, KeyError) as exc:
            print(f"check_results: cannot read ledger {LEDGER}: {exc}",
                  file=sys.stderr)
            return 2

    built = discover(build_dir)
    failures = []
    if not opts.bless:
        failures += [f"{n}: in the ledger but not built"
                     for n in sorted(set(ledger) - set(built))]
        failures += [f"{n}: built but not in the ledger (re-bless)"
                     for n in sorted(set(built) - set(ledger))]
    names = built if opts.bless else sorted(set(built) & set(ledger))

    results = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        futures = [pool.submit(run_one, build_dir, n) for n in names]
        for fut in concurrent.futures.as_completed(futures):
            name, entry, seconds = fut.result()
            results[name] = entry
            if "error" in entry:
                verdict = entry["error"]
                failures.append(f"{name}: {verdict}")
            elif opts.bless:
                verdict = "blessed"
            elif ledger[name].get("args") != entry["args"]:
                verdict = "ledger was blessed with other arguments (re-bless)"
                failures.append(f"{name}: {verdict}")
            elif ledger[name]["sha256"] != entry["sha256"]:
                verdict = (f"MISMATCH ({ledger[name]['lines']} -> {entry['lines']}"
                           " lines)")
                failures.append(f"{name}: stdout digest differs from the ledger")
            else:
                verdict = "ok"
            print(f"{name:34s} {seconds:7.1f} s  {verdict}", flush=True)

    if failures:
        print(f"\ncheck_results: {len(failures)} failure(s)", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    if opts.bless:
        doc = {
            "comment": ("stdout digests of the paper-reproduction programs; "
                        "check and re-bless with tools/check_results.py"),
            "programs": {n: results[n] for n in sorted(results)},
        }
        LEDGER.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"\ncheck_results: blessed {len(results)} programs into {LEDGER}")
    else:
        print(f"\ncheck_results: {len(results)} programs match the ledger")
    return 0


if __name__ == "__main__":
    sys.exit(main())
