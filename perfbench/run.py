#!/usr/bin/env python3
"""Benchmark entry point for the inline tuner.

Builds the perfbench binary from source (perfbench/CMakeLists.txt, which
compiles only the libraries under src/ it links), runs one workload, checks
its outputs and prints the result. Run from the root of a source checkout:

    python3 perfbench/run.py --workload tune_adapt --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Earlier
lines carry the environment, the workload's extra figures and every check.
The exit code is 0 when every check passed, 1 when a check failed or the
build or run broke (then nothing is printed on standard output), and 2 on a
usage error.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
USAGE = ("usage: python3 perfbench/run.py --workload NAME --seed N --seconds S "
         "--trace 0|1")
FLAGS = ("--workload", "--seed", "--seconds", "--trace")


def fail_usage(message=None):
    if message:
        print(f"run.py: {message}", file=sys.stderr)
    print(USAGE, file=sys.stderr)
    sys.exit(2)


def parse_args(argv, workloads):
    """Parses the declared flags ("--flag value" or "--flag=value")."""
    values = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("-h", "--help"):
            fail_usage()
        name, eq, value = arg.partition("=")
        if name not in FLAGS:
            fail_usage(f"unknown argument {arg!r}")
        if not eq:
            if i + 1 >= len(argv):
                fail_usage(f"missing value for {name}")
            i += 1
            value = argv[i]
        values[name] = value
        i += 1
    missing = [f for f in FLAGS if f not in values]
    if missing:
        fail_usage("missing " + ", ".join(missing))
    if values["--workload"] not in workloads:
        fail_usage(f"unknown workload {values['--workload']!r}; one of {', '.join(workloads)}")
    if values["--trace"] not in ("0", "1"):
        fail_usage("--trace takes 0 or 1")
    try:
        seed = int(values["--seed"])
        seconds = float(values["--seconds"])
    except ValueError:
        fail_usage("--seed takes an integer and --seconds a number")
    if seed < 0 or seconds < 0:
        fail_usage("--seed and --seconds must not be negative")
    return values["--workload"], seed, seconds, values["--trace"] == "1"


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures once and rebuilds incrementally; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no src/ next to perfbench/: run from a full source checkout")
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "perfbench"


def cmake_cache(name):
    cache = build_dir() / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        key, _, value = line.partition("=")
        if key.split(":")[0] == name:
            return value
    return ""


def source_digest():
    """SHA-256 over every file the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def environment(compiler):
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    flags = cmake_cache("CMAKE_CXX_FLAGS")
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "ITH_FUSION": os.environ.get("ITH_FUSION", "promoted (default)"),
        "ITH_COMPUTED_GOTO": "0" if "-DITH_COMPUTED_GOTO=0" in flags else "1 (default)",
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def check_determinism(binary, workload, seed, values):
    """Compares values that must repeat exactly against earlier runs of this
    build with the same seed; returns the names that drifted."""
    h = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    ledger_path = build_dir() / "ledger" / f"{h}.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    seen = ledger.setdefault(f"{workload}/{seed}", {})
    drift = [k for k, v in values.items() if k in seen and seen[k] != v]
    seen.update({k: v for k, v in values.items() if k not in seen})
    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(ledger_path)
    return drift


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    workload, seed, seconds, trace = parse_args(sys.argv[1:], workloads)

    try:
        binary = build()
        scratch = build_dir() / "tmp"
        scratch.mkdir(parents=True, exist_ok=True)
        # A relative scratch path keeps unix socket paths short.
        proc = subprocess.run(
            [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", "1" if trace else "0",
             "--scratch", os.path.relpath(scratch, ROOT)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=900)
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
    except (OSError, RuntimeError, ValueError, IndexError, subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    checks = list(raw["checks"])
    for m in declared:
        entry = raw["metrics"].get(m["name"])
        if entry is None and not trace:
            checks.append({"name": f"metric.{m['name']}", "ok": False, "detail": "not reported"})
            continue
        # A layer this workload does not exercise reports zero.
        metrics[m["name"]] = {"value": entry["value"] if entry else 0, "unit": m["unit"]}
    undeclared = {k: v["value"] for k, v in raw["metrics"].items()
                  if k not in {m["name"] for m in declared}}

    drift = check_determinism(binary, workload, seed, raw["deterministic"])
    checks.append({"name": "deterministic_across_runs", "ok": not drift,
                   "detail": "drifted: " + ", ".join(drift) if drift else
                   f"{len(raw['deterministic'])} values match earlier runs of this build"})

    correct = all(c["ok"] for c in checks)
    print("env: " + json.dumps(environment(raw["compiler"]), sort_keys=True))
    print(f"workload: {workload} seed {seed} rounds {raw['rounds']} " +
          json.dumps(raw["info"], sort_keys=True))
    if undeclared:
        print("undeclared metrics: " + json.dumps(undeclared, sort_keys=True))
    for c in checks:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
