#!/usr/bin/env python3
"""Builds and runs the CBSVM host-time benchmark (see README.md).

    python3 hostbench/run.py --workload suite --seed 1 --seconds 20 --trace 0
    python3 hostbench/run.py --self-check
    python3 hostbench/run.py --record-reference 0-20

Run from the repository root (or any checkout of it). The driver is
built from ../src into .bench_build/hostbench/ on first use. The last
line of standard output is the result object of the run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build" / "hostbench"
BUILD_DIR = BUILD_ROOT / "build"
BINARY = BUILD_DIR / "hostbench"
REFERENCE = HERE / "reference.json"
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"CBSVM sources not found under {ROOT / 'src'}")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    done = subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0 and BINARY.is_file()


def source_digest():
    """SHA-256 over the paths and bytes of src/: identifies the code
    measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, env=env)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_driver(workload, seed, seconds, trace, extra=()):
    """Runs the driver once; returns (exit code, stdout lines)."""
    traces = BUILD_ROOT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", str(REFERENCE),
           "--trace-out", str(traces / f"{workload}-seed{seed}.json"),
           "--commit", git_commit(), "--source-digest", source_digest(),
           *extra]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: driver exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record_reference(seeds):
    """Re-records the reference digests: one pass per workload and seed."""
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    workloads = doc.setdefault("workloads", {})
    for name in (w["name"] for w in benchmark_spec()["workloads"]):
        for seed in seeds:
            with tempfile.TemporaryDirectory(dir=BUILD_ROOT) as tmp:
                out = Path(tmp) / "digests.json"
                code, lines = run_driver(name, seed, 0, 0,
                                         ["--record", str(out)])
                if code or not lines or not json.loads(lines[-1])["correct"]:
                    log(f"recording {name} seed {seed} failed")
                    return 1
                workloads.setdefault(name, {})[str(seed)] = json.loads(
                    out.read_text())
            log(f"recorded {name} seed {seed}")
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def self_check():
    """Runs every workload briefly, traced and untraced, and checks each
    emitted metric name and unit against BENCHMARK.json; then feeds one
    wrong reference digest and checks it is counted as failed ops."""
    spec = benchmark_spec()
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def result(name, trace, extra=()):
        code, lines = run_driver(name, 1, 0, trace, extra)
        if code or not lines:
            problems.append(f"{name} trace={trace}: driver exit {code}")
            return None
        res = json.loads(lines[-1])
        if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{name}: result keys {sorted(res)}")
        return res

    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res = result(name, trace)
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: metrics differ from "
                                f"BENCHMARK.json: got {got}, want "
                                f"{want[trace]}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {res['failed']} of "
                                f"{res['attempted']} ops failed")
        bad = result(name, 0, ["--corrupt-reference"])
        if bad is not None and (bad["correct"] or bad["failed"] < 1):
            problems.append(f"{name}: a wrong reference digest was not "
                            "counted as a failed op")
        log(f"self-check {name}: done")
    for p in problems:
        log(f"SELF-CHECK FAILED: {p}")
    log("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record-reference", metavar="SEEDS",
                    help="re-record reference digests, e.g. 0-20")
    args = ap.parse_args()
    if not build():
        log("build failed")
        return 1
    if args.self_check:
        return self_check()
    if args.record_reference:
        return record_reference(parse_seeds(args.record_reference))
    if not args.workload:
        ap.error("--workload is required")
    code, lines = run_driver(args.workload, args.seed, args.seconds,
                             args.trace)
    if code or not lines:
        log(f"driver failed with exit code {code}")
        return code or 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
