#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the system's libraries from
src/ plus the benchmark binary) in $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild incrementally. The binary's last
stdout line is the JSON result; build output goes to stderr. Database files
live in a per-run directory under the build directory and are removed when
the run ends.

--self-test runs every workload on tiny inputs and checks that each metric
named in BENCHMARK.json prints with its unit, that a wrong reference digest
raises the error rate above 0, and that permanent read faults count as
failed operations instead of crashing the run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("src/ not found next to perfbench/; nothing to build")
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def run_binary(binary, args, capture):
    """Runs the benchmark binary in a fresh work directory; returns (code, stdout)."""
    workdir = os.path.join(build_dir(), f"work-{os.getpid()}")
    cmd = [binary] + args + ["--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout or ""
    except subprocess.TimeoutExpired:
        log(f"benchmark binary exceeded {RUN_TIMEOUT_S}s and was stopped")
        return 1, ""
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test(binary):
    spec = load_spec()
    tiny = ["--seconds", "1", "--scale-mult", "0.02"]
    failures = []

    def check(label, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'} {label} {detail}".rstrip(), flush=True)
        if not ok:
            failures.append(label)

    def run(extra):
        code, out = run_binary(binary, extra + tiny, capture=True)
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        return code, lines, result

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace={trace}"
            code, lines, result = run(["--workload", workload, "--seed", "7",
                                       "--trace", str(trace)])
            if code != 0 or result is None:
                check(label + " runs", False, f"exit {code}")
                continue
            check(label + " correct", result["correct"] and result["failed"] == 0,
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                printed = any(l.split()[:2] == ["metric", metric["name"]] and
                              metric["unit"] in l.split() for l in lines)
                check(f"{label} prints {metric['name']} [{metric['unit']}]",
                      got is not None and got["unit"] == metric["unit"] and printed)

        code, _, result = run(["--workload", workload, "--seed", "7", "--trace",
                               "0", "--inject-wrong-reference"])
        check(f"{workload} wrong reference raises error_rate",
              code == 0 and result is not None and result["failed"] > 0 and
              not result["correct"])

    code, _, result = run(["--workload", "fig07_outofcore", "--seed", "7",
                           "--trace", "0", "--fault-profile", "seed=1;read=1"])
    check("permanent read faults count as failures",
          code == 0 and result is not None and result["attempted"] > 0 and
          result["failed"] == result["attempted"],
          "" if result is None else
          f"attempted={result['attempted']} failed={result['failed']}")
    print(f"self-test: {len(failures)} failure(s)")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    if not args.workload:
        parser.error("--workload is required")
    code, _ = run_binary(binary, ["--workload", args.workload, "--seed", args.seed,
                                  "--seconds", args.seconds, "--trace", args.trace],
                         capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
