#!/usr/bin/env python3
"""Build the library and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
set, else .bench_build, and is reused by later runs. Each run gets a
private scratch directory under the build directory (the native backend's
module cache and the host compiler's temporary files), removed at exit.
With --trace 1 the spans are written to <build>/traces/. The last line of
stdout is the benchmark's JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["proxy-apps", "launch-storm", "compile-cold", "service-open-loop"]
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", ROOT, "-B", build_dir,
             "-DCMAKE_PROJECT_INCLUDE=" +
             os.path.join(HERE, "cmake", "AddPerfbench.cmake")],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log("library sources not found:", os.path.join(ROOT, needed))
            return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed:", err)
        return 2

    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    os.makedirs(os.path.join(scratch, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.pop("CODESIGN_EXEC_BACKEND", None)  # measure the default backend
    env.pop("CODESIGN_EXEC_TIER", None)
    env["CODESIGN_NATIVE_CACHE_DIR"] = os.path.join(scratch, "native")
    env["TMPDIR"] = os.path.join(scratch, "tmp")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--repo-root", ROOT]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        log("benchmark exceeded", RUN_TIMEOUT_S, "s and was stopped")
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
