#!/usr/bin/env python3
"""ParaLog end-to-end benchmark: build, run one workload, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark builds paralog_core from this checkout's src/ (Release,
the repository's own flags) together with the perfbench runner, runs
the workload, checks its outputs and prints, as the last line of
standard output, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 reports its per-layer metrics, taken from a
traced run, and writes the spans to the run directory. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

RUN_TIMEOUT_S = 170
SELF_TEST_TIMEOUT_S = 900


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_base():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(root, targets):
    """Configure (once) and build @targets; output goes to stderr."""
    build_dir = os.path.join(build_base(), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target"]
                   + targets, check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return build_dir


def provenance(root, build_dir):
    """Where the numbers come from, so none is compared across hosts."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=10).stdout
        compiler = out.splitlines()[0] if out else compiler
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        # The ceiling keeps git from finding a repository above a
        # checkout that is not one itself.
        commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(root)))
        commit = commit.stdout.strip() if commit.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        commit = ""
    # The checkout may not be a git repository: the hash of the sources
    # identifies the build either way.
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in sorted(files):
            h.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_commit": commit or "unavailable",
        "src_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
    }


def pinned_fig6_rows(root):
    with open(os.path.join(root, "BENCH_fig6_addrcheck.json")) as f:
        return json.load(f)["invocations"][0]["csv"][1:]


def run_workload(root, args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload,
                                                ", ".join(names)))
    build_dir = build(root, ["perfbench"])
    run_dir = os.path.join(build_base(), "run")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--run-dir=" + run_dir,
           "--repo-root=" + root]
    if args.trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr[-4000:])
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("perfbench exited with %d" % proc.returncode)
    report = json.loads(lines[-1])

    errors = list(report["errors"])
    print("workload: %s seed: %d trace: %d rounds: %d latency_samples: %d"
          " (p90 has %d beyond)"
          % (args.workload, args.seed, args.trace, report["rounds"],
             report["latency_samples"], report["p90_beyond"]))
    print("digest: %s" % report["digest"])
    if report["known_defects"]:
        print("known_defects: %d of %d attempts hit the barnes TSO+TaintCheck"
              " watchdog (counted in success_ratio, not in failed)"
              % (report["known_defects"], report["attempted"]))
    if args.trace:
        # perfbench itself fails the run when a traced round's digest
        # differs from its untraced twin.
        print("traced_digest: %s" % report["traced_digest"])
        for line in lines:
            if line.startswith("spans: "):
                print(line)
    if args.workload == "live_fig6_addrcheck":
        # Input set 0 of every run is the pinned grid (workload seed 1).
        rows = [l[len("csv: "):] for l in lines if l.startswith("csv: ")]
        if rows != pinned_fig6_rows(root):
            errors.append("pinned grid differs from BENCH_fig6_addrcheck.json")
        else:
            print("pinned: input set 0 equals BENCH_fig6_addrcheck.json")

    # BENCHMARK.json holds the metric names. A per-layer metric that
    # does not apply to the workload is not reported and reads 0; an
    # end-to-end metric must always be there, and a reported name that
    # BENCHMARK.json lacks means the two have drifted apart.
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = report["metrics"]
    names = {m["name"] for m in wanted}
    unknown = sorted(k for k in got if k not in names)
    if unknown:
        errors.append("metrics not in BENCHMARK.json: " + ", ".join(unknown))
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing and not args.trace:
        errors.append("metrics missing: " + ", ".join(missing))
    metrics = {m["name"]: {"value": got.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}

    print("provenance: " + json.dumps(provenance(root, build_dir),
                                      sort_keys=True))
    for e in errors:
        print("error: " + e)
    correct = report["correct"] and not errors
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def self_test(root):
    build_dir = build(root, ["perfbench", "perfbench_tests"])
    run_dir = os.path.join(build_base(), "run")
    os.makedirs(run_dir, exist_ok=True)
    env = dict(os.environ, PERFBENCH_RUN_DIR=run_dir,
               PERFBENCH_REPO_ROOT=root)
    proc = subprocess.run([os.path.join(build_dir, "perfbench_tests")],
                          env=env, timeout=SELF_TEST_TIMEOUT_S)
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("CMakeLists.txt", "src", "tests/corpus",
                 "BENCH_fig6_addrcheck.json"):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the repository root: %s not found" % need)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    if args.self_test:
        return self_test(root)
    if not args.workload:
        fail("--workload is required")
    return run_workload(root, args, spec)


if __name__ == "__main__":
    sys.exit(main())
