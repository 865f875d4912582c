#!/usr/bin/env python3
"""Builds and runs the netdiag end-to-end wire-path benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Run from the root of a netdiag checkout. The first run configures and
builds libnetdiag plus the benchmark (Release) under .bench_build/e2ebench;
later runs only re-check the build. Build output goes to stderr, so stdout
carries only the benchmark's lines, the last of which is the JSON result.

--self-test plants each fault the benchmark's gates must catch (a perturbed
verdict, a wrong-width bin, a withheld sink delivery) and checks that each
trips its counter or exit code, plus a clean run that trips none.
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "netdiag_e2ebench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no netdiag source tree next to %s" % HERE)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(3, (os.cpu_count() or 1) - 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "netdiag_e2ebench", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(
                cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            fail("build step %s failed: %s" % (cmd[:2], exc))
        if proc.returncode != 0:
            fail("build step %s exited %d" % (" ".join(cmd[:2]), proc.returncode))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt", "e2ebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def bench(args, timeout=170):
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [BINARY] + args + ["--commit", source_id(), "--trace-dir", TRACE_DIR]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)


def last_json(stdout, prefix=""):
    lines = [l[len(prefix):] for l in stdout.splitlines() if l.startswith(prefix) and l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    """Each planted fault must trip its gate; a clean run must trip none."""
    base = ["--workload", "collect_b1", "--seed", "7", "--seconds", "1", "--trace", "0"]
    cases = [
        # (fault, expected exit code, predicate on the result and samples lines)
        ("none", 0, lambda r, s: r["correct"] and r["failed"] == 0
         and s["parity_mismatches"] == 0 and s["conservation_violations"] == 0),
        ("perturb_verdict", 3, lambda r, s: not r["correct"] and s["parity_mismatches"] >= 1),
        ("wrong_width", 0, lambda r, s: r["correct"] and r["failed"] == 1
         and s["error_rate"] > 0),
        ("withhold_sink", 3, lambda r, s: not r["correct"] and s["parity_mismatches"] >= 1
         and s["conservation_violations"] >= 1),
    ]
    ok = True
    for name, code, check in cases:
        args = base + ([] if name == "none" else ["--fault", name])
        proc = bench(args)
        result = last_json(proc.stdout)
        samples = last_json(proc.stdout, "# samples ")
        passed = (proc.returncode == code and result is not None and samples is not None
                  and check(result, samples))
        ok &= passed
        print("%-16s exit=%d %s  %s" % (
            name, proc.returncode, "PASS" if passed else "FAIL",
            json.dumps(samples) if samples else proc.stderr.strip()[-200:]))
    return 0 if ok else 1


def main():
    build()
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    try:
        proc = bench(sys.argv[1:])
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
