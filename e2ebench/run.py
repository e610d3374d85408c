#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload fleet_features --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test

Configures and builds e2ebench/ (which builds the repository's library,
repro_serve and repro_fleet from the enclosing source tree) into
.bench_build/ under the repository root, then runs the benchmark binary from
the repository root. Build output goes to stderr; the benchmark's last line
of stdout is its JSON result. Exits non-zero without a result when the source
tree or the build is missing or broken.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(*targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("e2ebench: no repository source tree next to e2ebench/", file=sys.stderr)
        return False
    if not any(os.path.isfile(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", *targets, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main(argv):
    if "--self-test" in argv:
        if not build("e2ebench_test"):
            return 2
        return subprocess.run([os.path.join(BUILD, "e2ebench_test")], cwd=ROOT).returncode
    if not build("e2ebench", "e2ebench_traced"):
        return 2
    traced = "--trace" in argv and argv.index("--trace") + 1 < len(argv) \
        and argv[argv.index("--trace") + 1] == "1"
    binary = os.path.join(BUILD, "e2ebench_traced" if traced else "e2ebench")
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
