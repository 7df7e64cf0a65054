#!/usr/bin/env python3
"""Build and run the SpaceCDN host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Configures and builds perfbench/ (which
compiles the repository's libraries from src/) into .bench_build/perfbench,
then runs one workload.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  Exits non-zero without a result when
the sources are missing or the build fails.
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build() -> bool:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def git_sha() -> str:
    # Only consult git when the checkout itself is a repository; a bare
    # source tree records "unknown" rather than reading a parent directory.
    if not (ROOT / ".git").exists():
        return "unknown"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("perfbench: SpaceCDN sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    command = [str(BUILD / "perfbench"), *sys.argv[1:],
               "--out-dir", str(ROOT / ".bench_build" / "results"),
               "--git-sha", git_sha()]
    # A terminated run.py stops the benchmark too, and waits for it to end.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
