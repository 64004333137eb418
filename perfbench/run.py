#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload hot-replicated --seed 1 --seconds 10 --trace 0

Every file the build and the run write goes under .bench_build/ in the
current directory: the Go build cache, temporary files, the benchmark
binary, journals and the Chrome trace. The last line of standard
output is the benchmark's JSON result; build output goes to standard
error. The exit code is non-zero when the build fails, when the
benchmark fails to produce a result, or when it runs too long.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    home = os.path.join(build, "home")
    for d in (build, tmp, home):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOMODCACHE": os.path.join(build, "go-mod"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench-bin")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--dir", os.path.join(build, "perfbench")] + sys.argv[1:]
    try:
        ran = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
