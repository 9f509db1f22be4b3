#!/usr/bin/env python3
"""Build and run Siesta's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload synth-apps --seed 1 --seconds 15 --trace 0

The script builds the perfbench Go module (which uses the repository's
packages through a replace directive) into .bench_build/perfbench/ and runs
it with the given arguments. Every file the Go toolchain and the benchmark
write — build cache, temp files, spill files, spans — stays under
.bench_build/ in the working directory. The exit code is the benchmark's,
or the build's when the build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    module = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )

    exe = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=module, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
