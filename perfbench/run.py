#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-configs --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and every file a run writes stay under
.bench_build/ in the checkout. Arguments are passed through unchanged; the
exit code is the program's. A failed build exits 2 without a result line.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build", "perfbench")
    env = dict(os.environ)
    env.update({
        "HOME": os.path.join(out, "home"),
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "mod"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "TMPDIR": os.path.join(out, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOTELEMETRY": "off",
    })
    for d in (env["HOME"], env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
