#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload rollback --seed 1 --seconds 10 --trace 0

Every argument is passed to perfbench/main.exe (see perfbench/README.md).
The build goes to _build/ with dune's shared cache off, so nothing is
written outside the checkout.  Exits 2 without building when the
directory holds no OCaml sources to build from.
"""

import hashlib
import os
import subprocess
import sys


def source_rev():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True).stdout.strip()
            if out:
                return out
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no dune-project and lib/ here; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                           stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    nproc = len(os.sched_getaffinity(0))
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    run = subprocess.run([exe, *sys.argv[1:], "--nproc", str(nproc), "--git-rev", source_rev()])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
