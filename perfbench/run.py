#!/usr/bin/env python3
"""Builds the benchmark and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark crate (this directory) is built
in release mode with cargo, offline, into $CARGO_TARGET_DIR (default
perfbench/target). The binary then replaces this process with address-space
randomization turned off for it, so that the heap and code layout, and with
them cache behaviour, are the same in every run. Build failures exit
non-zero without printing a result line.
"""

import ctypes
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ADDR_NO_RANDOMIZE = 0x0040000


def disable_aslr():
    """Sets ADDR_NO_RANDOMIZE for the next exec; a no-op where unsupported."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    sys.stdout.flush()
    disable_aslr()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
