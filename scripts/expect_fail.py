#!/usr/bin/env python3
"""Negative-test wrapper: a command must fail, and fail for the stated reason.

Usage:
  expect_fail.py REGEX -- CMD [ARG...]

Runs CMD and exits 0 only when CMD exits non-zero AND its combined
stdout/stderr matches REGEX (``re.search``).  A zero exit, or a non-zero
exit without the diagnostic (a Python traceback, a missing file, a
crash), exits 1.  CMD's output is echoed either way, so a red test shows
what the command printed instead.
"""

from __future__ import annotations

import re
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: expect_fail.py REGEX -- CMD [ARG...]", file=sys.stderr)
        return 2
    pattern, cmd = argv[0], argv[2:]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    sys.stdout.write(proc.stdout)
    if proc.returncode == 0:
        print(f"expect_fail: exit 0, expected a failure matching /{pattern}/")
        return 1
    if re.search(pattern, proc.stdout) is None:
        print(
            f"expect_fail: exit {proc.returncode} without the expected "
            f"diagnostic /{pattern}/"
        )
        return 1
    print(f"expect_fail: exit {proc.returncode} with /{pattern}/ as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
