#!/usr/bin/env python3
"""Checks tools/inspect_checkpoint.py, the operator's stdlib-only dump tool.

Usage: inspect_checkpoint_test.py SOURCE_DIR SCRATCH_DIR

  * --verify exits 0 on the committed engine checkpoint fixture;
  * --verify exits 2 (truncated) on a cut copy written to SCRATCH_DIR;
  * the tool's TAG_NAMES table holds exactly the kTag* fourccs declared in
    src/serialize/serialize.h, so a new envelope type cannot go unnamed.

Exit code 0 iff every check passes.
"""

import importlib.util
import os
import re
import subprocess
import sys


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip())
        return 1
    source_dir, scratch_dir = argv[1], argv[2]
    tool = os.path.join(source_dir, "tools", "inspect_checkpoint.py")
    fixture = os.path.join(source_dir, "tests", "data",
                           "kp12_checkpoint_v2.kwsk")
    failures = []

    def verify(path, expected):
        code = subprocess.run([sys.executable, tool, "--verify", path],
                              stdout=subprocess.DEVNULL).returncode
        if code != expected:
            failures.append(f"--verify {path}: exit {code}, expected "
                            f"{expected}")

    verify(fixture, 0)
    with open(fixture, "rb") as f:
        blob = f.read()
    os.makedirs(scratch_dir, exist_ok=True)
    truncated = os.path.join(scratch_dir, "inspect_checkpoint_truncated.kwsk")
    with open(truncated, "wb") as f:
        f.write(blob[: len(blob) // 2])
    verify(truncated, 2)

    with open(os.path.join(source_dir, "src", "serialize",
                           "serialize.h")) as f:
        header = f.read()
    declared = {
        "".join(chars)
        for chars in re.findall(
            r"constexpr std::uint32_t kTag\w+ =\s*fourcc\("
            r"'(.)', '(.)', '(.)', '(.)'\)", header)
    }
    spec = importlib.util.spec_from_file_location("inspect_checkpoint", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    named = set(module.TAG_NAMES)
    if not declared:
        failures.append("no kTag* fourcc found in serialize.h")
    if named != declared:
        failures.append(f"TAG_NAMES {sorted(named)} != serialize.h kTag* "
                        f"{sorted(declared)}")

    for failure in failures:
        print("FAIL: " + failure)
    if not failures:
        print(f"ok: fixture verified, truncated copy flagged, "
              f"{len(declared)} tags agree")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
