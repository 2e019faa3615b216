#!/usr/bin/env python3
"""Library surface gate: every exported value must be referenced.

For each top-level `val` in a tracked `lib/**/*.mli`, the value counts as
referenced when some other tracked `.ml`/`.mli` under lib, bin, bench,
examples or test (any file but the module's own implementation and
interface) contains the word `Module` and the word `value`; a qualified
`Module.value` always does.  Every value that is not referenced is
reported as `Module.value`.

The script exits 1 when a reported value is missing from the allowlist
(tools/surface.allow) or an allowlisted value is no longer reported,
and 0 otherwise.  Run it from the repository root:

    python3 tools/surface.py
"""

import os
import re
import subprocess
import sys

ROOTS = ["lib", "bin", "bench", "examples", "test"]
ALLOWLIST = os.path.join(os.path.dirname(__file__), "surface.allow")
VAL = re.compile(r"^val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
WORD = re.compile(r"[A-Za-z0-9_']+")


def tracked_sources():
    out = subprocess.run(
        ["git", "ls-files", "--"] + ROOTS,
        check=True, capture_output=True, text=True,
    ).stdout
    return [p for p in out.split("\n") if p.endswith((".ml", ".mli"))]


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def unreferenced(paths):
    words = {p: set(WORD.findall(read(p))) for p in paths}
    report = []
    for mli in sorted(p for p in paths if p.startswith("lib/") and p.endswith(".mli")):
        own = mli[: -len(".mli")]
        module = os.path.basename(own).capitalize()
        others = [w for p, w in words.items() if os.path.splitext(p)[0] != own]
        for value in VAL.findall(read(mli)):
            if not any(module in w and value in w for w in others):
                report.append(f"{module}.{value}")
    return report


def allowlist():
    entries = set()
    for line in read(ALLOWLIST).splitlines():
        entry = line.split("#", 1)[0].strip()
        if entry:
            entries.add(entry)
    return entries


def main():
    report = unreferenced(tracked_sources())
    allowed = allowlist()
    new = [v for v in report if v not in allowed]
    stale = sorted(allowed - set(report))
    for v in new:
        print(f"unreferenced export (not allowlisted): {v}")
    for v in stale:
        print(f"allowlist entry no longer reported: {v}")
    print(f"surface: {len(report)} unreferenced, {len(allowed)} allowlisted")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
