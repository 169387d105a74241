#!/usr/bin/env python3
"""Record the Tier-1 suite's wall time once (informational, not gated).

    python3 bench/tier1.py

Run from the root of a checkout. Runs the Tier-1 command
(`python -m pytest -q --continue-on-collection-errors` with `src/` on
PYTHONPATH) and prints one JSON line: wall time, passed and failed
counts, and the `src/` line count. The suite takes about 90 s on a
2-core box, so it stays out of run.py's per-pass loop.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "revival").is_dir():
        print("run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + prior if prior else "")
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p",
           "no:cacheprovider"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {key: int(n) for n, key in re.findall(r"(\d+) (passed|failed|error)", summary)}
    print(json.dumps({
        "tier1_wall_s": round(wall, 2),
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "errors": counts.get("error", 0),
        "summary": summary,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in (root / "src").rglob("*.py")),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
