#!/usr/bin/env python3
"""Run each perfbench workload at the hold-out seed and compare fingerprints.

Usage: tools/check_perfbench_fingerprints.py PERFBENCH_BINARY [OUT_DIR]

Reads `workload fingerprint` pairs from tools/perfbench_fingerprints.txt,
runs `PERFBENCH_BINARY --workload W --seed 104729 --seconds 2 --trace 0`
for each, and compares the raw JSON's `fingerprint`. Exits 1 when a run
fails, a fingerprint differs, a repetition diverged or an operation failed.
"""

import json
import subprocess
import sys
from pathlib import Path

PINS = Path(__file__).with_name("perfbench_fingerprints.txt")


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    binary = sys.argv[1]
    out_dir = Path(sys.argv[2] if len(sys.argv) == 3 else ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    bad = 0
    for line in PINS.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        workload, expected = line.split()
        out = out_dir / f"perfbench_{workload}.json"
        subprocess.run([binary, "--workload", workload, "--seed", "104729", "--seconds", "2",
                        "--trace", "0", "--out", str(out)], check=True)
        raw = json.loads(out.read_text())
        ok = (raw["fingerprint"] == expected and raw["deterministic"] and raw["failed"] == 0)
        bad += not ok
        print(f"{workload:10} fingerprint {raw['fingerprint']} (pinned {expected}), "
              f"deterministic {raw['deterministic']}, failed {raw['failed']} of "
              f"{raw['attempted']}: {'ok' if ok else 'MISMATCH'}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
