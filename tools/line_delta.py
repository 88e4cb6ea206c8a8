#!/usr/bin/env python3
"""Non-blank, non-comment line counts of the files a change touches.

Usage: tools/line_delta.py [base-rev]

Compares the working tree (untracked files included) with `base-rev`
(default HEAD) for every changed file under src/, tests/, bench/ and tools/.
A line counts unless it is blank or, after leading whitespace, starts with
`//`. Prints one row per file, a subtotal per directory and a grand total.
"""

import subprocess
import sys
from pathlib import Path

DIRS = ("src", "tests", "bench", "tools")


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def count(text):
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.lstrip().startswith("//"))


def at_base(rev, path):
    try:
        return count(git("show", f"{rev}:{path}"))
    except subprocess.CalledProcessError:
        return 0  # added since the base


def in_tree(root, path):
    file = root / path
    return count(file.read_text(errors="replace")) if file.exists() else 0


def main():
    rev = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    root = Path(git("rev-parse", "--show-toplevel").strip())
    changed = git("-C", str(root), "diff", "--name-only", rev, "--", *DIRS).split()
    changed += git("-C", str(root), "ls-files", "--others", "--exclude-standard",
                   "--", *DIRS).split()
    rows = [(p, at_base(rev, p), in_tree(root, p)) for p in sorted(set(changed))]

    width = max([len(p) for p, _, _ in rows] + [len("total")])
    print(f"{'file':<{width}} {'base':>7} {'now':>7} {'delta':>7}")
    for path, base, now in rows:
        print(f"{path:<{width}} {base:7d} {now:7d} {now - base:+7d}")
    for d in DIRS:
        sub = [(b, n) for p, b, n in rows if p.startswith(d + "/")]
        if sub:
            b, n = sum(x for x, _ in sub), sum(y for _, y in sub)
            print(f"{d + '/':<{width}} {b:7d} {n:7d} {n - b:+7d}")
    b, n = sum(r[1] for r in rows), sum(r[2] for r in rows)
    print(f"{'total':<{width}} {b:7d} {n:7d} {n - b:+7d}")


if __name__ == "__main__":
    main()
