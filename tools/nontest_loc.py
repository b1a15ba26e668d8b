#!/usr/bin/env python3
"""Print the workspace's non-test Rust line count, per crate and in total.

A file's non-test lines are its lines before its first `#[cfg(test)]`
(all of them if it has none), summed over every `crates/*/src/**/*.rs`.
This is the count ROADMAP.md and CHANGES.md report for each refactor.

Usage:
    python3 tools/nontest_loc.py [REPO_ROOT]

REPO_ROOT defaults to the directory above this script, so the count of
another checkout is `python3 tools/nontest_loc.py path/to/checkout`.
"""

import os
import sys


def nontest_lines(path):
    """Lines of `path` before its first `#[cfg(test)]` line."""
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip() == "#[cfg(test)]":
                break
            count += 1
    return count


def count_crates(root):
    """Maps each crate under `root/crates` to its non-test line count."""
    crates_dir = os.path.join(root, "crates")
    counts = {}
    for crate in sorted(os.listdir(crates_dir)):
        src = os.path.join(crates_dir, crate, "src")
        if not os.path.isdir(src):
            continue
        total = 0
        for dirpath, _, files in os.walk(src):
            for name in files:
                if name.endswith(".rs"):
                    total += nontest_lines(os.path.join(dirpath, name))
        counts[crate] = total
    return counts


def main():
    default_root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    root = sys.argv[1] if len(sys.argv) > 1 else default_root
    counts = count_crates(root)
    width = max(len(c) for c in counts)
    for crate, n in counts.items():
        print(f"{crate:<{width}}  {n:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")


if __name__ == "__main__":
    main()
