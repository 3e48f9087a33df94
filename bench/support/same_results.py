#!/usr/bin/env python3
"""Compares two bench result files on every field but wall-clock time.

    python3 bench/support/same_results.py A.json B.json LABEL

Fields whose name contains "wall" hold host time, which varies run to run;
every other field of a bench's JSON is deterministic. Exits 1, naming
LABEL and the first differing field, if any other field differs.
"""

import json
import sys


def strip(v):
    if isinstance(v, dict):
        return {k: strip(x) for k, x in v.items() if "wall" not in k}
    if isinstance(v, list):
        return [strip(x) for x in v]
    return v


def first_difference(a, b, path="$"):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            if a.get(k) != b.get(k):
                return first_difference(a.get(k), b.get(k), f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return first_difference(x, y, f"{path}[{i}]")
    return f"{path}: {a!r} vs {b!r}"


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    a, b = (strip(json.load(open(f))) for f in sys.argv[1:3])
    if a != b:
        sys.exit(f"{sys.argv[3]}: non-wall fields differ at {first_difference(a, b)}")


if __name__ == "__main__":
    main()
