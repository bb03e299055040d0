#!/usr/bin/env python3
"""Compare two directories of figure tables, cell by cell.

Usage: python scripts/compare_tables.py DIR_A DIR_B [--rtol R]

For each CSV file in either directory, prints the largest relative
difference |a - b| / max(|a|, |b|) of each column. Exits 1 when a file is
in one directory only, headers or row counts differ, or a column differs
by more than R. The default R = 0 asks for identical numbers; a
non-numeric cell that differs counts as an infinite difference.
"""
import argparse
import csv
import math
import os
import sys


def rel_diff(a: str, b: str) -> float:
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def compare_file(path_a: str, path_b: str) -> dict[str, float]:
    """Largest relative difference per column; raises ValueError on a shape mismatch."""
    rows_a, rows_b = read_csv(path_a), read_csv(path_b)
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        raise ValueError("headers differ")
    if len(rows_a) != len(rows_b):
        raise ValueError(f"{len(rows_a) - 1} rows against {len(rows_b) - 1}")
    header = rows_a[0]
    worst = dict.fromkeys(header, 0.0)
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        if len(row_a) != len(header) or len(row_b) != len(header):
            raise ValueError("a row has the wrong number of cells")
        for name, a, b in zip(header, row_a, row_b):
            worst[name] = max(worst[name], rel_diff(a, b))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference accepted (default 0)")
    args = parser.parse_args(argv)

    tables = {}
    for directory in (args.dir_a, args.dir_b):
        tables[directory] = {name for name in os.listdir(directory)
                             if name.endswith(".csv")}
    ok = True
    for name in sorted(tables[args.dir_a] | tables[args.dir_b]):
        missing = [d for d in (args.dir_a, args.dir_b) if name not in tables[d]]
        if missing:
            print(f"{name}: missing from {missing[0]}")
            ok = False
            continue
        try:
            worst = compare_file(os.path.join(args.dir_a, name),
                                 os.path.join(args.dir_b, name))
        except ValueError as exc:
            print(f"{name}: {exc}")
            ok = False
            continue
        for column, diff in worst.items():
            print(f"{name} {column} {diff:.3g}")
            ok = ok and diff <= args.rtol
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
