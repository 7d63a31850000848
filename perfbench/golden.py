"""Compare an experiment's CSV text with its tracked golden ``pint-out/<id>.csv``.

Integer columns (every non-empty golden cell an integer literal) and text
cells must match exactly.  Float cells must match to a relative 1e-8 plus an
absolute floor: entries at roundoff level (oracle gaps near 1e-12, imaginary
parts of clustered eigenvalues, converged errors near 1e-16) legitimately
move when a kernel reorders its floating-point operations.  Byte equality
would be the wrong test: three goldens already differ from a fresh run on
another BLAS build in the last digits (at most 5.3e-10 relative).
"""

from __future__ import annotations

import re

REL_TOL = 1e-8
ABS_FLOOR = 1e-11

_INT = re.compile(r"^-?\d+$")


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def compare(csv_text: str, golden_text: str) -> list:
    """Return a list of mismatch descriptions (empty when the CSV matches)."""
    if csv_text == golden_text:
        return []
    new = [line.split(",") for line in csv_text.splitlines()]
    old = [line.split(",") for line in golden_text.splitlines()]
    if not old or new[:1] != old[:1]:
        return [f"header {new[:1]} != golden {old[:1]}"]
    if len(new) != len(old):
        return [f"{len(new) - 1} rows != golden {len(old) - 1}"]
    header = old[0]
    int_cols = {
        j for j in range(len(header))
        if all(_INT.match(row[j]) for row in old[1:] if j < len(row) and row[j])
    }
    problems = []
    for i, (a_row, b_row) in enumerate(zip(new[1:], old[1:]), start=1):
        if len(a_row) != len(b_row):
            problems.append(f"row {i}: {len(a_row)} cells != golden {len(b_row)}")
            continue
        for j, (a, b) in enumerate(zip(a_row, b_row)):
            if a == b:
                continue
            fa, fb = _float(a), _float(b)
            if j in int_cols or fa is None or fb is None:
                problems.append(f"row {i} {header[j]}: {a!r} != golden {b!r}")
            elif not abs(fa - fb) <= REL_TOL * abs(fb) + ABS_FLOOR:
                problems.append(f"row {i} {header[j]}: {a} vs golden {b} "
                                f"(rel {abs(fa - fb) / max(abs(fb), 1e-300):.1e})")
    return problems
