"""Nullspace computation over GF(2) with int bitsets.

Rows are arbitrary-precision ints; bit i of a row is the coefficient of
column i.  The solver reduces on the lowest set bit, which is both cheap
(one hardware-friendly isolate per step) and deterministic.
"""

from __future__ import annotations


def nullspace(rows: list[int], n_cols: int) -> list[int]:
    """Basis of {x : sum_i x_i * rows[i] == 0} as tag bitmasks.

    Each returned int has bit i set when rows[i] participates in that
    null combination.  Deterministic for a fixed row order.
    """
    basis: dict[int, int] = {}
    tags: list[int] = []
    eq_mask = (1 << n_cols) - 1
    for i, row in enumerate(rows):
        r = (row & eq_mask) | (1 << (n_cols + i))
        while True:
            rv = r & eq_mask
            if rv == 0:
                tags.append(r >> n_cols)
                break
            p = (rv & -rv).bit_length() - 1
            b = basis.get(p)
            if b is None:
                basis[p] = r
                break
            r ^= b
    return tags

