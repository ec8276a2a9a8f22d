"""Nullspace computation over GF(2) with int bitsets.

Rows are arbitrary-precision ints; bit i of a row is the coefficient of
column i.  The solver reduces on the lowest set bit, which is both cheap
(one hardware-friendly isolate per step) and deterministic.

The tags returned depend only on the rows, not on the elimination order:
row i is dependent when it lies in the span of rows 0..i-1, and its tag is
e_i plus the unique combination of earlier independent rows equal to it.
So each tag's highest bit is set in no other tag, and the tags come in
increasing order of that bit: the reduced echelon basis of the null space,
read from the highest bit.

The relation search widens its system by blocks of columns and relies on
this form, since the relations it returns are built from the tags
themselves, not only from their span.  The null space of [A | B] is
{x in null(A) : xB = 0}, and combining the tags of null(A) by the tags
`nullspace` returns for their rows on B keeps the form: a combination's
highest index is in no other combination, and the highest bit of that tag
is in no other tag.  The widened basis is thus the one `nullspace` returns
for [A | B], tag for tag, with no further reduction.
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

