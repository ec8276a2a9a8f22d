"""Nullspace computation over GF(2) with int bitsets.

Rows are arbitrary-precision ints; bit i of a row is the coefficient of
column i.  The solver pivots on the highest set bit, with each row's tag
in its n low bits (n rows), below its columns, so every XOR clears the
row's top bit and the row shrinks as it is reduced: the two grades of
the (aabb) G search (1,305 and 1,296 rows over 2,150 and 2,136 equations) take 23,213 and 30,233
reductions, against 84,555 and 89,610 on the lowest bit.  As one system
they took 53,439 reductions too, but on rows of 7,062 bits in place of
3,584 and 3,476.

The tags returned depend only on the rows, not on the pivot choice:
row i is dependent when it lies in the span of rows 0..i-1, and its tag is
e_i plus the unique combination of earlier independent rows equal to it.
So each tag's highest bit is set in no other tag, and the tags come in
increasing order of that bit: the reduced echelon basis of the null space,
read from the highest bit.

The relation search imposes further blocks of columns on its tags (its
widening steps and residual pass, by `cfalg._restrict`) and relies on
this form: its relations are built from the tags themselves.  The null
space of [A | B] is {x in null(A) : xB = 0}, and combining the tags of
null(A) by the tags `nullspace` returns for their rows on B keeps the
form: a combination's highest index is in no other combination, and the
highest bit of that tag is in no other tag.  The widened basis is thus
the one `nullspace` returns for [A | B], tag for tag, with no further
reduction.
"""

from __future__ import annotations


def nullspace(rows: list[int], n_cols: int) -> list[int]:
    """Basis of {x : sum_i x_i * rows[i] == 0} as tag bitmasks.

    Each returned int has bit i set when rows[i] participates in that
    null combination.  Deterministic for a fixed row order.  Each row is
    released once read: rows[i] is set to 0, so the list keeps its length
    and holds only the rows not yet eliminated.
    """
    # a row's columns sit above its tag; the pivot of highest bit b at b + 1
    n = len(rows)
    basis: list = [None] * (n + n_cols + 1)
    tags: list[int] = []
    eq_mask, least = (1 << n_cols) - 1, 1 << n
    for i in range(n):
        r = (rows[i] & eq_mask) << n | 1 << i
        rows[i] = 0
        while r >= least:
            b = basis[r.bit_length()]
            if b is None:
                basis[r.bit_length()] = r
                break
            r ^= b
        else:
            tags.append(r)
    return tags
