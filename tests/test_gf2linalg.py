"""GF(2) nullspaces on int bitsets, and the block widening built on them."""

from __future__ import annotations

from hypothesis import example, given, strategies as st

import cf2
from cf2 import EpsSpec
from cf2.cfalg import _combine, _restrict
from cf2.gf2linalg import nullspace


def _reduced(vectors: list[int]) -> list[int]:
    """Reference: the reduced echelon basis of the span, read from the
    highest bit (each vector's highest bit is set in no other vector), in
    increasing order of that bit."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)  # clears b's highest bit from v
        if v:
            basis = [min(b, b ^ v) for b in basis] + [v]
    return sorted(basis)


@st.composite
def systems(draw, min_width=0, max_width=16):
    """(rows, width): random rows with all-zero and duplicate rows mixed in."""
    width = draw(st.integers(min_value=min_width, max_value=max_width))
    base = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=10))
    picks = draw(st.lists(st.integers(0, len(base)), max_size=5))
    rows = draw(st.permutations(base + [(base + [0])[p] for p in picks]))
    return list(rows), width


@given(systems())
@example(([], 0))
@example(([], 5))
@example(([0, 0, 0], 4))
@example(([0b101, 0b101, 0b11, 0b110], 3))
def test_tags_are_null_combinations(system):
    rows, width = system
    # each row is released once read; the list keeps its length
    released = list(rows)
    tags = nullspace(released, width)
    assert released == [0] * len(rows)
    for tag in tags:
        assert 0 < tag < 1 << len(rows)
        assert _combine(rows, tag) == 0


@given(systems())
@example(([], 0))
@example(([0, 0, 0], 4))
@example(([0b101, 0b101, 0b11, 0b110], 3))
def test_tag_count_is_rows_minus_rank(system):
    rows, width = system
    assert len(nullspace(list(rows), width)) == len(rows) - len(_reduced(rows))


@given(systems())
@example(([0, 0, 0], 4))
@example(([0b101, 0b101, 0b11, 0b110], 3))
def test_tags_are_already_reduced(system):
    rows, width = system
    tags = nullspace(rows, width)
    assert _reduced(tags) == tags


@st.composite
def widenings(draw):
    """(rows, width, bounds): a system and the column blocks of 1-3
    widening steps, bounds[0] = 0 < ... < bounds[-1] = width."""
    rows, width = draw(systems(min_width=2))
    cuts = draw(st.sets(st.integers(1, width - 1), min_size=1, max_size=3))
    return rows, width, [0, *sorted(cuts), width]


@given(widenings())
@example(([0, 0, 0], 4, [0, 1, 4]))
@example(([0b101, 0b101, 0b11, 0b110, 0b1001], 4, [0, 1, 2, 3, 4]))
def test_widening_by_blocks_equals_the_full_solve(case):
    # the search's widening imposes each further block of equations on the
    # tags alone; the canonical form makes the result the full solve's tags
    # one for one, not just a basis of the same space
    rows, width, bounds = case

    def block(lo, hi):
        return [row >> lo & (1 << (hi - lo)) - 1 for row in rows]

    tags = nullspace(block(0, bounds[1]), bounds[1])
    for lo, hi in zip(bounds[1:], bounds[2:]):
        tags = _restrict(tags, block(lo, hi), hi - lo)
    assert tags == nullspace(rows, width)


def _lowest_bit_nullspace(rows: list[int], n_cols: int) -> list[int]:
    """Reference: elimination pivoting on the lowest set bit of the
    equation part, with each row's tag kept above its equation bits."""
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


@st.composite
def overwide_systems(draw):
    """(rows, width): systems whose rows may set bits at or above the
    width, which are not equations and must be ignored."""
    rows, width = draw(systems())
    extra = draw(st.lists(st.integers(0, 7), min_size=len(rows),
                          max_size=len(rows)))
    return [row | e << width for row, e in zip(rows, extra)], width


@given(overwide_systems())
@example(([], 0))
@example(([1, 2, 3], 0))
@example(([0b100, 0b110, 0b010, 0b001], 2))
@example(([0b11, 0b10, 0b01, 0b10], 2))
def test_pivot_choice_does_not_change_the_tags(system):
    rows, width = system
    assert nullspace(list(rows), width) == _lowest_bit_nullspace(rows, width)


def test_the_largest_search_system_gives_the_reference_tags(monkeypatch):
    # the (aabb) G search, 2,601 unknowns, is the largest the paper's
    # searches pose; it solves its two grades once each, on the 4,286
    # shallowest equations between them
    received = []

    def recording(rows, n_cols):
        received.append((list(rows), n_cols))  # before they are released
        return nullspace(rows, n_cols)

    monkeypatch.setattr(cf2.cfalg, "nullspace", recording)
    g = cf2.compute_G(EpsSpec.parse("(aabb)"), 2 * 512 + 24)
    assert cf2.find_relation(g, 16, 16, prec=512)
    shapes = []
    for rows, n_cols in received:
        union = 0
        for row in rows:
            union |= row
        tags = nullspace(list(rows), n_cols)
        assert tags == _lowest_bit_nullspace(rows, n_cols)
        shapes.append((len(rows), union.bit_count(), n_cols, len(tags)))
    # the equations are the non-empty columns of the layout's bits
    assert shapes == [(1305, 2150, 3584, 1), (1296, 2136, 3476, 2)]
