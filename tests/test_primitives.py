"""The shared GF(2) primitives against the loops they replaced.

Each reference below is a test-only copy of a per-module loop that the
shared primitive took over: the set-bit walks of `UniPoly.exponents`,
`PositionSet.indices` and `LaurentSeries.support`, the four binary-powering
loops, the `|=` row masks, the graded monomial order of the relation
search, and the bit reversal of `LaurentSeries.from_unipoly`.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left

import pytest

from cf2 import (
    EpsSpec,
    Gf2Poly,
    InvSeries,
    LaurentSeries,
    PositionSet,
    UniPoly,
    ZSeries,
    compute_cf,
    compute_F,
    compute_G,
    unbounded_quotient_series,
)
from cf2.cfalg import _block_rows, _coeff_monomials, _mask_rows
from cf2.gf2poly import mono_deg, set_bits


def _random_ints(rng, count=40, max_bits=20_000):
    """0, 1, and sparse and dense random ints of up to max_bits bits."""
    out = [0, 1, 2, 3, 1 << 64, (1 << 64) - 1]
    for _ in range(count):
        n = rng.randint(1, max_bits)
        dense = rng.getrandbits(n) | 1 << (n - 1)
        sparse = 1 << (n - 1)
        for _ in range(rng.randint(0, 8)):
            sparse |= 1 << rng.randrange(n)
        out += [dense, sparse]
    return out


# ------------------------------------------------------------ set-bit walk


def _low_bit_walk(bits):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _digit_walk(bits):
    digits = format(bits, "b")[::-1]
    return tuple(i for i, c in enumerate(digits) if c == "1")


def _shift_walk(val, bits):
    out = []
    i = 0
    while bits:
        if bits & 1:
            out.append(val + i)
        bits >>= 1
        i += 1
    return out


class TestSetBits:
    def test_against_the_three_walks(self):
        for n in _random_ints(random.Random(1)):
            expected = list(_low_bit_walk(n))
            assert set_bits(n) == expected
            assert list(_digit_walk(n)) == expected
            assert _shift_walk(0, n) == expected

    def test_users_keep_their_types(self):
        rng = random.Random(2)
        for n in _random_ints(rng, count=10, max_bits=3000):
            exps = UniPoly(n).exponents()
            assert iter(exps) is exps
            assert list(exps) == list(_low_bit_walk(n))
            ps = PositionSet(n.bit_length(), n)
            assert isinstance(ps.indices, tuple)
            assert ps.indices == _digit_walk(n)
            val = rng.randint(-50, 50)
            s = LaurentSeries(val, n)
            assert isinstance(s.support(), list)
            assert s.support() == _shift_walk(s.val, s.bits)

    def test_unbounded_series_support(self):
        s = unbounded_quotient_series(1 << 12)
        assert s.support() == _shift_walk(s.val, s.bits)
        assert s.support()[:4] == [0, 1, 5, 21]


# ------------------------------------------------------------ binary power


def _square_loop(x, k, one, square):
    result = one
    base = x
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = square(base)
    return result


def _frobenius_loop(frob, j, one):
    if j == 0:
        return one
    result = None
    k = 0
    while j:
        if j & 1:
            f = frob(k)
            result = f if result is None else result * f
        j >>= 1
        k += 1
    return result


JS = range(34)


class TestBinaryPower:
    def test_gf2poly(self):
        for text in ("a + b", "a*b + c^2 + 1", "a^3*b + b*c + c"):
            p = Gf2Poly.parse(text)
            for j in range(12):
                ref = _square_loop(p, j, Gf2Poly.one(), lambda b: b.pow2k(1))
                assert p ** j == ref
        with pytest.raises(ValueError):
            Gf2Poly.parse("a") ** -1

    def test_unipoly(self):
        rng = random.Random(3)
        polys = [UniPoly(0), UniPoly(1), UniPoly(2)]
        polys += [UniPoly(rng.getrandbits(rng.randint(1, 40))) for _ in range(6)]
        for p in polys:
            for k in range(8):
                assert p.pow2k(k) == _square_loop(p, 1 << k, UniPoly(1), UniPoly.square)
            for j in JS:
                assert p ** j == _square_loop(p, j, UniPoly(1), UniPoly.square)
        with pytest.raises(ValueError):
            UniPoly(3) ** -1

    @pytest.mark.parametrize("seed", ["(ab)", "a(bc)", "ab(c)"])
    def test_invseries_without_reciprocal(self, seed):
        g = compute_G(EpsSpec.parse(seed), 24)
        assert g.reciprocal is None
        for j in JS:
            got = g.power(j)
            ref = _frobenius_loop(g.pow2k, j, InvSeries.one())
            assert (got.terms, got.precision) == (ref.terms, ref.precision)

    @pytest.mark.parametrize("seed", ["(ab)", "a(bc)", "ab(c)"])
    def test_invseries_with_reciprocal(self, seed):
        cf = compute_cf(EpsSpec.parse(seed), 24)
        r = cf.reciprocal
        assert r is not None
        for j in JS:
            got = cf.power(j)
            if j & (j - 1) == 0:
                ref = _frobenius_loop(cf.pow2k, j, InvSeries.one())
            else:
                k = j.bit_length()
                rest = _frobenius_loop(r.pow2k, (1 << k) - j, InvSeries.one())
                ref = cf.pow2k(k) * rest
            assert (got.terms, got.precision) == (ref.terms, ref.precision)
            assert got.reciprocal is None

    @pytest.mark.parametrize("precision", [None, 0, 1, 11, 20, 29])
    def test_zseries(self, precision):
        f = compute_F(EpsSpec.parse("a(bc)"), 20)
        p = f.precision if precision is None else precision
        for j in JS:
            got = f.power(j, precision)
            ref = _frobenius_loop(lambda k: f.pow2k(k, p), j, ZSeries.one(p))
            assert got == ref.truncated(p)
            assert got.precision == min(ref.precision, p)
        with pytest.raises(ValueError):
            f.power(-1)


# ------------------------------------------------------------ row masks


def _or_rows(supports, index):
    rows = []
    for sup in supports:
        mask = 0
        for k in sup:
            mask |= 1 << index[k]
        rows.append(mask)
    return rows


def _or_block_rows(supports, keys, lo, hi):
    index = {k: i for i, k in enumerate(keys[lo:hi])}
    start = keys[lo] if lo else -math.inf
    end = keys[hi] if hi < len(keys) else math.inf
    return _or_rows(
        (sup[bisect_left(sup, start): bisect_left(sup, end)] for sup in supports),
        index,
    )


class TestRowMasks:
    def test_block_shapes(self):
        rng = random.Random(4)
        for _ in range(40):
            universe = rng.sample(range(1 << 20), rng.randint(1, 300))
            supports = [
                sorted(rng.sample(universe, rng.randint(0, len(universe))))
                for _ in range(rng.randint(1, 30))
            ]
            keys = sorted(set().union(*supports)) or [0]
            lo = rng.randrange(len(keys))
            hi = rng.randint(lo + 1, len(keys))
            assert _block_rows(supports, keys, lo, hi) == _or_block_rows(
                supports, keys, lo, hi
            )
            assert _block_rows(supports, keys, 0, len(keys)) == _or_block_rows(
                supports, keys, 0, len(keys)
            )

    def test_residual_shapes(self):
        rng = random.Random(5)
        for n_keys in (1, 7, 8, 9, 63, 64, 65, 1000):
            universe = rng.sample(range(1 << 30), n_keys)
            residuals = [set(rng.sample(universe, rng.randint(0, n_keys)))
                         for _ in range(rng.randint(1, 20))]
            residuals.append(set(universe))
            keys = sorted(set().union(*residuals))
            index = {k: i for i, k in enumerate(keys)}
            assert _mask_rows(residuals, keys) == _or_rows(residuals, index)


# ------------------------------------------------------- monomial order


def _order_key_sort(letters, monos):
    universe = tuple(sorted(set(letters) | {"z"}))

    def order_key(m):
        d = dict(m)
        return (mono_deg(m), tuple(d.get(v, 0) for v in universe))

    return sorted(monos, key=order_key)


class TestCoeffMonomials:
    @pytest.mark.parametrize("letters", [["a"], ["a", "b"], ["a", "b", "c"]])
    @pytest.mark.parametrize("z_bound", [None, 0, 1, 3])
    def test_against_order_key(self, letters, z_bound):
        for bound in range(5):
            got = _coeff_monomials(letters, bound, z_bound)
            assert got == _order_key_sort(letters, got)
            assert len(set(got)) == len(got)
            z_count = 1 if z_bound is None else z_bound + 1
            assert len(got) == math.comb(len(letters) + bound, bound) * z_count


# ---------------------------------------------------------- bit reversal


def _from_unipoly_loop(p, prec=math.inf):
    if not p:
        return LaurentSeries.zero(prec)
    d = p.degree()
    bits = 0
    for e in _low_bit_walk(p.bits):
        bits |= 1 << (d - e)
    return LaurentSeries(-d, bits, prec)


class TestBitReversal:
    def test_from_unipoly(self):
        rng = random.Random(6)
        for n in _random_ints(rng, count=20, max_bits=4000):
            p = UniPoly(n)
            for prec in (math.inf, 0, 5, -3):
                got = LaurentSeries.from_unipoly(p, prec)
                assert got == _from_unipoly_loop(p, prec)
