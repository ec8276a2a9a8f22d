"""The shared GF(2) primitives against the loops they replaced.

Each reference below is a test-only copy of a per-module loop that the
shared primitive took over: the set-bit walks of `UniPoly.exponents`,
`PositionSet.indices` and `LaurentSeries.support`, the four binary-powering
loops, the tuple-term power route of `InvSeries` and `ZSeries` that the
packed `invseries._power_codes` took over, the `|=` row masks, the graded monomial order of the relation
search, the bit reversal of `LaurentSeries.from_unipoly`, the digit-joining
`UniPoly.pow2k`, and the two re-derivations the convergent recurrence
replaced: `cf_value`'s backward fold with its fixed-point loop, and the
hand-expanded quotient rule of the Riccati residual.  The carry-less
product `clmul` is checked against a schoolbook product, and the relation
search's coefficient grid, built from exponent vectors, against
`conftest.coeff_grid`, which builds it monomial by monomial.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cf2 import (
    EpsSpec,
    Gf2Poly,
    InvSeries,
    LaurentSeries,
    PositionSet,
    QuotientSeq,
    UniPoly,
    ZSeries,
    cf_value,
    compute_cf,
    compute_F,
    compute_G,
    convergents_uni,
    fn_witness,
    unbounded_quotient_series,
)
from cf2.cfalg import _coefficients, _mask_rows
from cf2.gf2poly import clmul, mono_deg, set_bits
from cf2.invseries import _Packing
from cf2.riccati import _fn_poly
from conftest import coeff_grid, eps_specs, general_continuant


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


def _joined_digits_pow2k(p, k):
    return UniPoly(int(("0" * ((1 << k) - 1)).join(format(p.bits, "b")), 2))


def _tuple_power(s, j, precision=None):
    """The power route on tuple terms: Frobenius powers by `pow2k`, their
    products by the series product, through a carried reciprocal."""
    if isinstance(s, ZSeries):
        p = s.precision if precision is None else precision
        return _frobenius_loop(lambda k: s.pow2k(k, p), j, ZSeries.one(p))
    if s.reciprocal is None or j & (j - 1) == 0:
        return _frobenius_loop(s.pow2k, j, InvSeries.one())
    k = j.bit_length()
    return s.pow2k(k) * _frobenius_loop(s.reciprocal.pow2k, (1 << k) - j,
                                        InvSeries.one())


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
                assert p.pow2k(k) == _joined_digits_pow2k(p, k)
            for j in JS:
                assert p ** j == _square_loop(p, j, UniPoly(1), UniPoly.square)
        with pytest.raises(ValueError):
            UniPoly(3) ** -1

    @pytest.mark.parametrize("seed", ["(ab)", "a(bc)", "ab(c)"])
    def test_invseries_without_reciprocal(self, seed):
        g = compute_G(EpsSpec.parse(seed), 24)
        assert g.reciprocal is None
        for j in JS:
            got, ref = g.power(j), _tuple_power(g, j)
            assert (got.terms, got.precision) == (ref.terms, ref.precision)

    @pytest.mark.parametrize("seed", ["(ab)", "a(bc)", "ab(c)"])
    def test_invseries_with_reciprocal(self, seed):
        cf = compute_cf(EpsSpec.parse(seed), 24)
        assert cf.reciprocal is not None
        for j in JS:
            got, ref = cf.power(j), _tuple_power(cf, j)
            assert (got.terms, got.precision) == (ref.terms, ref.precision)
            assert got.reciprocal is None

    @pytest.mark.parametrize("precision", [None, 0, 1, 11, 20, 29])
    def test_zseries(self, precision):
        f = compute_F(EpsSpec.parse("a(bc)"), 20)
        for j in JS:
            got, ref = f.power(j, precision), _tuple_power(f, j, precision)
            assert (got, got.precision) == (ref, ref.precision)
        with pytest.raises(ValueError):
            f.power(-1)


_monos = st.dictionaries(st.sampled_from("abc"), st.integers(-4, 4).filter(bool),
                         max_size=3).map(lambda d: tuple(sorted(d.items())))
_inv_precisions = st.one_of(st.integers(-6, 30), st.sampled_from([math.inf, -math.inf]))
_inv_series = st.builds(InvSeries, st.lists(_monos, max_size=6), _inv_precisions)


@st.composite
def _inv_targets(draw):
    """A continued fraction with its reciprocal, or a series over up to three
    letters, at a finite, infinite or -infinite precision, half of them
    carrying another such series as reciprocal."""
    if draw(st.booleans()):
        return compute_cf(draw(eps_specs(max_pre=2, max_per=3, n_letters=3)),
                          draw(st.integers(1, 40)))
    s = draw(_inv_series)
    if draw(st.booleans()):
        s = InvSeries._raw(s.terms, s.precision, draw(_inv_series))
    return s


_z_monos = st.dictionaries(st.sampled_from("ab"), st.integers(1, 3),
                           max_size=2).map(lambda d: tuple(sorted(d.items())))
_z_targets = st.one_of(
    st.builds(compute_F, eps_specs(max_pre=2, max_per=3, n_letters=3),
              st.integers(1, 24)),
    st.lists(st.lists(_z_monos, max_size=3).map(Gf2Poly), max_size=12).map(ZSeries),
)


class TestPackedPowers:
    """The public powers, formed on packed codes, against the tuple route."""

    @settings(max_examples=150, deadline=None)
    @given(_inv_targets())
    def test_invseries(self, s):
        for j in range(17):
            got, ref = s.power(j), _tuple_power(s, j)
            assert (got.terms, got.precision) == (ref.terms, ref.precision)
            assert got.reciprocal is None

    @settings(max_examples=150, deadline=None)
    @given(_z_targets)
    def test_zseries(self, s):
        n = s.precision
        for p in (None, -3, 0, n - 1, n, 2 * n + 1):
            for j in range(17):
                got, ref = s.power(j, p), _tuple_power(s, j, p)
                assert (repr(got), got.precision) == (repr(ref), ref.precision)


# ------------------------------------------------------- carry-less product


def _schoolbook(a, b):
    """GF(2)[t] product coefficient by coefficient, on digit strings."""
    da, db = format(a, "b")[::-1], format(b, "b")[::-1]
    out = [0] * (len(da) + len(db))
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            out[i + j] ^= x == y == "1"
    return int("".join(map(str, out))[::-1], 2)


class TestClmul:
    def test_against_the_schoolbook_product(self):
        rng = random.Random(7)
        ints = _random_ints(rng, count=12, max_bits=300)
        for a in ints:
            b = rng.choice(ints)
            assert clmul(a, b) == clmul(b, a) == _schoolbook(a, b)
            assert (UniPoly(a) * UniPoly(b)).bits == _schoolbook(a, b)


# ------------------------------------------------------------ row masks


def _or_rows(supports, index):
    rows = []
    for sup in supports:
        mask = 0
        for k in sup:
            mask |= 1 << index[k]
        rows.append(mask)
    return rows


class TestRowMasks:
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
            pk = _Packing(letters, bound)
            got = _coefficients(pk, (letters, z_bound, 0), bound)[0]
            assert got == _order_key_sort(letters, got)
            assert len(set(got)) == len(got)
            z_count = 1 if z_bound is None else z_bound + 1
            assert len(got) == math.comb(len(letters) + bound, bound) * z_count

    @settings(max_examples=100, deadline=None)
    @given(
        st.sets(st.sampled_from("abcdefghijklmnopqrstuvwxy"), min_size=1, max_size=5),
        st.sets(st.sampled_from("abcdefghijklmnopqrstuvwxy"), max_size=3),
        st.integers(min_value=0, max_value=6),
        st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
        st.integers(min_value=0, max_value=40),
    )
    @example({"a", "c", "e", "x", "y"}, set(), 6, 8, 0)
    @example({"y"}, {"a", "m"}, 0, None, 3)
    def test_against_the_reference_grid(self, letters, others, bound, z_bound, slack):
        # the grid from exponent vectors: the monomials, their order and
        # their factors, on both sides, over a packing that may hold more
        # letters and wider fields than the search's
        letters = sorted(letters)
        pk = _Packing(set(letters) | others, bound + slack)
        got = _coefficients(pk, (letters, z_bound, 0), bound)
        assert got == coeff_grid(pk, letters, bound, z_bound)


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


# ------------------------------------------------- continued-fraction value


def _fold_value(quotients, tail_period=0, precision=64):
    """The backward fold: one inverse per quotient, the periodic tail
    iterated until two iterates agree below the working precision."""
    if tail_period < 0 or tail_period > len(quotients):
        raise ValueError("bad tail period")
    head = list(quotients[: len(quotients) - tail_period])
    tail = list(quotients[len(quotients) - tail_period :])
    for q in tail:
        if q.degree() < 1:
            raise ValueError("periodic tail quotients must be non-constant")
    work = precision + 2 * sum(max(q.degree(), 0) for q in quotients) + 4

    def fold(value, qs):
        for q in reversed(qs):
            lead = LaurentSeries.from_unipoly(q, math.inf if value is None else work)
            value = lead if value is None else lead + value.inverse(work)
        return value

    def agree(a, b):
        d = a + b
        return d.is_zero() or d.valuation() >= work

    value = None
    if tail:
        value = fold(None, tail)
        prev = None
        while prev is None or not agree(prev, value):
            prev = value
            value = fold(value, tail)
    value = fold(value, head)
    if value is None:
        raise ValueError("empty continued fraction")
    return value.truncated(precision if tail else math.inf)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return exc


@st.composite
def quotient_lists(draw):
    """0-8 quotients of degree <= 3 (zero and constant ones included), a tail
    period (sometimes out of range) and a precision, possibly <= 0."""
    quots = draw(st.lists(st.integers(0, 15).map(UniPoly), max_size=8))
    tail = draw(st.integers(-1, len(quots) + 1))
    return quots, tail, draw(st.integers(-2, 149))


class TestCfValueAgainstFold:
    @settings(max_examples=400)
    @given(quotient_lists())
    @example(([UniPoly(0), UniPoly(2), UniPoly(0), UniPoly(2)], 1, 1))
    @example(([UniPoly(0), UniPoly(8), UniPoly(0), UniPoly(8)], 1, -1))
    def test_identity_rules(self, case):
        quots, tail, prec = case
        old = _outcome(_fold_value, quots, tail, prec)
        new = _outcome(cf_value, quots, tail, prec)
        regular = all(not q.is_constant() for q in quots[1:])
        if isinstance(old, ZeroDivisionError):
            # only a finite list with a constant quotient past q_0 divides
            # by zero partway; the convergent has a value unless Q_n = 0
            assert tail == 0 and not regular
            p, q = general_continuant(quots)
            if not q:
                assert str(new) == "continued fraction has no value"
            else:
                assert new * LaurentSeries.from_unipoly(q) == (
                    LaurentSeries.from_unipoly(p).truncated(new.prec - q.degree())
                )
        elif isinstance(old, Exception):
            assert (type(new), str(new)) == (type(old), str(old))
        elif tail != 0 or regular:
            assert new == old
        else:
            # a degenerate finite list: the same bits below the fold's
            # precision, known at least as far
            assert isinstance(new, LaurentSeries)
            assert new.prec >= old.prec
            assert new.truncated(old.prec) == old


# ------------------------------------------------------ Riccati numerator


def _quotient_rule_numerator(q, p, qq):
    ab = q.a * q.b
    s = q.a + q.b
    return (
        (ab * s * p).derivative() * qq
        + ab * s * p * qq.derivative()
        + ab.derivative() * (p * p + qq * qq)
    )


@st.composite
def quotient_seqs(draw):
    """Patterns over {a, b, a+b} with a, b of degree 1-4."""
    a = draw(st.integers(2, 31))
    b = draw(st.integers(2, 31).filter(lambda b: b != a))
    tags = "abc" if a ^ b > 1 else "ab"  # a+b must be non-constant to be used
    pattern = draw(st.text(tags, min_size=1, max_size=24))
    return QuotientSeq(tuple(pattern), UniPoly(a), UniPoly(b))


class TestResidualNumerator:
    @given(quotient_seqs())
    def test_quotient_rule_is_the_derivative_of_fn(self, q):
        for n in range(-1, len(q.pattern)):
            p, qq = convergents_uni(q, n)
            num = _quotient_rule_numerator(q, p, qq)
            assert _fn_poly(q, p, qq).derivative() == num
            if qq:
                expected = 2 * qq.degree() - num.degree() if num else math.inf
                assert fn_witness(q, n).residual_valuation == expected
