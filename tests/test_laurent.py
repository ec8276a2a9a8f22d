"""Laurent series in 1/t and continued-fraction expansion."""

from __future__ import annotations

import math
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from cf2 import (
    CfExpansion,
    LaurentSeries,
    UniPoly,
    cf_expand,
    cf_value,
    specialize_inv,
    unbounded_quotient_series,
)
from cf2 import EpsSpec, compute_Gn
from conftest import general_continuant


@st.composite
def laurents(draw, max_bits=10):
    val = draw(st.integers(min_value=-6, max_value=6))
    bits = draw(st.integers(min_value=0, max_value=(1 << max_bits) - 1))
    prec = draw(st.integers(min_value=val + max_bits + 1, max_value=60))
    return LaurentSeries(val, bits, prec)


class TestBasics:
    def test_from_unipoly(self):
        s = LaurentSeries.from_unipoly(UniPoly.parse("t^3 + t"))
        assert s.support() == [-3, -1]
        assert cf_expand(s, 2) == CfExpansion(
            (UniPoly.parse("t^3 + t"),), "rational"
        )

    def test_add_and_normalize(self):
        a = LaurentSeries.from_exponents([1, 3], 20)
        b = LaurentSeries.from_exponents([1, 5], 20)
        assert (a + b).support() == [3, 5]

    def test_exponents_past_precision_cost_no_memory(self):
        tracemalloc.start()
        try:
            s = LaurentSeries.from_exponents([0, 1 << 28], 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.support() == [0]
        assert peak < 1 << 20  # a 2^28-bit shift would take 32 MB

    def test_str_marks_the_precision(self):
        # -inf is known nowhere, so it must not read as O(t^inf), an exact 0
        assert str(LaurentSeries.zero(-math.inf)) == "0 (precision -inf)"
        assert LaurentSeries.zero(-math.inf).str_in("x") == "0 (precision -inf)"
        assert str(LaurentSeries.zero()) == "0"
        assert str(LaurentSeries.zero(3)) == "0 + O(t^-3)"
        s = LaurentSeries.from_exponents([-2, 0, 1], 4)
        assert str(s) == "t^2 + 1 + t^-1 + O(t^-4)"
        assert LaurentSeries.from_exponents([-1, 2]).str_in("x") == "x + x^-2"

    def test_truncation_on_construction(self):
        s = LaurentSeries(1, 0b10001, 4)  # t^-1 + t^-5, precision 4
        assert s.support() == [1]

    @given(laurents(), laurents())
    def test_mul_valuations(self, a, b):
        p = a * b
        if not (a.is_zero() or b.is_zero()):
            v = a.valuation() + b.valuation()
            if v < p.prec:
                assert p.valuation() == v

    def test_product_of_series_zero_below_precision(self):
        # t^-7 is past precision 5, so x = O(t^-5) and x^2 = O(t^-10)
        x = LaurentSeries.from_exponents([7], 5)
        assert x * x == LaurentSeries.zero(10)
        assert x * LaurentSeries.from_exponents([1], 20) == LaurentSeries.zero(6)

    def test_inverse_roundtrip(self):
        s = LaurentSeries.from_unipoly(UniPoly.parse("t^2 + t + 1"))
        inv = s.inverse(24)
        prod = s * inv
        assert prod.support() == [0]

    @given(laurents())
    def test_square_is_frobenius(self, a):
        sq = a.square()
        assert sq.support() == [2 * e for e in a.support()]

    def test_derivative(self):
        # (t^2 + t + 1)' = 1 and (1/t)' = 1/t^2
        s = LaurentSeries.from_unipoly(UniPoly.parse("t^2 + t + 1"))
        assert s.derivative().support() == [0]
        alpha = LaurentSeries.from_exponents([1], 20)
        assert alpha.derivative().support() == [2]


class TestCfExpand:
    def test_polynomial_is_rational(self):
        s = LaurentSeries.from_unipoly(UniPoly.parse("t^3 + t"), math.inf)
        result = cf_expand(s, 5)
        assert result.status == "rational"
        assert [str(q) for q in result.quotients] == ["t^3 + t"]

    def test_precision_exhaustion_signalled(self):
        s = LaurentSeries.from_exponents([1], 3)  # 1/t known to depth 3
        result = cf_expand(s, 10)
        assert result.status == "exhausted"

    def test_roundtrip_with_cf_value(self):
        quots = [UniPoly.parse(q) for q in ["t", "t + 1", "t^2", "t"]]
        s = cf_value(quots, precision=64)
        result = cf_expand(s, 10)
        assert list(result.quotients[:4]) == quots

    def test_periodic_tail_value(self):
        # [0; t, t, t, ...] solves a^2 + t a + 1 = 0
        alpha = cf_value([UniPoly.zero(), UniPoly.t()], tail_period=1, precision=80)
        t = LaurentSeries.from_unipoly(UniPoly.t())
        one = LaurentSeries.from_unipoly(UniPoly.one())
        residual = alpha.square() + t * alpha + one
        assert residual.truncated(70).is_zero()
        assert alpha.support()[:4] == [1, 3, 7, 15]

    @pytest.mark.parametrize(
        "quots, tail, message",
        [
            (["t", "t"], -1, "bad tail period"),
            (["t", "t"], 3, "bad tail period"),
            (["t", "1"], 1, "periodic tail quotients must be non-constant"),
            (["0", "t", "0"], 2, "periodic tail quotients must be non-constant"),
            ([], 0, "empty continued fraction"),
            # Q_1 = 0 * 1 + 0: the convergent has no value
            (["0", "0"], 0, "continued fraction has no value"),
            (["t", "1", "1", "t", "0"], 0, "continued fraction has no value"),
        ],
    )
    def test_input_checks(self, quots, tail, message):
        with pytest.raises(ValueError, match=message):
            cf_value([UniPoly.parse(q) for q in quots], tail_period=tail)

    @pytest.mark.parametrize(
        "quots, tail, expansion",
        [
            (["t", "t^2 + 1", "t"], 2, ["t", "t^2 + 1"] * 3),
            # the zero quotient merges its neighbours: [0; t, 0, t, ...] is
            # [t; t, ...], so P_1/Q_1 = 1/t is wrong already at t^1
            (["0", "t", "0", "t"], 1, ["t"] * 6),
            # Q_2 = 1 after Q_1 = t^3, and Q_3 = 0 in the tail
            (["0", "t^3", "0", "t^3"], 1, ["t^3"] * 6),
        ],
    )
    def test_periodic_value_is_exact_below_the_precision(self, quots, tail, expansion):
        # Euclid's algorithm reads the canonical quotients back from the
        # deep value, and every precision's value is the deep value cut
        # there, so the convergent's stopping rule never stops early
        quots = [UniPoly.parse(q) for q in quots]
        deep = cf_value(quots, tail_period=tail, precision=400)
        assert [str(q) for q in cf_expand(deep, 6).quotients] == expansion
        for prec in range(-2, 90):
            got = cf_value(quots, tail_period=tail, precision=prec)
            assert got == deep.truncated(prec)


def _inverse_loop_expand(s: LaurentSeries, count: int) -> CfExpansion:
    """Reference expansion: split off the polynomial part, invert the tail."""
    quots = []
    cur = s
    while len(quots) < count:
        if cur.is_zero():
            return CfExpansion(
                tuple(quots), "rational" if cur.prec == math.inf else "exhausted"
            )
        if cur.prec != math.inf and cur.prec <= max(cur.val, 0):
            return CfExpansion(tuple(quots), "exhausted")
        # bit i holds the 1/t-exponent val + i; bits up to -val are t^0 and up
        cut = max(1 - cur.val, 0)
        poly = 0
        for i in range(min(cut, cur.bits.bit_length())):
            if cur.bits >> i & 1:
                poly |= 1 << (-cur.val - i)
        quots.append(UniPoly(poly))
        r = LaurentSeries(max(cur.val, 1), cur.bits >> cut, cur.prec)
        if r.is_zero():
            return CfExpansion(
                tuple(quots), "rational" if r.prec == math.inf else "exhausted"
            )
        cur = r.inverse()
    return CfExpansion(tuple(quots), "count")


class TestCfExpandAgainstInverseLoop:
    @given(
        st.integers(min_value=-10, max_value=19),
        st.integers(min_value=0, max_value=(1 << 60) - 1),
        st.one_of(st.just(math.inf), st.integers(min_value=-6, max_value=79)),
        st.integers(min_value=0, max_value=29),
    )
    @example(0, 0, math.inf, 0)  # count 0 on a zero series
    @example(-3, 0b1011, 0, 5)  # prec <= 0
    @example(4, 0b101, 3, 5)  # prec <= val
    @example(-2, 0b1001, math.inf, 5)  # exact tail t^-1 is a monomial
    @example(1, 0b11, math.inf, 5)  # t^-1 + t^-2 = [0; t + 1, t + 1]
    def test_same_expansion(self, val, bits, prec, count):
        s = LaurentSeries(val, bits, prec)
        got = cf_expand(s, count)
        try:
            want = _inverse_loop_expand(s, count)
        except ValueError:
            # the loop cannot invert an exact non-monomial tail; the exact
            # expansion ends in 'rational' and its last convergent is s
            full = cf_expand(s, 200)
            assert full.status == "rational"
            p, q = general_continuant(list(full.quotients))
            assert s * LaurentSeries.from_unipoly(q) == LaurentSeries.from_unipoly(p)
            if count < len(full.quotients):
                assert got == CfExpansion(full.quotients[:count], "count")
            else:
                assert got == full
            return
        assert got == want

    def test_two_term_tail(self):
        s = LaurentSeries.from_exponents([1, 2])
        t1 = UniPoly.parse("t + 1")
        assert cf_expand(s, 5) == CfExpansion((UniPoly.zero(), t1, t1), "rational")


class TestUnboundedQuotients:
    def test_series_terms(self):
        g = unbounded_quotient_series(100)
        assert g.support() == [0, 1, 5, 21, 85]

    def test_algebraic_equation(self):
        # g satisfies g^4 / x + g + 1 = 0
        g = unbounded_quotient_series(256)
        t_inv = LaurentSeries.from_exponents([1])
        one = LaurentSeries.from_unipoly(UniPoly.one())
        residual = g.square().square() * t_inv + g + one
        assert residual.truncated(250).is_zero()

    def test_quotients_and_exponent_law(self):
        g = unbounded_quotient_series(1 << 12)
        result = cf_expand(g, 17)
        quots = result.quotients
        assert [q.str_in("x") for q in quots[:9]] == [
            "1", "x", "x^3", "x", "x^11", "x", "x^3", "x", "x^43"
        ]
        assert len(quots) == 17
        _assert_exponent_law(quots)

    def test_exponent_law_on_all_quotients_at_2_16(self):
        result = cf_expand(unbounded_quotient_series(1 << 16), 300)
        assert result.status == "exhausted"
        assert len(result.quotients) == 256
        assert result.quotients[0] == UniPoly.one()
        _assert_exponent_law(result.quotients)


def _assert_exponent_law(quots):
    """Quotients after the first are x^c_n with c_2n = 1, c_2n+1 = 4c_n - 1."""
    cs = []
    for q in quots[1:]:
        exps = list(q.exponents())
        assert len(exps) == 1
        cs.append(exps[0])
    for n in range(len(cs) // 2):
        assert cs[2 * n] == 1
    for n in range((len(cs) - 1) // 2):
        assert cs[2 * n + 1] == 4 * cs[n] - 1


class TestSpecialize:
    def test_collapse_two_letters(self):
        # sending both letters to x turns 1/(a^2 b) into 1/x^3
        g0 = compute_Gn(EpsSpec.parse("(ab)"), 0, 64)
        s = specialize_inv(g0, {"a": UniPoly.t(), "b": UniPoly.t()}, 60)
        assert s.support()[:3] == [0, 3, 15]

    def test_polynomial_image(self):
        from cf2 import InvSeries

        s = specialize_inv(
            InvSeries.parse("a + b^-1"),
            {"a": UniPoly.parse("t^2"), "b": UniPoly.parse("t + 1")},
            30,
        )
        # t^2 + 1/(t+1) = t^2 + t^-1 + t^-2 + ...
        assert s.support()[:3] == [-2, 1, 2]
