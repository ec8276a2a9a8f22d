"""Square witnesses, the Riccati residual, and degree-one quotient membership."""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from cf2 import (
    LaurentSeries,
    PatternError,
    QuotientSeq,
    UniPoly,
    baum_sweet_check,
    cf_value,
    convergents_uni,
    fn_witness,
    witness_table,
)
from cf2.riccati import _fn_poly
from conftest import general_continuant


def _random_quotient_seq(rng: random.Random, length: int) -> QuotientSeq:
    while True:
        deg_a = rng.randint(1, 4)
        deg_b = rng.randint(1, 4)
        a = UniPoly((1 << deg_a) | rng.randrange(1 << deg_a))
        b = UniPoly((1 << deg_b) | rng.randrange(1 << deg_b))
        if a == b:
            continue
        pattern = "".join(rng.choice("abc") for _ in range(length))
        if "c" in pattern and (a + b).is_constant():
            continue
        return QuotientSeq(tuple(pattern), a, b)


@st.composite
def quotient_seqs(draw, max_len=60):
    a = UniPoly(draw(st.integers(min_value=2, max_value=63)))
    b = UniPoly(draw(st.integers(min_value=2, max_value=63)))
    pattern = draw(st.text(alphabet="abc", min_size=1, max_size=max_len))
    assume(a != b and ("c" not in pattern or not (a + b).is_constant()))
    return QuotientSeq(tuple(pattern), a, b)


class TestConvergents:
    @settings(max_examples=80)
    @given(quotient_seqs(), st.data())
    def test_bitset_loop_equals_the_generic_recurrence(self, q, data):
        n = data.draw(st.integers(min_value=0, max_value=len(q.pattern) - 1))
        expected = general_continuant([q.quotient(i) for i in range(n + 1)])
        assert convergents_uni(q, n) == expected

    def test_memory_stays_linear_in_n(self):
        # only the last pair is kept: holding all 3,000 pairs of this
        # pattern would take about 3.5 MB, the last one takes 2 KB
        q = QuotientSeq.parse("abc" * 1000, "t^3 + t + 1", "t^2 + 1")
        tracemalloc.start()
        try:
            _, qq = convergents_uni(q, 2999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert qq.degree() == 7997
        assert peak < 1 << 20

    def test_seed_pairs(self):
        q = QuotientSeq.parse("ab", "t", "t + 1")
        assert convergents_uni(q, -1) == (UniPoly.one(), UniPoly.zero())
        assert convergents_uni(q, 0) == (UniPoly.t(), UniPoly.one())
        p1, q1 = convergents_uni(q, 1)
        assert p1 == UniPoly.parse("t^2 + t + 1")
        assert q1 == UniPoly.parse("t + 1")

    def test_pattern_validation(self):
        with pytest.raises(PatternError):
            QuotientSeq.parse("ab", "1", "t")
        with pytest.raises(PatternError):
            QuotientSeq.parse("ab", "t", "t")
        with pytest.raises(PatternError):
            QuotientSeq.parse("ax", "t", "t + 1")
        with pytest.raises(PatternError):
            # a + b constant while the pattern uses it
            QuotientSeq.parse("c", "t + 1", "t")

    def test_index_range(self):
        q = QuotientSeq.parse("ab", "t", "t + 1")
        with pytest.raises(ValueError, match="at least -1"):
            convergents_uni(q, -2)
        with pytest.raises(ValueError, match="pattern too short"):
            convergents_uni(q, 2)
        assert convergents_uni(q, 1)[1] == UniPoly.parse("t + 1")

    def test_cross_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            q = _random_quotient_seq(rng, 12)
            for n in range(1, 12):
                pn, qn = convergents_uni(q, n)
                pm, qm = convergents_uni(q, n - 1)
                assert pn * qm + pm * qn == UniPoly.one()


class TestSquareWitness:
    def test_boundary(self):
        q = QuotientSeq.parse("aaa", "t", "t + 1")
        w = fn_witness(q, -1)
        assert w.f_n == q.a * q.b
        assert w.g_n == UniPoly.zero()

    def test_first_step(self):
        # with u_0 = a: F_0 = ab + (ab)^2 and g_0 = ab
        q = QuotientSeq.parse("aaa", "t", "t + 1")
        w = fn_witness(q, 0)
        ab = q.a * q.b
        assert w.f_n == ab + ab * ab
        assert w.g_n == ab

    def test_random_patterns(self):
        rng = random.Random(3)
        for _ in range(40):
            q = _random_quotient_seq(rng, 30)
            ab = q.a * q.b
            for n in range(-1, 30):
                w = fn_witness(q, n)
                assert w.f_n == ab + w.g_n * w.g_n

    def test_one_pass_table_equals_the_per_index_witnesses(self):
        rng = random.Random(29)
        for _ in range(40):
            length = rng.randint(1, 40)
            q = _random_quotient_seq(rng, length)
            n = rng.randint(-1, length - 1)
            expected = [fn_witness(q, k) for k in range(-1, n + 1)]
            assert witness_table(q, n) == expected

    def test_table_index_range(self):
        q = QuotientSeq.parse("ab", "t", "t + 1")
        with pytest.raises(ValueError, match="at least -1"):
            witness_table(q, -2)
        with pytest.raises(ValueError, match="pattern too short"):
            witness_table(q, 2)

    def test_one_square_equals_the_two_product_form(self):
        rng = random.Random(43)
        for _ in range(40):
            q = _random_quotient_seq(rng, 20)
            ab = q.a * q.b
            for n in range(-1, 20):
                p, qq = convergents_uni(q, n)
                expected = ab * (q.a + q.b) * p * qq + ab * (p * p + qq * qq)
                assert _fn_poly(q, p, qq) == expected

    def test_induction_step_identity(self):
        # F_n = u_n^2 F_{n-1} + F_{n-2} + u_n ab(a+b)
        rng = random.Random(17)
        for _ in range(30):
            q = _random_quotient_seq(rng, 10)
            ab_s = q.a * q.b * (q.a + q.b)
            for n in range(1, 10):
                fn = _fn_poly(q, *convergents_uni(q, n))
                fn1 = _fn_poly(q, *convergents_uni(q, n - 1))
                fn2 = _fn_poly(q, *convergents_uni(q, n - 2))
                u = q.quotient(n)
                assert fn == u * u * fn1 + fn2 + u * ab_s

    def test_case_split_identity(self):
        # u ab(a+b) is a^2 b^2 + u^2 ab for u in {a, b}, and u^2 ab for u = a+b
        rng = random.Random(23)
        for _ in range(200):
            deg_a = rng.randint(1, 4)
            deg_b = rng.randint(1, 4)
            a = UniPoly((1 << deg_a) | rng.randrange(1 << deg_a))
            b = UniPoly((1 << deg_b) | rng.randrange(1 << deg_b))
            if a == b:
                continue
            ab = a * b
            s = a + b
            for u in (a, b):
                assert u * ab * s == ab * ab + u * u * ab
            assert s * ab * s == s * s * ab


class TestResidual:
    def test_exact_rational_identity(self):
        # the residual numerator is literally (ab)' = a'b + ab'
        rng = random.Random(31)
        for _ in range(40):
            q = _random_quotient_seq(rng, 21)
            ab_prime = (q.a * q.b).derivative()
            for n in range(0, 21):
                p, qq = convergents_uni(q, n)
                num = (
                    (q.a * q.b * (q.a + q.b) * p).derivative() * qq
                    + q.a * q.b * (q.a + q.b) * p * qq.derivative()
                    + ab_prime * (p * p + qq * qq)
                )
                assert num == ab_prime
                expected = (
                    math.inf
                    if not ab_prime
                    else 2 * qq.degree() - ab_prime.degree()
                )
                assert fn_witness(q, n).residual_valuation == expected

    def test_valuation_grows(self):
        q = QuotientSeq.parse("ab" * 30, "t", "t + 1")
        vals = [fn_witness(q, n).residual_valuation for n in range(0, 30, 3)]
        assert vals == sorted(vals)
        assert vals[-1] > vals[0]
        assert vals[-1] >= 2 * 27 - 1

    def test_degree_lower_bound(self):
        rng = random.Random(41)
        for _ in range(20):
            q = _random_quotient_seq(rng, 15)
            ab_prime = (q.a * q.b).derivative()
            if not ab_prime:
                continue
            for n in range(0, 15, 4):
                _, qq = convergents_uni(q, n)
                bound = 2 * qq.degree() - ab_prime.degree()
                assert fn_witness(q, n).residual_valuation >= bound

    def test_no_residual_before_the_first_convergent(self):
        # Q_{-1} = 0, so f_{-1} = P_{-1}/Q_{-1} is not a rational function
        q = QuotientSeq.parse("ab", "t", "t + 1")
        assert fn_witness(q, -1).residual_valuation is None

    def test_zero_derivative_gives_infinite_valuation(self):
        # ab a perfect square makes (ab)' vanish identically
        q = QuotientSeq.parse("ab", "t^2", "t^2 + 1")
        assert fn_witness(q, 1).residual_valuation == math.inf


class TestBaumSweet:
    def test_pure_period_member(self):
        alpha = cf_value([UniPoly.zero(), UniPoly.t()], tail_period=1, precision=160)
        assert baum_sweet_check(alpha, 128)

    def test_simple_1_over_t_not_member(self):
        alpha = LaurentSeries.from_exponents([1], 200)
        assert not baum_sweet_check(alpha, 128)

    def test_degree_two_quotient_not_member(self):
        alpha = cf_value(
            [UniPoly.zero(), UniPoly.t(), UniPoly.parse("t^2"), UniPoly.t()],
            tail_period=1,
            precision=160,
        )
        assert not baum_sweet_check(alpha, 128)

    def test_mixed_degree_one_member(self):
        # quotients alternating t and t+1 all have degree one
        alpha = cf_value(
            [UniPoly.zero(), UniPoly.t(), UniPoly.parse("t + 1")],
            tail_period=2,
            precision=160,
        )
        assert baum_sweet_check(alpha, 128)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            baum_sweet_check(LaurentSeries.from_unipoly(UniPoly.t()), 32)
