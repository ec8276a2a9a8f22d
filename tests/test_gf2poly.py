"""Ring axioms, parsing, derivative and square detection over GF(2)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from cf2 import Gf2Poly, ParseError, UniPoly


@st.composite
def polys(draw, letters="abc", max_terms=5, max_exp=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = []
    for _ in range(n):
        mono = []
        for v in letters:
            e = draw(st.integers(min_value=0, max_value=max_exp))
            if e:
                mono.append((v, e))
        terms.append(tuple(mono))
    return Gf2Poly(terms)


@st.composite
def unipolys(draw, max_deg=12):
    return UniPoly(draw(st.integers(min_value=0, max_value=(1 << max_deg) - 1)))


class TestRingAxioms:
    @settings.get_profile("thousand")
    @given(polys(), polys(), polys())
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @settings.get_profile("thousand")
    @given(polys(), polys())
    def test_commutativity_and_char2(self, p, q):
        assert p + q == q + p
        assert p * q == q * p
        assert p + p == Gf2Poly.zero()

    @settings.get_profile("thousand")
    @given(polys(), polys())
    def test_frobenius(self, p, q):
        assert (p + q) ** 2 == p ** 2 + q ** 2
        assert (p + q).pow2k(1) == p.pow2k(1) + q.pow2k(1)

    @settings.get_profile("thousand")
    @given(polys())
    def test_square_via_pow2k(self, p):
        assert p * p == p.pow2k(1)


class TestDerivative:
    @settings.get_profile("thousand")
    @given(polys(), polys())
    def test_linear(self, p, q):
        assert (p + q).derivative("a") == p.derivative("a") + q.derivative("a")

    @settings.get_profile("thousand")
    @given(polys(), polys())
    def test_leibniz(self, p, q):
        lhs = (p * q).derivative("a")
        rhs = p.derivative("a") * q + p * q.derivative("a")
        assert lhs == rhs

    def test_examples(self):
        assert UniPoly.parse("t^2 + t + 1").derivative() == UniPoly.one()
        assert UniPoly.parse("t^3").derivative() == UniPoly.parse("t^2")

    @settings.get_profile("thousand")
    @given(unipolys(), unipolys())
    def test_unipoly_leibniz(self, p, q):
        lhs = (p * q).derivative()
        rhs = p.derivative() * q + p * q.derivative()
        assert lhs == rhs


def _loop_square(p: UniPoly) -> UniPoly:
    """Oracle: the square built one exponent at a time."""
    acc = 0
    for e in p.exponents():
        acc |= 1 << (2 * e)
    return UniPoly(acc)


def _loop_sqrt(p: UniPoly):
    """Oracle: the square root built one exponent at a time, or None."""
    acc = 0
    for e in p.exponents():
        if e % 2:
            return None
        acc |= 1 << (e // 2)
    return UniPoly(acc)


class TestSquares:
    @settings.get_profile("thousand")
    @given(polys())
    def test_square_roundtrip(self, p):
        assert (p * p).sqrt() == p

    def test_examples(self):
        assert Gf2Poly.parse("a^2*b^2").sqrt() == Gf2Poly.parse("a*b")
        assert Gf2Poly.parse("a^2*b").sqrt() is None
        ab = Gf2Poly.parse("a*b")
        # mixed parities: (ab)^2 + ab is not a square though (ab)^2 is
        assert (ab * ab + ab).sqrt() is None
        assert (ab * ab).sqrt() is not None

    @settings.get_profile("thousand")
    @given(unipolys())
    def test_unipoly_square_roundtrip(self, p):
        assert p.square().sqrt() == p

    def test_unipoly_square_and_sqrt_match_loops(self):
        for bits in (
            0, 1, 2, 3, 0b10101, (1 << 20000) - 1, 1 << 19999, 1 << 20000,
            random.Random(7).getrandbits(20000),
            _loop_square(UniPoly(random.Random(8).getrandbits(10000))).bits,
        ):
            p = UniPoly(bits)
            assert p.square() == _loop_square(p)
            assert p.sqrt() == _loop_sqrt(p)


class TestAddMulExamples:
    def test_char2_cancellation(self):
        a_plus_b = Gf2Poly.parse("a + b")
        b_plus_1 = Gf2Poly.parse("b + 1")
        assert a_plus_b + b_plus_1 == Gf2Poly.parse("a + 1")

    def test_self_cancel(self):
        p = Gf2Poly.parse("a*b + b^2 + 1")
        assert p + p == Gf2Poly.zero()

    def test_adding_the_constant_term(self):
        assert Gf2Poly.parse("a*b + b^2") + Gf2Poly.one() == Gf2Poly.parse(
            "a*b + b^2 + 1"
        )

    def test_products(self):
        assert Gf2Poly.parse("a") * Gf2Poly.parse("a + b") == Gf2Poly.parse(
            "a^2 + a*b"
        )
        assert Gf2Poly.parse("a + b") ** 2 == Gf2Poly.parse("a^2 + b^2")
        assert Gf2Poly.parse("a*b") * Gf2Poly.parse("a + b") == Gf2Poly.parse(
            "a^2*b + a*b^2"
        )

    def test_pow2k(self):
        assert Gf2Poly.parse("a + b").pow2k(1) == Gf2Poly.parse("a^2 + b^2")
        assert Gf2Poly.parse("a*b").pow2k(2) == Gf2Poly.parse("a^4*b^4")


class TestText:
    def test_canonical_order(self):
        # graded order, ties by alphabetically-first variable, descending
        assert str(Gf2Poly.parse("b^2 + a*b + 1")) == "a*b + b^2 + 1"
        assert str(Gf2Poly.parse("a*b^2 + a^2*b")) == "a^2*b + a*b^2"
        assert str(Gf2Poly.parse("z^3 + z^7")) == "z^7 + z^3"

    def test_zero_one(self):
        assert str(Gf2Poly.zero()) == "0"
        assert Gf2Poly.parse("0") == Gf2Poly.zero()
        assert Gf2Poly.parse("1") == Gf2Poly.one()
        assert Gf2Poly.parse("a + a") == Gf2Poly.zero()

    @settings.get_profile("thousand")
    @given(polys())
    def test_print_parse_roundtrip(self, p):
        assert Gf2Poly.parse(str(p)) == p

    def test_parse_print_roundtrip_on_text(self):
        for text in ["a^2*b + a*b^2", "0", "1", "z^7 + z^3", "a*b + b^2 + 1"]:
            assert str(Gf2Poly.parse(text)) == text

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            Gf2Poly.parse("a +")
        with pytest.raises(ParseError):
            Gf2Poly.parse("a ** b")
        with pytest.raises(ParseError):
            Gf2Poly.parse("a^-2")
        with pytest.raises(ParseError):
            Gf2Poly.parse("")

    def test_json_roundtrip(self):
        p = Gf2Poly.parse("a^2*b + a*b^2 + 1")
        assert Gf2Poly.from_json(p.to_json()) == p


class TestContent:
    def test_content_strip(self):
        p = Gf2Poly.parse("a^2*b + a*b^2")
        assert p.content() == (("a", 1), ("b", 1))
        assert p.div_monomial(p.content()) == Gf2Poly.parse("a + b")

    def test_content_one(self):
        assert Gf2Poly.parse("a + b").content() == ()
        assert Gf2Poly.zero().content() == ()


class TestUniPoly:
    def test_parse_str(self):
        p = UniPoly.parse("t^3 + t + 1")
        assert str(p) == "t^3 + t + 1"
        assert p.degree() == 3
        assert UniPoly.parse("0") == UniPoly.zero()

    def test_mul(self):
        t = UniPoly.t()
        one = UniPoly.one()
        assert (t + one) * (t + one) == UniPoly.parse("t^2 + 1")
        assert t * (t + one) == UniPoly.parse("t^2 + t")

    def test_single_variable_enforced(self):
        with pytest.raises(ParseError):
            UniPoly.parse("a*b")
