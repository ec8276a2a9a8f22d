"""Generating series, rational part, slot indicators and halving operators."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from cf2 import (
    EpsSpec,
    Gf2Poly,
    WordTooLargeError,
    ZSeries,
    compute_F,
    compute_F0,
    compute_Fn,
    compute_R,
    letter_at,
    positions,
    positions_predicted,
    role_positions,
    verify_relation,
)
from cf2.cfalg import Relation, ResidualReport
from cf2.seqcore import MAX_WORD_LETTERS
from cf2.zseries import split_z
from conftest import eps_specs, random_spec

import random


def _letters(spec, n):
    return [Gf2Poly.variable(letter_at(spec, j)) for j in range(n)]


def _distinct(spec):
    """The seed of the same shape with pairwise-distinct letters."""
    letters = "abcdefghijklmnopqrstuvwxy"[: spec.l + spec.d]
    return EpsSpec(letters[: spec.l], letters[spec.l:])


def _v2(n):
    return (n & -n).bit_length() - 1


class TestComputeF:
    def test_period_doubling(self):
        F = compute_F(EpsSpec.parse("(ab)"), 7)
        assert str(F) == "a + b*z + a*z^2 + a*z^3 + a*z^4 + b*z^5 + a*z^6 + O(z^7)"

    def test_three_letter(self):
        F = compute_F(EpsSpec.parse("a(bc)"), 4)
        assert str(F) == "a + b*z + a*z^2 + c*z^3 + O(z^4)"

    def test_constant_head(self):
        F = compute_F(EpsSpec.parse("(ba)"), 1)
        assert F.coeffs == (Gf2Poly.variable("b"),)

    def test_size_cap(self):
        for build in (compute_F, compute_R):
            with pytest.raises(WordTooLargeError):
                build(EpsSpec.parse("a(b)"), MAX_WORD_LETTERS + 1)


class TestComputeR:
    def test_empty_preperiod(self):
        assert compute_R(EpsSpec.parse("(abc)"), 16).order() is None

    def test_single_preletter(self):
        R = compute_R(EpsSpec.parse("a(bc)"), 5)
        assert str(R) == "a + a*z^2 + a*z^4 + O(z^5)"

    def test_two_preletters(self):
        # numerator c + a z + c z^2, repeating with period 4
        R = compute_R(EpsSpec.parse("ca(ab)"), 12)
        expected = ZSeries(
            [
                Gf2Poly.variable(v) if v else Gf2Poly.zero()
                for v in ["c", "a", "c", "", "c", "a", "c", "", "c", "a", "c", ""]
            ]
        )
        assert R == expected

    @settings(max_examples=200, deadline=None)
    @given(eps_specs())
    def test_complement_of_indicator_sum(self, spec):
        # R plus the letter-weighted slot indicators reassembles F
        P = 48
        acc = compute_R(spec, P)
        for n in range(spec.d):
            acc = acc + compute_Fn(spec, n, P).mul_poly(
                Gf2Poly.variable(spec.period[n])
            )
        assert acc.agrees_with(compute_F(spec, P))


class TestComputeF0:
    def test_period_doubling_head(self):
        F0 = compute_F0(EpsSpec.parse("(ab)"), 8)
        assert str(F0) == "1 + z^2 + z^3 + z^4 + z^6 + O(z^8)"

    def test_head_matches_occurrences(self):
        spec = EpsSpec.parse("(ab)")
        assert compute_F0(spec, 64) == ZSeries.indicator(
            positions(spec, "a", 64).indices, 64
        )

    def test_two_block_head(self):
        F0 = compute_F0(EpsSpec.parse("(aabb)"), 19)
        assert str(F0) == (
            "1 + z^2 + z^4 + z^6 + z^8 + z^10 + z^12 + z^14 + z^15 + z^16"
            " + z^18 + O(z^19)"
        )

    def test_single_period_letter_closed_form(self):
        # d = 1: the indicator is exactly z^(2^l-1)/(1+z^(2^l))
        spec = EpsSpec.parse("ab(c)")
        P = 64
        step = 1 << spec.l
        assert compute_F0(spec, P) == ZSeries.indicator(
            range(step - 1, P, step), P
        )

    def test_functional_equation(self):
        # F0 = 1/(1+z) + z F0^2 for the period-doubling seed
        P = 64
        F0 = compute_F0(EpsSpec.parse("(ab)"), P)
        rhs = ZSeries.indicator(range(0, P), P) + F0.pow2k(1, P).mul_zpow(1, P)
        assert rhs.agrees_with(F0)

    @settings(max_examples=100, deadline=None)
    @given(eps_specs(), st.integers(min_value=1, max_value=600))
    def test_slots_match_the_law_on_distinct_letters(self, spec, P):
        # the shift law runs on the seed's distinct relabeling, so it checks
        # the slot sets of seeds with repeated letters too
        relabeled = _distinct(spec)
        for n in range(spec.d):
            law = positions_predicted(relabeled, n, P)
            assert compute_Fn(spec, n, P) == ZSeries.indicator(law.indices, P)

    def test_more_slots_than_letters(self):
        # l + d = 27 > 25 letters, so no distinct relabeling exists
        spec = EpsSpec("c", "ab" * 13)
        P = 600
        for n in (0, 1, 7, 8, 25):
            expected = [i for i in range(P) if _v2(i + 1) >= spec.l
                        and (_v2(i + 1) - spec.l) % spec.d == n]
            assert role_positions(spec, n, P).indices == tuple(expected)
            assert compute_Fn(spec, n, P) == ZSeries.indicator(expected, P)
        assert expected == []  # slot 25 starts at valuation 26
        with pytest.raises(ValueError):
            role_positions(spec, 26, P)


class TestChainAndClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(eps_specs())
    def test_slot_chain(self, spec):
        # indicator(P_n) = z * indicator(P_{n-1})^2
        P = 48
        for n in range(1, spec.d):
            lhs = compute_Fn(spec, n, P)
            rhs = compute_Fn(spec, n - 1, P).pow2k(1, P).mul_zpow(1, P)
            assert lhs.agrees_with(rhs)

    @settings(max_examples=150, deadline=None)
    @given(eps_specs())
    def test_closed_form(self, spec):
        # F0 = z^(2^l-1)/(1+z^(2^l)) + sum_{n=1}^{d-1} z^(2^n-1) F0^(2^n)
        P = 48
        F0 = compute_F0(spec, P)
        step = 1 << spec.l
        rhs = ZSeries.indicator(range(step - 1, P, step), P)
        for n in range(1, spec.d):
            rhs = rhs + F0.pow2k(n, P).mul_zpow((1 << n) - 1, P)
        assert rhs.agrees_with(F0)

    def test_f1_is_shifted_square(self):
        spec = EpsSpec.parse("a(bc)")
        P = 64
        f1 = compute_Fn(spec, 1, P)
        assert f1 == ZSeries.indicator(positions(spec, "c", P).indices, P)

    @settings(max_examples=150, deadline=None)
    @given(eps_specs())
    def test_h_equation_for_bare_period(self, spec):
        # with no preperiod, h = z f satisfies (1+z) sum h^(2^n) + z = 0
        P = 48
        f = compute_F0(EpsSpec("", spec.period), P)
        h = f.mul_zpow(1, P)
        total = ZSeries.zero(P)
        for n in range(spec.d):
            total = total + h.pow2k(n, P)
        lhs = ZSeries.indicator([0, 1], P) * total + ZSeries.indicator([1], P)
        assert lhs.order() is None

    @settings(max_examples=150, deadline=None)
    @given(eps_specs())
    def test_first_slot_from_bare_period(self, spec):
        # F0 = z^(2^l-1) f^(2^l) links the preperiod-free indicator to F0
        P = 48
        f = compute_F0(EpsSpec("", spec.period), P)
        step = 1 << spec.l
        rhs = f.pow2k(spec.l, P).mul_zpow(step - 1, P)
        assert rhs.agrees_with(compute_F0(spec, P))


class TestCartier:
    def test_even_letters_constant(self):
        F = compute_F(EpsSpec.parse("(ab)"), 32)
        even = F.cartier(0)
        assert all(c == Gf2Poly.variable("a") for c in even.coeffs)

    def test_shift(self):
        s = ZSeries.indicator([1], 8)  # the series z
        assert s.cartier(1).coeffs[0] == Gf2Poly.one()

    def test_precision_halves(self):
        s = ZSeries.zero(65)
        assert s.cartier(0).precision == 33
        assert s.cartier(1).precision == 32

    @settings(max_examples=200, deadline=None)
    @given(eps_specs())
    def test_reconstruction_on_indicators(self, spec):
        # s = (L_0 s)^2 + z (L_1 s)^2 for GF(2)-coefficient series
        P = 33
        s = compute_F0(spec, P)
        l0, l1 = s.cartier(0), s.cartier(1)
        recon = l0.pow2k(1, P) + l1.pow2k(1, P).mul_zpow(1, P)
        assert recon.truncated(P - 1).agrees_with(s)


class TestEvalRelation:
    def test_period_doubling_f_relation(self):
        F = compute_F(EpsSpec.parse("(ab)"), 64)
        rel = Relation(
            {
                0: Gf2Poly.parse("a^2*z + a*b*z + b^2*z + a^2 + a*b"),
                1: Gf2Poly.parse("a*z^2 + b*z^2 + a + b"),
                2: Gf2Poly.parse("z^3 + z"),
            }
        )
        assert verify_relation(rel, F).vanished

    def test_three_letter_f_relation(self):
        F = compute_F(EpsSpec.parse("a(bc)"), 64)
        rel = Relation(
            {
                0: Gf2Poly.parse(
                    "b^2*z^3 + b*c*z^3 + c^2*z^3 + a*b*z^2 + a*c*z^2"
                    " + a^2*z + b^2*z + b*c*z + a*b + a*c"
                ),
                1: Gf2Poly.parse("b*z^4 + c*z^4 + b + c"),
                2: Gf2Poly.parse("z^5 + z"),
            }
        )
        assert verify_relation(rel, F).vanished

    def test_two_block_f_relation(self):
        F = compute_F(EpsSpec.parse("(aabb)"), 64)
        rel = Relation(
            {
                0: Gf2Poly.parse(
                    "a^4*z^3 + a^3*b*z^3 + a^2*b^2*z^3 + a*b^3*z^3 + b^4*z^3"
                    " + a^4*z^2 + a^3*b*z^2 + a^2*b^2*z^2 + a*b^3*z^2"
                    " + a^4*z + a^3*b*z + a^2*b^2*z + a*b^3*z"
                    " + a^4 + a^3*b + a^2*b^2 + a*b^3"
                ),
                1: Gf2Poly.parse(
                    "a^3*z^4 + a^2*b*z^4 + a*b^2*z^4 + b^3*z^4"
                    " + a^3 + a^2*b + a*b^2 + b^3"
                ),
                4: Gf2Poly.parse("z^7 + z^3"),
            }
        )
        assert verify_relation(rel, F).vanished


class TestArithmetic:
    @settings(max_examples=300, deadline=None)
    @given(eps_specs(), eps_specs())
    def test_add_cancels(self, s1, s2):
        F = compute_F(s1, 24)
        assert (F + F).order() is None

    def test_mul_truncates_to_min(self):
        a = ZSeries.indicator([0, 1], 10)
        b = ZSeries.indicator([0], 6)
        assert (a * b).precision == 6

    def test_power_matches_repeated_mul(self):
        rng = random.Random(5)
        for _ in range(20):
            spec = random_spec(rng)
            F = compute_F(spec, 24)
            cube = F * F * F
            assert F.power(3, 24).agrees_with(cube)

    def test_str_empty(self):
        assert str(ZSeries.zero(4)) == "0 + O(z^4)"

    def test_one_keeps_precision_zero(self):
        assert ZSeries.one(0) == ZSeries([])
        assert ZSeries([]).power(0).precision == 0
        assert ZSeries.one(1).precision == 1

    def test_negative_precision_cuts_to_zero(self):
        F = compute_F(EpsSpec.parse("(ab)"), 10)
        assert F.truncated(-3) == ZSeries([])
        assert F.power(3, -3) == F.pow2k(1, -3) == F.truncated(-3)
        assert F.mul_zpow(2, -3).precision == 0


def _pairwise_mul(a: ZSeries, b: ZSeries) -> ZSeries:
    """Reference product: pairs of nonzero coefficients multiplied as
    letter polynomials."""
    p = min(a.precision, b.precision)
    out = [Gf2Poly.zero()] * p
    for i, x in a.sorted_pieces():
        for j, y in b.sorted_pieces():
            if i + j < p:
                out[i + j] = out[i + j] + x * y
    return ZSeries(out)


def _pairwise_power(s: ZSeries, j: int, precision=None) -> ZSeries:
    """Reference power: binary powering over the reference product."""
    p = s.precision if precision is None else precision
    if j == 0:
        return ZSeries(([Gf2Poly.one()] + [Gf2Poly.zero()] * p)[:p])
    result = None
    k = 0
    while j:
        if j & 1:
            f = s.pow2k(k, min(p, s.precision << k))
            result = f if result is None else _pairwise_mul(result, f)
        j >>= 1
        k += 1
    return result.truncated(p)


@st.composite
def z_series(draw):
    """Series over an alphabet of up to five letters ("" gives indicator
    series) at precisions up to 200, so that a letter monomial's bitset of
    z-indices spans several int digits: every coefficient drawn up to
    precision 24 and for indicator series, at most 16 placed above.  Some
    are all zero, some have every coefficient raised to the 2**6-th power
    so that the packed fields must be wide."""
    letters = draw(st.sampled_from(["", "a", "ab", "cd", "abc", "abcde"]))
    precision = draw(st.one_of(st.integers(0, 24), st.integers(25, 200)))
    if not letters or draw(st.booleans()):
        monos = st.just(())
    else:
        monos = st.dictionaries(
            st.sampled_from(letters), st.integers(1, 3), min_size=1
        ).map(lambda d: tuple(sorted(d.items())))
    coeff = st.lists(monos, max_size=3).map(Gf2Poly)
    if precision <= 24 or not letters:
        coeffs = draw(st.lists(coeff, min_size=precision, max_size=precision))
    else:
        placed = draw(st.dictionaries(st.integers(0, precision - 1), coeff,
                                      max_size=16))
        coeffs = [placed.get(i, Gf2Poly.zero()) for i in range(precision)]
    if draw(st.booleans()):
        coeffs = [c.pow2k(6) for c in coeffs]
    return ZSeries(coeffs)


class TestPackedProduct:
    """The packed product kernel against the pairwise reference."""

    @settings(max_examples=300, deadline=None)
    @given(z_series(), z_series())
    def test_mul(self, a, b):
        got, want = a * b, _pairwise_mul(a, b)
        assert (repr(got), got.precision) == (repr(want), want.precision)
        assert got.to_json() == want.to_json()

    @settings(max_examples=100, deadline=None)
    @given(z_series(), st.sampled_from([None, -7, -1, 0, 1, 3, 20, 150]))
    def test_power(self, s, precision):
        for j in range(10):
            got, want = s.power(j, precision), _pairwise_power(s, j, precision)
            assert (repr(got), got.precision) == (repr(want), want.precision)

    def test_letter_free_and_disjoint(self):
        ind = ZSeries.indicator([0, 1, 3], 6)
        x = ZSeries([Gf2Poly.parse("a^3 + b"), Gf2Poly.parse("a*b")] * 3)
        y = ZSeries([Gf2Poly.zero(), Gf2Poly.parse("c^2 + d")] * 4)
        for a, b in ((ind, ind), (ind, x), (x, y), (x.pow2k(6), y), (y, y)):
            assert repr(a * b) == repr(_pairwise_mul(a, b))


def _pairwise_residual(rel: Relation, s: ZSeries) -> ResidualReport:
    """Reference residual: the sum of c_j * s^j with s^j from
    `_pairwise_power` and each monomial of c_j applied as `mul_poly` of its
    letters and `mul_zpow` of its power of z."""
    p = s.precision
    total = ZSeries.zero(p)
    for j, c in rel.coeffs.items():
        power = _pairwise_power(s, j)
        for m in c.terms:
            e, letters = split_z(m)
            total = total + power.mul_poly(Gf2Poly.monomial(letters)).mul_zpow(e, p)
    order = total.order()
    return ResidualReport(order is None, order, total.precision)


@st.composite
def z_relations(draw):
    """(seed, target, precision, relation) for random relations over the
    seed's letters, a foreign letter x and z; almost none vanish."""
    spec = draw(eps_specs(max_pre=2, max_per=3, n_letters=4))
    alphabet = sorted(set(spec.preperiod + spec.period)) + ["x", "z"]
    monomials = st.dictionaries(
        st.sampled_from(alphabet), st.integers(1, 4), max_size=3
    ).map(lambda d: tuple(sorted(d.items())))
    polys = st.lists(monomials, min_size=1, max_size=5).map(Gf2Poly).filter(bool)
    js = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True))
    rel = Relation({j: draw(polys) for j in js})
    return spec, draw(st.sampled_from(["F", "F0"])), draw(st.integers(1, 64)), rel


_QUADRATIC_F = Relation.from_file_text(
    "deg 0: a^2*z + a*b*z + b^2*z + a^2 + a*b\n"
    "deg 1: a*z^2 + b*z^2 + a + b\ndeg 2: z^3 + z\n"
)
# the same relation with a*b*z dropped from its constant coefficient
_PERTURBED_F = Relation.from_file_text(
    "deg 0: a^2*z + b^2*z + a^2 + a*b\n"
    "deg 1: a*z^2 + b*z^2 + a + b\ndeg 2: z^3 + z\n"
)


class TestVerifyAgainstPairwise:
    """z-side verification against series built without the packed kernels."""

    @settings(max_examples=150, deadline=None)
    @given(z_relations())
    @example((EpsSpec.parse("(ab)"), "F", 64, _QUADRATIC_F))
    @example((EpsSpec.parse("(ab)"), "F", 64, _PERTURBED_F))
    @example((EpsSpec.parse("(ab)"), "F0", 40, _PERTURBED_F))
    def test_matches_the_pairwise_sum(self, case):
        spec, name, prec, rel = case
        s = {"F": compute_F, "F0": compute_F0}[name](spec, prec)
        assert repr(verify_relation(rel, s)) == repr(_pairwise_residual(rel, s))

    def test_the_perturbed_relation_fails_at_its_depth(self):
        F = compute_F(EpsSpec.parse("(ab)"), 64)
        assert verify_relation(_QUADRATIC_F, F) == ResidualReport(True, None, 64)
        # a*b*z is the residual's only term below z^2
        assert verify_relation(_PERTURBED_F, F) == ResidualReport(False, 1, 64)


_CONTRACT_OPS = {
    "add": lambda F: F + F.mul_zpow(1),
    "mul": lambda F: F * F.mul_zpow(1),
    "power": lambda F: F.power(3),
    "power_even": lambda F: F.power(6),
    "power_below": lambda F: F.power(5, 7),
    "power_above": lambda F: F.power(5, 100),
    "pow2k": lambda F: F.pow2k(2),
    "pow2k_above": lambda F: F.pow2k(1, 100),
    "mul_poly": lambda F: F.mul_poly(Gf2Poly.parse("a*b + c")),
    "mul_zpow": lambda F: F.mul_zpow(3),
    "mul_zpow_above": lambda F: F.mul_zpow(3, 100),
    "cartier": lambda F: F.cartier(1),
    "truncated": lambda F: F.truncated(9),
}


class TestPrecisionContract:
    """An operation on F at precision P agrees with it on F at 2P."""

    @settings(max_examples=40, deadline=None)
    @given(eps_specs(), st.integers(min_value=1, max_value=20),
           st.sampled_from(sorted(_CONTRACT_OPS)))
    def test_doubling_the_precision(self, spec, P, name):
        op = _CONTRACT_OPS[name]
        low, high = op(compute_F(spec, P)), op(compute_F(spec, 2 * P))
        assert low.agrees_with(high)
        assert low.precision <= high.precision
