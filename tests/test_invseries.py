"""Ultrametric arithmetic in inverse letter powers, with precision tracking."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from cf2 import (
    EpsSpec,
    Gf2Poly,
    InvSeries,
    LaurentSeries,
    NotInvertibleError,
    UniPoly,
    compute_G,
    compute_cf,
    compute_inv_cf,
    specialize_inv,
    verify_relation,
)
from cf2 import invseries
from cf2.cfalg import Relation
from cf2.gf2poly import mono_deg, mono_mul, mono_pow


@st.composite
def inv_series(draw, letters="ab", max_terms=5, max_exp=5, finite_prec=True):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = []
    for _ in range(n):
        mono = []
        for v in letters:
            e = draw(st.integers(min_value=-max_exp, max_value=max_exp))
            if e:
                mono.append((v, e))
        terms.append(tuple(mono))
    prec = draw(st.integers(min_value=5, max_value=40)) if finite_prec else math.inf
    return InvSeries(terms, prec)


alphabets = st.sampled_from(["a", "ab", "abc", "abcd"])
some_series = alphabets.flatmap(lambda letters: inv_series(letters=letters))


@st.composite
def units(draw):
    """Series with a unique minimal-depth term, so invertible."""
    s = draw(some_series)
    (head,) = draw(inv_series(letters="abcd", max_terms=1, finite_prec=False)
                   .filter(lambda h: len(h.terms) == 1)).terms
    rest = [t for t in s.terms if mono_deg(t) > mono_deg(head)]
    return InvSeries([head, *rest], max(s.precision, mono_deg(head) + 1))


# Distinct polynomials in t of one common degree DELTA: a term of depth d
# specialises to a series of 1/t-valuation exactly DELTA * d, so a series
# known below depth p specialises to one known below 1/t-exponent DELTA * p.
DELTA = 3
IMAGES = {
    v: UniPoly.parse(p)
    for v, p in zip("abcd", ["t^3", "t^3 + 1", "t^3 + t", "t^3 + t^2 + 1"])
}
EXACT_DEPTH = 24  # comparison depth for results of infinite precision


def image(s: InvSeries, depth) -> LaurentSeries:
    """Specialised terms of s, exact below 1/t-exponent DELTA * depth."""
    assert depth <= s.precision
    return specialize_inv(InvSeries(s.terms), IMAGES, DELTA * depth)


def assert_agree_below(lhs: LaurentSeries, rhs: LaurentSeries, depth):
    diff = lhs + rhs
    assert diff.prec >= DELTA * depth
    assert diff.truncated(DELTA * depth).is_zero()


def reference_product(x: InvSeries, y: InvSeries) -> frozenset:
    """Term-by-term product on tuples, the definition the codes must meet."""
    prec = (x * y).precision
    acc: set = set()
    for t1 in x.terms:
        for t2 in y.terms:
            if mono_deg(t1) + mono_deg(t2) < prec:
                acc.symmetric_difference_update((mono_mul(t1, t2),))
    return frozenset(acc)


def geometric_inverse(s: InvSeries, precision=None) -> InvSeries:
    """m^-1 * (1 + r + r^2 + ...) with r = s / m - 1, cut where the result
    is known: the geometric series that `inverse` once summed, on tuple
    terms, kept as the reference for Newton's iteration."""
    if not s.terms:
        raise NotInvertibleError("zero")
    m_depth = s.depth_norm()
    leading = [t for t in s.terms if mono_deg(t) == m_depth]
    if len(leading) > 1:
        raise NotInvertibleError("no unique leading term")
    m_inv = mono_pow(leading[0], -1)
    out_prec = s.precision - 2 * m_depth
    if precision is not None:
        out_prec = min(out_prec, precision)
    r = [mono_mul(t, m_inv) for t in s.terms if t != leading[0]]
    if r and out_prec == math.inf:
        raise ValueError("needs a finite precision")
    s_prec = out_prec + m_depth
    acc: set = set()
    power = {()} if s_prec > 0 else set()
    while power:
        acc ^= power
        nxt: set = set()
        for t in power:
            for u in r:
                if mono_deg(t) + mono_deg(u) < s_prec:
                    nxt.symmetric_difference_update((mono_mul(t, u),))
        power = nxt
    return InvSeries((mono_mul(t, m_inv) for t in acc), out_prec)


def eager_inverse(s: InvSeries, precision=None) -> InvSeries:
    """Newton's iteration of `inverse` run to the end at once, from the
    iteration's first state, by the one loop that `inverse` once ran:
    the reference for a deferred inverse read at any depths."""
    inv = s.inverse(precision)
    if inv._newton is None:
        return inv
    newton = inv._newton
    pk, codes, x, known = newton.pk, newton.codes, set(newton.x), newton.known
    while known < newton.end:
        known = min(2 * known, newton.end)
        x = pk.mul(codes, sorted(2 * c - pk.bias for c in x), known - newton.m_depth)
    return InvSeries(map(pk.decode, x), inv.precision)


@st.composite
def inverse_operands(draw):
    """Series over 1-4 letters with mixed-sign exponents, at a finite or
    infinite precision, half of them cut to a unique leading term, and a
    precision cap or None."""
    terms = draw(alphabets.flatmap(
        lambda letters: inv_series(letters=letters, max_terms=5, max_exp=4,
                                   finite_prec=False))).terms
    if terms and draw(st.booleans()):
        head = min(terms, key=lambda t: (mono_deg(t), t))
        terms = [head, *(t for t in terms if mono_deg(t) > mono_deg(head))]
    prec = draw(st.one_of(st.integers(min_value=-5, max_value=48),
                          st.just(math.inf)))
    cap = draw(st.one_of(st.none(), st.integers(min_value=-10, max_value=60)))
    return InvSeries(terms, prec), cap


def outcome(f, *args):
    """(terms, precision) of a result, or the type of the exception raised."""
    try:
        r = f(*args)
    except (ValueError, ArithmeticError) as e:
        return type(e)
    return r.terms, r.precision


class TestDepthNorm:
    def test_examples(self):
        assert InvSeries.parse("a^-1").depth_norm() == 1
        assert InvSeries.parse("a").depth_norm() == -1
        assert InvSeries.zero().depth_norm() == math.inf

    def test_head_of_tail_sum(self):
        g = compute_inv_cf(EpsSpec.parse("(ab)"), 32)
        assert g.depth_norm() == 1


class TestAddMul:
    @settings.get_profile("thousand")
    @given(inv_series(), inv_series())
    def test_ultrametric(self, x, y):
        dx, dy = x.depth_norm(), y.depth_norm()
        s = x + y
        assert s.depth_norm() >= min(dx, dy)
        if dx != dy and min(dx, dy) < s.precision:
            assert s.depth_norm() == min(dx, dy)

    @settings.get_profile("thousand")
    @given(inv_series())
    def test_char2(self, x):
        assert not (x + x).terms

    @settings.get_profile("thousand")
    @given(inv_series(), inv_series())
    def test_frobenius_exact_on_terms(self, x, y):
        assert (x + y).pow2k(1).terms == (x.pow2k(1) + y.pow2k(1)).terms

    def test_simple_product(self):
        x = InvSeries.parse("a^-1")
        y = InvSeries.parse("a^-1*b^-1")
        assert (x * y).sorted_terms() == [(("a", 2), ("b", 1))]

    def test_mul_precision_rule(self):
        x = InvSeries.parse("a^-1 + a^-3", precision=10)
        y = InvSeries.parse("b^-2", precision=12)
        # min(10 + 2, 12 + 1) = 12
        assert (x * y).precision == 12

    def test_first_piece_square_over_letter_heads_the_tail(self):
        # G_0^2 / a starts with 1/a, the head of the regrouped tail sum
        from cf2 import EpsSpec, compute_Gn

        g0 = compute_Gn(EpsSpec.parse("(ab)"), 0, 64)
        piece = g0.pow2k(1) * InvSeries([(("a", 1),)])
        assert piece.depth_norm() == 1
        assert piece.sorted_terms()[0] == (("a", 1),)


class TestInverse:
    def test_monomial(self):
        inv = InvSeries.from_poly(Gf2Poly.parse("a")).inverse()
        assert inv.sorted_terms() == [(("a", 1),)]
        assert inv.precision == math.inf

    def test_geometric(self):
        s = InvSeries.parse("1 + a^-1")
        inv = s.inverse(precision=6)
        assert inv.sorted_terms() == [
            (), (("a", 1),), (("a", 2),), (("a", 3),), (("a", 4),), (("a", 5),)
        ]

    def test_needs_unique_leading_term(self):
        with pytest.raises(NotInvertibleError):
            InvSeries.parse("a^-1 + b^-1", precision=8).inverse()
        with pytest.raises(NotInvertibleError):
            InvSeries.zero(8).inverse()

    @settings(max_examples=300, deadline=None)
    @given(inv_series(max_terms=4, max_exp=3))
    def test_mul_by_inverse_is_one(self, x):
        leading = [t for t in x.terms if mono_deg(t) == x.depth_norm()]
        if len(leading) != 1:
            return
        inv = x.inverse()
        prod = x * inv
        assert (prod + InvSeries.one()).depth_norm() >= prod.precision

    @settings(max_examples=400, deadline=None)
    @given(inverse_operands())
    # packing bounds (s_prec // r_depth + 1) * top and top decode these wrong
    @example((InvSeries.parse("a^3*b^2 + b^-1 + a^-3*b^-1", 46), None))
    @example((InvSeries.parse(
        "1 + a^-1*d^-4 + a^3*b^-5*c^-4 + b^2*c^-6*d^-2"), 13))
    # and 2 * (s_prec // r_depth) * top this one, whose only term d needs
    # top, the (2k + 1) * top of k = 0
    @example((InvSeries.parse("d + d^-1"), 2))
    def test_matches_the_geometric_series(self, operand):
        x, cap = operand
        assert outcome(x.inverse, cap) == outcome(geometric_inverse, x, cap)

    @settings(max_examples=300, deadline=None)
    @given(inverse_operands(), st.lists(st.tuples(
        st.sampled_from(["count", "truncated", "terms"]),
        st.integers(-10, 70), st.integers(0, 40)), max_size=4))
    @example((compute_inv_cf(EpsSpec.parse("a(bc)"), 66), 64),
             [("count", 33, 20), ("count", 33, 1000), ("truncated", 64, 0)])
    def test_deferred_reads_match_the_eager_iteration(self, operand, reads):
        # the iteration deepens only as far as each read needs, to the
        # same iterates as one loop run to the end
        x, cap = operand
        want = outcome(eager_inverse, x, cap)
        assert want == outcome(geometric_inverse, x, cap)
        if isinstance(want, type):
            with pytest.raises(want):
                x.inverse(cap)
            return
        inv, full = x.inverse(cap), InvSeries(*want)
        assert inv.depth_norm() == full.depth_norm()
        for how, depth, enough in sorted(reads, key=lambda read: read[1]):
            if how == "count":
                count = invseries._own_count(inv, depth, enough)
                exact = invseries._own_count(full, depth, enough)
                assert count == exact if exact < enough else count >= enough
            elif how == "truncated":
                assert inv.truncated(depth) == full.truncated(depth)
            else:
                assert inv.terms == full.terms
        assert (inv.terms, inv.precision) == want

    def test_newton_doubles_the_depth_per_product(self, monkeypatch):
        # the geometric series made one product per step of depth, 1,000 here
        inv = compute_inv_cf(EpsSpec.parse("(ab)"), 2002)
        calls = []
        mul = invseries._Packing.mul
        monkeypatch.setattr(invseries._Packing, "mul",
                            lambda pk, *args: calls.append(1) or mul(pk, *args))
        assert len(inv.inverse(2000).packed[1]) > 1000
        assert 0 < len(calls) <= 10

    def test_cf_head_matches_worked_expansion(self):
        # the three-quotient value a + 1/(b + 1/a) expands to
        # a + 1/b + 1/(a b^2) + ...; it is the 3-letter truncation of the
        # full continued fraction, so the heads agree strictly below
        # depth 5 (the next summand 1/u_3 has depth 7, divided by u_2/v_2
        # squared, depth -2)
        spec = EpsSpec.parse("(ab)")
        cf = compute_inv_cf(spec, 64).inverse()
        expected_head = {(("a", -1),), (("b", 1),), (("a", 1), ("b", 2))}
        assert cf.truncated(5).terms == frozenset(expected_head)
        assert cf.depth_norm() == -1  # polynomial head is the letter a

    def test_cf_head_matches_seven_quotient_value(self):
        # independent route: the 7-letter convergent u_3/v_3 evaluated by
        # continuants and series division agrees with the inverted tail
        # sum strictly below depth 13
        from cf2 import continuants

        spec = EpsSpec.parse("(ab)")
        cf = compute_inv_cf(spec, 64).inverse()
        pair = continuants(spec, 3)
        finite = InvSeries.from_poly(pair.u) * InvSeries.from_poly(
            pair.v
        ).inverse(precision=20)
        assert cf.truncated(13).terms == finite.truncated(13).terms


class TestSpecialisation:
    """Products and inverses against GF(2)((1/t)) arithmetic, an
    independent path: letters specialised to polynomials in t."""

    @given(some_series, some_series)
    @example(InvSeries.parse("a^-1 + a^-2*b^-1", 9),
             InvSeries.parse("c + c^-3*d^-1 + d^-2", 11))  # disjoint letters
    @example(InvSeries.one(), InvSeries.parse("a^-1*b^2 + c^-3", 7))
    @example(InvSeries.zero(6), InvSeries.parse("a + b^-2", 9))
    @example(InvSeries.one(), InvSeries.zero())
    @example(InvSeries.parse("a^2*b + c + 1"), InvSeries.parse("a + d^3"))
    @example(InvSeries.parse("a^-5*b^-5", 11),
             InvSeries.parse("a^-5*b^-5*c^-5", 16))
    @example(InvSeries.parse("a^-7", 5), InvSeries.parse("b^-6", 5))  # no terms
    def test_product(self, x, y):
        prod = x * y
        assert all(mono_deg(t) < prod.precision for t in prod.terms)
        depth = min(prod.precision, EXACT_DEPTH)
        # each operand imaged at its own precision (an image cut tighter
        # holds fewer terms and so proves less); an exact one as deep as the
        # other's lowest term needs
        dx = x.precision if x.precision < math.inf else (
            depth - y.depth_norm() if y else depth)
        dy = y.precision if y.precision < math.inf else (
            depth - x.depth_norm() if x else depth)
        assert_agree_below(image(prod, depth), image(x, dx) * image(y, dy), depth)

    @given(units())
    @example(InvSeries.one())
    @example(InvSeries.parse("a^2*b + c + 1"))  # exact polynomial
    @example(InvSeries.parse("a^-1 + c^-2*d^-1", 13))
    def test_inverse(self, x):
        exact = x.precision == math.inf and len(x.terms) > 1
        inv = x.inverse(EXACT_DEPTH if exact else None)
        m = x.depth_norm()
        depth = min((inv * x).precision, EXACT_DEPTH)
        one = LaurentSeries.from_unipoly(UniPoly.one())
        assert_agree_below(one, image(inv, depth - m) * image(x, depth + m), depth)

    def test_wide_exponent_fields(self):
        # exponents past 2**20 widen every packed field; products and
        # inverses must still equal the tuple definition and commute
        # with the Frobenius map
        x = InvSeries.parse("a^-1 + a^-2*b^-1 + b*c^-4 + a^-3*c^-2", 12)
        y = InvSeries.parse("b^-1 + a^2*b^-5 + c^-3", 10)
        big_x, big_y = x.pow2k(20), y.pow2k(20)
        for u, v in [(big_x, big_y), (big_x, y), (x, big_y)]:
            assert (u * v).terms == reference_product(u, v)
        assert big_x * big_y == (x * y).pow2k(20)
        assert big_x.inverse() == x.inverse().pow2k(20)


    @pytest.mark.parametrize(
        "text, build, relation",
        [
            ("(ab)", compute_G,
             "deg 0: a*b + b^2 + 1\n"
             "deg 1: a^2*b + a*b^2\n"
             "deg 2: a*b\n"
             "deg 4: 1\n"),
            ("a(bc)", compute_cf,
             "deg 0: a^2\n"
             "deg 2: a^2*b*c\n"
             "deg 3: a^2*b^2*c + a^2*b*c^2\n"
             "deg 4: a*b^2*c + a*b*c^2 + c^2\n"),
            ("(aabb)", compute_G,
             "deg 0: a^11*b^3 + a^10*b^4 + a^3*b^11 + a^2*b^12 + a^6*b^6"
             " + a^4*b^8 + a^2*b^10 + b^12 + a^6*b^2 + a^4*b^4 + a^2*b^6"
             " + b^8 + 1\n"
             "deg 1: a^12*b^3 + a^11*b^4 + a^4*b^11 + a^3*b^12\n"
             "deg 2: a^11*b^3 + a^10*b^4 + a^8*b^6 + a^6*b^8 + a^4*b^10"
             " + a^3*b^11\n"
             "deg 8: a^6*b^2 + a^4*b^4 + a^2*b^6\n"
             "deg 16: 1\n"),
        ],
        ids=["(ab) G", "a(bc) CF", "(aabb) G"],
    )
    def test_golden_relation(self, text, build, relation):
        # the paper's relations vanish on the specialised series, with the
        # coefficients specialised exactly and the powers formed in
        # GF(2)((1/t)), below a 1/t-exponent far past the leading terms
        depth = 128
        y = image(build(EpsSpec.parse(text), depth), depth)
        residual = LaurentSeries.zero()
        y_j = LaurentSeries.from_unipoly(UniPoly.one())
        j = 0
        for k, c in Relation.from_file_text(relation).coeffs.items():
            while j < k:
                y_j, j = y_j * y, j + 1
            coeff = specialize_inv(InvSeries.from_poly(c), IMAGES, math.inf)
            residual = residual + coeff * y_j
        assert residual.prec >= DELTA * depth // 2
        assert residual.is_zero()


class TestPrecision:
    def test_monotone_recompute(self):
        spec = EpsSpec.parse("a(bc)")
        low = compute_inv_cf(spec, 32)
        high = compute_inv_cf(spec, 128)
        assert high.truncated(32).terms == low.terms

    def test_inverse_monotone_recompute(self):
        spec = EpsSpec.parse("a(bc)")
        low = compute_inv_cf(spec, 32).inverse()
        high = compute_inv_cf(spec, 128).inverse()
        p = min(low.precision, high.precision)
        assert high.truncated(p).terms == low.truncated(p).terms

    def test_product_of_series_without_terms(self):
        # a^-7 is past precision 5: the square is zero below 10, not exact
        x = InvSeries.parse("a^-7", 5)
        assert x * x == InvSeries.zero(10)
        y = InvSeries.parse("a^-7", 10)
        assert y * y == InvSeries.parse("a^-14", 17)
        assert x * InvSeries.parse("a^-1", 9) == InvSeries.zero(6)

    def test_truncation_drops_terms(self):
        s = compute_inv_cf(EpsSpec.parse("(ab)"), 64)
        assert len(s.truncated(8).terms) < len(s.terms)


def canonical_seeds(max_len: int) -> list[EpsSpec]:
    """Every seed with l + d <= max_len in canonical form, up to renaming
    its letters (they appear first in the order a, b, c, ...)."""
    words, seeds = [""], []
    for _ in range(max_len):
        words = [w + c for w in words for c in "abcd"[: len(set(w)) + 1]]
        for w in words:
            for l in range(len(w)):
                spec = EpsSpec(w[:l], w[l:])
                if spec.canonical() == spec:
                    seeds.append(spec)
    return seeds


def binary_powers(s: InvSeries, top: int) -> dict[int, InvSeries]:
    """s^1 .. s^top by binary powering: s^j is s^(j - 2^k) * s^(2^k) for
    the highest bit 2^k of j, the products in increasing order of k."""
    out = {}
    for j in range(1, top + 1):
        k = j.bit_length() - 1
        out[j] = s.pow2k(k) if j == 1 << k else out[j - (1 << k)] * s.pow2k(k)
    return out


class TestReciprocalRoute:
    """A continued fraction takes its powers through its reciprocal."""

    @pytest.mark.parametrize(
        "p, seeds",
        [
            *((p, canonical_seeds(4)) for p in (1, 2, 3, 64)),
            # at the search depth the binary reference takes minutes over
            # all 51 seeds (19 s for (abcd) alone), so the paper's seeds
            (529, [EpsSpec.parse(t) for t in ("(ab)", "a(bc)", "(aabb)")]),
        ],
        ids=["1", "2", "3", "64", "529"],
    )
    def test_power_equals_binary_powering(self, p, seeds):
        for spec in seeds:
            cf = compute_cf(spec, p)
            for j, ref in binary_powers(cf, 16).items():
                got = cf.power(j)
                assert (got.terms, got.precision) == (ref.terms, ref.precision), (
                    str(spec), j)

    @pytest.mark.parametrize("text", ["(ab)", "a(bc)", "ab(cd)"])
    def test_powers_agree_with_a_deeper_recompute(self, text):
        spec = EpsSpec.parse(text)
        low, high = compute_cf(spec, 64), compute_cf(spec, 128)
        for j in range(17):
            lo, hi = low.power(j), high.power(j)
            assert lo.precision <= hi.precision
            assert hi.truncated(lo.precision).terms == lo.terms, j

    def test_equality_hash_and_json_ignore_the_reciprocal(self):
        cf = compute_cf(EpsSpec.parse("a(bc)"), 64)
        plain = InvSeries(cf.terms, cf.precision)
        assert cf.reciprocal == compute_inv_cf(EpsSpec.parse("a(bc)"), 66)
        assert plain.reciprocal is None
        assert cf == plain and hash(cf) == hash(plain)
        assert cf.to_json() == plain.to_json()

    def test_other_operations_carry_no_reciprocal(self):
        cf = compute_cf(EpsSpec.parse("a(bc)"), 64)
        results = [cf + cf, cf * cf, cf.truncated(32), cf.pow2k(0),
                   cf.pow2k(1), cf.power(1), cf.power(3), cf.inverse()]
        assert all(r.reciprocal is None for r in results)


class TestEvalRelation:
    def test_self_defining_head(self):
        s = compute_inv_cf(EpsSpec.parse("(ab)"), 64)
        rel = Relation({1: Gf2Poly.one()})
        report = verify_relation(rel, s)
        assert (report.residual_depth, report.precision) == (
            s.depth_norm(), s.precision)

    def test_quartic_relation_residual_vanishes(self):
        from cf2 import compute_G

        g = compute_G(EpsSpec.parse("(ab)"), 64)
        rel = Relation(
            {
                0: Gf2Poly.parse("a*b + b^2 + 1"),
                1: Gf2Poly.parse("a^2*b + a*b^2"),
                2: Gf2Poly.parse("a*b"),
                4: Gf2Poly.one(),
            }
        )
        report = verify_relation(rel, g)
        assert report.vanished
        assert report.precision >= 58

    def test_json_roundtrip(self):
        s = compute_inv_cf(EpsSpec.parse("(ab)"), 32)
        assert InvSeries.from_json(s.to_json()) == s

    def test_str_form(self):
        s = InvSeries.parse("a + b^-1")
        assert str(s) == "a + b^-1"
