"""Continuants, the tail-series tower, and relation search/verification."""

from __future__ import annotations

import math
import random
import tracemalloc
import warnings
from bisect import bisect_left

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cf2 import (
    EpsSpec,
    Gf2Poly,
    InvSeries,
    Relation,
    ResidualReport,
    ZSeries,
    build_word,
    compute_F,
    compute_F0,
    compute_Fn,
    compute_G,
    compute_Gn,
    compute_cf,
    compute_inv_cf,
    continuant_monomial,
    continuants,
    find_relation,
    minimal_degree_report,
    verify_relation,
)
from cf2 import WordTooLargeError, cfalg, invseries
from cf2.gf2linalg import nullspace
from cf2.gf2poly import mono_deg, mono_mul, set_bits
from cf2.zseries import split_z
from conftest import eps_specs, general_continuant


# Complete ordered relation lists of searches that return several
# relations: they pin the basis and the equation order, not only rels[0].
PINNED_LISTS = [
    (compute_F0, "(ab)", (3, 2, 4), 64, [
        "deg 0: 1\n" "deg 1: z + 1\n" "deg 2: z^2 + z\n",
        "deg 1: 1\n" "deg 2: z + 1\n" "deg 3: z^2 + z\n",
        "deg 0: 1\n" "deg 2: z + 1\n" "deg 3: z^3 + z\n",
        "deg 0: z + 1\n" "deg 1: z^2 + 1\n" "deg 2: z^3 + z\n",
        "deg 0: z + 1\n" "deg 1: z\n" "deg 2: z + 1\n" "deg 3: z^4 + z\n",
        "deg 0: z^2 + z + 1\n" "deg 1: z^3 + 1\n" "deg 2: z^4 + z\n",
    ]),
    (compute_F0, "a(bc)", (2, 3, 8), 128, [
        "deg 0: z\n" "deg 1: z^2 + 1\n" "deg 2: z^3 + z\n",
        "deg 0: z^3 + z\n" "deg 1: z^4 + 1\n" "deg 2: z^5 + z\n",
        "deg 0: z^5 + z^3 + z\n" "deg 1: z^6 + 1\n" "deg 2: z^7 + z\n",
    ]),
    (compute_cf, "a(bc)", (4, 6, None), 128, [
        "deg 0: a^2\n"
        "deg 2: a^2*b*c\n"
        "deg 3: a^2*b^2*c + a^2*b*c^2\n"
        "deg 4: a*b^2*c + a*b*c^2 + c^2\n",
        "deg 0: a^2*b + a^2*c\n"
        "deg 2: a^2*b^2*c + a^2*b*c^2\n"
        "deg 3: a^2*b^3*c + a^2*b*c^3\n"
        "deg 4: a*b^3*c + a*b*c^3 + b*c^2 + c^3\n",
    ]),
]

# the degree-16 (aabb) G search (ydeg 16, coeff 16, prec 512)
AABB_G_RELATION = (
    "deg 0: a^11*b^3 + a^10*b^4 + a^3*b^11 + a^2*b^12 + a^6*b^6 + a^4*b^8"
    " + a^2*b^10 + b^12 + a^6*b^2 + a^4*b^4 + a^2*b^6 + b^8 + 1\n"
    "deg 1: a^12*b^3 + a^11*b^4 + a^4*b^11 + a^3*b^12\n"
    "deg 2: a^11*b^3 + a^10*b^4 + a^8*b^6 + a^6*b^8 + a^4*b^10 + a^3*b^11\n"
    "deg 8: a^6*b^2 + a^4*b^4 + a^2*b^6\n"
    "deg 16: 1\n"
)


def _inv_letter(ch: str) -> InvSeries:
    return InvSeries([((ch, 1),)])


@st.composite
def quotient_lists(draw, letters="abc", min_len=1, max_len=6):
    n = draw(st.integers(min_value=min_len, max_value=max_len))
    quots = []
    for _ in range(n):
        v = draw(st.sampled_from(letters))
        quots.append(Gf2Poly.variable(v) + (Gf2Poly.one() if draw(st.booleans()) else Gf2Poly.zero()))
    return quots


class TestContinuants:
    def test_base(self):
        pair = continuants(EpsSpec.parse("(ab)"), 1)
        assert pair.u == Gf2Poly.variable("a")
        assert pair.v == Gf2Poly.one()

    def test_second(self):
        pair = continuants(EpsSpec.parse("(ab)"), 2)
        assert pair.u == Gf2Poly.parse("a^2*b")
        assert pair.v == Gf2Poly.parse("a*b + 1")

    def test_third_numerator(self):
        assert continuants(EpsSpec.parse("(ab)"), 3).u == Gf2Poly.parse("a^5*b^2")

    def test_degree_is_capped_like_the_word(self):
        # u_n has degree 2^n - 1, the length of the word it spells, so
        # continuants refuse the n that `build_word` refuses, and no other
        spec = EpsSpec.parse("(ab)")
        pair = continuants(spec, 26)
        assert pair.u.degree() == (1 << 26) - 1
        assert len(pair.v.terms) == 26
        with pytest.raises(WordTooLargeError):
            continuants(spec, 27)

    @settings(max_examples=200, deadline=None)
    @given(eps_specs(), st.integers(min_value=0, max_value=12))
    def test_numerator_is_letter_stack(self, spec, n):
        # u_n = eps_{n-1} eps_{n-2}^2 ... eps_0^(2^(n-1)) as one monomial
        mono = continuant_monomial(spec, n)
        expected: tuple = ()
        for k in range(n):
            expected = mono_mul(
                tuple((v, e << 1) for v, e in expected), ((spec.letter(k), 1),)
            )
        assert mono == tuple(expected)
        if n >= 1:
            assert continuants(spec, n).u == Gf2Poly.monomial(mono)

    @settings(max_examples=100, deadline=None)
    @given(eps_specs(), st.integers(min_value=1, max_value=9))
    def test_partial_sum_identity(self, spec, n):
        # v_n / u_n equals the sum of 1/u_k for k = 1..n
        pair = continuants(spec, n)
        lhs = InvSeries.from_poly(pair.v) * InvSeries.from_poly(
            pair.u
        ).inverse()
        rhs = InvSeries(
            [continuant_monomial(spec, k) for k in range(1, n + 1)]
        )
        assert lhs.terms == rhs.terms

    @settings(max_examples=60, deadline=None)
    @given(eps_specs(), st.integers(min_value=1, max_value=6))
    def test_matches_general_continuant_on_words(self, spec, n):
        word = build_word(spec, n)
        p, q = general_continuant([Gf2Poly.variable(ch) for ch in word])
        pair = continuants(spec, n)
        assert (p, q) == (pair.u, pair.v)


class TestGeneralContinuant:
    def test_single(self):
        p, q = general_continuant([Gf2Poly.variable("a")])
        assert (p, q) == (Gf2Poly.variable("a"), Gf2Poly.one())

    def test_three_symbols(self):
        s0, s1, s2 = (Gf2Poly.variable(v) for v in "abc")
        p, q = general_continuant([s0, s1, s2])
        assert p == s0 * s1 * s2 + s0 + s2
        assert q == s1 * s2 + Gf2Poly.one()

    def test_determinant_base(self):
        a = Gf2Poly.variable("a")
        p1, q1 = general_continuant([a, Gf2Poly.variable("b")])
        p0, q0 = general_continuant([a])
        assert p1 * q0 + p0 * q1 == Gf2Poly.one()

    @settings(max_examples=300, deadline=None)
    @given(quotient_lists(min_len=2))
    def test_cross_identity(self, quots):
        # P_{n-1} Q_{n-2} + P_{n-2} Q_{n-1} = 1
        p1, q1 = general_continuant(quots)
        p0, q0 = general_continuant(quots[:-1])
        assert p1 * q0 + p0 * q1 == Gf2Poly.one()


class TestTailSeries:
    def test_reciprocal_sum_heads(self):
        s = compute_inv_cf(EpsSpec.parse("(ab)"), 64)
        assert str(s) == (
            "a^-1 + a^-2*b^-1 + a^-5*b^-2 + a^-10*b^-5 + a^-21*b^-10"
            " + a^-42*b^-21"
        )
        s3 = compute_inv_cf(EpsSpec.parse("(aabb)"), 16)
        assert str(s3) == "a^-1 + a^-3 + a^-6*b^-1 + a^-12*b^-3"

    def test_minimal_precision(self):
        assert compute_inv_cf(EpsSpec.parse("(ab)"), 2).sorted_terms() == [
            (("a", 1),)
        ]

    def test_nonpositive_precision_rejected(self):
        spec = EpsSpec.parse("(ab)")
        for build in (
            lambda p: compute_G(spec, p),
            lambda p: compute_Gn(spec, 0, p),
            lambda p: compute_inv_cf(spec, p),
        ):
            for p in (0, -3):
                with pytest.raises(ValueError):
                    build(p)

    def test_g0_heads(self):
        g0 = compute_Gn(EpsSpec.parse("(ab)"), 0, 64)
        assert str(g0) == "1 + a^-2*b^-1 + a^-10*b^-5 + a^-42*b^-21"
        g0_pre = compute_Gn(EpsSpec.parse("a(bc)"), 0, 64)
        assert str(g0_pre) == "a^-1 + a^-4*b^-2*c^-1 + a^-16*b^-10*c^-5"

    @settings(max_examples=120, deadline=None)
    @given(eps_specs())
    def test_regrouped_decomposition(self, spec):
        # G equals the sum over n of G_n^2 / e_n
        prec = 64
        g = compute_G(spec, prec)
        acc = InvSeries.zero()
        for n in range(spec.d):
            acc = acc + compute_Gn(spec, n, prec).pow2k(1) * _inv_letter(
                spec.period[n]
            )
        residual = acc + g
        assert not residual.terms

    @settings(max_examples=120, deadline=None)
    @given(eps_specs())
    def test_piece_chain(self, spec):
        # G_n = G_{n-1}^2 / e_{n-1}
        prec = 64
        for n in range(1, spec.d):
            lhs = compute_Gn(spec, n, prec)
            rhs = compute_Gn(spec, n - 1, prec).pow2k(1) * _inv_letter(
                spec.period[n - 1]
            )
            assert not (lhs + rhs.truncated(prec)).terms

    @settings(max_examples=120, deadline=None)
    @given(eps_specs())
    def test_piece_self_equation(self, spec):
        # G_0 = 1/u_l + G_0^(2^d) / (e_{d-1} e_{d-2}^2 ... e_0^(2^(d-1)))
        prec = 64
        g0 = compute_Gn(spec, 0, prec)
        denom: tuple = ()
        for i in range(spec.d):
            denom = mono_mul(denom, ((spec.period[spec.d - 1 - i], 1 << i),))
        rhs = InvSeries([continuant_monomial(spec, spec.l)]) + g0.pow2k(
            spec.d
        ) * InvSeries([denom])
        assert not (g0 + rhs.truncated(prec)).terms

    @settings(max_examples=120, deadline=None)
    @given(eps_specs())
    def test_expressed_through_first_piece(self, spec):
        # G = 1/u_l + G_0 + G_0^2/e_0 + ... + G_0^(2^(d-1))/(e_0^(2^(d-2)) ... e_{d-2})
        prec = 64
        g = compute_G(spec, prec)
        g0 = compute_Gn(spec, 0, prec)
        acc = InvSeries([continuant_monomial(spec, spec.l)], prec)
        for n in range(spec.d):
            denom: tuple = ()
            for i in range(n):
                denom = mono_mul(denom, ((spec.period[i], 1 << (n - 1 - i)),))
            acc = acc + g0.pow2k(n) * InvSeries([denom])
        assert not (acc.truncated(prec) + g).terms


TARGETS = {
    "G": compute_G,
    "invcf": compute_inv_cf,
    "cf": compute_cf,
    "F": compute_F,
    "F0": compute_F0,
}

QUARTIC_G = Relation.from_file_text(
    "deg 0: a*b + b^2 + 1\ndeg 1: a^2*b + a*b^2\ndeg 2: a*b\ndeg 4: 1\n"
)
QUADRATIC_F = Relation.from_file_text(
    "deg 0: a^2*z + a*b*z + b^2*z + a^2 + a*b\n"
    "deg 1: a*z^2 + b*z^2 + a + b\ndeg 2: z^3 + z\n"
)


def _series_residual(rel: Relation, s) -> ResidualReport:
    """Reference: the residual formed by series products and sums."""
    if isinstance(s, InvSeries):
        residual = InvSeries.zero()
        for j, c in rel.coeffs.items():
            residual = residual + InvSeries.from_poly(c) * s.power(j)
        if residual.terms:
            return ResidualReport(False, residual.depth_norm(), residual.precision)
        return ResidualReport(True, None, residual.precision)
    p = s.precision
    residual = ZSeries.zero(p)
    for j, c in rel.coeffs.items():
        coeffs = [Gf2Poly.zero()] * p
        for m in c.terms:
            e, letters = split_z(m)
            if e < p:
                coeffs[e] = coeffs[e] + Gf2Poly.monomial(letters)
        residual = residual + ZSeries(coeffs) * s.power(j, p)
    order = residual.order()
    return ResidualReport(order is None, order, residual.precision)


@st.composite
def verify_cases(draw):
    """(seed, target name, precision, relation); the relation's letters are
    the seed's, a foreign letter x and z, and one in five relations has
    only a constant term."""
    spec = draw(eps_specs(max_pre=2, max_per=3, n_letters=4))
    alphabet = sorted(set(spec.preperiod + spec.period)) + ["x", "z"]
    monomials = st.dictionaries(
        st.sampled_from(alphabet), st.integers(1, 4), max_size=3
    ).map(lambda d: tuple(sorted(d.items())))
    polys = st.lists(monomials, min_size=1, max_size=4).map(Gf2Poly).filter(bool)
    if draw(st.integers(0, 4)) == 0:
        js = [0]
    else:
        js = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
    rel = Relation({j: draw(polys) for j in js})
    return spec, draw(st.sampled_from(sorted(TARGETS))), draw(st.integers(1, 80)), rel


PD = EpsSpec.parse("(ab)")


class TestVerifyRelation:
    @settings(max_examples=300, deadline=None)
    @given(verify_cases())
    @example((PD, "G", 64, QUARTIC_G))
    @example((PD, "G", 1, QUARTIC_G))
    @example((PD, "F", 64, QUADRATIC_F))
    @example((PD, "F0", 80, QUADRATIC_F))
    def test_matches_series_arithmetic(self, case):
        spec, name, prec, rel = case
        s = TARGETS[name](spec, prec)
        # repr, not ==, so that an int precision never passes for a float
        assert repr(verify_relation(rel, s)) == repr(_series_residual(rel, s))

    def test_quartic(self):
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
        assert report.residual_depth is None

    def test_nonvanishing(self):
        g = compute_G(EpsSpec.parse("(ab)"), 64)
        rel = Relation({1: Gf2Poly.one()})
        report = verify_relation(rel, g)
        assert not report.vanished
        assert report.residual_depth == 1

    def test_z_side(self):
        F = compute_F(EpsSpec.parse("(ab)"), 64)
        rel = Relation(
            {
                0: Gf2Poly.parse("a^2*z + a*b*z + b^2*z + a^2 + a*b"),
                1: Gf2Poly.parse("a*z^2 + b*z^2 + a + b"),
                2: Gf2Poly.parse("z^3 + z"),
            }
        )
        assert verify_relation(rel, F).vanished


class TestKernelSides:
    """The z side multiplies, powers, searches and verifies on grouped codes
    alone; the inverse side on the set kernel and support rows."""

    @staticmethod
    def _z_side_work():
        F = compute_F(PD, 2 * 64 + 16)
        return [
            [r.to_file_text() for r in find_relation(F, 2, 3, 3, prec=64)],
            minimal_degree_report(F, 4, 3, 3, prec=64),
            minimal_degree_report(compute_F(EpsSpec.parse("(aabb)"), 144),
                                  4, 4, 8, prec=64),
            verify_relation(QUADRATIC_F, F),
            verify_relation(Relation({1: Gf2Poly.parse("a*z + b")}), F),
            repr(F * F.mul_zpow(1)),
            repr(F.power(3)),
            repr(F.power(5, 40)),
        ]

    def test_the_z_side_never_calls_the_set_kernel(self, monkeypatch):
        expected = self._z_side_work()

        def refuse(*args):
            raise AssertionError("the set kernel was called on the z side")

        monkeypatch.setattr(invseries._Packing, "mul", refuse)
        monkeypatch.setattr(cfalg._RowSupplier, "support", refuse)
        assert self._z_side_work() == expected
        assert expected[1][0] == 2 and expected[2][0] == 4
        assert expected[3].vanished and not expected[4].vanished

    def test_the_inverse_side_keeps_the_set_kernel(self, monkeypatch):
        calls = {"mul": 0, "support": 0, "zmul": 0}

        def counting(name, method):
            def wrapped(*args):
                calls[name] += 1
                return method(*args)
            return wrapped

        for cls, name in ((invseries._Packing, "mul"),
                          (cfalg._RowSupplier, "support"),
                          (invseries._Packing, "zmul")):
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
        g = compute_G(PD, 144)
        assert find_relation(g, 4, 3, prec=64)[0] == QUARTIC_G
        assert calls["mul"] and calls["support"]
        calls.update(mul=0, support=0)
        assert not verify_relation(Relation({3: Gf2Poly.one()}), g).vanished
        assert calls["mul"] and calls["support"]
        calls.update(mul=0)
        assert (g * g).truncated(100) == g.power(2).truncated(100)
        assert calls["mul"] and not calls["zmul"]


class TestFindRelation:
    def test_period_doubling_quartic(self):
        g = compute_G(EpsSpec.parse("(ab)"), 520)
        rels = find_relation(g, max_ydeg=4, coeff_deg_bound=3, prec=256)
        assert len(rels) == 1
        assert rels[0].inline_str() == (
            "(a*b + b^2 + 1) + (a^2*b + a*b^2)*y + (a*b)*y^2 + y^4"
        )

    def test_no_relation_below_true_degree(self):
        g = compute_G(EpsSpec.parse("(ab)"), 520)
        assert find_relation(g, max_ydeg=3, coeff_deg_bound=8, prec=256) == []

    def test_ultimately_constant_is_quadratic(self):
        g = compute_G(EpsSpec.parse("ab(c)"), 280)
        rels = find_relation(g, max_ydeg=2, coeff_deg_bound=8, prec=128)
        assert rels
        assert rels[0].inline_str() == "(1) + (a^4*b^2*c)*y + (a^4*b^2)*y^2"

    def test_single_letter(self):
        g = compute_G(EpsSpec.parse("(a)"), 280)
        rels = find_relation(g, max_ydeg=2, coeff_deg_bound=3, prec=128)
        assert rels[0].inline_str() == "(1) + (a)*y + y^2"

    def test_reciprocal_target_with_preperiod(self):
        # the reciprocal of the continued fraction (not just the tail sum)
        # also satisfies a quartic within bounds, and it re-verifies
        spec = EpsSpec.parse("a(bc)")
        inv = compute_inv_cf(spec, 520)
        rels = find_relation(inv, max_ydeg=4, coeff_deg_bound=8, prec=128)
        assert rels
        deep = compute_inv_cf(spec, 1040)
        assert verify_relation(rels[0], deep).vanished

    def test_reverify_at_higher_precision(self):
        # every returned relation really vanishes on a deeper recomputation
        spec = EpsSpec.parse("a(bc)")
        g = compute_G(spec, 520)
        rels = find_relation(g, max_ydeg=4, coeff_deg_bound=7, prec=128)
        assert rels
        deep = compute_G(spec, 1024)
        for rel in rels:
            assert verify_relation(rel, deep).vanished

    def test_relations_are_content_free(self):
        g = compute_G(EpsSpec.parse("a(bc)"), 520)
        rels = find_relation(g, 4, 7, prec=128)
        assert rels
        for rel in rels:
            assert rel.content() == ()

    def test_cartier_degree_monotone(self):
        F = compute_F(EpsSpec.parse("(ab)"), 520)
        deg_f, _ = minimal_degree_report(F, 4, 3, 3, prec=128)
        assert deg_f == 2
        for r in (0, 1):
            deg_r, _ = minimal_degree_report(
                F.cartier(r), 4, 3, 3, prec=128
            )
            assert deg_r is not None and deg_r <= deg_f

    @pytest.mark.parametrize(
        "build, text, bounds, prec, expected",
        PINNED_LISTS,
        ids=["(ab) F0", "a(bc) F0", "a(bc) CF"],
    )
    def test_complete_relation_lists(self, build, text, bounds, prec, expected):
        target = build(EpsSpec.parse(text), 2 * prec + 16)
        rels = find_relation(target, *bounds, prec=prec)
        assert [r.to_file_text() for r in rels] == expected

    def test_widening_restricts_the_first_nullspace(self, monkeypatch):
        # (abc) G has two grades, by the parity of their keys' depths.  The
        # first solve of the second leaves 27 null vectors, so its next 2093
        # equations are imposed on those vectors alone, not on all its
        # unknowns, and only the 384 unknowns they name get rows on those
        # equations
        calls, blocks = [], []

        def recording(rows, n_cols):
            tags = nullspace(rows, n_cols)
            calls.append((len(rows), len(tags)))
            return tags

        block = cfalg._GrownRows.block

        def spying(self, grade, lo, hi, named):
            rows, width = block(self, grade, lo, hi, named)
            union = 0
            for row in rows:
                union |= row
            blocks.append((grade, hi - lo, named.bit_count(), union.bit_count()))
            return rows, width

        monkeypatch.setattr(cfalg, "nullspace", recording)
        monkeypatch.setattr(cfalg._GrownRows, "block", spying)
        g = compute_G(EpsSpec.parse("(abc)"), 2 * 256 + 24)
        rels = find_relation(g, max_ydeg=8, coeff_deg_bound=10, prec=256)
        assert calls == [(1305, 9), (1269, 27), (27, 13), (22, 20)]
        # the named unknowns' rows meet 544 of the block's 2093 equations
        assert blocks == [
            (0, 2153, 1305, 2153), (1, 2093, 1269, 2093), (1, 2093, 384, 544)
        ]
        assert len(rels) == 1
        # the relation that one solve on every equation finds
        monkeypatch.undo()
        monkeypatch.setattr(cfalg, "_first_solve_size", lambda n: 1 << 30)
        assert find_relation(g, 8, 10, prec=256) == rels

    def test_the_degree_16_search_stays_small(self):
        # rows are cut from one int per power, so no support list of its
        # 2,601 unknowns is kept, and `nullspace` releases each row once
        # read: about 2.2 MiB traced, against 9.7 MiB with every unknown's
        # row held
        g = compute_G(EpsSpec.parse("(aabb)"), 2 * 512 + 24)
        tracemalloc.start()
        try:
            rels = find_relation(g, 16, 16, prec=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.to_file_text() for r in rels] == [AABB_G_RELATION]
        assert peak < 3 << 20

    def test_the_first_solve_leaves_no_spare_null_vectors(self, monkeypatch):
        # ab(aca) CF has no relation within these bounds.  A first solve on
        # unknowns + 256 equations left it 21 null vectors, just under the
        # widening threshold, and the residual pass built support sets for
        # all 21 over 151,259 keys
        tags = []
        residual = cfalg._RowSupplier.residual

        def recording(self, shifts, tag, bound):
            tags.append(tag)
            return residual(self, shifts, tag, bound)

        monkeypatch.setattr(cfalg._RowSupplier, "residual", recording)
        cf = compute_cf(EpsSpec.parse("ab(aca)"), 536)
        assert find_relation(cf, 4, 6, prec=256) == []
        assert len(tags) <= 1

    def test_a_band_splits_only_where_the_split_pays(self, monkeypatch):
        # halving a band while the halves take under 9/10 of its bits left
        # ca(cc) G 58 layouts for its 706 keys (17 on the boxes its eight
        # grades share), and `block` pays a shift, mask and OR per layout
        # for every unknown; a split must also save 512 bits
        grown = []

        class Recording(cfalg._GrownRows):
            def __init__(self, *args):
                super().__init__(*args)
                grown.append(self)

        monkeypatch.setattr(cfalg, "_GrownRows", Recording)
        g = compute_G(EpsSpec.parse("ca(cc)"), 2 * 256 + 16)
        assert find_relation(g, 8, 6, prec=256) == []
        [rows] = grown
        assert (rows.count, len(rows.layouts), len(rows.grades)) == (706, 5, 8)

    @pytest.mark.parametrize("packed", [False, True])
    def test_a_search_scans_the_target_once(self, packed, monkeypatch):
        # the bounds check and the row supplier share one scan of the
        # target's letters and exponent bound: of the terms of a target
        # built from tuples, or, on a continued fraction, of the iterates
        # of Newton's iteration known below depths 1, 3 and 7, the first
        # to show the letters a, b and c of its reciprocal; its codes are
        # never decoded.  The reciprocal it carries is scanned on its own
        def target():
            cf = compute_cf(EpsSpec.parse("a(bc)"), 2 * 128 + 16)
            return cf if packed else InvSeries._raw(cf.terms, cf.precision, cf.reciprocal)

        cf = compute_cf(EpsSpec.parse("a(bc)"), 2 * 128 + 16)
        [rel] = find_relation(cf, 4, 6, prec=128)[:1]
        if packed:
            own = [("codes", invseries._own_count(cf, d, math.inf)) for d in (1, 3, 7)]
            assert own == [("codes", 1), ("codes", 2), ("codes", 5)]
        else:
            own = [("terms", len(cf.terms))]
        scanned, decoded = [], []
        alphabet = invseries._alphabet
        code_alphabet = invseries._Packing.alphabet
        decode = invseries._Packing.decode

        def counting(terms):
            terms = list(terms)
            scanned.append(("terms", len(terms)))
            return alphabet(terms)

        def counting_codes(self, codes):
            scanned.append(("codes", len(codes)))
            return code_alphabet(self, codes)

        def decoding(self, code):
            decoded.append(code)
            return decode(self, code)

        monkeypatch.setattr(invseries, "_alphabet", counting)
        monkeypatch.setattr(invseries._Packing, "alphabet", counting_codes)
        monkeypatch.setattr(invseries._Packing, "decode", decoding)
        searches = [
            lambda t: find_relation(t, 4, 6, prec=128)[-1],
            lambda t: minimal_degree_report(t, 4, 6, prec=128)[-1],
            lambda t: verify_relation(rel, t).vanished,
        ]
        for search in searches:
            t = target()
            scanned.clear()
            decoded.clear()
            assert search(t)
            assert scanned == [*own, ("terms", len(cf.reciprocal.terms))]
            assert decoded == []
            assert (t._terms is None) == packed

    @pytest.mark.parametrize(
        "build, bounds",
        [
            (compute_G, dict(max_ydeg=4, coeff_deg_bound=-1)),
            (compute_F, dict(max_ydeg=2, coeff_deg_bound=3, z_deg_bound=-2)),
        ],
    )
    def test_rejects_negative_degree_bounds(self, build, bounds):
        target = build(EpsSpec.parse("(ab)"), 64)
        with pytest.raises(ValueError, match="nonnegative"):
            find_relation(target, prec=16, **bounds)

    def test_rejects_ydeg_below_one(self):
        g = compute_G(EpsSpec.parse("(ab)"), 64)
        with pytest.raises(ValueError, match="max_ydeg must be at least 1"):
            find_relation(g, max_ydeg=0, coeff_deg_bound=3, prec=16)

    def test_z_bound_only_on_the_z_side(self):
        g = compute_G(EpsSpec.parse("(ab)"), 64)
        with pytest.raises(ValueError, match="only applies to z-series"):
            find_relation(g, max_ydeg=2, coeff_deg_bound=2, z_deg_bound=1, prec=16)

    def test_rejects_a_target_that_is_not_a_series(self):
        with pytest.raises(TypeError, match="cannot search relations for list"):
            find_relation([1, 0, 1], max_ydeg=2, coeff_deg_bound=2, prec=16)

    def test_z_bound_defaults_to_the_coefficient_bound(self):
        # the (ab) F relation has z-degree 3: found with the default bound
        # of coefficient degree 3, and not with z-degree 2
        F = compute_F(EpsSpec.parse("(ab)"), 160)
        found = find_relation(F, max_ydeg=2, coeff_deg_bound=3, prec=64)
        assert found
        assert found == find_relation(F, 2, 3, z_deg_bound=3, prec=64)
        assert found != find_relation(F, 2, 3, z_deg_bound=2, prec=64)

    def test_underdetermined_warns(self):
        g = compute_G(EpsSpec.parse("(ab)"), 16)
        with pytest.warns(UserWarning):
            find_relation(g, max_ydeg=4, coeff_deg_bound=6, prec=8)

    @pytest.mark.parametrize(
        "build, bounds, n_unknowns",
        [
            # 3 powers times the 6 monomials of degree <= 2 in a, b
            (compute_G, (2, 2, None), 18),
            # 2 powers times the 3 monomials of degree <= 1, times 1, z, z^2
            (compute_F, (1, 1, 2), 18),
        ],
        ids=["G", "F"],
    )
    def test_unknown_cap_counts_what_the_search_enumerates(
        self, build, bounds, n_unknowns, monkeypatch
    ):
        # the closed-form count refuses exactly the searches whose first
        # solves, one per grade, would exceed the cap between them
        rows, grown = [], []

        def recording(rs, n_cols):
            rows.append(len(rs))
            return nullspace(rs, n_cols)

        class Recording(cfalg._GrownRows):
            def __init__(self, *args):
                super().__init__(*args)
                grown.append(self)

        monkeypatch.setattr(cfalg, "nullspace", recording)
        monkeypatch.setattr(cfalg, "_GrownRows", Recording)
        target = build(EpsSpec.parse("(ab)"), 64)
        monkeypatch.setattr(cfalg, "MAX_UNKNOWNS", n_unknowns)
        find_relation(target, *bounds, prec=16)
        [search] = grown
        first = rows[: len(search.grades)]
        assert first == [len(ks) for ks in search.grades]
        assert sum(first) == n_unknowns
        monkeypatch.setattr(cfalg, "MAX_UNKNOWNS", n_unknowns - 1)
        with pytest.raises(WordTooLargeError):
            find_relation(target, *bounds, prec=16)
        with pytest.raises(WordTooLargeError):
            minimal_degree_report(target, *bounds, prec=16)


# the search's row builder, which `_FullRows` takes its grades from while
# a search runs on `_FullRows` in its place
_GradedRows = cfalg._GrownRows


class _FullRows:
    """Test-only copy of the full-row search: every row cut at p_sys, each
    grade's keys sorted before the first solve, and each block's rows set
    bit by bit from the cut rows, bit i for the block's i-th key.  The
    grades are the search's own, and so is the growth: the keys known are
    those below the end of the bands (-inf, D), [D, 2D), ... up to p_sys,
    D = max(8, p_sys / 8), until as many as asked for are known."""

    def __init__(self, supplier, unknowns, max_ydeg, p_sys):
        self.grades = _GradedRows(supplier, unknowns, max_ydeg, p_sys).grades
        self.rows = [
            [supplier.support(j, unknowns.factors[i], p_sys) for j, i in ks]
            for ks in self.grades
        ]
        self.keys = [sorted(set().union(*grade)) for grade in self.rows]
        self.limit, self.p_sys, self.depth = supplier.packing.limit, p_sys, -math.inf
        self.counts, self.count = [0] * len(self.grades), 0

    def grow(self, n, grade=None):
        def known():
            return self.count if grade is None else self.counts[grade]

        while known() < n and self.depth < self.p_sys:
            self.depth = min(self.p_sys, max(8, self.p_sys / 8, 2 * self.depth))
            end = self.limit(math.ceil(self.depth))
            self.counts = [bisect_left(keys, end) for keys in self.keys]
            self.count = sum(self.counts)
        return known()

    def block(self, grade, lo, hi, named):
        index = {k: i for i, k in enumerate(self.keys[grade][lo:hi])}
        rows = [
            sum(1 << index[k] for k in row if k in index)
            for row in self.rows[grade]
        ]
        return rows, hi - lo


def _columns(rows: list[int]) -> list[int]:
    """The non-empty columns of some rows in column order, each as the int
    with bit i set when rows[i] has a 1 there."""
    columns: dict[int, int] = {}
    for i, row in enumerate(rows):
        for c in set_bits(row):
            columns[c] = columns.get(c, 0) | 1 << i
    return [columns[c] for c in sorted(columns)]


def _recorded_search(search, target, bounds, prec, solves=None, **patches):
    """Relations, warnings and `nullspace` calls of one search with the
    `cfalg` names in `patches` replaced.  A call is recorded by its rows'
    count, its non-empty columns in order (one per equation) and its tags:
    the column labels may differ, the equations may not.  The calls go to
    `solves` when it is given."""
    solves = [] if solves is None else solves

    def recording(rows, n_cols):
        solve = (len(rows), _columns(rows))  # before they are released
        tags = nullspace(rows, n_cols)
        solves.append((*solve, tags))
        return tags

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(
        record=True
    ) as caught:
        warnings.simplefilter("always")
        mp.setattr(cfalg, "nullspace", recording)
        for name, value in patches.items():
            mp.setattr(cfalg, name, value)
        found = search(target, *bounds, prec=prec)
    if search is minimal_degree_report:
        found = [found[0], found[1] and found[1].to_file_text()]
    else:
        found = [r.to_file_text() for r in found]
    caught = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    return found, caught, solves


def _search_rows(target, max_ydeg, coeff_deg_bound, z_deg_bound):
    """A supplier of the target's own powers, as `find_relation` builds for
    a target with no reciprocal, and the search's unknowns on it."""
    bounds = cfalg._search_bounds(target, max_ydeg, coeff_deg_bound, z_deg_bound)
    supplier = cfalg._RowSupplier(target, max_ydeg, bounds[0], coeff_deg_bound)
    return supplier, cfalg._Unknowns(supplier, bounds, coeff_deg_bound, max_ydeg)


def _precision(prec: int, deep) -> int:
    """A target precision: deep enough for the search (True), shallow
    enough to lower p_sys to the target's verification bound (False), or
    the one given."""
    if isinstance(deep, bool):
        return 2 * prec + 16 if deep else prec // 2 + 4
    return deep


_small_searches = st.tuples(
    eps_specs(max_pre=2, max_per=3, n_letters=3),
    st.sampled_from([compute_G, compute_cf, compute_F]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([4, 8, 32, 64, 128]),
    st.booleans(),
)


class TestDepthGrownRows:
    """Rows grown by depth make the search the full-row search exactly."""

    @settings(max_examples=80, deadline=None)
    @given(_small_searches, st.booleans())
    @example(
        (EpsSpec.parse("(ab)"), compute_G, 4, 6, 0, 8, False), False
    )  # under-determined, grown to p_sys
    @example((EpsSpec.parse("a(bc)"), compute_cf, 4, 6, 0, 128, True), False)
    @example(
        (EpsSpec.parse("cb(bab)"), compute_F, 1, 4, 1, 4, 3), True
    )  # p_sys = -1: 0 equations for 60 unknowns
    def test_matches_the_full_row_search(self, case, sweep):
        spec, build, ydeg, coeff, z_bound, prec, deep = case
        target = build(spec, _precision(prec, deep))
        bounds = (ydeg, coeff, z_bound if build is compute_F else None)
        search = minimal_degree_report if sweep else find_relation
        grown = _recorded_search(search, target, bounds, prec)
        full = _recorded_search(search, target, bounds, prec, _GrownRows=_FullRows)
        assert grown == full
        assert all(filename == __file__ for _, _, filename, _ in grown[1])

    @settings(max_examples=100, deadline=None)
    @given(_small_searches, st.integers(min_value=0, max_value=1 << 16))
    @example((EpsSpec.parse("a(bc)"), compute_F, 3, 3, 4, 64, True), 0)
    @example((EpsSpec.parse("a(bcd)"), compute_G, 3, 4, 0, 128, True), 1)
    def test_grown_keys_are_the_shallowest_of_the_system(self, case, seed):
        spec, build, ydeg, coeff, z_bound, prec, deep = case
        rng = random.Random(seed)
        target = build(spec, _precision(prec, deep))
        z_bound = z_bound if build is compute_F else None
        supplier, unknowns = _search_rows(target, ydeg, coeff, z_bound)
        p_sys = min(prec, target.precision - coeff)
        full = _FullRows(supplier, unknowns, ydeg, p_sys)
        grown = cfalg._GrownRows(supplier, unknowns, ydeg, p_sys)
        pk = supplier.packing
        while grown.depth < p_sys:
            count = grown.count
            n = grown.grow(count + 1)
            assert n == grown.count == sum(grown.counts)
            for grade, ks in enumerate(grown.grades):
                # every key of the grade shallower than the depth reached,
                # and no other
                n = grown.counts[grade]
                assert n == bisect_left(full.keys[grade], pk.limit(grown.depth))
                # the rows on the whole, an inner block and the tail: the
                # same equations in the same order, on as many bits as the
                # first key to the last span
                everyone = (1 << len(ks)) - 1
                lo = rng.randint(0, n)
                hi = rng.randint(lo, n)
                for a, b in ((0, n), (lo, hi), (lo, n)):
                    rows, width = grown.block(grade, a, b, everyone)
                    reference = full.block(grade, a, b, everyone)[0]
                    assert _columns(rows) == _columns(reference)
                    union = 0
                    for row in rows:
                        union |= row
                    assert union.bit_length() == width
                    assert union & 1 == (a < b)
                # unknowns not named get 0 rows, the named ones theirs
                named = rng.getrandbits(len(ks))
                rows = grown.block(grade, lo, hi, named)[0]
                whole = grown.block(grade, lo, hi, everyone)[0]
                assert rows == [r if named >> i & 1 else 0 for i, r in enumerate(whole)]
                # growth for one grade stops only once it knows the keys
                # asked for, or at p_sys
                fresh = cfalg._GrownRows(supplier, unknowns, ydeg, p_sys)
                least = min(n + 1, len(full.keys[grade]))
                assert fresh.grow(n + 1, grade) >= least
            # and so does growth for all of them
            fresh = cfalg._GrownRows(supplier, unknowns, ydeg, p_sys)
            assert fresh.grow(count + 1) >= min(count + 1, sum(map(len, full.keys)))
        assert grown.counts == [len(keys) for keys in full.keys]


    @settings(max_examples=100, deadline=None)
    @given(_small_searches)
    @example((EpsSpec.parse("(ab)"), compute_G, 4, 6, 0, 8, False))
    @example((EpsSpec.parse("(a)"), compute_cf, 4, 4, 0, 128, 27))
    @example((EpsSpec.parse("ab(b)"), compute_cf, 3, 1, 0, 8, 8))
    def test_the_equation_count_is_the_full_systems(self, case):
        # the under-determined warning counts the keys below p_sys, those
        # of the direct system on a continued fraction, with no layout: all
        # of them when fewer than the unknowns, else at least as many
        spec, build, ydeg, coeff, z_bound, prec, deep = case
        target = build(spec, _precision(prec, deep))
        z_bound = z_bound if build is compute_F else None
        supplier, unknowns = cfalg._set_up(target, ydeg, coeff, z_bound)
        p_sys = min(prec, supplier.precision_and_shift(ydeg)[0] - coeff)
        n = len(unknowns.shifts)
        count = supplier.equations(unknowns, ydeg, p_sys, n)
        direct = _FullRows(*_search_rows(target, ydeg, coeff, z_bound), ydeg, p_sys)
        keys = sum(map(len, direct.keys))
        assert count == keys if keys < n else count >= n


class TestSupplierWidth:
    """Codes order by depth and fields whatever the field width, so a
    supplier packed wider, as the sweep's is for its lower y-degrees,
    makes the same solves and finds the same relations."""

    @settings(max_examples=60, deadline=None)
    @given(_small_searches)
    @example((EpsSpec.parse("a(bc)"), compute_cf, 4, 6, 0, 128, True))
    def test_a_wider_supplier_searches_alike(self, case):
        spec, build, ydeg, coeff, z_bound, prec, deep = case
        target = build(spec, 2 * prec + 16 if deep else prec // 2 + 4)
        bounds = cfalg._search_bounds(
            target, ydeg, coeff, z_bound if build is compute_F else None
        )
        narrow = cfalg._RowSupplier(target, ydeg, bounds[0], coeff)
        wide = cfalg._RowSupplier(
            target, 4 * ydeg, bounds[0], coeff + (1 << narrow.packing.width)
        )
        assert wide.packing.width > narrow.packing.width

        def search(supplier, cap, prec):
            # every final null vector, as the relation it spells, on
            # unknowns built up to the supplier's y-degree as a sweep's are
            unknowns = cfalg._Unknowns(supplier, bounds, coeff, cap)
            tags = cfalg._find_relation(supplier, unknowns, ydeg, coeff, prec)
            return [cfalg._materialize(tag, unknowns) for tag in tags]

        found = [
            _recorded_search(
                lambda *_, prec: search(supplier, cap, prec), target, (), prec
            )
            for supplier, cap in ((narrow, ydeg), (wide, 4 * ydeg))
        ]
        assert found[0] == found[1]


class TestFirstSolveSize:
    """The size of the first solve changes only the staging: every key
    below the verification bound is imposed whatever the size, and each
    stage keeps the reduced echelon basis, so a search ends on the same
    tags from the former unknowns + 256 equations, or from unknowns + 1,
    which leaves most searches null vectors to widen on."""

    @settings(max_examples=60, deadline=None)
    @given(_small_searches, st.booleans())
    @example(
        (EpsSpec.parse("a(bc)"), compute_cf, 4, 6, 0, 256, True), False
    )  # widened once at the former size, solved once now
    @example(
        (EpsSpec.parse("(ab)"), compute_G, 4, 6, 0, 8, False), False
    )  # under-determined
    @example(
        (EpsSpec.parse("cb(bab)"), compute_F, 1, 4, 1, 4, 3), True
    )  # p_sys = -1: 0 equations for 60 unknowns
    def test_the_first_solve_size_changes_no_result(self, case, sweep):
        spec, build, ydeg, coeff, z_bound, prec, deep = case
        target = build(spec, _precision(prec, deep))
        bounds = (ydeg, coeff, z_bound if build is compute_F else None)
        search = minimal_degree_report if sweep else find_relation
        least_degree_span = cfalg._least_degree_span
        sizes = (lambda n: n + 1, lambda n: n + 256, cfalg._first_solve_size)
        runs = []
        for size in sizes:
            final = []

            def recording(tags, unknowns):
                final.append(tags)
                return least_degree_span(tags, unknowns)

            found, caught, _ = _recorded_search(
                search, target, bounds, prec,
                _first_solve_size=size, _least_degree_span=recording,
            )
            # both entry points rank the final tags of every search that
            # finds a relation, and only those
            assert bool(final) == (found[0] is not None if sweep else bool(found))
            runs.append((found, caught, final))
        assert runs[0] == runs[1] == runs[2]


def _graded_target(kind: str, spec: EpsSpec, piece: int, precision: int):
    """A target of one of the kinds the grading tells apart: G, G_n, the
    continued fraction and its reciprocal (odd depths, g = 2 for l = 0),
    F, F_0 and F_n (one letter degree, g = 0), and two of mixed classes,
    G + 1 and F + F_0."""
    n = piece % spec.d
    return {
        "G": lambda: compute_G(spec, precision),
        "Gn": lambda: compute_Gn(spec, n, precision),
        "cf": lambda: compute_cf(spec, precision),
        "inv": lambda: compute_inv_cf(spec, precision),
        "F": lambda: compute_F(spec, precision),
        "F0": lambda: compute_F0(spec, precision),
        "Fn": lambda: compute_Fn(spec, n, precision),
        "G+1": lambda: compute_G(spec, precision) + InvSeries.one(),
        "F+F0": lambda: compute_F(spec, precision) + compute_F0(spec, precision),
    }[kind]()


# the benchmark's six searches: (target, bounds, prec)
_BENCH_SEARCHES = [
    (lambda: compute_G(EpsSpec.parse("(ab)"), 528), (4, 3, None), 256),
    (lambda: compute_cf(EpsSpec.parse("a(bc)"), 528), (4, 6, None), 256),
    (lambda: compute_G(EpsSpec.parse("(aabb)"), 1048), (16, 16, None), 512),
    (lambda: compute_F(EpsSpec.parse("(ab)"), 528), (2, 3, 3), 256),
    (lambda: compute_F(EpsSpec.parse("a(bc)"), 528), (2, 3, 8), 256),
    (lambda: compute_F(EpsSpec.parse("(aabb)"), 528), (4, 4, 8), 256),
]


class TestGrades:
    """A search solves each grade of its system on its own: the unknowns
    whose keys' degrees (depth on the inverse side, letter degree on the z
    side) fall in one class mod g, g the gcd of the differences of the
    target's term degrees.  No key is in two grades, so the tags are those
    of one solve over every unknown, the single grade of g = 1."""

    @pytest.mark.parametrize("kind, text, g, grades", [
        ("G", "(ab)", 2, 2),       # depths 1, 3, 7, ...
        ("G", "a(bc)", 4, 4),      # depths 3, 7, 15, ...
        ("inv", "a(bc)", 2, 2),
        ("cf", "a(bc)", 2, 2),     # searched on its reciprocal
        ("Gn", "(a)", 1, 1),       # depths 0, 1, 3, ...: one grade
        ("Gn", "(ab)", 3, 3),      # depths 0, 3, 15, ...
        ("G+1", "(ab)", 1, 1),
        ("F", "(ab)", 0, 6),       # letter degree 1: grades 0 .. 5
        ("F0", "(ab)", 0, 1),      # letter-free, and so are the coefficients
        ("Fn", "a(bc)", 0, 1),
        ("F+F0", "(ab)", 1, 1),
    ])
    def test_the_grade_modulus(self, kind, text, g, grades):
        target = _graded_target(kind, EpsSpec.parse(text), 0, 64)
        bounds = (2, 3, 2 if isinstance(target, ZSeries) else None)
        # the supplier and unknowns of the search: a continued fraction's
        # rows come from its reciprocal
        supplier, unknowns = cfalg._set_up(target, *bounds)
        assert cfalg._grade_modulus(supplier) == unknowns.modulus == g
        grown = cfalg._GrownRows(supplier, unknowns, 2, 32)
        assert len(grown.grades) == grades
        # every unknown is in exactly one grade
        bits = sorted(unknowns.bit(j, i) for ks in grown.grades for j, i in ks)
        assert bits == [1 << k for k in range(len(unknowns.shifts))]

    @settings(max_examples=150, deadline=None)
    @given(
        eps_specs(max_pre=2, max_per=3, n_letters=3),
        st.sampled_from(["G", "Gn", "cf", "inv", "F", "F0", "Fn", "G+1", "F+F0"]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=4),
        st.sampled_from([4, 8, 32, 64]),
        st.one_of(st.booleans(), st.integers(min_value=3, max_value=40)),
        st.booleans(),
    )
    # a grade of c * y^j needs the class of y^j: without it the (ab) G
    # relation's unknowns fall in two grades, and no grade holds it
    @example(EpsSpec.parse("(ab)"), "G", 0, 4, 3, 0, 64, True, False)
    # one grade where g = 1: parity would split keys that share a depth class
    @example(EpsSpec.parse("(ab)"), "G+1", 0, 4, 3, 0, 64, True, False)
    @example(EpsSpec.parse("(a)"), "Gn", 0, 2, 2, 0, 32, True, True)
    # the z side: one grade per letter degree, and mixed degrees
    @example(EpsSpec.parse("(aabb)"), "F", 0, 4, 4, 8, 64, True, True)
    @example(EpsSpec.parse("(ab)"), "F+F0", 0, 2, 2, 3, 32, True, False)
    # shallow, with both warnings
    @example(EpsSpec.parse("(a)"), "cf", 0, 4, 4, 0, 128, 27, False)
    def test_matches_the_single_grade_search(
        self, spec, kind, piece, ydeg, coeff, z_bound, prec, deep, sweep
    ):
        target = _graded_target(kind, spec, piece, _precision(prec, deep))
        z_side = isinstance(target, ZSeries)
        bounds = (ydeg, coeff, z_bound if z_side else None)
        search = minimal_degree_report if sweep else find_relation
        solve = cfalg._find_relation
        runs = []
        for modulus in (cfalg._grade_modulus, lambda supplier: 1):
            final = []

            def recording(*args):
                final.append(solve(*args))
                return final[-1]

            found, caught, _ = _recorded_search(
                search, target, bounds, prec,
                _grade_modulus=modulus, _find_relation=recording,
            )
            runs.append((found, caught, final))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("search", _BENCH_SEARCHES)
    def test_grades_share_no_key_and_narrow_the_layouts(self, search, monkeypatch):
        build, bounds, prec = search
        target = build()

        def first_solve_rows():
            # the grading is the unknowns' own, so they are built anew
            supplier, unknowns = cfalg._set_up(target, *bounds)
            grown = cfalg._GrownRows(supplier, unknowns, bounds[0], prec)
            grown.grow(cfalg._first_solve_size(len(unknowns.shifts)))
            return supplier, unknowns, grown

        supplier, unknowns, grown = first_solve_rows()
        assert len(grown.grades) > 1
        # the keys of each grade's rows below the depth grown to
        keys = [set() for _ in grown.grades]
        for grade, ks in zip(keys, grown.grades):
            for j, i in ks:
                grade.update(supplier.support(j, unknowns.factors[i], grown.depth))
        assert sum(map(len, keys)) == len(set().union(*keys)) == grown.count
        # each grade's layouts span fewer bits than the single grade's
        widths = [sum(x.widths[g] for x in grown.layouts) for g in range(len(keys))]
        monkeypatch.setattr(cfalg, "_grade_modulus", lambda supplier: 1)
        single = first_solve_rows()[2]
        assert len(single.grades) == 1
        assert max(widths) < sum(x.widths[0] for x in single.layouts)


class TestPackedTarget:
    """A continued fraction runs Newton's iteration only as deep as it is
    read, and decodes its terms only when they are read: in every result
    it is the series of those terms, built from tuples, whether it is
    searched first or its terms are read first.  Its letters are read off
    the iteration, and its packing bound is the iteration's, wider than the
    largest exponent its terms show."""

    @settings(max_examples=200, deadline=None)
    @given(verify_cases(), st.integers(1, 128), st.integers(1, 4),
           st.integers(0, 4), st.sampled_from([4, 8, 16, 32, 64]), st.booleans())
    @example(
        (EpsSpec.parse("a(bc)"), "cf", 1, Relation({1: Gf2Poly.one()})),
        2 * 64 + 16, 4, 6, 64, False,
    )
    # both warnings, the equation count read off the direct system
    @example(
        (EpsSpec.parse("(a)"), "cf", 1, Relation({1: Gf2Poly.one()})),
        27, 4, 4, 128, True,
    )
    def test_is_the_series_of_its_terms(
        self, case, precision, ydeg, coeff, prec, sweep
    ):
        spec, _, _, rel = case
        search = minimal_degree_report if sweep else find_relation
        cf, read = compute_cf(spec, precision), compute_cf(spec, precision)
        plain = InvSeries._raw(read.terms, read.precision, read.reciprocal)
        found = [
            _recorded_search(search, s, (ydeg, coeff, None), prec)
            for s in (cf, read, plain)
        ]
        assert found[0] == found[1] == found[2]
        assert cf == plain and hash(cf) == hash(plain)
        assert str(cf) == str(plain) and cf.to_json() == plain.to_json()
        rels = [rel] + [
            Relation.from_file_text(text)
            for text in (found[0][0] if not sweep else found[0][0][1:])
            if text
        ]
        assert [verify_relation(r, compute_cf(spec, precision)) for r in rels] == [
            verify_relation(r, plain) for r in rels
        ]


    @pytest.mark.parametrize("text, letters", [
        ("1 + a^-5*b^-5", ""),
        ("1 + a^-1 + b^-6", "a"),
    ])
    def test_an_inverse_searches_the_letters_it_shows(self, text, letters):
        # below depth 5 the inverse shows no letter of its operand that
        # first occurs at depth 6 or deeper, so its iteration runs to the
        # end and its search takes coefficients in the letters it shows
        def inverse():
            return InvSeries.parse(text, 20).inverse(5)

        assert cfalg._search_bounds(inverse(), 1, 1, None)[0] == list(letters)
        plain = InvSeries(inverse().terms, 5)
        assert _recorded_search(find_relation, inverse(), (1, 1, None), 2) == (
            _recorded_search(find_relation, plain, (1, 1, None), 2))


class TestReciprocalRoute:
    """A continued fraction is searched on its reciprocal r: in a search of
    y-degree Y, c * y^j gets the row of c * r^(Y - j), and the residual
    pass cuts Y * depth(r) deeper.  The search ends on the tags, relations
    and warnings of the direct search on the powers of y, and every row is
    known as deep as it is cut."""

    @settings(max_examples=200, deadline=None)
    @given(eps_specs(max_pre=2, max_per=3, n_letters=3), st.integers(1, 4),
           st.integers(0, 4), st.sampled_from([4, 8, 32, 64, 128]),
           st.one_of(st.booleans(), st.integers(0, 40)), st.booleans())
    @example(EpsSpec.parse("a(bc)"), 4, 6, 128, True, False)
    # shallow: the verify bound warns, at odd and even Y
    @example(EpsSpec.parse("c(aa)"), 3, 4, 128, 68, False)
    @example(EpsSpec.parse("c(aa)"), 4, 4, 128, 68, True)
    # both warnings: 24 equations for 25 unknowns
    @example(EpsSpec.parse("(a)"), 4, 4, 128, 27, False)
    # under-determined only
    @example(EpsSpec.parse("a(aa)"), 3, 4, 4, 24, True)
    # a null vector that vanishes below the verify bound on the reciprocal
    # side and not Y levels deeper: no relation within these bounds
    @example(EpsSpec.parse("(bab)"), 4, 3, 8, 17, False)
    @example(EpsSpec.parse("cc(cb)"), 3, 4, 8, 18, True)
    def test_matches_the_direct_search(self, spec, ydeg, coeff, prec, deep, sweep):
        target = compute_cf(spec, _precision(prec, deep))
        search = minimal_degree_report if sweep else find_relation
        residual = cfalg._ReciprocalRows.residual
        depth_margins = []

        def cutting(supplier, shifts, tag, bound):
            # each row c * r^(Y - j), deg c <= coeff, is known below the cut
            known = min(supplier.power(j)[1] for j in range(supplier.ydeg + 1))
            depth_margins.append(known - coeff - bound)
            return residual(supplier, shifts, tag, bound)

        runs = []
        for row_kind in (cfalg._row_kind, lambda target: cfalg._RowSupplier):
            final = []
            least_degree_span = cfalg._least_degree_span

            def recording(tags, unknowns):
                final.append(tags)
                return least_degree_span(tags, unknowns)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cfalg._ReciprocalRows, "residual", cutting)
                found, caught, _ = _recorded_search(
                    search, target, (ydeg, coeff, None), prec,
                    _row_kind=row_kind, _least_degree_span=recording,
                )
            assert bool(final) == (found[0] is not None if sweep else bool(found))
            runs.append((found, caught, final))
        assert runs[0] == runs[1]
        assert min(depth_margins, default=0) >= 0


# the largest cap a sweep's unknowns are built at in `_tagged_unknowns`
_CAP = 3


@st.composite
def _tagged_unknowns(draw):
    """Independent tags over the unknowns of a search of some y-degree, and
    a builder of the unknowns up to any y-degree <= _CAP: on the grids of
    (ab) G and F, which have monomials of mixed degrees, several of most."""
    build = draw(st.sampled_from([compute_G, compute_F]))
    coeff, ydeg = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    z_bound = draw(st.integers(0, 1)) if build is compute_F else None
    target = build(EpsSpec.parse("(ab)"), 16)
    bounds = cfalg._search_bounds(target, _CAP, coeff, z_bound)
    supplier = cfalg._RowSupplier(target, _CAP, bounds[0], coeff)

    def unknowns(max_ydeg):
        return cfalg._Unknowns(supplier, bounds, coeff, max_ydeg)

    n = (ydeg + 1) * len(unknowns(ydeg).monomials)
    words = st.integers(min_value=1, max_value=(1 << n) - 1)
    tags, leads = [], {}
    for tag in draw(st.lists(words, min_size=1, max_size=6)):
        v = tag
        while v and v.bit_length() in leads:
            v ^= leads[v.bit_length()]
        if v:
            leads[v.bit_length()] = v
            tags.append(tag)
    return tags, ydeg, unknowns


def _span(tags: list[int]) -> set[int]:
    """The nonzero combinations of some tags."""
    return {cfalg._combine(tags, g) for g in range(1, 1 << len(tags))}


class TestCanonicalPick:
    """The first relation is the least of the least-degree part V_min."""

    @settings(max_examples=200, deadline=None)
    @given(_tagged_unknowns())
    def test_least_degree_span_against_brute_force(self, case):
        tags, ydeg, unknowns_at = case
        unknowns = unknowns_at(ydeg)
        basis = cfalg._least_degree_span(tags, unknowns)

        def degree(v):
            return max(mono_deg(unknowns[i][1]) for i in set_bits(v))

        space = _span(tags)
        least = min(map(degree, space))
        assert len(_span(basis)) == (1 << len(basis)) - 1  # independent
        assert _span(basis) == {v for v in space if degree(v) == least}

    @settings(max_examples=100, deadline=None)
    @given(_tagged_unknowns())
    def test_a_sweep_ranks_on_the_unknowns_at_its_cap(self, case):
        # a sweep builds its unknowns once, at its cap: every lower
        # y-degree's unknowns keep their numbers, j-major, and their order,
        # so the least-degree part of a search's tags is the same on them
        tags, ydeg, unknowns_at = case
        least = cfalg._least_degree_span(tags, unknowns_at(ydeg))
        for cap in range(ydeg, _CAP + 1):
            unknowns = unknowns_at(cap)
            n = len(unknowns.factors)
            pairs = [(j, i) for j in range(cap + 1) for i in range(n)]
            assert [unknowns[k] for k in range(len(pairs))] == [
                (j, unknowns.monomials[i]) for j, i in pairs]
            assert [unknowns.bit(j, i) for j, i in pairs] == [
                1 << k for k in range(len(pairs))]
            assert unknowns.shifts == [(j, unknowns.factors[i]) for j, i in pairs]
            assert cfalg._least_degree_span(tags, unknowns) == least

    @settings(max_examples=60, deadline=None)
    @given(_small_searches, st.booleans())
    # null spaces of dimension 2 to 8 whose V_min has dimension 2 to 4
    @example((EpsSpec.parse("a(aa)"), compute_F, 2, 4, 1, 32, True), False)
    @example((EpsSpec.parse("(bbb)"), compute_F, 4, 1, 1, 32, True), True)
    @example((EpsSpec.parse("c(b)"), compute_G, 3, 3, 0, 16, True), False)
    @example((EpsSpec.parse("(a)"), compute_cf, 3, 3, 0, 32, False), False)
    # picks that are no basis relation, only a combination of them
    @example((EpsSpec.parse("(aab)"), compute_G, 3, 2, 0, 4, False), False)
    @example((EpsSpec.parse("(ba)"), compute_G, 4, 4, 0, 16, False), False)
    # a target too shallow for the search, with contents it cannot strip
    @example((EpsSpec.parse("(a)"), compute_F, 1, 1, 4, 4, False), False)
    def test_matches_the_sweep_over_the_whole_space(self, case, sweep):
        # the reference ranks every combination of the null space, by
        # handing the whole basis to the same pick
        spec, build, ydeg, coeff, z_bound, prec, deep = case
        target = build(spec, 2 * prec + 16 if deep else prec // 2 + 4)
        bounds = (ydeg, coeff, z_bound if build is compute_F else None)
        search = minimal_degree_report if sweep else find_relation
        dims = []

        def recording(tags, unknowns):
            dims.append(len(tags))
            return least_degree_span(tags, unknowns)

        least_degree_span = cfalg._least_degree_span
        picked = _recorded_search(
            search, target, bounds, prec, _least_degree_span=recording
        )
        assume(max(dims, default=0) <= 12)
        swept = _recorded_search(
            search, target, bounds, prec,
            _least_degree_span=lambda tags, unknowns: tags,
        )
        # the least relation has the least degree, shallow target or not
        assert picked == swept
        assert all(filename == __file__ for _, _, filename, _ in picked[1])

    def test_one_letter_seed_skips_the_full_sweep(self, monkeypatch):
        # a null space of dimension 16 whose least-degree part has
        # dimension 2: 16 basis relations and 3 combinations, not 2^16 - 1
        calls = []
        materialize = cfalg._materialize

        def counting(tag, unknowns):
            calls.append(tag)
            return materialize(tag, unknowns)

        monkeypatch.setattr(cfalg, "_materialize", counting)
        F = compute_F(EpsSpec.parse("(c)"), 144)
        rels = find_relation(F, 2, 4, 2, prec=64)
        assert len(rels) == 5
        assert rels[0].to_file_text() == "deg 0: c\n" "deg 1: z + 1\n"
        assert len(calls) <= 20

    def test_shallow_target_ranks_a_relation_it_satisfies(self):
        # known below z^6 only, (a) F has null vectors such as z^5 * y^0,
        # whose stripped forms (here 1) are no relations; they are not
        # in V_min, so the pick is the true relation a + (z + 1) y
        F = compute_F(EpsSpec.parse("(a)"), 6)
        with pytest.warns(UserWarning):  # too shallow for the search
            rels = find_relation(F, 1, 1, 4, prec=4)
        assert rels[0].to_file_text() == "deg 0: a\n" "deg 1: z + 1\n"
        assert verify_relation(rels[0], F).vanished
        assert verify_relation(rels[0], compute_F(EpsSpec.parse("(a)"), 400)).vanished
        # below z^5, the search's verification bound, a*z^4 + z^4 * y holds
        # and a + y does not: the rest keep the contents they cannot strip
        assert [r.inline_str() for r in rels[1:]] == [
            "(a*z^4) + (z^4)*y",
            "(a*z^4 + a*z^3) + (z^3)*y",
            "(a*z^4 + a*z^3 + a*z^2) + (z^2)*y",
            "(a*z^4 + a*z^3 + a*z^2 + a*z) + (z)*y",
            "(a*z^4 + a*z^3 + a*z^2 + a*z + a) + y",
        ]
        assert all(verify_relation(r, F.truncated(5)).vanished for r in rels)

    @settings(max_examples=100, deadline=None)
    @given(eps_specs(max_pre=2, max_per=3, n_letters=3),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=4),
           st.integers(min_value=1, max_value=12),
           st.sampled_from([4, 8, 16]))
    @example(EpsSpec.parse("(a)"), 1, 1, 4, 5, 4)
    def test_shallow_z_searches_return_only_relations(
        self, spec, ydeg, coeff, z_bound, extra, prec
    ):
        # every relation vanishes below the verification bound the search
        # names: the least power precision less the coefficient bound
        F = compute_F(spec, coeff + extra)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rels = find_relation(F, ydeg, coeff, z_bound, prec=prec)
        for rel in rels:
            assert verify_relation(rel, F.truncated(extra)).vanished

    def test_cap_warns_past_the_least_degree_dimension(self, monkeypatch):
        monkeypatch.setattr(cfalg, "_ENUMERATION_CAP", 1)
        F = compute_F(EpsSpec.parse("(c)"), 144)
        with pytest.warns(UserWarning, match="enumeration cap") as caught:
            rels = find_relation(F, 2, 4, 2, prec=64)
        assert [w.filename for w in caught] == [__file__]
        assert rels[0].to_file_text() == "deg 0: c\n" "deg 1: z + 1\n"


class TestMinimalDegree:
    @pytest.mark.parametrize(
        "text", ["(a)", "(ab)", "a(b)", "a(ba)", "b(a)", "(ba)", "ab(c)"]
    )
    def test_degree_never_exceeds_two_to_the_period(self, text):
        spec = EpsSpec.parse(text)
        cap = 1 << spec.d
        g = compute_G(spec, 2 * 128 + 10 + 8)
        deg, rel = minimal_degree_report(g, cap, 10, prec=128)
        assert deg is not None and deg <= cap
        assert verify_relation(rel, compute_G(spec, 600)).vanished

    def test_period_doubling(self):
        g = compute_G(EpsSpec.parse("(ab)"), 520)
        deg, rel = minimal_degree_report(g, 4, 6, prec=256)
        assert deg == 4

    def test_three_letter_cf(self):
        cf = compute_cf(EpsSpec.parse("a(bc)"), 520)
        deg, rel = minimal_degree_report(cf, 4, 6, prec=256)
        assert deg == 4

    def test_three_letter_f(self):
        F = compute_F(EpsSpec.parse("a(bc)"), 520)
        deg, rel = minimal_degree_report(F, 2, 3, 8, prec=256)
        assert deg == 2

    def test_rejects_degree_cap_below_one(self):
        g = compute_G(EpsSpec.parse("(ab)"), 64)
        with pytest.raises(ValueError, match="ydeg_cap"):
            minimal_degree_report(g, 0, 3, prec=16)

    def test_none_within_bounds(self):
        g = compute_G(EpsSpec.parse("(ab)"), 280)
        deg, rel = minimal_degree_report(g, 2, 3, prec=128)
        assert deg is None and rel is None

    @settings(max_examples=60, deadline=None)
    @given(
        eps_specs(max_pre=2, max_per=3, n_letters=3),
        st.sampled_from([compute_F, compute_F0, compute_G, compute_cf, compute_inv_cf]),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.sampled_from([4, 8, 32, 64]),
        st.one_of(st.booleans(), st.integers(min_value=3, max_value=40)),
    )
    # both warnings: 24 equations for 25 unknowns
    @example(EpsSpec.parse("(a)"), compute_cf, 4, 4, 0, 128, 27)
    # under-determined at every degree, 1 to 4
    @example(EpsSpec.parse("(ab)"), compute_G, 4, 6, 0, 8, False)
    @example(EpsSpec.parse("(ab)"), compute_F, 2, 3, 3, 256, True)
    @example(EpsSpec.parse("(ab)"), compute_G, 2, 3, 0, 128, True)  # none
    # found at degree 1, read off the solve at 2, which alone would warn
    # "under-determined system: 22 equations for 24 unknowns"
    @example(EpsSpec.parse("(aa)"), compute_F, 2, 3, 1, 4, 24)
    # degrees 5 and 6 of a continued fraction read off the solves at 8,
    # with deeper verify bounds of their own: the residual pass leaves
    # degree 5 no relation and finds degree 6's
    @example(EpsSpec.parse("cc(ca)"), compute_cf, 8, 3, 0, 8, 33)
    def test_is_the_first_search_that_finds(
        self, spec, build, cap, coeff, z_bound, prec, deep
    ):
        # the sweep returns the degree d of the first search that finds a
        # relation and that search's first relation, after the warnings of
        # the searches at degrees 1 to d, in order.  It makes the first
        # solves of the searches at y-degrees D = 2, 4, 8, ..., capped, up
        # to the D covering d, and reads each degree of (D/2, D] off those
        # of D, each through its own residual pass (at most one solve): a
        # read-off ends on the tags of that degree's own search, and the
        # read-off of D itself on the solves of D's own search
        target = build(spec, _precision(prec, deep))
        z_bound = z_bound if build in (compute_F, compute_F0) else None
        bounds = (cap, coeff, z_bound)
        swept = _recorded_search(minimal_degree_report, target, bounds, prec)
        # each read-off's degree, tags and solves, from a second sweep (the
        # wrapper moves its warnings' frame)
        read, solves = [], []
        read_off = cfalg._find_relation

        def reading(supplier, unknowns, ydeg, coeff, prec, solved):
            start = len(solves)
            found = read_off(supplier, unknowns, ydeg, coeff, prec, solved)
            read.append((ydeg, found, solves[start:]))
            return found

        _recorded_search(
            minimal_degree_report, target, bounds, prec,
            solves=solves, _find_relation=reading,
        )
        found, caught = [None, None], []
        for ydeg in range(1, cap + 1):
            rels, warned, _ = _recorded_search(
                find_relation, target, (ydeg, coeff, z_bound), prec
            )
            caught += warned
            if rels:
                found = [ydeg, rels[0]]
                break
        assert [ydeg for ydeg, *_ in read] == list(range(1, (found[0] or cap) + 1))
        tops = sorted({min(1 << k, cap) for k in range(1, cap.bit_length() + 1)})
        solves, low = [], 0
        for top in tops[: bisect_left(tops, found[0] or cap) + 1]:
            search = (top, coeff, z_bound)
            with pytest.MonkeyPatch.context() as mp:
                # D's own search without its residual pass
                mp.setattr(cfalg._RowSupplier, "residual", lambda *_: set())
                first = _recorded_search(find_relation, target, search, prec)[2]
            solves += first
            for ydeg, _, solved in read:
                if low < ydeg <= top:
                    assert len(solved) <= 1
                    solves += solved
                if ydeg == top:
                    own = _recorded_search(find_relation, target, search, prec)[2]
                    assert first + solved == own
            low = top
        assert swept == (found, caught, solves)
        supplier, unknowns = cfalg._set_up(target, *bounds)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for ydeg, tags, _ in read:
                assert tags == cfalg._find_relation(supplier, unknowns, ydeg, coeff, prec)

    def test_warns_past_the_cap(self, monkeypatch):
        # (ab) F known below z^9 is too shallow for this sweep: at degree 1
        # its least-degree part has dimension 2, so past a cap of 1 the
        # pick is the least stripped basis relation, not the least
        # combination (b^2*z^2 + a^2 + (a*z^3 + a*z^2 + b*z + a)*y)
        monkeypatch.setattr(cfalg, "_ENUMERATION_CAP", 1)
        F = compute_F(EpsSpec.parse("(ab)"), 9)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            deg, rel = minimal_degree_report(F, 2, 3, 3, prec=8)
        assert [w.filename for w in caught] == [__file__] * 2
        assert [str(w.message)[:28] for w in caught] == [
            "target precision supports ve", "least-degree dimension 2 exc"
        ]
        assert deg == 1
        assert rel.to_file_text() == (
            "deg 0: a*z^3 + b*z^3 + a*z^2 + b*z^2 + a*z\n" "deg 1: z^2 + z\n"
        )

    def test_a_sweep_grades_its_factors_once(self, monkeypatch):
        # the (aabb) F sweep solves at y-degrees 2 and 4 and reads degrees
        # 1 to 4 off those solves, on one set of unknowns built at its cap,
        # so it grades their factors once
        calls = []
        grade_modulus = cfalg._grade_modulus

        def counting(supplier):
            calls.append(supplier)
            return grade_modulus(supplier)

        monkeypatch.setattr(cfalg, "_grade_modulus", counting)
        f = compute_F(EpsSpec.parse("(aabb)"), 2 * 256 + 16)
        assert minimal_degree_report(f, 8, 4, 8, prec=256)[0] == 4
        assert len(calls) == 1

    @pytest.mark.parametrize("build, spec, bounds, precision, prec", [
        (compute_F, "(ab)", (2, 3, 3), 528, 256),
        (compute_cf, "a(bc)", (4, 6, None), 272, 128),
        (compute_G, "(ab)", (4, 3, None), 272, 128),
        # a target too shallow for the search, with contents to strip
        (compute_F, "(a)", (1, 1, 4), 6, 4),
    ])
    def test_builds_no_stripped_basis_below_the_cap(
        self, monkeypatch, build, spec, bounds, precision, prec
    ):
        def refuse(tags, unknowns):
            raise AssertionError("the sweep stripped a basis")

        target = build(EpsSpec.parse(spec), precision)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = minimal_degree_report(target, *bounds, prec=prec)
            monkeypatch.setattr(cfalg, "_stripped_basis", refuse)
            assert minimal_degree_report(target, *bounds, prec=prec) == expected
        assert expected[0] is not None


class TestRelationClass:
    def test_file_roundtrip(self):
        rel = Relation(
            {0: Gf2Poly.parse("a*b + 1"), 2: Gf2Poly.parse("z^3 + z")}
        )
        assert Relation.from_file_text(rel.to_file_text()) == rel

    def test_json_roundtrip(self):
        rel = Relation({0: Gf2Poly.parse("a"), 4: Gf2Poly.one()})
        assert Relation.from_json(rel.to_json()) == rel

    def test_inline_format(self):
        rel = Relation(
            {0: Gf2Poly.parse("a^2"), 1: Gf2Poly.parse("a + b"), 3: Gf2Poly.one()}
        )
        assert rel.inline_str() == "(a^2) + (a + b)*y + y^3"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Relation({0: Gf2Poly.zero()})

    def test_content_stripping(self):
        rel = Relation(
            {0: Gf2Poly.parse("a^2*b"), 1: Gf2Poly.parse("a*b^2 + a*b")}
        )
        stripped = rel.content_stripped()
        assert stripped.coeffs[0] == Gf2Poly.parse("a")
        assert stripped.coeffs[1] == Gf2Poly.parse("b + 1")
