"""The precision contract of both inverse-power series kinds, of the
continued-fraction expansion and of relation verification.

A result computed from operands known below some precisions equals the
same computation from the operands known deeper, truncated to the first
result's precision; from exact operands it is exact.  Operands are exact
finite series cut at random precisions, some below their lowest term, so
that an operand may hold no terms at all below its precision.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings, strategies as st

from cf2 import (
    EpsSpec,
    Gf2Poly,
    InvSeries,
    LaurentSeries,
    cf_expand,
    compute_F,
    compute_G,
    compute_cf,
    verify_relation,
)
from cf2.cfalg import Relation
from cf2.gf2poly import mono_deg
from conftest import eps_specs

INF = math.inf
cuts = st.one_of(st.integers(min_value=-4, max_value=16), st.just(INF))


def _prec(s):
    return s.prec if isinstance(s, LaurentSeries) else s.precision


def assert_contract(op, operands, low, high):
    """op of the operands cut at `low` against op of them cut at `high`,
    each cut at least as deep; the result cut at `low`."""
    lo = op(*(x.truncated(p) for x, p in zip(operands, low)))
    hi = op(*(x.truncated(p) for x, p in zip(operands, high)))
    assert _prec(lo) <= _prec(hi)
    assert hi.truncated(_prec(lo)) == lo
    return lo


def assert_exact_contract(op, operands, low, cut=INF):
    """The contract against the exact result; an op that cuts its result
    at no precision of its own (`cut`) keeps exact operands exact."""
    lo = assert_contract(op, operands, low, [INF] * len(operands))
    if all(p == INF for p in low):
        assert _prec(lo) == cut


@st.composite
def inv_terms(draw, min_size=0):
    """Terms over a, b with exponents -2..4, so depths -4..8."""
    exps = st.integers(min_value=-2, max_value=4)
    pairs = draw(st.lists(st.tuples(exps, exps), min_size=min_size, max_size=5))
    return [tuple((v, n) for v, n in zip("ab", p) if n) for p in pairs]


exact_inv = inv_terms().map(InvSeries)


@st.composite
def inv_units(draw):
    """An exact series with a unique term of least depth, and a finite cut
    above that depth (or inf for a monomial, whose inverse is exact)."""
    (head,) = draw(inv_terms(min_size=1).filter(lambda ts: len(ts) == 1))
    m = mono_deg(head)
    rest = [t for t in draw(inv_terms()) if mono_deg(t) > m]
    cut = draw(st.integers(min_value=m + 1, max_value=m + 14))
    return InvSeries([head, *rest]), INF if not rest and draw(st.booleans()) else cut


@st.composite
def exact_laurent(draw):
    val = draw(st.integers(min_value=-4, max_value=6))
    return LaurentSeries(val, draw(st.integers(min_value=0, max_value=255)))


@st.composite
def laurent_units(draw):
    s = draw(exact_laurent().filter(lambda s: not s.is_zero()))
    cut = draw(st.integers(min_value=s.val + 1, max_value=s.val + 14))
    return s, INF if s.bits == 1 and draw(st.booleans()) else cut


deeper = st.integers(min_value=0, max_value=12)
inverse_caps = st.one_of(st.none(), st.integers(min_value=-6, max_value=20))


class TestInvSeries:
    @settings(max_examples=150, deadline=None)
    @given(exact_inv, exact_inv, cuts, cuts, deeper, deeper)
    # a^-7 cut at 5 holds no terms: its square is known below 10, not exact
    @example(InvSeries.parse("a^-7"), InvSeries.parse("a^-7"), 5, 5, 0, 0)
    def test_add_and_mul(self, x, y, px, py, ex, ey):
        for op in (InvSeries.__add__, InvSeries.__mul__):
            assert_exact_contract(op, (x, y), (px, py))
            assert_contract(op, (x, y), (px, py), (px + ex, py + ey))

    @settings(max_examples=100, deadline=None)
    @given(exact_inv, cuts, st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=5), cuts)
    def test_powers_and_truncation(self, x, p, k, j, cut):
        assert_exact_contract(lambda s: s.pow2k(k), (x,), (p,))
        assert_exact_contract(lambda s: s.power(j), (x,), (p,))
        assert_exact_contract(lambda s: s.truncated(cut), (x,), (p,), cut)

    @settings(max_examples=60, deadline=None)
    @given(eps_specs(max_pre=1, max_per=2, n_letters=3),
           st.integers(min_value=1, max_value=24), deeper,
           st.integers(min_value=0, max_value=16))
    def test_power_through_the_reciprocal(self, spec, p, e, j):
        lo, hi = compute_cf(spec, p).power(j), compute_cf(spec, p + e).power(j)
        assert lo.precision <= hi.precision
        assert hi.truncated(lo.precision) == lo

    @settings(max_examples=150, deadline=None)
    @given(inv_units(), deeper, inverse_caps)
    # cut at or above the depth of its leading term, the inverse holds none
    @example((InvSeries.parse("1 + a^-1"), 8), 0, 0)
    @example((InvSeries.parse("a^-2"), INF), 0, -2)
    def test_inverse(self, unit, e, cap):
        x, p = unit
        op = lambda s: s.inverse(cap)
        assert_contract(op, (x,), (p,), (p + e,))
        if p == INF:
            assert_exact_contract(op, (x,), (p,), INF if cap is None else cap)


class TestLaurentSeries:
    @settings(max_examples=150, deadline=None)
    @given(exact_laurent(), exact_laurent(), cuts, cuts, deeper, deeper)
    @example(LaurentSeries.from_exponents([7]), LaurentSeries.from_exponents([7]),
             5, 5, 0, 0)
    def test_add_and_mul(self, x, y, px, py, ex, ey):
        for op in (LaurentSeries.__add__, LaurentSeries.__mul__):
            assert_exact_contract(op, (x, y), (px, py))
            assert_contract(op, (x, y), (px, py), (px + ex, py + ey))

    @settings(max_examples=100, deadline=None)
    @given(exact_laurent(), cuts, cuts)
    def test_square_derivative_and_truncation(self, x, p, cut):
        assert_exact_contract(LaurentSeries.square, (x,), (p,))
        assert_exact_contract(LaurentSeries.derivative, (x,), (p,))
        assert_exact_contract(lambda s: s.truncated(cut), (x,), (p,), cut)

    @settings(max_examples=150, deadline=None)
    @given(laurent_units(), deeper, inverse_caps)
    def test_inverse(self, unit, e, cap):
        x, p = unit
        op = lambda s: s.inverse(cap)
        assert_contract(op, (x,), (p,), (p + e,))
        if p == INF:
            assert_exact_contract(op, (x,), (p,), INF if cap is None else cap)



edge_cuts = st.one_of(cuts, st.just(-INF))
x_exact, u_nowhere = InvSeries.parse("a^-1"), InvSeries.zero(-INF)


def _is_zero(s):
    return s.is_zero() if isinstance(s, LaurentSeries) else not s


def assert_product_edges(x, y):
    """The product's precision is symmetric, an exact zero times anything
    is exact, and an exact nonzero series times one of precision -inf has
    precision -inf."""
    assert x * y == y * x
    for a, b in ((x, y), (y, x)):
        if _prec(a) == INF and _is_zero(a):
            assert _prec(a * b) == INF and _is_zero(a * b)
        elif _prec(a) == INF and _prec(b) == -INF:
            assert _prec(a * b) == -INF


class TestInfinitePrecisions:
    """Precisions of either infinite sign, for both series kinds."""

    @settings(max_examples=150, deadline=None)
    @given(exact_inv, exact_inv, edge_cuts, edge_cuts)
    @example(x_exact, u_nowhere, INF, -INF)  # once called exact
    @example(u_nowhere, x_exact, -INF, INF)  # once raised OverflowError
    @example(InvSeries.zero(), u_nowhere, INF, -INF)
    def test_inv_products(self, x, y, px, py):
        assert_product_edges(x.truncated(px), y.truncated(py))

    @settings(max_examples=150, deadline=None)
    @given(exact_laurent(), exact_laurent(), edge_cuts, edge_cuts)
    @example(LaurentSeries(1, 1), LaurentSeries.zero(), INF, -INF)
    @example(LaurentSeries.zero(), LaurentSeries(1, 1), -INF, INF)
    @example(LaurentSeries.zero(), LaurentSeries.zero(), INF, -INF)
    def test_laurent_products(self, x, y, px, py):
        assert_product_edges(x.truncated(px), y.truncated(py))

    @settings(max_examples=100, deadline=None)
    @given(inv_units(), laurent_units())
    # once raised OverflowError
    @example((InvSeries.parse("1 + a^-1"), 8), (LaurentSeries(0, 3), 8))
    def test_inverse_wanted_nowhere(self, inv_unit, laurent_unit):
        (x, p), (s, q) = inv_unit, laurent_unit
        assert x.truncated(p).inverse(-INF) == InvSeries.zero(-INF)
        assert s.truncated(q).inverse(-INF) == LaurentSeries.zero(-INF)


class TestCfExpand:
    @settings(max_examples=200, deadline=None)
    @given(exact_laurent(), st.integers(min_value=1, max_value=24),
           st.integers(min_value=0, max_value=12))
    def test_quotients_agree_with_deeper_runs(self, x, p, count):
        # every quotient a run returns is known, exhausted or not, so it
        # heads the run at twice the precision and the exact one
        lo = cf_expand(x.truncated(p), count)
        for deeper in (x.truncated(2 * p), x):
            assert cf_expand(deeper, count).quotients[: len(lo.quotients)] == (
                lo.quotients)


# the paper's relations, each on its target
RELATIONS = {
    "G": ("(ab)", compute_G,
          "deg 0: a*b + b^2 + 1\ndeg 1: a^2*b + a*b^2\ndeg 2: a*b\ndeg 4: 1"),
    "CF": ("a(bc)", compute_cf,
           "deg 0: a^2\ndeg 2: a^2*b*c\ndeg 3: a^2*b^2*c + a^2*b*c^2\n"
           "deg 4: a*b^2*c + a*b*c^2 + c^2"),
    "F": ("(ab)", compute_F,
          "deg 0: a^2*z + a*b*z + b^2*z + a^2 + a*b\n"
          "deg 1: a*z^2 + b*z^2 + a + b\ndeg 2: z^3 + z"),
}


@st.composite
def relations(draw, kinds):
    """A paper relation on its target, with one monomial of up to degree 6
    added at y-degree 0..4 (or none), so that the residual starts at a
    varied depth, often near the precision."""
    text, build, rel = RELATIONS[draw(st.sampled_from(kinds))]
    coeffs = dict(Relation.from_file_text(rel).coeffs)
    if draw(st.booleans()):
        letters = "abz" if build is compute_F else "abc"
        exps = draw(st.lists(st.integers(min_value=0, max_value=2),
                             min_size=3, max_size=3))
        mono = Gf2Poly.parse("*".join(
            f"{v}^{e}" for v, e in zip(letters, exps) if e) or "1")
        j = draw(st.integers(min_value=0, max_value=4))
        coeffs[j] = coeffs.get(j, Gf2Poly.zero()) + mono
    return EpsSpec.parse(text), build, Relation(coeffs)


class TestVerifyRelation:
    """A deeper target never contradicts the reported precision or the
    residual depth: a residual reported below the precision stays at that
    depth, and one that vanished starts no shallower than the precision."""

    def check(self, case, p, e):
        spec, build, rel = case
        lo = verify_relation(rel, build(spec, p))
        hi = verify_relation(rel, build(spec, p + e))
        assert lo.precision <= hi.precision
        if lo.vanished:
            assert hi.vanished or hi.residual_depth >= lo.precision
        else:
            assert lo.residual_depth < lo.precision
            assert (hi.vanished, hi.residual_depth) == (False, lo.residual_depth)

    @settings(max_examples=100, deadline=None)
    @given(relations(["G", "CF"]), st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=24))
    def test_inverse_power_targets(self, case, p, e):
        self.check(case, p, e)

    @settings(max_examples=60, deadline=None)
    @given(relations(["F"]), st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=24))
    def test_z_series_targets(self, case, p, e):
        self.check(case, p, e)
