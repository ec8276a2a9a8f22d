"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them on success).
All expected relation strings are in canonical form: coefficients in
ascending power of the unknown, monomials graded-descending.
"""

from __future__ import annotations

import math
import random
import time


from cf2 import (
    EpsSpec,
    Gf2Poly,
    InvSeries,
    UniPoly,
    ZSeries,
    build_word,
    cf_expand,
    cf_value,
    compute_F,
    compute_F0,
    compute_Fn,
    compute_G,
    compute_Gn,
    compute_R,
    compute_cf,
    baum_sweet_check,
    continuant_monomial,
    find_relation,
    letter_at,
    minimal_degree_report,
    positions,
    positions_predicted,
    unbounded_quotient_series,
)
from cf2.gf2poly import mono_mul
from cf2.riccati import QuotientSeq, convergents_uni, fn_witness
from conftest import random_distinct_spec, random_spec


def report(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


GOLDEN_1_G = "(a*b + b^2 + 1) + (a^2*b + a*b^2)*y + (a*b)*y^2 + y^4"

GOLDEN_1_F = (
    "(a^2*z + a*b*z + b^2*z + a^2 + a*b)"
    " + (a*z^2 + b*z^2 + a + b)*y + (z^3 + z)*y^2"
)

GOLDEN_2_CF = (
    "(a^2) + (a^2*b*c)*y^2 + (a^2*b^2*c + a^2*b*c^2)*y^3"
    " + (a*b^2*c + a*b*c^2 + c^2)*y^4"
)

GOLDEN_2_F = (
    "(b^2*z^3 + b*c*z^3 + c^2*z^3 + a*b*z^2 + a*c*z^2 + a^2*z + b^2*z"
    " + b*c*z + a*b + a*c) + (b*z^4 + c*z^4 + b + c)*y + (z^5 + z)*y^2"
)

GOLDEN_3_G = (
    "(a^11*b^3 + a^10*b^4 + a^3*b^11 + a^2*b^12 + a^6*b^6 + a^4*b^8"
    " + a^2*b^10 + b^12 + a^6*b^2 + a^4*b^4 + a^2*b^6 + b^8 + 1)"
    " + (a^12*b^3 + a^11*b^4 + a^4*b^11 + a^3*b^12)*y"
    " + (a^11*b^3 + a^10*b^4 + a^8*b^6 + a^6*b^8 + a^4*b^10 + a^3*b^11)*y^2"
    " + (a^6*b^2 + a^4*b^4 + a^2*b^6)*y^8 + y^16"
)

GOLDEN_3_F = (
    "(a^4*z^3 + a^3*b*z^3 + a^2*b^2*z^3 + a*b^3*z^3 + b^4*z^3 + a^4*z^2"
    " + a^3*b*z^2 + a^2*b^2*z^2 + a*b^3*z^2 + a^4*z + a^3*b*z + a^2*b^2*z"
    " + a*b^3*z + a^4 + a^3*b + a^2*b^2 + a*b^3)"
    " + (a^3*z^4 + a^2*b*z^4 + a*b^2*z^4 + b^3*z^4 + a^3 + a^2*b + a*b^2"
    " + b^3)*y + (z^7 + z^3)*y^4"
)


def test_criterion_01_period_doubling_g_relation():
    t0 = time.monotonic()
    g = compute_G(EpsSpec.parse("(ab)"), 2 * 256 + 16)
    rels = find_relation(g, max_ydeg=4, coeff_deg_bound=3, prec=256)
    elapsed = time.monotonic() - t0
    ok = (
        len(rels) >= 1
        and rels[0].inline_str() == GOLDEN_1_G
        and elapsed < 5.0
    )
    report(1, "period-doubling G quartic", ok)


def test_criterion_02_period_doubling_f_relation():
    t0 = time.monotonic()
    F = compute_F(EpsSpec.parse("(ab)"), 2 * 256 + 16)
    rels = find_relation(F, max_ydeg=2, coeff_deg_bound=3, z_deg_bound=3, prec=256)
    elapsed = time.monotonic() - t0
    ok = bool(rels) and rels[0].inline_str() == GOLDEN_1_F and elapsed < 5.0
    report(2, "period-doubling F quadratic", ok)


def test_criterion_03_three_letter_cf_relation():
    cf = compute_cf(EpsSpec.parse("a(bc)"), 2 * 256 + 16)
    rels = find_relation(cf, max_ydeg=4, coeff_deg_bound=6, prec=256)
    ok = bool(rels) and rels[0].inline_str() == GOLDEN_2_CF
    report(3, "three-letter CF quartic", ok)


def test_criterion_04_three_letter_f_relation():
    F = compute_F(EpsSpec.parse("a(bc)"), 2 * 256 + 16)
    rels = find_relation(F, max_ydeg=2, coeff_deg_bound=3, z_deg_bound=8, prec=256)
    ok = bool(rels) and rels[0].inline_str() == GOLDEN_2_F
    report(4, "three-letter F quadratic", ok)


def test_criterion_05_two_block_degree_16():
    t0 = time.monotonic()
    g = compute_G(EpsSpec.parse("(aabb)"), 2 * 512 + 24)
    rels = find_relation(g, max_ydeg=16, coeff_deg_bound=16, prec=512)
    elapsed = time.monotonic() - t0
    ok = bool(rels) and rels[0].inline_str() == GOLDEN_3_G and elapsed < 120.0
    report(5, "two-block G degree 16", ok)


def test_criterion_06_two_block_f_degree_drop():
    # CF degree 16 but F degree 4, not 8: the continued-fraction degree is
    # not always twice the power-series degree
    F = compute_F(EpsSpec.parse("(aabb)"), 2 * 256 + 16)
    deg, rel = minimal_degree_report(
        F, ydeg_cap=8, coeff_deg_bound=4, z_deg_bound=8, prec=256
    )
    ok = deg == 4 and deg != 8 and rel.inline_str() == GOLDEN_3_F
    report(6, "two-block F degree 4, not 8", ok)


def test_criterion_07_degree_sharpness():
    ok = True
    for text in ["(ab)", "a(bc)"]:
        spec = EpsSpec.parse(text)
        g = compute_G(spec, 2 * 256 + 24)
        cf = compute_cf(spec, 2 * 256 + 24)
        ok = ok and find_relation(g, 3, 8, prec=256) == []
        ok = ok and find_relation(cf, 3, 8, prec=256) == []
    F = compute_F(EpsSpec.parse("a(bc)"), 2 * 256 + 16)
    deg, _ = minimal_degree_report(F, 4, 3, 8, prec=256)
    ok = ok and deg == 2
    report(7, "no smaller-degree relations", ok)


def test_criterion_08_unbounded_quotient_exponents():
    g = unbounded_quotient_series(1 << 12)
    result = cf_expand(g, 17)
    cs = []
    ok = len(result.quotients) == 17
    for q in result.quotients[1:]:
        exps = list(q.exponents())
        ok = ok and len(exps) == 1
        if exps:
            cs.append(exps[0])
    ok = ok and len(cs) == 16
    ok = ok and all(cs[2 * n] == 1 for n in range(8))
    ok = ok and all(cs[2 * n + 1] == 4 * cs[n] - 1 for n in range(7))
    report(8, "exponent law c2n=1, c2n+1=4cn-1", ok)


def _functional_equations_hold(spec: EpsSpec, prec: int = 64) -> bool:
    inv_letter = lambda ch: InvSeries([((ch, 1),)])
    g = compute_G(spec, prec)
    pieces = [compute_Gn(spec, n, prec) for n in range(spec.d)]

    # regrouped decomposition
    acc = InvSeries.zero()
    for n in range(spec.d):
        acc = acc + pieces[n].pow2k(1) * inv_letter(spec.period[n])
    if (acc + g).terms:
        return False
    # piece chain
    for n in range(1, spec.d):
        rhs = pieces[n - 1].pow2k(1) * inv_letter(spec.period[n - 1])
        if (pieces[n] + rhs.truncated(prec)).terms:
            return False
    # first-piece self equation
    denom: tuple = ()
    for i in range(spec.d):
        denom = mono_mul(denom, ((spec.period[spec.d - 1 - i], 1 << i),))
    rhs = InvSeries([continuant_monomial(spec, spec.l)]) + pieces[0].pow2k(
        spec.d
    ) * InvSeries([denom])
    if (pieces[0] + rhs.truncated(prec)).terms:
        return False
    # tail sum through the first piece
    acc = InvSeries([continuant_monomial(spec, spec.l)], prec)
    for n in range(spec.d):
        denom = ()
        for i in range(n):
            denom = mono_mul(denom, ((spec.period[i], 1 << (n - 1 - i)),))
        acc = acc + pieces[0].pow2k(n) * InvSeries([denom])
    if (acc.truncated(prec) + g).terms:
        return False

    F = compute_F(spec, prec)
    R = compute_R(spec, prec)
    F0 = compute_F0(spec, prec)
    slots = [compute_Fn(spec, n, prec) for n in range(spec.d)]
    # support partition
    acc_z = R
    for n in range(spec.d):
        acc_z = acc_z + slots[n].mul_poly(Gf2Poly.variable(spec.period[n]))
    if (acc_z + F).order() is not None:
        return False
    # slot chain
    for n in range(1, spec.d):
        rhs_z = slots[n - 1].pow2k(1, prec).mul_zpow(1, prec)
        if (slots[n] + rhs_z).order() is not None:
            return False
    # closed form for the first slot
    step = 1 << spec.l
    rhs_z = ZSeries.indicator(range(step - 1, prec, step), prec)
    for n in range(1, spec.d):
        rhs_z = rhs_z + F0.pow2k(n, prec).mul_zpow((1 << n) - 1, prec)
    if (rhs_z + F0).order() is not None:
        return False
    # reassembly of F from the first slot
    acc_z = R
    for n in range(spec.d):
        acc_z = acc_z + F0.pow2k(n, prec).mul_zpow((1 << n) - 1, prec).mul_poly(
            Gf2Poly.variable(spec.period[n])
        )
    if (acc_z + F).order() is not None:
        return False
    # h-equation for the preperiod-free seed
    f = compute_F0(EpsSpec("", spec.period), prec)
    h = f.mul_zpow(1, prec)
    tot = ZSeries.zero(prec)
    for n in range(spec.d):
        tot = tot + h.pow2k(n, prec)
    lhs = ZSeries.indicator([0, 1], prec) * tot + ZSeries.indicator([1], prec)
    if lhs.order() is not None:
        return False
    # first slot from the preperiod-free indicator
    rhs_z = f.pow2k(spec.l, prec).mul_zpow(step - 1, prec)
    return (rhs_z + F0).order() is None


def test_criterion_09_functional_equation_suite():
    t0 = time.monotonic()
    rng = random.Random(20260809)
    ok = True
    for _ in range(50):
        spec = random_spec(rng, max_pre=3, max_per=4, n_letters=5)
        ok = ok and _functional_equations_hold(spec)
    elapsed = time.monotonic() - t0
    report(9, f"functional equations x50 ({elapsed:.1f}s)", ok and elapsed < 60.0)


def test_criterion_10_position_law():
    rng = random.Random(1234)
    horizon = 1 << 14
    ok = True
    for _ in range(25):
        spec = random_distinct_spec(rng)
        for j in range(spec.d):
            pred = positions_predicted(spec, j, horizon)
            enum = positions(spec, spec.period[j], horizon)
            ok = ok and pred == enum
    report(10, "position law to 2^14", ok)


def test_criterion_11_riccati_suite():
    rng = random.Random(77)
    ok = True
    for _ in range(100):
        length = rng.randint(1, 30)
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
            break
        q = QuotientSeq(tuple(pattern), a, b)
        ab = a * b
        ab_prime = ab.derivative()
        for n in range(-1, length):
            w = fn_witness(q, n)
            ok = ok and w.f_n == ab + w.g_n * w.g_n
            if n >= 0:
                p, qq = convergents_uni(q, n)
                num = (
                    (ab * (a + b) * p).derivative() * qq
                    + ab * (a + b) * p * qq.derivative()
                    + ab_prime * (p * p + qq * qq)
                )
                ok = ok and num == ab_prime
                expected = (
                    math.inf if not ab_prime
                    else 2 * qq.degree() - ab_prime.degree()
                )
                ok = ok and w.residual_valuation == expected
    member = cf_value([UniPoly.zero(), UniPoly.t()], tail_period=1, precision=160)
    ok = ok and baum_sweet_check(member, 128)
    non_member = cf_value(
        [UniPoly.zero(), UniPoly.t(), UniPoly.parse("t^2"), UniPoly.t()],
        tail_period=1,
        precision=160,
    )
    ok = ok and not baum_sweet_check(non_member, 128)
    report(11, "riccati witness suite x100", ok)


def _random_poly(rng, letters="abc", max_terms=4, max_exp=3) -> Gf2Poly:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        mono = []
        for v in letters:
            e = rng.randint(0, max_exp)
            if e:
                mono.append((v, e))
        terms.append(tuple(mono))
    return Gf2Poly(terms)


def test_criterion_12_randomized_property_sweeps():
    rng = random.Random(99)
    ok = True
    cases = 1000

    for _ in range(cases):
        p, q, r = (_random_poly(rng) for _ in range(3))
        ok = ok and (p + q) + r == p + (q + r)
        ok = ok and p * (q + r) == p * q + p * r
        ok = ok and p * q == q * p
        ok = ok and not (p + p).terms
        ok = ok and (p + q) ** 2 == p ** 2 + q ** 2
        ok = ok and (p * q).derivative("a") == (
            p.derivative("a") * q + p * q.derivative("a")
        )
        ok = ok and (p * p).sqrt() == p
    assert ok, "polynomial sweep failed"

    for _ in range(cases):
        spec = random_spec(rng, max_pre=4, max_per=4)
        n = rng.randint(0, 10)
        word = build_word(spec, n)
        i = rng.randrange(len(word)) if word else 0
        ok = ok and (not word or letter_at(spec, i) == word[i])
        ok = ok and word == word[::-1]
    assert ok, "word sweep failed"

    for _ in range(cases):
        terms1 = [
            tuple((v, e) for v, e in [("a", rng.randint(-3, 4)), ("b", rng.randint(-3, 4))] if e)
            for _ in range(rng.randint(0, 4))
        ]
        terms2 = [
            tuple((v, e) for v, e in [("a", rng.randint(-3, 4)), ("b", rng.randint(-3, 4))] if e)
            for _ in range(rng.randint(0, 4))
        ]
        x = InvSeries(terms1, rng.randint(6, 30))
        y = InvSeries(terms2, rng.randint(6, 30))
        s = x + y
        ok = ok and s.depth_norm() >= min(x.depth_norm(), y.depth_norm())
        ok = ok and not (x + x).terms
        ok = ok and (x + y).pow2k(1).terms == (x.pow2k(1) + y.pow2k(1)).terms
    assert ok, "series sweep failed"

    report(12, "randomized sweeps (3x1000 cases)", ok)
