"""Convergents with quotients in {a, b, a+b} and their differential identities.

For any quotient sequence over {a, b, a+b} (non-constant polynomials in t),
the combination F_n = ab(a+b) P_n Q_n + ab(P_n^2 + Q_n^2) built from the
convergents differs from ab by a perfect square; consequently the Riccati
residual (ab(a+b) f_n)' + (ab)'(1 + f_n^2) collapses to (a'b + ab')/Q_n^2,
whose 1/t-valuation grows with n.  The module also decides membership in
the class of continued fractions with all partial quotients of degree one,
via the equivalent differential / even-square characterizations.

Every quotient is a, b or a+b, so the convergents are built on int bitsets:
multiplying by a quotient is one shift-XOR per set bit of it, and the
convergents of one n take a single pass of O(n) shifts.  `convergents_uni`
and `fn_witness` keep only the last pair (O(n) memory), and nothing is
cached, so a `QuotientSeq` and every value returned stay immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

from .gf2poly import UniPoly, set_bits
from .laurent import LaurentSeries


class PatternError(ValueError):
    """Quotient pattern violates the hypotheses."""


@dataclass(frozen=True)
class QuotientSeq:
    """Quotient pattern over {a, b, a+b}; tags 'a', 'b', 'c' (c = a+b)."""

    pattern: tuple[str, ...]
    a: UniPoly
    b: UniPoly

    def __post_init__(self):
        if self.a.is_constant() or self.b.is_constant():
            raise PatternError("a and b must be non-constant")
        if self.a == self.b:
            raise PatternError("a and b must differ")
        bad = set(self.pattern) - {"a", "b", "c"}
        if bad:
            raise PatternError(f"unknown tags {sorted(bad)}")
        if "c" in self.pattern and (self.a + self.b).is_constant():
            raise PatternError("a+b must be non-constant when used as a quotient")

    @classmethod
    def parse(cls, pattern: str, a: str, b: str) -> "QuotientSeq":
        return cls(tuple(pattern), UniPoly.parse(a), UniPoly.parse(b))

    def quotient(self, i: int) -> UniPoly:
        tag = self.pattern[i]
        if tag == "a":
            return self.a
        if tag == "b":
            return self.b
        return self.a + self.b


@dataclass(frozen=True, slots=True)
class RiccatiWitness:
    """F_n = ab + g_n^2 together with the residual's 1/t-valuation."""

    n: int
    f_n: UniPoly
    g_n: UniPoly
    residual_valuation: Union[int, float, None]


class SquareInvariantError(RuntimeError):
    """F_n + ab failed to be a perfect square (must never happen)."""


def _check_index(q: QuotientSeq, n: int) -> None:
    if n < -1:
        raise ValueError("n must be at least -1")
    if n >= len(q.pattern):
        raise ValueError("pattern too short")


def _pairs(q: QuotientSeq, n: int) -> Iterator[tuple[int, int]]:
    """The bits of (P_k, Q_k) for k = -1, ..., n, by the three-term
    recurrence from (P_-2, Q_-2) = (0, 1) and (P_-1, Q_-1) = (1, 0)."""
    a, b = q.a.bits, q.b.bits
    shifts = {"a": set_bits(a), "b": set_bits(b), "c": set_bits(a ^ b)}
    p_prev, q_prev, p, qq = 0, 1, 1, 0
    yield p, qq
    for tag in q.pattern[: n + 1]:
        p_next, q_next = p_prev, q_prev
        for e in shifts[tag]:
            p_next ^= p << e
            q_next ^= qq << e
        p_prev, q_prev, p, qq = p, qq, p_next, q_next
        yield p, qq


def convergents_uni(q: QuotientSeq, n: int) -> tuple[UniPoly, UniPoly]:
    """(P_n, Q_n) by the three-term recurrence from (1, 0) and (u_0, 1)."""
    _check_index(q, n)
    # a loop, not `*_, last = ...`, so that only the last pair is held
    for p, qq in _pairs(q, n):
        pass
    return UniPoly(p), UniPoly(qq)


def _fn_poly(q: QuotientSeq, p: UniPoly, qq: UniPoly) -> UniPoly:
    """ab(a+b) P Q + ab(P^2 + Q^2), with P^2 + Q^2 = (P + Q)^2 in char 2."""
    return q.a * q.b * ((q.a + q.b) * p * qq + (p + qq).square())


def _residual_valuation(f_n: UniPoly, qq: UniPoly) -> Union[int, float]:
    """1/t-valuation of (ab(a+b) f_n)' + (ab)'(1 + f_n^2), f_n = P_n/Q_n.

    Exact, as a rational function: by the quotient rule its numerator over
    Q_n^2 is F_n' (squares have zero derivative in char 2), so the
    valuation is 2 deg Q_n - deg F_n', or inf when F_n' = 0.
    """
    num = f_n.derivative()
    if not num:
        return math.inf
    return 2 * qq.degree() - num.degree()


def fn_witness(q: QuotientSeq, n: int) -> RiccatiWitness:
    """Witness g_n with F_n = ab + g_n^2; fails loudly if there is none."""
    return _witness(q, n, *convergents_uni(q, n))


def witness_table(q: QuotientSeq, n: int) -> list[RiccatiWitness]:
    """`fn_witness(q, k)` for k = -1, ..., n from one pass of convergents."""
    _check_index(q, n)
    return [
        _witness(q, k, UniPoly(p), UniPoly(qq))
        for k, (p, qq) in enumerate(_pairs(q, n), -1)
    ]


def _witness(q: QuotientSeq, n: int, p: UniPoly, qq: UniPoly) -> RiccatiWitness:
    f_n = _fn_poly(q, p, qq)
    root = (f_n + q.a * q.b).sqrt()
    if root is None:
        raise SquareInvariantError(f"F_{n} + ab is not a square for {q}")
    val = _residual_valuation(f_n, qq) if qq else None
    return RiccatiWitness(n, f_n, root, val)


def baum_sweet_check(alpha: LaurentSeries, prec: int) -> bool:
    """Membership test for all-degree-one partial quotients.

    Checks that (alpha * t(t+1))' + alpha^2 + 1 vanishes below prec, and
    cross-checks the equivalent formulation that (alpha^2 + t alpha + 1)
    divided by (1 + t) is an even square from the maximal-ideal part; the
    two must agree, so the conjunction is returned.
    """
    if alpha.bits and alpha.valuation() < 1:
        raise ValueError("alpha must have only negative t-exponents")
    t_poly = UniPoly.parse("t^2 + t")
    one = LaurentSeries.from_unipoly(UniPoly.one())
    residual = (
        (alpha * LaurentSeries.from_unipoly(t_poly)).derivative()
        + alpha.square()
        + one.truncated(alpha.prec)
    )
    residual = residual.truncated(prec)
    form1 = residual.is_zero()

    t_series = LaurentSeries.from_unipoly(UniPoly.t())
    num = alpha.square() + t_series * alpha + one.truncated(alpha.prec)
    quot = num * LaurentSeries.from_unipoly(UniPoly.parse("t + 1")).inverse(prec + 2)
    quot = quot.truncated(prec)
    form2 = all(e >= 2 and e % 2 == 0 for e in quot.support())
    return form1 and form2
