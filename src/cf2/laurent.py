"""Laurent series in 1/t over GF(2) and continued-fraction expansion.

A series is stored as a valuation v (the 1/t-exponent of the leading
term, negative for honest polynomials), an int bitset whose bit i is the
coefficient of t**-(v+i), and a precision: 1/t-exponents below the
precision are exact.  Exactly known series (embedded polynomials, finite
continued fractions handled symbolically) carry infinite precision.
Products and inverses take their precisions from the rules of
`invseries`, the valuation in the place of the depth.

Continued-fraction expansion reads the stored bits as a rational function
and runs Euclid's algorithm on int bitsets, with the known precision
shrinking by twice each quotient's degree; exact input gives the exact
finite expansion.  The converse, the value of a finite or eventually
periodic continued fraction, is one convergent P_n/Q_n of the package's
three-term recurrence (`cfalg`): P_n times one inverse of Q_n.
"""

from __future__ import annotations

import math
from itertools import chain, cycle
from typing import Iterable, NamedTuple

from .cfalg import _convergents
from .gf2poly import UniPoly, _even_bit_mask, set_bits
from .invseries import InvSeries, inverse_precision, product_precision


class LaurentSeries:
    """Bit i is the coefficient of t**-(val+i); leading bit 1 unless zero."""

    __slots__ = ("val", "bits", "prec")

    def __init__(self, val: int, bits: int, prec=math.inf):
        if bits:
            shift = (bits & -bits).bit_length() - 1
            bits >>= shift
            val += shift
            if prec != math.inf:
                keep = prec - val
                bits = bits & ((1 << keep) - 1) if keep > 0 else 0
        if not bits:
            val = 0
        self.val = val
        self.bits = bits
        self.prec = prec

    @classmethod
    def zero(cls, prec=math.inf) -> "LaurentSeries":
        return cls(0, 0, prec)

    @classmethod
    def from_unipoly(cls, p: UniPoly, prec=math.inf) -> "LaurentSeries":
        if not p:
            return cls.zero(prec)
        # t^e has 1/t-exponent -e; reverse the bit order around the degree
        return cls(-p.degree(), int(f"{p.bits:b}"[::-1], 2), prec)

    @classmethod
    def from_exponents(cls, exps: Iterable[int], prec=math.inf) -> "LaurentSeries":
        """Series sum t**-e over the given 1/t-exponents below the precision."""
        exps = sorted({e for e in exps if e < prec})
        if not exps:
            return cls.zero(prec)
        v = exps[0]
        bits = 0
        for e in exps:
            bits |= 1 << (e - v)
        return cls(v, bits, prec)

    def is_zero(self) -> bool:
        return self.bits == 0

    def valuation(self):
        """1/t-exponent of the leading term; +inf when zero below precision."""
        return self.val if self.bits else math.inf

    def support(self) -> list[int]:
        """Stored 1/t-exponents, ascending."""
        return [self.val + i for i in set_bits(self.bits)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentSeries)
            and self.val == other.val
            and self.bits == other.bits
            and self.prec == other.prec
        )

    def __hash__(self):
        return hash((self.val, self.bits, self.prec))

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        prec = min(self.prec, other.prec)
        v = min(self.val, other.val)
        bits = (self.bits << (self.val - v)) ^ (other.bits << (other.val - v))
        return LaurentSeries(v, bits, prec)

    __sub__ = __add__

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        prec = product_precision(
            self.prec, self.valuation(), other.prec, other.valuation()
        )
        bits = (UniPoly(self.bits) * UniPoly(other.bits)).bits
        return LaurentSeries(self.val + other.val, bits, prec)

    def square(self) -> "LaurentSeries":
        bits = UniPoly(self.bits).square().bits
        return LaurentSeries(2 * self.val, bits, 2 * self.prec)

    def derivative(self) -> "LaurentSeries":
        """Formal d/dt; only odd t-exponents survive in char 2."""
        n = self.bits.bit_length() + 2
        even = _even_bit_mask(n)
        # t-exponent of bit i is -(val + i); it is odd iff val + i is odd
        keep = even << 1 if self.val % 2 == 0 else even
        return LaurentSeries(self.val + 1, self.bits & keep, self.prec + 1)

    def truncated(self, prec) -> "LaurentSeries":
        return LaurentSeries(self.val, self.bits, min(self.prec, prec))

    def inverse(self, precision=None) -> "LaurentSeries":
        """Inverse via power-series long division of the unit part."""
        if self.bits == 0:
            raise ZeroDivisionError("zero (at this precision) is not invertible")
        v = self.val
        out_prec = inverse_precision(self.prec, v, precision)
        if out_prec == math.inf:
            if self.bits == 1:
                return LaurentSeries(-v, 1, math.inf)
            raise ValueError("inverse of a non-monomial needs a finite precision")
        length = out_prec - (-v)  # number of output coefficients
        if length <= 0:
            return LaurentSeries.zero(out_prec)
        b = self.bits
        res = 0
        rem = 1
        for i in range(length):
            if rem & 1:
                res |= 1 << i
                rem ^= b
            rem >>= 1
        return LaurentSeries(-v, res, out_prec)

    def __str__(self) -> str:
        return self.str_in("t")

    def str_in(self, var: str) -> str:
        parts = []
        for e in self.support():
            if e == 0:
                parts.append("1")
            elif e == -1:
                parts.append(var)
            else:
                parts.append(f"{var}^{-e}")
        body = " + ".join(parts) if parts else "0"
        if self.prec == math.inf:
            return body
        if self.prec == -math.inf:  # known nowhere: no O() term says that
            return f"{body} (precision -inf)"
        return f"{body} + O({var}^{-self.prec})"

    def __repr__(self) -> str:
        return f"LaurentSeries({self})"


class CfExpansion(NamedTuple):
    quotients: tuple[UniPoly, ...]
    status: str  # 'count' | 'rational' | 'exhausted'


def cf_expand(s: LaurentSeries, count: int) -> CfExpansion:
    """Continued-fraction expansion by Euclid's algorithm on the stored bits.

    The stored series is the rational num / t^m (m the largest stored
    1/t-exponent, at least 0); each quotient is num // den, then
    (num, den) becomes (den, num mod den).  The value is known below the
    1/t-exponent P_k: P_0 = s.prec and P_{k+1} = P_k - 2 deg a_{k+1}, so
    exact input gives the exact finite expansion.  Stops after `count`
    quotients, or earlier when the value is zero below P_k, when P_k no
    longer exceeds the value's leading 1/t-exponent (or 0), or when the
    remainder after a quotient is zero below P_k: 'rational' if that
    zero is exact (infinite precision), 'exhausted' otherwise.
    """
    quots: list[UniPoly] = []
    prec = s.prec
    vanished = "rational" if prec == math.inf else "exhausted"
    top = s.val + s.bits.bit_length() - 1  # largest stored 1/t-exponent
    m = max(top, 0)
    # bit i (1/t-exponent val + i) becomes the coefficient of t^(m - val - i)
    num = int(f"{s.bits:b}"[::-1], 2) << (m - top)
    den = 1 << m
    dlen = den.bit_length()
    while len(quots) < count:
        v = dlen - num.bit_length()  # leading 1/t-exponent of num / den
        if not num or v >= prec:
            return CfExpansion(tuple(quots), vanished)
        if prec <= max(v, 0):
            return CfExpansion(tuple(quots), "exhausted")
        q = 0
        while num.bit_length() >= dlen:
            shift = num.bit_length() - dlen
            q |= 1 << shift
            num ^= den << shift
        quots.append(UniPoly(q))
        w = dlen - num.bit_length()  # degree of the next quotient
        if not num or w >= prec:
            return CfExpansion(tuple(quots), vanished)
        prec -= 2 * w
        num, den = den, num
        dlen = den.bit_length()
    return CfExpansion(tuple(quots), "count")


def cf_value(
    quotients: list[UniPoly], tail_period: int = 0, precision: int = 64
) -> LaurentSeries:
    """Laurent value of a continued fraction: one convergent P_n/Q_n.

    A finite list gives its last convergent, exact when Q_n = 1 and else
    known below `precision` + 2 * (total quotient degree) + 4.  With
    tail_period = k > 0 the final k quotients repeat forever, and n is the
    first index past the head with deg Q_n >= deg Q_{n-1} and
    deg Q_{n-1} + deg Q_n >= precision: the error of P_{n-1}/Q_{n-1} is
    1/(Q_{n-1}(alpha_n Q_{n-1} + Q_{n-2})), of that degree, and P_n/Q_n is
    closer still, so it is exact below the precision.  Q_n = 0 (no value)
    raises ValueError.
    """
    if tail_period < 0 or tail_period > len(quotients):
        raise ValueError("bad tail period")
    head = list(quotients[: len(quotients) - tail_period])
    tail = list(quotients[len(quotients) - tail_period :])
    if any(q.degree() < 1 for q in tail):
        raise ValueError("periodic tail quotients must be non-constant")
    if not quotients:
        raise ValueError("empty continued fraction")
    d_prev = -1  # deg Q_{-1}, Q_{-1} = 0
    for n, (p, q) in enumerate(_convergents(chain(head, cycle(tail)))):
        d = q.degree()
        if n >= len(head) and d >= d_prev and d_prev + d >= precision:
            break
        d_prev = d
    if not tail:
        work = precision + 2 * sum(max(u.degree(), 0) for u in head) + 4
        precision = math.inf if q == UniPoly.one() else work
    if not q:
        raise ValueError("continued fraction has no value")
    inv = LaurentSeries.from_unipoly(q).inverse(precision + max(p.degree(), 0))
    return (LaurentSeries.from_unipoly(p) * inv).truncated(precision)


def specialize_inv(
    s: InvSeries, assign: dict[str, UniPoly], precision: int
) -> LaurentSeries:
    """Map alphabet letters to polynomials in t, term by term.

    Every inverse-power term becomes the Laurent expansion of a rational
    function; the images are summed to the requested 1/t precision.
    """
    out = LaurentSeries.zero(min(precision, s.precision))
    for term in s.terms:
        num = UniPoly.one()
        den = UniPoly.one()
        for v, n in term:
            p = assign[v]
            if n >= 0:
                den = den * (p ** n)
            else:
                num = num * (p ** (-n))
        inv = LaurentSeries.from_unipoly(den).inverse(
            precision + max(num.degree(), 0) + 1
        )
        out = out + (LaurentSeries.from_unipoly(num) * inv).truncated(out.prec)
    return out


def unbounded_quotient_series(precision: int) -> LaurentSeries:
    """The fixed point of y -> 1 + y**4 / t in GF(2)((1/t)).

    Explicitly sum of t**-((4^k - 1)/3) over k >= 0; its partial-quotient
    degrees c satisfy c_{2n} = 1 and c_{2n+1} = 4 c_n - 1, so they are
    unbounded but 2-regular.
    """
    exps = []
    k = 0
    while True:
        e = ((1 << (2 * k)) - 1) // 3
        if e >= precision:
            break
        exps.append(e)
        k += 1
    return LaurentSeries.from_exponents(exps, precision)
