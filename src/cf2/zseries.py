"""Truncated power series in z with GF(2) letter-polynomial coefficients.

A series of precision P stores exactly its first P coefficients, each a
polynomial in the alphabet letters (never in z).  This module builds the
generating series of a doubling-word sequence, the rational part carried
by the preperiod, the occurrence-indicator series of the period letters,
and the two halving (Cartier) operators.  Products and powers pack terms
as `invseries._Packing` does, depth = z-index, grouped by letter monomial:
`_Packing.zmul` multiplies one int bitset over the z-index per monomial,
carry-less.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .gf2poly import Gf2Poly, Monomial, set_bits
from .invseries import (
    _alphabet,
    _letter_groups,
    _Packing,
    _power_alphabet,
    _power_codes,
)
from .seqcore import EpsSpec, PositionSet, _check_size, _valuation_bits

_ZERO = Gf2Poly.zero()
_ONE = Gf2Poly.one()


class ZSeries:
    """Coefficient list of length == precision."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Gf2Poly]):
        self.coeffs = tuple(coeffs)

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, precision: int) -> "ZSeries":
        return cls([_ZERO] * precision)

    @classmethod
    def one(cls, precision: int) -> "ZSeries":
        return cls.indicator((0,), precision)

    @classmethod
    def indicator(cls, indices: Iterable[int], precision: int) -> "ZSeries":
        coeffs = [_ZERO] * precision
        for i in indices:
            if 0 <= i < precision:
                coeffs[i] = coeffs[i] + _ONE
        return cls(coeffs)

    def order(self) -> Optional[int]:
        """Index of the first nonzero coefficient, or None below precision."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __bool__(self) -> bool:
        return self.order() is not None

    def __eq__(self, other) -> bool:
        return isinstance(other, ZSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def truncated(self, precision: int) -> "ZSeries":
        if precision >= self.precision:
            return self
        return ZSeries(self.coeffs[: max(0, precision)])

    def agrees_with(self, other: "ZSeries") -> bool:
        """Equality on the overlap of the two precisions."""
        p = min(self.precision, other.precision)
        return self.coeffs[:p] == other.coeffs[:p]

    def __add__(self, other: "ZSeries") -> "ZSeries":
        p = min(self.precision, other.precision)
        return ZSeries(a + b for a, b in zip(self.coeffs[:p], other.coeffs[:p]))

    __sub__ = __add__

    def __mul__(self, other: "ZSeries") -> "ZSeries":
        p = min(self.precision, other.precision)
        xs, ys = _letter_groups(self, p), _letter_groups(other, p)
        letters, top = _alphabet(xs)
        other_letters, other_top = _alphabet(ys)
        pk = _Packing(letters | other_letters, top + other_top)
        xs, ys = ({pk.encode(0, m): b for m, b in g.items()} for g in (xs, ys))
        return ZSeries._decode(pk, pk.zmul(xs, ys, p), p)

    @staticmethod
    def _decode(pk: _Packing, groups: dict[int, int], p: int) -> "ZSeries":
        """The series of precision p whose terms have the grouped codes
        (`_Packing.zmul`): one letter monomial decoded per group."""
        out = [set() for _ in range(p)]
        for key, b in groups.items():
            m = pk.decode(key)
            for i in set_bits(b):
                out[i].add(m)
        return ZSeries(Gf2Poly._raw(frozenset(c)) for c in out)

    def mul_poly(self, c: Gf2Poly) -> "ZSeries":
        """Multiply by a letter polynomial (coefficient-wise)."""
        return ZSeries(a * c for a in self.coeffs)

    def mul_zpow(self, e: int, precision: Optional[int] = None) -> "ZSeries":
        """Multiply by z**e, keeping every known coefficient (below precision)."""
        known = self.precision + e
        p = known if precision is None else min(precision, known)
        out = [_ZERO] * p
        for i, a in enumerate(self.coeffs):
            if i + e < p:
                out[i + e] = a
        return ZSeries(out)

    def pow2k(self, k: int, precision: Optional[int] = None) -> "ZSeries":
        """Frobenius power: coefficients squared 2**k-fold, exponents spread."""
        f = 1 << k
        known = self.precision * f
        p = known if precision is None else max(0, min(precision, known))
        out = [_ZERO] * p
        out[::f] = [a.pow2k(k) for a in self.coeffs[: -(-p // f)]]  # ceil(p / f)
        return ZSeries(out)

    def power(self, j: int, precision: Optional[int] = None) -> "ZSeries":
        """j-th power, cut at `precision` (by default this series' own),
        formed packed by `invseries._power_codes`."""
        pk = _Packing(*_power_alphabet(self, j))
        return ZSeries._decode(pk, *_power_codes(self, pk, j, precision))

    def cartier(self, r: int) -> "ZSeries":
        """Halving operator: coefficient j of the output is coefficient 2j+r."""
        if r not in (0, 1):
            raise ValueError("r must be 0 or 1")
        return ZSeries(self.coeffs[r::2])

    def sorted_pieces(self) -> list[tuple[int, Gf2Poly]]:
        return [(i, c) for i, c in enumerate(self.coeffs) if c]

    def __str__(self) -> str:
        parts = []
        for i, c in self.sorted_pieces():
            zp = "" if i == 0 else ("z" if i == 1 else f"z^{i}")
            if i == 0:
                parts.append(str(c))
            elif c == _ONE:
                parts.append(zp)
            elif len(c.terms) == 1:
                parts.append(f"{c}*{zp}")
            else:
                parts.append(f"({c})*{zp}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(z^{self.precision})"

    def __repr__(self) -> str:
        return f"ZSeries({self})"

    def to_json(self) -> dict:
        return {
            "coeffs": [[i, c.to_json()] for i, c in self.sorted_pieces()],
            "precision": self.precision,
        }


def _letters(spec: EpsSpec, n: int) -> list[Gf2Poly]:
    """The letters s_0 .. s_(n-1) as polynomials, one `Gf2Poly.variable`
    per seed letter: s_j is eps at the 2-adic valuation v of j + 1, and
    valuation v fills the indices 2^v - 1 + k 2^(v+1)."""
    variables = {c: Gf2Poly.variable(c) for c in spec.preperiod + spec.period}
    out = [_ZERO] * n
    for v in range(n.bit_length()):
        start, step = (1 << v) - 1, 2 << v
        out[start::step] = [variables[spec.letter(v)]] * len(range(start, n, step))
    return out


def compute_F(spec: EpsSpec, precision: int) -> ZSeries:
    """Generating series of the sequence letters: sum_j s_j z^j."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    _check_size(precision, f"horizon {precision}")
    return ZSeries(_letters(spec, precision))


def compute_R(spec: EpsSpec, precision: int) -> ZSeries:
    """Rational part carried by the preperiod.

    Expansion of (sum_{k<2^l-1} s_k z^k) / (1 + z^{2^l}); zero when the
    preperiod is empty.
    """
    _check_size(precision, f"horizon {precision}")
    step = 1 << spec.l
    n = max(0, precision)
    return ZSeries(((_letters(spec, step - 1) + [_ZERO]) * -(-n // step))[:n])


def role_positions(spec: EpsSpec, j: int, horizon: int) -> PositionSet:
    """Occurrences of the j-th *period slot* (not letter), any seed.

    The slot holds the valuations l + j + kd, so repeated letters in the
    seed do not conflate slots.
    """
    if not 0 <= j < spec.d:
        raise ValueError("period index out of range")
    _check_size(horizon, f"horizon {horizon}")
    ks = range(spec.l + j, horizon.bit_length(), spec.d)
    return PositionSet(horizon, _valuation_bits(ks, horizon))


def compute_Fn(spec: EpsSpec, n: int, precision: int) -> ZSeries:
    """Indicator series of the n-th period slot's occurrence set."""
    return ZSeries.indicator(
        role_positions(spec, n, precision).indices, precision
    )


def compute_F0(spec: EpsSpec, precision: int) -> ZSeries:
    """Indicator series of the first period slot's occurrence set."""
    return compute_Fn(spec, 0, precision)


def split_z(m: Monomial) -> tuple[int, Monomial]:
    """Power of z and letter part of a monomial in letters and z."""
    e = 0
    letters = []
    for v, k in m:
        if v == "z":
            e = k
        else:
            letters.append((v, k))
    return e, tuple(letters)
