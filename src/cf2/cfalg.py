"""Continuant arithmetic, the tail series of a continued fraction, and
discovery/verification of the algebraic relations these series satisfy.

A doubling-word sequence, read as partial quotients, has convergents whose
numerator u_n is always a single monomial; the reciprocal of the continued
fraction is the sum of the 1/u_n.  The tail sum past the preperiod (G) and
its residue-class pieces (G_n) satisfy Frobenius-twisted recursions, which
is what makes a bounded-degree linear search for relations effective: the
finder assembles the GF(2) linear system "sum_j c_j * target^j == 0 below a
depth", solves it with bitset elimination, re-checks every candidate at
(at least) doubled precision, and returns canonical representatives.
The first solves take 3/2 (unknowns + 256) of the shallowest equations
between them (see the grades below); while over 24 null vectors of a
grade remain, the next block of its equations, as many again, is imposed
on them alone, and the residual pass imposes the rest.
An unknown c * y^j shifts the packed codes of y^j by the factor f of c.
The search lays its equation keys out by depth ranges, each as a mixed
radix over the depth and the letter fields in which adding f is a fixed
shift: the row of c * y^j is one int of y^j's codes shifted by f's
offset and cut to a block's bits, and the OR of a block's rows marks its
keys.  The layout maps keys to bits one to one and keeps their order, and
a bit that is no key is 0 in every row.  So each block holds the
equations that the same shallowest keys of the system would, in the same
order, with every linear dependency among its rows: the null vectors, and
so every tag, relation and warning, are those of a solve on one column
per key.  Verification and the residual pass XOR the unknowns' shifted
power rows, cut at the precision they support.  On the inverse side these
are sets of codes; on the z side each power keeps its codes grouped by
letter part, and a row is y^j's groups re-keyed by the factor's letter
part and shifted by its z-degree, so codes are formed only for the bits
left in the sum.

The system is block diagonal by grade.  A code's degree is its depth on
the inverse side, its letter degree (z not counted) on the z side.  Let g
be the gcd of the differences of the degrees of the terms of the series
whose powers give the rows (0 if they are all equal) and delta their
class mod g (exact if g = 0): every key of c * y^j, or of c * r^(Y - j)
on `_ReciprocalRows`, has the class of j * delta (of (Y - j) * delta)
plus the degree of c's factor.  Unknowns of different classes share no
key, so `_find_relation` solves each grade, the unknowns of one class, on
its own: a row depends on the rows before it exactly when it does within
its grade, by the same combination, and the grades' tags in order of
their highest bits are those of one solve.  G, 1/CF and r have g = 2
(depths 2^n - 1), F, F_0 and F_n g = 0; a target of g = 1 is one grade.
The grades share the layouts and the powers' ints; each has its own keys
on a box without the axis its class fixes: the depth steps by g on the
inverse side, and the lowest letter field goes on the z side if g = 0.

A continued fraction y from `compute_cf` is searched on its reciprocal r,
whose powers have a few terms where y's have thousands.  r * y = 1, and r
has one least term, of depth delta; a product's least-depth part is the
product of its factors', nonzero, so multiplying by r^Y deepens every
nonzero series by exactly Y * delta.  Hence sum_j c_j * y^j vanishes below
D exactly when r^Y times it, sum_j c_j * r^(Y - j), vanishes below
D + Y * delta, Y the y-degree searched.  So the unknown c * y^j gets the
row of c * r^(Y - j), the residual pass imposes every key below the
verify bound plus Y * delta, and the null space, its reduced echelon
basis, the relations and the warnings are those of the search on the
powers of y, whose verify bound and equation count are read off y's
precisions and codes.  `_ReciprocalRows` proves the rows known that deep.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import groupby
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Union

from .gf2linalg import nullspace
from .gf2poly import (
    Gf2Poly,
    Monomial,
    mono_deg,
    mono_gcd,
    mono_pow,
    set_bits,
)
from .invseries import (
    InvSeries,
    _alphabet,
    _own_alphabet,
    _own_count,
    _Packing,
    _power_alphabet,
    _power_codes,
    _power_precision,
)
from .seqcore import EpsSpec, WordTooLargeError, _check_size
from .zseries import ZSeries, split_z

DEFAULT_VERIFY_PREC = 64
DEFAULT_FIND_PREC = 256
# a relation search refuses more unknowns c * y^j than this (the paper's
# largest, (aabb) G at ydeg 16 and coefficient degree 16, has 2,601)
MAX_UNKNOWNS = 1 << 15
# a search's least-degree relations are swept up to this dimension
_ENUMERATION_CAP = 16

Series = Union["InvSeries", "ZSeries"]


@dataclass(frozen=True)
class ContinuantPair:
    """Numerator/denominator pair of the 2^n-1 letter convergent."""

    u: Gf2Poly
    v: Gf2Poly
    n: int


def continuants(spec: EpsSpec, n: int) -> ContinuantPair:
    """Pair built by u_{k+1} = eps_k u_k^2, v_{k+1} = eps_k u_k v_k + 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_size((1 << n) - 1, f"continuant of degree 2^{n}-1")
    u = Gf2Poly.variable(spec.letter(0))
    v = Gf2Poly.one()
    for k in range(1, n):
        e = Gf2Poly.variable(spec.letter(k))
        u, v = e * u * u, e * u * v + Gf2Poly.one()
    return ContinuantPair(u, v, n)


def continuant_monomial(spec: EpsSpec, n: int) -> Monomial:
    """u_n as a bare monomial: eps_{n-1} eps_{n-2}^2 ... eps_0^{2^{n-1}}.

    n = 0 is the empty product (the convention u_0 = 1).
    """
    exps: dict[str, int] = {}
    for k in range(n):
        for v in exps:
            exps[v] <<= 1
        ch = spec.letter(k)
        exps[ch] = exps.get(ch, 0) + 1
    return tuple(sorted(exps.items()))


def _convergents(quotients: Iterable) -> Iterator[tuple]:
    """(P_n, Q_n) for n = 0, 1, ... by the three-term recurrence from
    (P_{-1}, Q_{-1}) = (1, 0) and (P_0, Q_0) = (q_0, 1), in the ring of the
    quotients (Gf2Poly or UniPoly); the quotients may be an endless iterator."""
    it = iter(quotients)
    u = next(it, None)
    if u is None:
        return
    ring = type(u)
    p_prev, q_prev, p_cur, q_cur = ring.one(), ring.zero(), u, ring.one()
    yield p_cur, q_cur
    for u in it:
        p_cur, p_prev = u * p_cur + p_prev, p_cur
        q_cur, q_prev = u * q_cur + q_prev, q_cur
        yield p_cur, q_cur


def _reciprocal_sum(spec: EpsSpec, first: int, step: int, precision: int):
    """Sum of 1/u_n over n = first, first + step, ... below the precision."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    terms = []
    n = first
    while (1 << n) - 1 < precision:
        terms.append(continuant_monomial(spec, n))
        n += step
    return InvSeries(terms, precision)


def compute_inv_cf(spec: EpsSpec, precision: int) -> InvSeries:
    """Reciprocal of the continued fraction: sum over n >= 1 of 1/u_n."""
    return _reciprocal_sum(spec, 1, 1, precision)


def compute_cf(spec: EpsSpec, precision: int) -> InvSeries:
    """The continued fraction itself (inverse of the reciprocal sum).

    The result carries the reciprocal sum, which `InvSeries.power` and
    relation searches use, and Newton's iteration deepened only as far as
    it is read: a search reads its letters and its codes below the solve
    depth, powers and verification read them all, packed, and its terms
    are decoded only when first read.
    """
    inv = compute_inv_cf(spec, precision + 2)
    cf = inv.inverse(precision)
    return InvSeries._raw(cf._terms, cf.precision, inv, cf._newton)


def compute_G(spec: EpsSpec, precision: int) -> InvSeries:
    """Tail sum past the preperiod: sum over n > l of 1/u_n."""
    return _reciprocal_sum(spec, spec.l + 1, 1, precision)


def compute_Gn(spec: EpsSpec, n: int, precision: int) -> InvSeries:
    """Residue-class piece: sum over k >= 0 of 1/u_{l+n+kd} (u_0 = 1)."""
    if not 0 <= n < spec.d:
        raise ValueError("period index out of range")
    return _reciprocal_sum(spec, spec.l + n, spec.d, precision)


class Relation:
    """Candidate algebraic equation sum_j c_j * y^j = 0.

    Coefficients are letter polynomials (optionally with z); at least one
    must be nonzero.  The finder strips common monomial factors wherever
    the target shows that the stripped form still holds.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Gf2Poly]):
        cleaned = {j: c for j, c in coeffs.items() if c}
        if not cleaned:
            raise ValueError("a relation needs at least one nonzero coefficient")
        if any(j < 0 for j in cleaned):
            raise ValueError("negative powers of the unknown are not allowed")
        self.coeffs = dict(sorted(cleaned.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Relation) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted((j, c.terms) for j, c in self.coeffs.items())))

    def content(self) -> Monomial:
        return mono_gcd(m for c in self.coeffs.values() for m in c.terms)

    def content_stripped(self) -> "Relation":
        m = self.content()
        if not m:
            return self
        return Relation({j: c.div_monomial(m) for j, c in self.coeffs.items()})

    def max_monomial_degree(self) -> int:
        return max(c.degree() for c in self.coeffs.values())

    def monomial_count(self) -> int:
        return sum(len(c.terms) for c in self.coeffs.values())

    def inline_str(self) -> str:
        parts = []
        for j, c in self.coeffs.items():
            yp = "" if j == 0 else ("y" if j == 1 else f"y^{j}")
            if j == 0:
                parts.append(f"({c})")
            elif c == Gf2Poly.one():
                parts.append(yp)
            else:
                parts.append(f"({c})*{yp}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.inline_str()

    def __repr__(self) -> str:
        return f"Relation({self})"

    def to_file_text(self) -> str:
        return "".join(f"deg {j}: {c}\n" for j, c in self.coeffs.items())

    @classmethod
    def from_file_text(cls, text: str) -> "Relation":
        coeffs: dict[int, Gf2Poly] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, _, poly = line.partition(":")
            if not head.startswith("deg") or not poly.strip():
                raise ValueError(f"bad relation line {line!r}")
            j = int(head[3:].strip())
            coeffs[j] = coeffs.get(j, Gf2Poly.zero()) + Gf2Poly.parse(poly.strip())
        return cls(coeffs)

    def to_json(self) -> dict:
        return {"coeffs": [[j, str(c)] for j, c in self.coeffs.items()]}

    @classmethod
    def from_json(cls, data: dict) -> "Relation":
        return cls({int(j): Gf2Poly.parse(c) for j, c in data["coeffs"]})


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of substituting a series into a relation."""

    vanished: bool
    residual_depth: Optional[int]
    precision: float

    def to_json(self) -> dict:
        return {
            "vanished": self.vanished,
            "residual_depth": self.residual_depth,
            "precision": None if self.precision == math.inf else self.precision,
        }


def _graded_coefficient(m: Monomial, z_side: bool) -> tuple[int, Monomial]:
    """(depth shift, term) factor of a coefficient monomial: its z power
    and letter part on the z side, its inverse-power term otherwise."""
    if z_side:
        return split_z(m)
    t = mono_pow(m, -1)
    return mono_deg(t), t


class _RowSupplier:
    """Support rows of the unknowns c * y^j, for both series kinds.

    Each power y^j of the target is formed once, when first asked for, as
    the sorted codes and precision `_power_codes` gives, never as a series;
    a z-side power keeps its codes grouped by letter part too.  The
    packing covers every code formed for y^0 .. y^ydeg (`_power_alphabet`)
    times a coefficient factor over `letters` of largest |exponent|
    `f_top`; a search that has scanned the target passes its bound on
    their |exponents| as `top`, `letters` then being the target's, and the
    `_own_alphabet` of its reciprocal as `r_own`.  A row is the
    codes of one power shifted by the bias-free code of a factor and cut at
    a depth bound.  Codes order by depth, then by their fields, whatever
    the field width, so a supplier built for a higher y-degree gives every
    row and key in the same order.
    """

    def __init__(
        self, target: Series, ydeg: int, letters, f_top: int, top=None, r_own=None
    ):
        own = None if top is None else (set(letters), top)
        p_letters, bound = _power_alphabet(target, ydeg, own, r_own)
        self.series = target
        self.z_side = isinstance(target, ZSeries)
        self.packing = _Packing(p_letters | set(letters), bound + f_top)
        self.powers: dict[int, tuple] = {}
        self.groups: dict[int, dict[int, int]] = {}

    def power(self, j: int) -> tuple[list[int], float]:
        """The codes and precision of y^j."""
        if j not in self.powers:
            packed, prec = _power_codes(self.series, self.packing, j)
            if self.z_side:
                self.groups[j] = packed
                packed = self.packing.ungroup(packed, prec)
            self.powers[j] = packed, prec
        return self.powers[j]

    def precision_and_shift(self, ydeg: int) -> tuple[float, int]:
        """Fix the y-degree of a search: the least precision of y^0 ..
        y^ydeg, and how much deeper than those powers the rows lie (0)."""
        return min(self.power(j)[1] for j in range(ydeg + 1)), 0

    def equations(self, unknowns: "_Unknowns", ydeg: int, p_sys, n: int) -> int:
        """`_equation_count` of the search of y-degree ydeg."""
        return _equation_count(self, unknowns.factors, ydeg, p_sys, n)

    def support(self, j: int, factor: int, bound) -> list[int]:
        codes = self.power(j)[0]
        limit = self.packing.limit(bound)
        end = len(codes) if limit is None else bisect_left(codes, limit - factor)
        return [c + factor for c in codes[:end]]

    def residual(self, shifts, tag: int, bound):
        """The codes, below bound, of the sum of the rows of the unknowns
        `shifts[i]` = (j, factor) over the set bits i of a tag.  On the z
        side it is summed by letter part: y^j's groups, each re-keyed by
        the factor's letter part and shifted by its depth."""
        if not self.z_side:
            keys: set = set()
            for i in set_bits(tag):
                keys.symmetric_difference_update(self.support(*shifts[i], bound))
            return keys
        pk = self.packing
        letters = (1 << pk.shift) - 1
        acc: dict[int, int] = {}
        for i in set_bits(tag):
            j, factor = shifts[i]
            self.power(j)
            at, depth = factor & letters, factor >> pk.shift
            for key, b in self.groups[j].items():
                acc[key + at] = acc.get(key + at, 0) ^ b << depth
        return pk.ungroup(acc, bound)


class _ReciprocalRows(_RowSupplier):
    """The rows of a continued fraction's unknowns on its reciprocal r: in a
    search of y-degree Y, c * y^j gets the row of c * r^(Y - j),
    imposed below vb + Y * delta (see the module docstring).

    The rows are known that deep.  The continued fraction y of precision
    P >= 0 that `compute_cf` builds carries r = sum of the 1/u_n at
    precision P + 2, whose least term 1/u_1 has depth delta = 1.  r^0 = 1
    is exact, and r^k, k >= 1, is known below P + 1 + k, least depth k: a
    Frobenius power r^(2^i) below (P + 2) * 2^i >= P + 1 + 2^i, and by
    `product_precision` a product of r^a and r^b so known below
    min(P + 1 + a + b, P + 1 + b + a).  A coefficient of degree <= C lowers
    a row's precision by at most C, so every row is known below P + 2 - C.
    The direct search's y^j is known below (P + 1) * 2^v - j, 2^v the
    largest power of two dividing j (`invseries`): at least 2 * (P + 1) - Y
    for an even j, so the least is at the largest odd j_odd <= Y, and
    vb = P + 1 - j_odd - C.  As j_odd >= Y - 1, vb + Y <= P + 2 - C.
    """

    def __init__(self, target: InvSeries, ydeg: int, letters, f_top: int, top):
        # r is scanned once, for these rows and for the direct system's
        r = target.reciprocal
        r_letters, r_top = r_own = _own_alphabet(r)
        super().__init__(r, ydeg, set(letters) | r_letters, f_top, r_top)
        self.target, self.ydeg = target, ydeg
        # y's own powers, formed only if the direct system's keys are counted
        self.direct = _RowSupplier(target, ydeg, letters, f_top, top, r_own)

    def power(self, j: int) -> tuple[list[int], float]:
        """The codes and precision of r^(Y - j)."""
        return super().power(self.ydeg - j)

    def precision_and_shift(self, ydeg: int) -> tuple[float, int]:
        """Fix Y = ydeg: the precision of the direct search's y^0 .. y^Y, read
        off y's precisions, and the depth Y * delta of r^Y."""
        self.ydeg = ydeg
        precision = min(_power_precision(self.target, j) for j in range(ydeg + 1))
        return precision, ydeg * self.series.depth_norm()

    def equations(self, unknowns: "_Unknowns", ydeg: int, p_sys, n: int) -> int:
        """`_equation_count` of the direct system, taken only when |C| + |F|
        - 1 falls short, C y's own codes below p_sys (max F is 0 here)."""
        f = len(unknowns.factors)
        if (own := _own_count(self.target, p_sys, n - f + 1)) + f > n:
            return own + f - 1
        pk = self.direct.packing
        factors = [pk.factor(*_graded_coefficient(m, False)) for m in unknowns.monomials]
        return _equation_count(self.direct, factors, ydeg, p_sys, n)


def _row_kind(target: Series) -> type:
    """The supplier of a search's rows: of the target's powers, or of its
    reciprocal's when it carries one."""
    if getattr(target, "reciprocal", None) is None:
        return _RowSupplier
    return _ReciprocalRows


class _Layout:
    """The keys at depths [lo, hi) laid out densely, and the codes of each
    power on that layout.

    A bit position is a mixed radix over the axes of `_Unknowns`: the
    depth, most significant, then the letter fields from the highest down,
    so positions keep the codes' order.  Each radix spans the values that
    the codes in [lo - max f, hi - min f) plus the factors reach, so
    positions add: the key c + f sits at c's position plus f's offset, and
    the row of (j, f) is y^j's int shifted by f's offset.  The depth axis
    counts depth // q, q the step between one grade's depths, so a key's
    count is the code's plus the factor's, plus a carry of 1 fixed by the
    grade and j.  The grades share the powers' ints but not the keys.
    The depths [lo, hi) hold the bits [base, top); `build` trims them to
    each grade's keys.
    """

    def __init__(self, grown: "_GrownRows", lo, hi):
        pk, u = grown.packing, grown.unknowns
        start, end = pk.limit(lo) - u.reach[1], pk.limit(hi) - u.reach[0]
        self.sources = [
            cs[bisect_left(cs, start): bisect_left(cs, end)] for cs in grown.codes
        ]
        codes = [c for cs in self.sources for c in cs]
        self.depths, self.base, self.top, self.count = (lo, lo), 0, 0, 0
        if not codes:
            return
        # (shift, mask, step, multiplier) per axis from the least significant
        # up, each radix the codes' span of values plus the factors'
        self.axes, self.c_low, self.f_low, size = [], 0, 0, 1
        for (s, m, q), (lf, hf) in zip(u.axes, u.factor_spans):
            cv = [((c >> s) & m) // q for c in codes]
            lc, hc = min(cv), max(cv)
            self.axes.append((s, m, q, size))
            self.c_low, self.f_low = self.c_low + lc * size, self.f_low + lf * size
            size *= hc - lc + hf - lf + 1 + (q > 1)
        # the last axis done is the depth: the keys' counts run from lc + lf
        # to hc + hf (+ 1 by a carry), and count x starts at bit
        # (x - lc - lf) * multiplier.  [base, top) holds every grade's keys
        self.low, self.mult, self.step = lc + lf, self.axes[-1][3], q
        self.depths = max(lo, q * self.low), min(hi, q * (hc + hf + 1 + (q > 1)))
        self.base, self.top = self._bit(self.depths[0], q - 1), self._bit(self.depths[1], 0)

    def _bit(self, depth, rest: int) -> int:
        """The first bit of the keys of depth >= `depth` whose depths are
        `rest` mod the step."""
        return (-((rest - depth) // self.step) - self.low) * self.mult

    def build(self, grown: "_GrownRows") -> None:
        """Each power's int, each factor's offset, formed axis by axis from
        the factors' fields, and each grade's keys' bits from its shallowest
        key to its deepest."""

        def place(c: int) -> int:
            return sum(((c >> s) & m) // q * mult for s, m, q, mult in self.axes)

        self.powers = [
            sum(1 << (place(c) - self.c_low) for c in cs) for cs in self.sources
        ]
        self.sources = None
        self.offsets = [-self.f_low] * len(grown.unknowns.factors)
        for (*_, mult), values in zip(self.axes, grown.unknowns.factor_fields):
            self.offsets = [o + v * mult for o, v in zip(self.offsets, values)]
        self.base, self.keys = [], []
        for rest, parts in grown.parts:
            keys = 0
            for ys, fs, carry in parts:
                union = 0
                for j in ys:
                    union |= self.powers[j]
                union <<= carry * self.mult
                for i in fs:
                    keys |= union << self.offsets[i]
            base, top = (self._bit(d, rest) for d in self.depths)
            keys = keys >> base & ((1 << (top - base)) - 1)
            low = (keys & -keys).bit_length() - 1 if keys else 0
            self.base.append(base + low)
            self.keys.append(keys >> low)
        self.counts = [k.bit_count() for k in self.keys]
        self.widths = [k.bit_length() for k in self.keys]
        self.count = sum(self.counts)


class _GrownRows:
    """The keys of a search's system, grown by depth bands (-inf, D),
    [D, 2D), ... up to p_sys, D = max(8, p_sys / 8), and the rows of the
    unknowns (j, i) of `unknowns`, j <= max_ydeg, on any block of them.

    The keys are the codes c + f, c a code of some y^j and f a factor,
    and are kept per grade (`grades`, see the module docstring), each
    listing its unknowns (j, i) in index order.  Only the y side is
    graded here: `unknowns` grades the factors once.  Each band is laid
    out as one `_Layout`, or as one per half where the split pays
    (`_lay_out`: codes drift with the depth, so a thin box wastes fewer
    bits, but each layout costs `block` a fixed price per unknown).  Codes
    order by depth first, so the keys known are every key shallower than
    the depth reached, and the layouts side by side keep their order.  On
    the inverse side the depth is the sum of the letter fields and fixes
    the lowest one, which gets no axis; on the z side a grade's letter
    degree fixes it when g = 0.
    """

    def __init__(self, supplier: _RowSupplier, unknowns: _Unknowns, max_ydeg, p_sys):
        self.packing, self.unknowns, self.p_sys = supplier.packing, unknowns, p_sys
        self.codes = [supplier.power(j)[0] for j in range(max_ydeg + 1)]
        # the unknowns by the class mod g (exact if g = 0) of their keys'
        # degree, y^j's plus the factor's: each grade's remainder mod q with
        # its (powers, factors, carry) blocks, its unknowns in index order,
        # and its carry for each y^j
        pk, g, q = self.packing, unknowns.modulus, unknowns.step
        ys = [_degree(pk, supplier.z_side, c[0]) if c else 0 for c in self.codes]
        grades: dict[int, list] = {}
        for yc, js in _by_class(ys, g).items():
            for fc, ids in unknowns.classes.items():
                carry = int(yc % q + fc % q >= q)
                grades.setdefault((yc + fc) % g if g else yc + fc, []).append(
                    (js, ids, carry))
        self.parts = [(c % q, grades[c]) for c in sorted(grades)]
        self.grades, self.carries = [], []
        for _, parts in self.parts:
            by_power = sorted((j, ids, c) for js, ids, c in parts for j in js)
            self.grades.append([(j, i) for j, ids, _ in by_power for i in ids])
            self.carries.append({j: carry for j, _, carry in by_power})
        self.layouts: list[_Layout] = []
        self.counts = [0] * len(self.grades)
        self.count = 0
        self.depth = -math.inf

    def grow(self, n: int, grade: Optional[int] = None) -> int:
        """Grow until n keys of a grade, or of all grades when it is None,
        are known or p_sys is reached; that count."""
        def known() -> int:
            return self.count if grade is None else self.counts[grade]

        while known() < n and self.depth < self.p_sys:
            lo = self.depth if self.depth == -math.inf else math.ceil(self.depth)
            self.depth = min(self.p_sys, max(8, self.p_sys / 8, 2 * self.depth))
            for layout in self._lay_out(_Layout(self, lo, math.ceil(self.depth))):
                self.layouts.append(layout)
                self.counts = [a + b for a, b in zip(self.counts, layout.counts)]
                self.count += layout.count
        return known()

    def _lay_out(self, whole: _Layout) -> list[_Layout]:
        """The layouts with keys of `whole`, or of its halves, built.

        The halves are kept when they take under 9/10 of its bits and save
        at least 512.  A bit saved shortens every named unknown's row in
        `block` and `nullspace`; a layout costs every named unknown one
        more shift, mask and OR in `block`.  Both scale with the unknowns,
        so the split pays past a fixed count of bits, 512 by timing.
        """
        lo, hi = whole.depths
        if hi - lo > 1:
            mid = (lo + hi) // 2
            halves = [_Layout(self, lo, mid), _Layout(self, mid, hi)]
            bits, split = whole.top - whole.base, sum(h.top - h.base for h in halves)
            if 10 * split < 9 * bits and bits - split >= 512:
                return [x for h in halves for x in self._lay_out(h)]
        if whole.top <= whole.base:
            return []
        whole.build(self)
        return [whole] if whole.count else []

    def _locate(self, grade: int, n: int) -> tuple[int, int]:
        """(layout, bit) of the key of a grade with n keys of it before it:
        the least bit with n + 1 keys up to it, by bisection on those
        counts."""
        for i, layout in enumerate(self.layouts):
            count, keys = layout.counts[grade], layout.keys[grade]
            if n < count:
                if n in (0, count - 1):  # the keys run from bit 0 to the last
                    return i, 0 if n == 0 else layout.widths[grade] - 1
                return i, bisect_left(
                    range(layout.widths[grade]), n + 1,
                    key=lambda b: (keys & ((2 << b) - 1)).bit_count(),
                )
            n -= count
        raise IndexError(n)

    def block(self, grade: int, lo: int, hi: int, named: int) -> tuple[list[int], int]:
        """Each unknown of a grade's row on its keys lo .. hi - 1, and the
        bits those keys span: from the first key's bit to the last's, layout
        after layout.  Unknowns whose index in the grade is not set in
        `named` get a 0 row."""
        ks = self.grades[grade]
        rows = [0] * len(ks)
        if lo >= hi:
            return rows, 0
        (i_lo, first), (i_hi, last) = self._locate(grade, lo), self._locate(grade, hi - 1)
        which = set_bits(named)
        at = 0
        for x in range(i_lo, i_hi + 1):
            layout = self.layouts[x]
            start = first if x == i_lo else 0
            end = last + 1 if x == i_hi else layout.widths[grade]
            s, mask = layout.base[grade] + start, (1 << (end - start)) - 1
            powers, offsets = layout.powers, layout.offsets
            lift = {j: c * layout.mult - s for j, c in self.carries[grade].items()}
            for k in which:
                j, i = ks[k]
                d = offsets[i] + lift[j]
                p = powers[j] << d if d >= 0 else powers[j] >> -d
                rows[k] |= (p & mask) << at
            at += end - start
        return rows, at


def _degree(pk: _Packing, z_side: bool, code: int) -> int:
    """The degree a search grades by of a biased code: its depth on the
    inverse side (the sum of its exponents), its letter degree on the z
    side (z not counted)."""
    if not z_side:
        return pk.depth(code)
    w, n = pk.width, len(pk.letters)
    mask = (1 << w) - 1
    return sum((code >> i * w) & mask for i in range(n)) - n * (1 << (w - 1))


def _by_class(degrees: list[int], g: int) -> dict[int, list[int]]:
    """Indices of some degrees by their class mod g (exact if g = 0)."""
    classes = [d % g for d in degrees] if g else degrees
    order = sorted(range(len(classes)), key=classes.__getitem__)
    return {c: list(ids) for c, ids in groupby(order, classes.__getitem__)}


def _grade_modulus(supplier: _RowSupplier) -> int:
    """g: the gcd of the differences of the degrees of the terms of the
    series whose powers give the rows, 0 when they are all equal."""
    pk, s, z_side = supplier.packing, supplier.series, supplier.z_side
    codes = pk.groups(s) if z_side else pk.codes(s)
    degrees = [_degree(pk, z_side, c) for c in codes]
    g = 0
    for d in degrees:
        g = math.gcd(g, d - degrees[0])
    return g


def _combine(rows: list[int], tag: int) -> int:
    """XOR of the rows whose indices are the set bits of a tag."""
    acc = 0
    for i in set_bits(tag):
        acc ^= rows[i]
    return acc


def _equation_count(supplier: _RowSupplier, factors, ydeg: int, p_sys, n: int) -> int:
    """The keys c + f below p_sys, c a code of y^j, j <= ydeg, and f a factor,
    if fewer than n, else a count >= n.  The translates c + F of codes more
    than max F - min F apart are disjoint, so codes so spaced below p_sys
    less max F bound the count, |F| keys each, before any key is formed."""
    limit, high = supplier.packing.limit(p_sys), max(factors)
    powers = [supplier.power(j)[0] for j in range(ydeg + 1)]
    at = -math.inf
    for _ in range(-(-n // len(factors))):
        c = min((cs[i] for cs in powers if (i := bisect_left(cs, at)) < len(cs)),
                default=limit)
        if c >= limit - high:
            break
        at = c + high - min(factors) + 1
    else:
        return n
    keys: set = set()
    for f in factors:
        for j in range(ydeg + 1):
            keys.update(supplier.support(j, f, p_sys))
        if len(keys) >= n:
            break
    return len(keys)


def _mask_rows(supports, keys: list) -> list[int]:
    """Each support's GF(2) row over the equations `keys`, bit i for keys[i].

    Bits are set in a byte buffer and each row is built by one int: or-ing
    1 << i into an int would copy the whole row for every key.
    """
    index = {k: i for i, k in enumerate(keys)}
    size = (len(keys) + 7) >> 3
    rows = []
    for sup in supports:
        buf = bytearray(size)
        for k in sup:
            i = index[k]
            buf[i >> 3] |= 1 << (i & 7)
        rows.append(int.from_bytes(buf, "little"))
    return rows


def _restrict(tags: list[int], rows: list[int], width: int) -> list[int]:
    """The combinations of null vectors `tags` that vanish on `width`
    further equations, `rows[i]` being tags[i]'s row on them."""
    return [_combine(tags, combo) for combo in nullspace(rows, width)]


def verify_relation(rel: Relation, target: Series) -> ResidualReport:
    """Substitute the target and report whether the residual vanished.

    The residual is known below the least precision of its products: a
    power's precision, lowered (never raised) by the depth of the
    shallowest factor of its coefficient.
    """
    z_side = isinstance(target, ZSeries)
    factors = {
        j: [_graded_coefficient(m, z_side) for m in c.terms]
        for j, c in rel.coeffs.items()
    }
    f_letters, f_top = _alphabet(t for fs in factors.values() for _, t in fs)
    supplier = _RowSupplier(target, max(rel.coeffs), f_letters, f_top)
    precision = min(
        supplier.power(j)[1] + min(0, min(d for d, _ in fs))
        for j, fs in factors.items()
    )
    pk = supplier.packing
    shifts = [(j, pk.factor(d, t)) for j, fs in factors.items() for d, t in fs]
    residual = supplier.residual(shifts, (1 << len(shifts)) - 1, precision)
    if not residual:
        return ResidualReport(True, None, precision)
    return ResidualReport(False, pk.depth(min(residual)), precision)


class _Unknowns:
    """The unknowns c * y^j, j <= max_ydeg, of a search or of a sweep up
    to its cap, and the factor side of their grading, built once.

    Unknown k is y^j times monomial i of the coefficient grid, (j, i) =
    divmod(k, n), n the grid's size; only this class converts between k
    and (j, i).  The grid comes from exponent vectors: a factor is the
    exponents times the letters' unit codes plus the z exponent in the
    depth field (on the inverse side, of m^-1: the degree is the depth and
    all is negated), and one sort on (degree, exponents, z exponent) gives
    the canonical print order reversed, as no letter a-y sorts after z.
    So sorted stably by degree the unknowns take the degrees in turn, each
    j-major: (j, i) is at (max_ydeg + 1) * lo + j * (hi - lo) + i - lo,
    the grid's monomials of i's degree being lo .. hi - 1; a lower
    y-degree's unknowns keep this order.
    """

    def __init__(self, supplier: _RowSupplier, bounds, coeff_deg_bound: int, max_ydeg):
        letters, z_deg_bound, _ = bounds
        pk, z_side = supplier.packing, supplier.z_side
        w, shift = pk.width, pk.shift
        cells = [(0, (), 0)]  # (degree, exponents, code) of each letter part
        for v in letters:
            unit = 1 << w * pk.index[v]
            cells = [(d + e, x + (e,), c + e * unit)
                     for d, x, c in cells for e in range(coeff_deg_bound - d + 1)]
        if z_deg_bound is None:
            cells = sorted((d, x, 0, -c - (d << shift)) for d, x, c in cells)
        else:
            cells = sorted((d + e, x, e, c + (e << shift))
                           for d, x, c in cells for e in range(z_deg_bound + 1))
        self.monomials = [tuple((v, e) for v, e in zip(letters, x) if e)
                          + ((("z", z),) if z else ()) for _, x, z, _ in cells]
        self.degrees, self.factors = [d for d, *_ in cells], [f for *_, f in cells]
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.ydeg = max_ydeg
        self.shifts = [(j, f) for j in range(max_ydeg + 1) for f in self.factors]
        # the factor side of the grading; the axes run from the least significant up
        fs = [f + pk.bias for f in self.factors]
        fields = [values for _, values in pk.fields(fs)]
        self.modulus = g = _grade_modulus(supplier)
        self.step = q = g if g > 1 and not z_side else 1
        first = 0 if z_side and g else 1
        self.axes = [(i * w, (1 << w) - 1, 1) for i in range(first, len(fields))]
        self.axes.append((shift, -1, q))
        self.factor_fields = [*fields[first:], [pk.depth(f) // q for f in fs]]
        self.factor_spans = [(min(v), max(v)) for v in self.factor_fields]
        self.reach = min(self.factors), max(self.factors)
        self.classes = _by_class([_degree(pk, z_side, f) for f in fs], g)

    def __getitem__(self, k: int) -> tuple[int, Monomial]:
        j, i = divmod(k, len(self.monomials))
        return j, self.monomials[i]

    def bit(self, j: int, i: int) -> int:
        """The tag bit of unknown (j, i)."""
        return 1 << j * len(self.monomials) + i

    def rank(self, k: int) -> tuple[int, int]:
        """The degree of unknown k and its place in that order."""
        j, i = divmod(k, len(self.degrees))
        d = self.degrees[i]
        lo, hi = bisect_left(self.degrees, d), bisect_right(self.degrees, d)
        return d, (self.ydeg + 1) * lo + j * (hi - lo) + i - lo


def _materialize(tag: int, unknowns) -> Relation:
    """The relation a null vector spells; its unknowns (j, m) are distinct."""
    coeffs: dict[int, list] = {}
    for i in set_bits(tag):
        j, mon = unknowns[i]
        coeffs.setdefault(j, []).append(mon)
    return Relation({j: Gf2Poly._raw(frozenset(ms)) for j, ms in coeffs.items()})


def _least_degree_span(tags: list[int], unknowns: _Unknowns) -> list[int]:
    """Basis of the least-degree part of the span of the independent `tags`,
    echelonised so that each lead is its highest (degree, index) unknown."""
    degree: dict[int, int] = {}
    leads: dict[int, tuple[int, int]] = {}
    for tag in tags:
        key = 0
        for i in set_bits(tag):
            d, r = unknowns.rank(i)
            degree[r] = d
            key |= 1 << r
        while (lead := key.bit_length() - 1) in leads:
            key, tag = key ^ leads[lead][0], tag ^ leads[lead][1]
        leads[lead] = (key, tag)
    least = degree[min(leads)]
    return [t for r, (_, t) in leads.items() if degree[r] == least]


def _stripped_basis(tags: list[int], unknowns: _Unknowns) -> list[Relation]:
    """The relations of the reduced null basis `tags`, each stripped of its
    content if that stays a null vector (on a shallow target it may not).
    Each tag's highest bit is in no other tag, so x is in the span exactly
    when the XOR of the tags whose highest bits are set in x is x."""
    rels = [_materialize(tag, unknowns) for tag in tags]
    if not any(rel.content() for rel in rels):
        return rels
    leads = defaultdict(int, {tag.bit_length() - 1: tag for tag in tags})
    out = []
    for rel in rels:
        stripped = rel.content_stripped()
        x = sum(unknowns.bit(j, unknowns.index[m])
                for j, c in stripped.coeffs.items() for m in c.terms)
        out.append(stripped if _combine(leads, x) == x else rel)
    return out


def _relation_sort_key(rel: Relation):
    return (rel.max_monomial_degree(), rel.monomial_count(), rel.inline_str())


def _search_bounds(
    target: Series, max_ydeg: int, coeff_deg_bound: int,
    z_deg_bound: Optional[int],
) -> tuple[list[str], Optional[int], int]:
    """The target's letters, the z-degree bound in force (None on the
    inverse side) and a bound on the |exponents| of the target's terms,
    once the bounds are checked: one scan of the terms for the whole
    search (`_own_alphabet`).  An inverse's letters are read off Newton's
    iteration, deepened until it shows every letter of the operand or to
    its end, and its bound is the iteration's packing bound.

    The unknowns, (max_ydeg + 1) powers times C(#letters + coeff_deg_bound,
    #letters) letter monomials times the z powers, are counted in closed
    form, so an oversize search is refused before anything is built.
    """
    z_side = isinstance(target, ZSeries)
    if z_side:
        if z_deg_bound is None:
            z_deg_bound = coeff_deg_bound
    elif isinstance(target, InvSeries):
        if z_deg_bound is not None:
            raise ValueError("z-degree bound only applies to z-series targets")
    else:
        raise TypeError(f"cannot search relations for {type(target).__name__}")
    if coeff_deg_bound < 0 or (z_side and z_deg_bound < 0):
        raise ValueError("degree bounds must be nonnegative")
    letters, top = _own_alphabet(target)
    n_mons = math.comb(len(letters) + coeff_deg_bound, len(letters))
    unknowns = (max_ydeg + 1) * n_mons * (z_deg_bound + 1 if z_side else 1)
    if unknowns > MAX_UNKNOWNS:
        raise WordTooLargeError(
            f"the relation search exceeds the size cap of {MAX_UNKNOWNS} unknowns"
        )
    return sorted(letters), z_deg_bound, top


def find_relation(
    target: Series,
    max_ydeg: int,
    coeff_deg_bound: int,
    z_deg_bound: Optional[int] = None,
    prec: int = DEFAULT_FIND_PREC,
) -> list[Relation]:
    """All bounded-coefficient relations the target satisfies below prec.

    The returned relations are canonical: verified at the target's full
    precision (at least twice `prec` when the target allows), stripped of
    common monomial content where that stays verified, deduplicated, and
    sorted so that the smallest representative (lowest coefficient degree,
    then fewest monomials) comes first.  It is ranked among the
    least-degree relations only, since degrees add over multiples of the
    minimal relation, with a warning when they span over _ENUMERATION_CAP
    dimensions.  An empty list means no relation exists within the bounds.
    A search of more than MAX_UNKNOWNS unknowns raises WordTooLargeError
    before any power is built.
    """
    if max_ydeg < 1:
        raise ValueError("max_ydeg must be at least 1")
    supplier, unknowns = _set_up(target, max_ydeg, coeff_deg_bound, z_deg_bound)
    tags = _find_relation(supplier, unknowns, max_ydeg, coeff_deg_bound, prec)
    if not tags:
        return []
    best = _least_relation(tags, unknowns)
    basis = dict.fromkeys(_stripped_basis(tags, unknowns))
    rest = sorted((r for r in basis if r != best), key=_relation_sort_key)
    return [best, *rest]


def _set_up(target: Series, max_ydeg: int, coeff_deg_bound: int, z_deg_bound):
    """The row supplier and the unknowns of a search, or of a sweep up to
    max_ydeg, each built once, the bounds checked first."""
    bounds = _search_bounds(target, max_ydeg, coeff_deg_bound, z_deg_bound)
    letters, _, top = bounds
    supplier = _row_kind(target)(target, max_ydeg, letters, coeff_deg_bound, top)
    return supplier, _Unknowns(supplier, bounds, coeff_deg_bound, max_ydeg)


def _first_solve_size(n_unknowns: int) -> int:
    """Equations of a search's first solves, shared by its grades: each
    (aabb) G grade is solved once, and few spare null vectors reach the
    residual pass."""
    return 3 * (n_unknowns + 256) // 2


def _find_relation(supplier, unknowns, max_ydeg, coeff_deg_bound, prec, solved=None):
    """The verified null space of `find_relation`'s system, as the tags of
    its reduced echelon basis over the `unknowns` with j <= max_ydeg, after
    its warnings, from its first solves or those of a higher y-degree,
    `solved` (see `minimal_degree_report`).  The verify bound, p_sys and
    the equation count are those of the direct search, while the rows and
    every depth they are cut at lie `shift` deeper (on `_ReciprocalRows`)."""
    y_precision, shift = supplier.precision_and_shift(max_ydeg)
    verify_bound = y_precision - coeff_deg_bound
    if verify_bound < 2 * prec:
        warnings.warn(
            f"target precision supports verification below {verify_bound}, "
            f"less than twice the solve precision {prec}",
            stacklevel=3,
        )
    p_sys = min(prec, verify_bound)
    n_unknowns = (max_ydeg + 1) * len(unknowns.factors)
    n_direct = supplier.equations(unknowns, max_ydeg, p_sys, n_unknowns)
    if n_direct < n_unknowns:
        warnings.warn(
            f"under-determined system: {n_direct} equations for "
            f"{n_unknowns} unknowns below depth {p_sys}",
            stacklevel=3,
        )
    if solved is None:
        tags = _solve(supplier, unknowns, max_ydeg, p_sys + shift)
    else:
        tags = [tag for tag in solved if tag >> n_unknowns == 0]
    # impose the remaining equations exactly, at full available precision
    bound = verify_bound + shift
    residuals = [supplier.residual(unknowns.shifts, tag, bound) for tag in tags]
    if any(residuals):
        rkeys = sorted(set().union(*residuals))
        return _restrict(tags, _mask_rows(residuals, rkeys), len(rkeys))
    return tags


def _solve(supplier, unknowns, max_ydeg, depth) -> list[int]:
    """The tags of the first solves of `_find_relation`'s system, its rows
    cut at depth: p_sys, plus the rows' shift."""
    # keys grow by depth only as deep as the solve reads them: the first n
    # of a grade are the n shallowest of its system cut at depth, and fewer
    # than n are known only when they are its whole system
    grown = _GrownRows(supplier, unknowns, max_ydeg, depth)
    n_unknowns = sum(map(len, grown.grades))

    # solve each grade first on the shallowest of its equations known once
    # `_first_solve_size` keys are, at most its share of them by its
    # unknowns.  While a grade's solution space stays implausibly large
    # (the residual pass below is linear in it), impose the next block of
    # its equations on it alone: null([A | B]) is {x in null(A) : xB = 0},
    # and combining the tags by the block's null combinations gives the
    # basis a solve of [A | B] would (see gf2linalg)
    whole = _first_solve_size(n_unknowns)
    grown.grow(whole)
    n_eqs = [min(n, -(-whole * len(ks) // n_unknowns))
             for n, ks in zip(grown.counts, grown.grades)]
    tags = []
    for r, (ks, n_eq) in enumerate(zip(grown.grades, n_eqs)):
        found = nullspace(*grown.block(r, 0, n_eq, (1 << len(ks)) - 1))
        while len(found) > 24 and n_eq < grown.grow(2 * n_eq, r):
            lo, n_eq = n_eq, min(grown.counts[r], 2 * n_eq)
            # only the unknowns some null vector names need rows
            named = 0
            for tag in found:
                named |= tag
            rows, width = grown.block(r, lo, n_eq, named)
            found = _restrict(found, [_combine(rows, tag) for tag in found], width)
        tags += [sum(unknowns.bit(*ks[i]) for i in set_bits(tag)) for tag in found]
    # a row depends on the rows before it exactly when it does within its
    # grade, so in order of their highest bits these are the tags of one
    # solve on every grade's equations
    return sorted(tags)


def _least_relation(tags: list[int], unknowns) -> Relation:
    """The first relation of a search ending on the null vectors `tags`:
    the least combination of V_min, the relations of least largest
    coefficient degree.  Every relation is Q * P, P primitive and minimal
    (Gauss's lemma), and degrees add, so V_min is P times polynomials in
    y: max_ydeg - deg_y P + 1 dimensions.  On a target deep enough for the
    search no element of V_min has a content: its stripped form would
    have a lower degree.  Past _ENUMERATION_CAP dimensions it is the least
    stripped basis relation, with a warning at the search's caller."""
    v_min = _least_degree_span(tags, unknowns)
    if len(v_min) > _ENUMERATION_CAP:
        warnings.warn(
            f"least-degree dimension {len(v_min)} exceeds the enumeration cap; "
            "the first relation may not be the smallest representative",
            stacklevel=3,
        )
        return min(_stripped_basis(tags, unknowns), key=_relation_sort_key)
    return min(
        (_materialize(_combine(v_min, g), unknowns) for g in range(1, 1 << len(v_min))),
        key=_relation_sort_key,
    )


def minimal_degree_report(
    target: Series,
    ydeg_cap: int,
    coeff_deg_bound: int,
    z_deg_bound: Optional[int] = None,
    prec: int = DEFAULT_FIND_PREC,
) -> tuple[Optional[int], Optional[Relation]]:
    """Smallest y-degree admitting a relation within bounds, with a witness.

    Evidence is a bounded search, not an irreducibility certificate: the
    result means "no relation of smaller degree exists with coefficient
    degree and precision as stated".  It makes the first solves of the
    searches at y-degrees D = 2, 4, 8, ..., capped, and reads each degree d
    of (D/2, D] off those of D: unknown k is y^j times monomial i, (j, i) =
    divmod(k, n), so the tags, a reduced echelon basis by highest bit,
    below bit (d + 1) * n span their null space on {c_j = 0 for j > d}, a
    space holding d's.  Then d's residual pass and warnings are its own.
    """
    if ydeg_cap < 1:
        raise ValueError("ydeg_cap must be at least 1")
    # one supplier and one set of unknowns at the cap serve every y-degree
    supplier, unknowns = _set_up(target, ydeg_cap, coeff_deg_bound, z_deg_bound)
    low = 0
    while low < ydeg_cap:
        top = min(max(2, 2 * low), ydeg_cap)
        y_precision, shift = supplier.precision_and_shift(top)
        p_sys = min(prec, y_precision - coeff_deg_bound)
        solved = _solve(supplier, unknowns, top, p_sys + shift)
        for ydeg in range(low + 1, top + 1):
            tags = _find_relation(supplier, unknowns, ydeg, coeff_deg_bound, prec, solved)
            if tags:
                return ydeg, _least_relation(tags, unknowns)
        low = top
    return None, None
