"""Truncated series in inverse powers of the alphabet letters, over GF(2).

A term is a tuple of (variable, n) pairs standing for the product of the
variables raised to the power -n; positive n means an inverse power, so a
polynomial part has negative entries.  A term is thus a `gf2poly`
monomial in the inverse letters: `mono_deg` is its depth (the sum of its
n's), and `mono_pow` by -1 converts it to and from an ordinary monomial.
A series of precision p stores exactly its terms of depth below p.  The
norm of a series with minimal term depth m is 2**-m, which makes the ring
ultrametric; precision is propagated pessimistically through every
operation so that reported terms never change when a pipeline is re-run
at higher precision.  `product_precision` and `inverse_precision` state
the rules for products and inverses once, for `laurent` too.

Products, inverses and relation-search rows are computed on packed terms
(packed exponent vectors, after Monagan and Pearce): over a fixed sorted
alphabet of k letters and a field width w, a term at depth d encodes as
the int

    d << (k * w)  +  sum over letters i of (n_i + 2**(w-1)) << (i * w),

so the fields hold biased exponents and the depth sits above them, where
it orders codes by depth and is read back by one shift.  The depth is an
input: a series term sits at its own depth, while z-series products and
relation searches pack letter monomials at the depth of their z-index.
Adding the code of one term to the bias-free code of another (the code
minus the sum of the biases) gives the code of their product, depths
added.  That sum cannot carry from one field into the next as long as
every exponent of every operand and result lies strictly between
-2**(w-1) and 2**(w-1); `_Packing` derives w from a bound on the exponents
of the results (computed from the operands' actual exponents, not
assumed), and the public form stays the tuple one, decoded when first
read.  An inverse is Newton's iteration x <- s * x^2 (2x - s * x^2 in
characteristic 2): each step is a Frobenius square, one int operation per
code, and one product, and doubles the depth to which x is known.  Its
steps are made only as far as the inverse is read (`_Newton`).

Powers of both series kinds are formed packed by `_power_codes`:
`gf2poly.binary_power` over the Frobenius powers s^(2^k).  On the inverse
side a Frobenius power is one int operation per code and products are
`_Packing.mul`, on sets of codes.  On the z side the depth is the z-index
and a term's letter monomial is its code at depth 0, its letter part;
the codes are grouped by letter part, one int bitset over the z-index per
group, a Frobenius power spreads each bitset, and `_Packing.zmul`
multiplies the groups pairwise and carry-less.  The inverse side keeps
the set kernel: there the depth is the sum of the letter fields, so each
group would hold one term.  The public `power` decodes once; relation
searches keep the packed terms.  A continued
fraction from `cfalg.compute_cf` carries its reciprocal r = sum of the
1/u_n, a few terms against its thousands, and takes a power j that is
not a power of two as s^(2^k) * r^(2^k - j), 2^k the next power of two
above j: a Frobenius power times a sparse one, in place of dense
products.  Both routes compute the same truncation of s^j at the same
precision: s has depth norm -1 and precision P >= 0, r depth norm 1 and
precision P + 2, and `product_precision` gives each route
(P + 1) * 2^v - j, 2^v the largest power of two dividing j.  The reciprocal
serves relation searches too: `cfalg` searches a continued fraction on
the powers of r alone, and `_power_precision` gives it the precisions of
the powers of s without forming them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Optional

from .gf2poly import (
    Gf2Poly,
    Monomial,
    ONE_MONO,
    UniPoly,
    binary_power,
    clmul,
    mono_deg,
    mono_pow,
    mono_str,
    parse_terms,
    set_bits,
)


class NotInvertibleError(ValueError):
    """No unique minimal-depth term at the current precision."""


def product_precision(px, vx, py, vy):
    """min(p_x + lo_y, p_y + lo_x) for factors of precisions p and least stored
    depths (valuations) v, +inf if none, lo = min(v, p).  A bound is +inf when
    its p (an exact factor) or its lo (an exact zero partner) is, so inf - inf
    never arises and an exact zero times anything is exact."""
    def known(p, lo):
        return math.inf if math.inf in (p, lo) else p + lo
    return min(known(px, min(vy, py)), known(py, min(vx, px)))


def inverse_precision(precision, depth, cap=None):
    """Precision of the inverse of a series with its least term at `depth`:
    the precision less twice that depth, capped by `cap` when given."""
    return min(precision - 2 * depth, math.inf if cap is None else cap)


def _alphabet(terms: Iterable[Monomial]) -> tuple[set[str], int]:
    """Letters of some terms and the largest |exponent| among them."""
    letters: set[str] = set()
    top = 0
    for t in terms:
        for v, n in t:
            letters.add(v)
            top = max(top, abs(n))
    return letters, top


class _Packing:
    """Packed codes of terms over one alphabet (see the module docstring).

    `bound` must be at least |n| for every exponent of every term that is
    encoded, decoded or formed as a sum of codes; the field width is the
    least one holding +-bound strictly inside its biased range.
    """

    __slots__ = ("letters", "index", "width", "shift", "bias", "encoded")

    def __init__(self, letters: Iterable[str], bound: int):
        self.letters = sorted(letters)
        self.index = {v: i for i, v in enumerate(self.letters)}
        self.width = w = bound.bit_length() + 1
        self.shift = w * len(self.letters)
        self.bias = sum(1 << (w * i + w - 1) for i in range(len(self.letters)))
        self.encoded: dict[int, tuple] = {}

    def encode(self, depth: int, t: Monomial) -> int:
        w, index = self.width, self.index
        code = self.bias
        for v, n in t:
            code += n << (w * index[v])
        return code + (depth << self.shift)

    def factor(self, depth: int, t: Monomial) -> int:
        """Bias-free code of a term: adding it to a code multiplies by t."""
        return self.encode(depth, t) - self.bias

    def decode(self, code: int) -> Monomial:
        w = self.width
        mask = (1 << w) - 1
        half = 1 << (w - 1)
        out = []
        for v in self.letters:
            n = (code & mask) - half
            if n:
                out.append((v, n))
            code >>= w
        return tuple(out)

    def codes(self, s) -> list[int]:
        """Ascending codes of the terms of an inverse-power series, formed
        once, transcoded from the codes s keeps when it has them: the
        packing keeps s and its codes."""
        if id(s) not in self.encoded:
            if s.packed is None:
                codes = sorted(self.encode(mono_deg(t), t) for t in s.terms)
            else:
                codes = self.transcode(*s.packed)
            self.encoded[id(s)] = (s, codes)
        return self.encoded[id(s)][1]

    def fields(self, codes: list[int]) -> Iterable[tuple[str, list[int]]]:
        """Each letter and its field's biased values in the codes."""
        w, mask = self.width, (1 << self.width) - 1
        for i, v in enumerate(self.letters):
            yield v, [(c >> (i * w)) & mask for c in codes]

    def alphabet(self, codes: list[int]) -> set[str]:
        """The letters of the terms of some codes, read field by field."""
        half = 1 << (self.width - 1)
        return {v for v, values in self.fields(codes) if any(x != half for x in values)}

    def transcode(self, pk: "_Packing", codes: list[int]) -> list[int]:
        """Codes over the packing pk re-encoded over this one, field by
        field; ascending codes stay ascending.  This packing must hold
        every letter that occurs in the codes and bound their exponents."""
        half, w = 1 << (pk.width - 1), self.width
        base = self.bias
        out = [(c >> pk.shift) << self.shift for c in codes]
        for v, values in pk.fields(codes):
            if v in self.index:
                at = w * self.index[v]
                base -= half << at
                out = [o + (x << at) for o, x in zip(out, values)]
        return [o + base for o in out]

    def depth(self, code: int) -> int:
        return code >> self.shift

    def limit(self, precision):
        """Least code of depth >= precision; None (-inf) if none (all) is cut."""
        if precision == math.inf:
            return None
        if precision == -math.inf:
            return precision
        return math.ceil(precision) << self.shift

    def mul(self, xs: Iterable[int], ys: list[int], precision) -> set[int]:
        """XOR-sum of the products of depth below precision; ys ascending.

        Each row of products x * ys ends at the first partner whose depth
        reaches the precision, found by bisection on the codes.
        """
        bias = self.bias
        free = [y - bias for y in ys]
        limit = self.limit(precision)
        acc: set[int] = set()
        for x in xs:
            row = free if limit is None else free[: bisect_left(free, limit - x)]
            acc ^= {x + y for y in row}
        return acc

    def groups(self, s) -> dict[int, int]:
        """A z-series' codes grouped as `zmul` takes them, formed once: the
        packing keeps s and its groups."""
        if id(s) not in self.encoded:
            grouped = {self.encode(0, m): b for m, b in _letter_groups(s).items()}
            self.encoded[id(s)] = (s, grouped)
        return self.encoded[id(s)][1]

    def zmul(
        self, xs: dict[int, int], ys: dict[int, int], precision: int
    ) -> dict[int, int]:
        """Product of z-side codes grouped by letter part: each operand maps
        a letter part (a code at depth 0) to the bitset of its z-indices.
        Each pair of groups multiplies carry-less, by `gf2poly.clmul` over
        the sparser bitset, into the group of the letter parts' sum less one
        bias; pairs whose least depths reach the precision are skipped and
        the result is cut below it.  Cost: pairs of groups times the
        smaller popcount, one shift per pair of terms at worst."""
        mask = (1 << max(0, precision)) - 1

        def bits(groups, less):
            """(letter part, bitset, popcount, least depth), by least depth."""
            out = ((key - less, b & mask) for key, b in groups.items())
            return sorted(((key, b, b.bit_count(), (b & -b).bit_length() - 1)
                           for key, b in out if b), key=lambda g: g[3])

        ys = bits(ys, 0)
        lows = [g[3] for g in ys]
        acc: dict[int, int] = {}
        get = acc.get
        for lx, bx, nx, low in bits(xs, self.bias):
            partners = ys[: bisect_left(lows, precision - low)]
            if nx == 1:
                for ly, by, _, _ in partners:
                    key = lx + ly
                    acc[key] = get(key, 0) ^ by << low
                continue
            for ly, by, ny, _ in partners:
                key = lx + ly
                acc[key] = get(key, 0) ^ (clmul(bx, by) if nx <= ny else clmul(by, bx))
        return {key: b & mask for key, b in acc.items() if b & mask}

    def ungroup(self, groups: dict[int, int], precision: int) -> list[int]:
        """Ascending codes of grouped z-side codes, of depth below precision."""
        mask, shift = (1 << max(0, precision)) - 1, self.shift
        return sorted(key + (i << shift) for key, b in groups.items()
                      for i in set_bits(b & mask))


def _letter_groups(s, precision=None) -> dict[Monomial, int]:
    """Each letter monomial of a z-series below precision (by default its
    own), with the bitset of the z-indices where it occurs: one bitset per
    distinct coefficient first, then one per monomial."""
    coeffs = s.coeffs[:precision]
    size = (len(coeffs) + 7) >> 3
    rows: dict[frozenset, bytearray] = {}
    for i, c in enumerate(coeffs):
        row = rows.get(c.terms)
        if row is None:
            row = rows[c.terms] = bytearray(size)
        row[i >> 3] |= 1 << (i & 7)
    out: dict[Monomial, int] = {}
    for terms, row in rows.items():
        b = int.from_bytes(row, "little")
        for m in terms:
            out[m] = out.get(m, 0) | b
    return out


class _Newton:
    """Newton's iteration for an inverse 1/s, run only as deep as it is
    read: the packing, the codes of s, the ascending codes of the iterate x
    and the depth `known`, relative to m^-1 (m the least term of s, at
    `m_depth`), below which x is the inverse; the iteration ends at `end`.
    Its steps are those of one loop run to the end, wherever it stops."""

    __slots__ = ("pk", "codes", "x", "known", "end", "m_depth")

    def __init__(self, *state):
        self.pk, self.codes, self.x, self.known, self.end, self.m_depth = state

    def step(self, depth=math.inf) -> bool:
        """One step, unless x is the whole inverse or known below depth."""
        if self.known >= self.end or self.known - self.m_depth >= depth:
            return False
        self.known = known = min(2 * self.known, self.end)
        # a code's double less the bias is the code of the term's square
        squares = [2 * c - self.pk.bias for c in self.x]
        self.x = sorted(self.pk.mul(self.codes, squares, known - self.m_depth))
        return True

    def letters(self) -> set[str]:
        """The letters of the inverse: every term of 1/s is m^-1 times
        terms of s, so x stops deepening once it has all of theirs."""
        every = set(self.pk.letters)
        while (found := self.pk.alphabet(self.x)) != every and self.step():
            pass
        return found


def _own_alphabet(s) -> tuple[set[str], int]:
    """`_alphabet` of the terms of a series, or of the distinct letter
    monomials of a z-series' coefficients.  A deferred inverse gives the
    letters of `_Newton.letters` and the bound its packing holds."""
    if not isinstance(s, InvSeries):
        return _alphabet({m for terms in {c.terms for c in s.coeffs} for m in terms})
    if s._newton is None:
        return _alphabet(s.terms)
    return s._newton.letters(), (1 << s._newton.pk.width - 1) - 1


def _own_count(s, precision, enough) -> int:
    """The terms of an inverse-power series of depth below precision if
    fewer than `enough`, else a count >= enough: a deferred inverse
    deepens only until its iterate shows that many or is known there."""
    newton = s._newton
    if newton is None:
        return sum(mono_deg(t) < precision for t in s.terms)
    limit = newton.pk.limit(precision)
    while (count := bisect_left(newton.x, limit)) < enough and newton.step(precision):
        pass
    return count


def _power_alphabet(s, j: int, own=None, r_own=None) -> tuple[set[str], int]:
    """Letters and packing bound of every code `_power_codes` forms for s^i,
    i <= j: a product of i terms of s, or on the reciprocal route of 2^k
    terms of s and 2^k - i of r, fewer than 3i in all (2^k < 2i).  `own`
    and `r_own` are the `_own_alphabet` of s and of r when the caller has
    scanned them."""
    letters, top = own or _own_alphabet(s)
    r = getattr(s, "reciprocal", None)
    if r is None:
        return letters, j * top
    r_letters, r_top = r_own or _alphabet(r.terms)
    return letters | r_letters, 3 * j * max(top, r_top)


def _power_codes(s, pk: _Packing, j: int, cut=None) -> tuple:
    """The terms of s^j packed over `pk`, and its precision: those of
    `s.power(j)` (`s.power(j, cut)` on the z side), by the same route and
    cuts.  They are ascending codes on the inverse side and, on the z side,
    codes grouped by letter part as `_Packing.zmul` forms them.
    `binary_power` multiplies the Frobenius powers (2^k times a code, less
    2^k - 1 biases, codes the term's 2^k-th power), through the reciprocal
    when one is carried; products keep `product_precision` on the inverse
    side and the cut on the z side, by default s's own precision.  `pk`
    must cover `_power_alphabet(s, j)`."""
    if not isinstance(s, InvSeries):
        return _z_power(s, pk, j, s.precision if cut is None else max(0, cut))

    def frob(series, k):
        f = 1 << k
        drop = (f - 1) * pk.bias
        return [f * c - drop for c in pk.codes(series)], series.precision * f

    def mul(x, y):
        (xs, px), (ys, py) = sorted((x, y), key=lambda c: len(c[0]))
        vx, vy = (pk.depth(c[0]) if c else math.inf for c in (xs, ys))
        prec = product_precision(px, vx, py, vy)
        return sorted(pk.mul(xs, ys, prec)), prec

    return _power_route(s, j, frob, mul, ([pk.bias], math.inf))


def _power_route(s, j: int, frob, mul, one):
    """s^j by `binary_power` over frob(series, k) = series^(2^k), through
    the reciprocal when s carries one (see the module docstring)."""
    r = getattr(s, "reciprocal", None)
    if r is None or j & (j - 1) == 0:
        return binary_power(lambda k: frob(s, k), j, one, mul)
    k = j.bit_length()
    return mul(frob(s, k), binary_power(lambda i: frob(r, i), (1 << k) - j, one, mul))


def _power_precision(s, j: int):
    """The precision `_power_codes` gives the inverse-power s^j, by its route
    and `product_precision` chain run on (precision, least depth) pairs,
    no code formed.  s and its reciprocal each have one term of least
    depth (a continued fraction's is the inverse of its reciprocal's), so
    every product does too, at the sum of its factors' least depths, unless
    its precision cuts it and it is 0."""
    def frob(series, k):
        return series.precision * (1 << k), series.depth_norm() * (1 << k)

    def mul(x, y):
        prec, least = product_precision(x[0], x[1], y[0], y[1]), x[1] + y[1]
        return prec, least if least < prec else math.inf

    return _power_route(s, j, frob, mul, (math.inf, 0))[0]


def _z_power(s, pk: _Packing, j: int, cut: int) -> tuple[dict[int, int], int]:
    """`_power_codes` on the z side: the Frobenius power s^(2^k) spreads
    each group's bitset 2^k-fold, cut at min(cut, 2^k P)."""
    base = pk.groups(s)

    def frob(k):
        f = 1 << k
        prec = min(cut, s.precision * f)
        keep, drop = (1 << -(-prec // f)) - 1, (f - 1) * pk.bias
        return {f * key - drop: UniPoly(b & keep).pow2k(k).bits
                for key, b in base.items() if b & keep}, prec

    def mul(x, y):
        prec = min(x[1], y[1])
        return pk.zmul(x[0], y[0], prec), prec

    return binary_power(frob, j, ({pk.bias: 1} if cut else {}, cut), mul)


class InvSeries:
    """Finite term set plus a depth precision (terms of depth >= p dropped).

    `_newton`, when not None, is the `_Newton` iteration of the inverse
    this series is, deepened only as far as it is read: `packed` runs it
    to the end, `terms` is decoded from its codes when first read, and
    powers and relation searches take the codes as they are.
    `reciprocal` is set by `cfalg.compute_cf` for `power` and for
    relation searches.
    Both are set at construction only; equality, hashing and the JSON form
    ignore them.
    """

    __slots__ = ("_terms", "precision", "reciprocal", "_newton")

    def __init__(self, terms: Iterable[Monomial] = (), precision=math.inf):
        acc: set[Monomial] = set()
        for t in terms:
            acc.symmetric_difference_update((t,))
        self._terms = frozenset(t for t in acc if mono_deg(t) < precision)
        self.precision = precision
        self.reciprocal = self._newton = None

    @classmethod
    def _raw(
        cls, terms: Optional[frozenset], precision,
        reciprocal: Optional["InvSeries"] = None,
        newton: Optional[_Newton] = None,
    ) -> "InvSeries":
        """A series of these terms, or, terms None, of this inverse."""
        s = object.__new__(cls)
        s._terms = terms
        s.precision = precision
        s.reciprocal = reciprocal
        s._newton = newton
        return s

    @property
    def packed(self) -> Optional[tuple[_Packing, list[int]]]:
        """The packing and ascending codes of an inverse's terms, its
        iteration run to the end; None for other series."""
        while self._newton and self._newton.step():
            pass
        return self._newton and (self._newton.pk, self._newton.x)

    @property
    def terms(self) -> frozenset:
        """The terms, decoded from `packed` when first read."""
        if self._terms is None:
            pk, codes = self.packed
            self._terms = frozenset(map(pk.decode, codes))
        return self._terms

    @classmethod
    def zero(cls, precision=math.inf) -> "InvSeries":
        return cls._raw(frozenset(), precision)

    @classmethod
    def one(cls, precision=math.inf) -> "InvSeries":
        return cls((ONE_MONO,), precision)

    @classmethod
    def from_poly(cls, p: Gf2Poly, precision=math.inf) -> "InvSeries":
        """Embed a polynomial in the letters (exactly, by default)."""
        return cls((mono_pow(m, -1) for m in p.terms), precision)

    @classmethod
    def parse(cls, text: str, precision=math.inf) -> "InvSeries":
        monos = parse_terms(text, allow_negative=True)
        return cls((mono_pow(m, -1) for m in monos), precision)

    def depth_norm(self):
        """Minimal term depth; +inf for (truncated-to-)zero series.  That
        of m^-1 on an inverse, nothing formed."""
        if self._newton is not None:
            return -self._newton.m_depth
        if not self.terms:
            return math.inf
        return min(mono_deg(t) for t in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InvSeries)
            and self.terms == other.terms
            and self.precision == other.precision
        )

    def __hash__(self) -> int:
        return hash((self.terms, self.precision))

    def __add__(self, other: "InvSeries") -> "InvSeries":
        prec = min(self.precision, other.precision)
        terms = self.terms ^ other.terms
        if prec != math.inf:
            terms = frozenset(t for t in terms if mono_deg(t) < prec)
        return InvSeries._raw(terms, prec)

    __sub__ = __add__

    def __mul__(self, other: "InvSeries") -> "InvSeries":
        prec = product_precision(
            self.precision, self.depth_norm(), other.precision, other.depth_norm()
        )
        letters, top = _alphabet(self.terms)
        other_letters, other_top = _alphabet(other.terms)
        pk = _Packing(letters | other_letters, top + other_top)
        rows, cols = sorted((self.terms, other.terms), key=len)
        acc = pk.mul(
            (pk.encode(mono_deg(t), t) for t in rows),
            sorted(pk.encode(mono_deg(t), t) for t in cols),
            prec,
        )
        return InvSeries._raw(frozenset(map(pk.decode, acc)), prec)

    def pow2k(self, k: int) -> "InvSeries":
        """Frobenius power 2**k; precision multiplies (char 2)."""
        if k == 0:
            return InvSeries._raw(self.terms, self.precision)
        prec = self.precision * (1 << k)
        return InvSeries._raw(
            frozenset(mono_pow(t, 1 << k) for t in self.terms), prec
        )

    def power(self, j: int) -> "InvSeries":
        """j-th power, formed packed by `_power_codes`."""
        pk = _Packing(*_power_alphabet(self, j))
        codes, prec = _power_codes(self, pk, j)
        return InvSeries._raw(frozenset(map(pk.decode, codes)), prec)

    def truncated(self, precision) -> "InvSeries":
        prec = min(self.precision, precision)
        return InvSeries._raw(
            frozenset(t for t in self.terms if mono_deg(t) < prec), prec
        )

    def inverse(self, precision=None) -> "InvSeries":
        """Multiplicative inverse by Newton's iteration.

        Requires a unique minimal-depth term m; the output precision is
        `inverse_precision` at the depth of m.  From x = m^-1, each step
        x <- self * x^2 (Newton's 2x - self * x^2 in characteristic 2), one
        Frobenius square and one product, doubles the depth below which x
        is known (Kung, 1974).  The steps are made only as its terms are
        read (`_Newton`).
        """
        if not self.terms:
            raise NotInvertibleError("zero (at this precision) is not invertible")
        m_depth = self.depth_norm()
        leading = [t for t in self.terms if mono_deg(t) == m_depth]
        if len(leading) > 1:
            raise NotInvertibleError(
                f"no unique minimal-depth term (depth {m_depth})"
            )
        m = leading[0]
        out_prec = inverse_precision(self.precision, m_depth, precision)
        if len(self.terms) == 1:
            return InvSeries((mono_pow(m, -1),), out_prec)
        if out_prec == math.inf:
            raise ValueError("inverse of a non-monomial needs a finite precision")
        # Depths relative to m^-1: x is known below `known`, wanted below
        # s_prec.  Every iterate is the inverse cut at a depth, so each of
        # its terms is m^-1 times k terms of r = self / m - 1, k <= s_prec /
        # r_depth, with exponents within (2k + 1) * top.  A square doubles
        # that and a product with a term of self adds top, so the bound
        # holds every code formed, squares that the product's cut drops too.
        s_prec = out_prec + m_depth
        if s_prec <= 0:
            return InvSeries.zero(out_prec)
        r_depth = min(mono_deg(t) for t in self.terms if t != m) - m_depth
        letters, top = _alphabet(self.terms)
        pk = _Packing(letters, 4 * (math.ceil(s_prec) // r_depth + 1) * top)
        codes = [pk.encode(mono_deg(t), t) for t in self.terms]
        x = [pk.encode(-m_depth, mono_pow(m, -1))]
        return InvSeries._raw(
            None, out_prec, newton=_Newton(pk, codes, x, r_depth, s_prec, m_depth))

    def sorted_terms(self) -> list[Monomial]:
        return sorted(self.terms, key=lambda t: (mono_deg(t), t))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(mono_str(mono_pow(t, -1)) for t in self.sorted_terms())

    def __repr__(self) -> str:
        prec = self.precision
        return f"InvSeries({self}, precision={prec})"

    def to_json(self) -> dict:
        return {
            "terms": [
                [[[v, n] for v, n in t], mono_deg(t)]
                for t in self.sorted_terms()
            ],
            "precision": None if self.precision == math.inf else self.precision,
        }

    @classmethod
    def from_json(cls, data: dict) -> "InvSeries":
        prec = data.get("precision")
        return cls(
            (tuple((str(v), int(n)) for v, n in pairs) for pairs, _ in data["terms"]),
            math.inf if prec is None else prec,
        )
