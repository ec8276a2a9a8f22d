"""Sparse polynomial arithmetic over GF(2).

Multivariate polynomials are stored as sets of monomials: the coefficient of
every stored monomial is 1, so addition is symmetric difference and char-2
cancellation is automatic.  A monomial is a tuple of (variable, exponent)
pairs, sorted by variable name, with all exponents positive; the empty tuple
is the monomial 1.  The `mono_*` helpers take nonzero exponents of either
sign, so they also serve the inverse-power terms of `invseries`.

Univariate polynomials over GF(2) are plain int bitsets (bit ``i`` is the
coefficient of ``t^i``), which keeps the convergent arithmetic in the
Riccati checks cheap.

The bit-level primitives the other modules share live here once:
`set_bits` walks the set bits of an int (exponents, occurrence indices,
series supports, the unknowns a null vector combines), `clmul` is the
carry-less product of int bitsets (`UniPoly` and the z-series product
kernel), and `binary_power` forms x^j as a product of Frobenius powers
x^(2^k) for every ring here.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, Iterator, Optional

Monomial = tuple  # tuple[tuple[str, int], ...]

ONE_MONO: Monomial = ()

_TOKEN_RE = re.compile(r"\s*([a-z]|\^|\*|\+|-?\d+)")
_ONE = re.compile("1")


def set_bits(n: int) -> list[int]:
    """Indices of the set bits of n >= 0, ascending (one scan of its digits)."""
    if n & (n - 1) == 0:
        return [n.bit_length() - 1] if n else []
    return [m.start() for m in _ONE.finditer(format(n, "b")[::-1])]


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[t]) product of int bitsets: the XOR of b shifted by
    each set bit of a, so a should be the sparser one."""
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


def binary_power(frob, j: int, one, mul=operator.mul):
    """x^j as the product, by `mul`, of the Frobenius powers frob(k) =
    x^(2^k) over the set bits k of j, in ascending order; `one` for j = 0."""
    if j < 0:
        raise ValueError("negative power")
    result = None
    for k in set_bits(j):
        f = frob(k)
        result = f if result is None else mul(result, f)
    return one if result is None else result


def _even_bit_mask(n: int) -> int:
    """Mask of the even bit positions 0, 2, 4, ... below n (rounded up)."""
    n += n % 2
    return ((1 << n) - 1) // 3


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, text: str, pos: int, why: str):
        super().__init__(f"{why} at position {pos} in {text!r}")
        self.text = text
        self.pos = pos


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for v, e in m2:
        n = exps.get(v, 0) + e
        if n:
            exps[v] = n
        else:
            del exps[v]
    return tuple(sorted(exps.items()))


def mono_pow(m: Monomial, k: int) -> Monomial:
    if k == 0:
        return ONE_MONO
    return tuple((v, e * k) for v, e in m)


def mono_deg(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_gcd(monos: Iterable[Monomial]) -> Monomial:
    """Largest monomial dividing every given one (1 when there are none)."""
    common: Optional[dict[str, int]] = None
    for m in monos:
        d = dict(m)
        if common is None:
            common = d
        else:
            common = {v: min(e, d[v]) for v, e in common.items() if v in d}
        if not common:
            return ONE_MONO
    return tuple(sorted(common.items())) if common else ONE_MONO


def mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)


def mono_sort_key(m: Monomial, variables: tuple[str, ...]):
    """Graded order, ties broken lexicographically by exponent vector.

    Sorting ascending with this key yields the canonical *descending*
    print order: highest total degree first, then highest power of the
    alphabetically first variable, and so on.
    """
    d = dict(m)
    return (-mono_deg(m), tuple(-d.get(v, 0) for v in variables))


def sorted_monomials(terms: Iterable[Monomial]) -> list[Monomial]:
    terms = list(terms)
    variables = tuple(sorted({v for m in terms for v, _ in m}))
    return sorted(terms, key=lambda m: mono_sort_key(m, variables))


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(text, pos, "unexpected character")
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def parse_terms(text: str, allow_negative: bool = False) -> list[Monomial]:
    """Parse ``term (+ term)*`` into a XOR-normalized monomial list.

    Grammar: term := factor ('*' factor)* | '1' | '0';
    factor := var ('^' int)?.  With ``allow_negative`` the exponents may
    be negative (used by the inverse-power series text form).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError(text, 0, "empty polynomial")
    terms: set[Monomial] = set()
    i = 0
    n = len(tokens)

    def fail(idx, why):
        pos = tokens[idx][1] if idx < n else len(text)
        raise ParseError(text, pos, why)

    while True:
        # one term
        tok, tpos = tokens[i]
        if tok == "1" or tok == "0":
            mono: Optional[Monomial] = ONE_MONO if tok == "1" else None
            i += 1
        elif tok.isalpha():
            exps: dict[str, int] = {}
            while True:
                var, _ = tokens[i]
                if not (len(var) == 1 and var.isalpha()):
                    fail(i, "expected a variable")
                i += 1
                e = 1
                if i < n and tokens[i][0] == "^":
                    i += 1
                    if i >= n or not re.fullmatch(r"-?\d+", tokens[i][0]):
                        fail(i, "expected an exponent")
                    e = int(tokens[i][0])
                    if e < 0 and not allow_negative:
                        fail(i, "negative exponent not allowed here")
                    if e == 0:
                        fail(i, "zero exponent not allowed")
                    i += 1
                exps[var] = exps.get(var, 0) + e
                if i < n and tokens[i][0] == "*":
                    i += 1
                    if i >= n:
                        fail(i, "dangling '*'")
                    continue
                break
            mono = tuple(sorted((v, e) for v, e in exps.items() if e))
        else:
            fail(i, "expected a term")
        if mono is not None:
            terms.symmetric_difference_update((mono,))
        if i >= n:
            break
        if tokens[i][0] != "+":
            fail(i, "expected '+'")
        i += 1
        if i >= n:
            fail(i, "dangling '+'")
    return list(terms)


class Gf2Poly:
    """Multivariate polynomial over GF(2) with implicit-1 coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Monomial] = ()):
        acc: set[Monomial] = set()
        for m in terms:
            acc.symmetric_difference_update((m,))
        self.terms = frozenset(acc)

    @classmethod
    def _raw(cls, terms: frozenset) -> "Gf2Poly":
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "Gf2Poly":
        return cls._raw(frozenset())

    @classmethod
    def one(cls) -> "Gf2Poly":
        return cls._raw(frozenset((ONE_MONO,)))

    @classmethod
    def variable(cls, v: str) -> "Gf2Poly":
        return cls._raw(frozenset((((v, 1),),)))

    @classmethod
    def monomial(cls, m: Monomial) -> "Gf2Poly":
        return cls._raw(frozenset((m,)))

    @classmethod
    def parse(cls, text: str) -> "Gf2Poly":
        return cls(parse_terms(text))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Gf2Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly._raw(self.terms ^ other.terms)

    __sub__ = __add__

    def __mul__(self, other: "Gf2Poly") -> "Gf2Poly":
        if not self.terms or not other.terms:
            return Gf2Poly.zero()
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        acc: set[Monomial] = set()
        for m1 in a:
            for m2 in b:
                acc.symmetric_difference_update((mono_mul(m1, m2),))
        return Gf2Poly._raw(frozenset(acc))

    def __pow__(self, k: int) -> "Gf2Poly":
        return binary_power(self.pow2k, k, Gf2Poly.one())

    def pow2k(self, k: int) -> "Gf2Poly":
        """Frobenius power: every exponent is multiplied by 2**k."""
        if k < 0:
            raise ValueError("negative Frobenius power")
        if k == 0:
            return self
        f = 1 << k
        return Gf2Poly._raw(frozenset(mono_pow(m, f) for m in self.terms))

    def derivative(self, v: str) -> "Gf2Poly":
        """Formal derivative; even exponents of v vanish in char 2."""
        acc = set()
        for m in self.terms:
            d = dict(m)
            e = d.get(v, 0)
            if e % 2 == 0:
                continue
            if e == 1:
                del d[v]
            else:
                d[v] = e - 1
            acc.symmetric_difference_update((tuple(sorted(d.items())),))
        return Gf2Poly._raw(frozenset(acc))

    def sqrt(self) -> Optional["Gf2Poly"]:
        """Square root when every exponent is even, else None."""
        roots = []
        for m in self.terms:
            if any(e % 2 for _, e in m):
                return None
            roots.append(tuple((v, e // 2) for v, e in m))
        return Gf2Poly._raw(frozenset(roots))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_deg(m) for m in self.terms)

    def content(self) -> Monomial:
        """Largest monomial dividing every term (1 for the zero poly)."""
        return mono_gcd(self.terms)

    def div_monomial(self, m: Monomial) -> "Gf2Poly":
        """Exact division by a monomial dividing every term."""
        if not m:
            return self
        neg = mono_pow(m, -1)
        return Gf2Poly._raw(frozenset(mono_mul(t, neg) for t in self.terms))

    def sorted_terms(self) -> list[Monomial]:
        return sorted_monomials(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(mono_str(m) for m in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Gf2Poly({self})"

    def to_json(self) -> list:
        return [[[v, e] for v, e in m] for m in self.sorted_terms()]

    @classmethod
    def from_json(cls, data: list) -> "Gf2Poly":
        return cls(tuple((str(v), int(e)) for v, e in m) for m in data)


class UniPoly:
    """Univariate polynomial over GF(2) backed by an int bitset."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("bits must be nonnegative")
        self.bits = bits

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(0)

    @classmethod
    def one(cls) -> "UniPoly":
        return cls(1)

    @classmethod
    def t(cls) -> "UniPoly":
        return cls(2)

    def exponents(self) -> Iterator[int]:
        return iter(set_bits(self.bits))

    def degree(self) -> int:
        return self.bits.bit_length() - 1

    def is_constant(self) -> bool:
        return self.bits in (0, 1)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(("UniPoly", self.bits))

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.bits, other.bits
        if a.bit_count() > b.bit_count():
            a, b = b, a
        return UniPoly(clmul(a, b))

    def square(self) -> "UniPoly":
        """Frobenius: the bits spread to even places (binary read in base 4)."""
        return UniPoly(int(format(self.bits, "b"), 4))

    def pow2k(self, k: int) -> "UniPoly":
        """Frobenius power 2**k: `square` applied k times."""
        return self if k == 0 else self.square().pow2k(k - 1)

    def __pow__(self, k: int) -> "UniPoly":
        return binary_power(self.pow2k, k, UniPoly(1))

    def derivative(self) -> "UniPoly":
        """Formal d/dt: only odd exponents survive in char 2."""
        even = _even_bit_mask(self.bits.bit_length() + 1)
        return UniPoly((self.bits >> 1) & even)

    def sqrt(self) -> Optional["UniPoly"]:
        """Square root when every exponent is even (odd places clear), else None."""
        if self.bits & ~_even_bit_mask(self.bits.bit_length()):
            return None
        return UniPoly(int(format(self.bits, "b")[::2], 2))

    @classmethod
    def parse(cls, text: str) -> "UniPoly":
        bits = 0
        for m in parse_terms(text):
            if len(m) > 1:
                raise ParseError(text, 0, "more than one variable")
            bits ^= 1 << (m[0][1] if m else 0)
        return cls(bits)

    def __str__(self) -> str:
        return self.str_in("t")

    def str_in(self, var: str) -> str:
        if self.bits == 0:
            return "0"
        parts = []
        for e in sorted(self.exponents(), reverse=True):
            if e == 0:
                parts.append("1")
            elif e == 1:
                parts.append(var)
            else:
                parts.append(f"{var}^{e}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({self})"
