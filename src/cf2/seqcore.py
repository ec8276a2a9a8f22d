"""Doubling-word construction of automatic sequences from periodic seeds.

A seed is an ultimately periodic sequence of letters, written ``pre(per)``:
a finite preperiod followed by a forever-repeated period.  The associated
word tower starts from the empty word and doubles around successive seed
letters, W_{n+1} = W_n, eps_n, W_n; its limit is the sequence produced
here.  Every such sequence is 2-automatic, and the n-th letter admits the
closed form eps_{v2(n+1)} with v2 the 2-adic valuation (property-tested
against the word recurrence).  It builds every occurrence set: the n with
v2(n+1) = k are the progression 2^k (2m+1) - 1, one int bitset mask.  The
shift n -> 2n+1 adds one to the valuation; on the indicator polynomial it
is P(x) -> x P(x)^2, the Frobenius `UniPoly.square`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

from .gf2poly import UniPoly, set_bits

MAX_WORD_LETTERS = 1 << 26

_SPEC_RE = re.compile(r"([a-y]*)\(([a-y]+)\)\Z")


class WordTooLargeError(RuntimeError):
    """Requested word or relation search exceeds its size cap."""


class DistinctLettersError(ValueError):
    """Operation requires all seed letters to be pairwise distinct."""


@dataclass(frozen=True)
class EpsSpec:
    """Ultimately periodic seed: preperiod then an infinitely repeated period."""

    preperiod: str
    period: str

    def __post_init__(self):
        if len(self.period) < 1:
            raise ValueError("period must be nonempty")
        for ch in self.preperiod + self.period:
            if not ("a" <= ch <= "y"):
                raise ValueError(f"letter {ch!r} outside [a-y] (z is reserved)")

    @classmethod
    def parse(cls, text: str) -> "EpsSpec":
        m = _SPEC_RE.match(text.strip())
        if m is None:
            raise ValueError(f"bad seed {text!r}; expected e.g. 'a(bc)' or '(ab)'")
        return cls(m.group(1), m.group(2))

    def __str__(self) -> str:
        return f"{self.preperiod}({self.period})"

    @property
    def l(self) -> int:
        return len(self.preperiod)

    @property
    def d(self) -> int:
        return len(self.period)

    @property
    def alphabet(self) -> str:
        """Letters in first-appearance order; the letter id is its index."""
        seen = []
        for ch in self.preperiod + self.period:
            if ch not in seen:
                seen.append(ch)
        return "".join(seen)

    def letter(self, j: int) -> str:
        """The seed letter eps_j."""
        if j < self.l:
            return self.preperiod[j]
        return self.period[(j - self.l) % self.d]

    def all_distinct(self) -> bool:
        s = self.preperiod + self.period
        return len(set(s)) == len(s)

    def shifted(self, j: int) -> "EpsSpec":
        """The seed of the shifted sequence (eps_{j+k})_k."""
        if j <= self.l:
            return EpsSpec(self.preperiod[j:], self.period)
        r = (j - self.l) % self.d
        return EpsSpec("", self.period[r:] + self.period[:r])

    def canonical(self) -> "EpsSpec":
        """Minimal representation of the same letter sequence.

        Reduces the period to its primitive root, then absorbs preperiod
        letters that merely repeat the rotated period.
        """
        per = self.period
        d = len(per)
        for d0 in range(1, d + 1):
            if d % d0 == 0 and per == per[:d0] * (d // d0):
                per = per[:d0]
                break
        pre = self.preperiod
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1] + per[:-1]
        return EpsSpec(pre, per)


@dataclass(frozen=True)
class PositionSet:
    """Indices below a horizon, kept as an int bitset: bit k is set when k
    is in the set (the way `UniPoly` keeps its coefficients), so indices
    below 2^16 take 8 KB rather than a tuple of int objects."""

    horizon: int
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.horizon:
            raise ValueError("indices must lie in [0, horizon)")

    def __repr__(self) -> str:
        # hex has no digit limit, unlike the decimal int repr past 4300 digits
        return f"PositionSet(horizon={self.horizon}, bits={self.bits:#x})"

    @property
    def indices(self) -> tuple[int, ...]:
        """The members in increasing order."""
        return tuple(set_bits(self.bits))


@dataclass(frozen=True)
class Shift:
    """Kernel element: the sequence generated by the j-fold shifted seed."""

    j: int


@dataclass(frozen=True)
class Constant:
    """Kernel element: a constant sequence."""

    letter: str


KernelElement = Union["Shift", "Constant"]


def letter_at(spec: EpsSpec, n: int) -> str:
    """n-th letter of the limit sequence: eps at the 2-adic valuation of n+1."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    m = n + 1
    return spec.letter(((m & -m).bit_length() - 1))


def _check_size(n_letters: int, what: str) -> None:
    """Refuse work on more than MAX_WORD_LETTERS letters."""
    if n_letters > MAX_WORD_LETTERS:
        raise WordTooLargeError(f"{what} exceeds the size cap")


def build_word(spec: EpsSpec, n: int) -> str:
    """The n-th doubling word (length 2**n - 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_size((1 << n) - 1, f"word of length 2^{n}-1")
    w = ""
    for i in range(n):
        w = w + spec.letter(i) + w
    return w


def stream_prefix(spec: EpsSpec, n_letters: int) -> str:
    """First n letters of the limit sequence."""
    if n_letters < 0:
        raise ValueError("length must be nonnegative")
    _check_size(n_letters, f"prefix of {n_letters} letters")
    return "".join(letter_at(spec, n) for n in range(n_letters))


def _valuation_bits(valuations: Iterable[int], horizon: int) -> int:
    """Bitset of the indices n < horizon with v2(n+1) among the valuations.

    Valuation k is the progression from 2^k - 1 with step s = 2^(k+1), the
    repunit mask ((1 << s*c) - 1) // ((1 << s) - 1) built by doubling
    (linear in the horizon; the division is quadratic).
    """
    bits = 0
    for k in valuations:
        mask, width = 1, 2 << k
        while width < horizon:
            mask |= mask << width
            width <<= 1
        bits |= mask << ((1 << k) - 1)
    return bits & ((1 << horizon) - 1)


def positions(spec: EpsSpec, letter: str, horizon: int) -> PositionSet:
    """All indices k < horizon with s_k equal to the given letter."""
    _check_size(horizon, f"horizon {horizon}")
    ks = (k for k in range(horizon.bit_length()) if spec.letter(k) == letter)
    return PositionSet(horizon, _valuation_bits(ks, horizon))


def positions_predicted(spec: EpsSpec, j: int, horizon: int) -> PositionSet:
    """Occurrences of the j-th period letter, from the shift-by-one law.

    With S(P) = 2P + 1, the first period letter's set is the fixed point
    of P_0 = S^d(P_0) union {2^l (2m+1) - 1} and the j-th letter's is
    S^j(P_0); S only moves indices up, so clipping at the horizon is exact.
    Requires all seed letters pairwise distinct (the law's hypothesis).
    """
    if not spec.all_distinct():
        raise DistinctLettersError(f"{spec} has repeated letters")
    if not 0 <= j < spec.d:
        raise ValueError("period index out of range")
    _check_size(horizon, f"horizon {horizon}")
    low = (1 << horizon // 2) - 1  # the indices n with 2n + 1 < horizon

    def shift(p: int, times: int) -> int:
        for _ in range(times):
            p = UniPoly(p & low).square().bits << 1
        return p

    p0 = first = _valuation_bits((spec.l,), horizon)
    while (grown := shift(p0, spec.d) | first) != p0:
        p0 = grown
    return PositionSet(horizon, shift(p0, j))


def _element_key(spec: EpsSpec, el: KernelElement):
    if isinstance(el, Constant):
        return ("const", el.letter)
    canon = spec.shifted(el.j).canonical()
    if canon.l == 0 and canon.d == 1:
        return ("const", canon.period)
    return ("shift", canon.preperiod, canon.period)


def kernel(spec: EpsSpec) -> frozenset[KernelElement]:
    """The exact 2-kernel of the limit sequence.

    The even-index subsequence of the shifted-seed sequence is the constant
    eps_j and the odd-index subsequence is the once-more-shifted sequence,
    so closure is a walk over shifts and constants.  Elements are
    identified by the canonical form of their shifted seed, not by prefix
    comparison.
    """
    l, d = spec.l, spec.d
    found: dict[object, KernelElement] = {}
    queue: list[KernelElement] = [Shift(0)]
    while queue:
        el = queue.pop()
        key = _element_key(spec, el)
        if key in found:
            continue
        found[key] = el
        if isinstance(el, Constant):
            continue
        j = el.j
        queue.append(Constant(spec.letter(j)))
        nxt = j + 1
        if nxt > l:
            nxt = l + ((nxt - l) % d)
        queue.append(Shift(nxt))
    return frozenset(found.values())


def kernel_sorted(elements: frozenset[KernelElement]) -> list[KernelElement]:
    """Deterministic listing: shifts by index, then constants by letter."""
    shifts = sorted((e for e in elements if isinstance(e, Shift)), key=lambda e: e.j)
    consts = sorted(
        (e for e in elements if isinstance(e, Constant)), key=lambda e: e.letter
    )
    return [*shifts, *consts]
