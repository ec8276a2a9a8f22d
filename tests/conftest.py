"""Shared strategies and brute-force oracles for the test suite."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations_with_replacement

from hypothesis import HealthCheck, settings, strategies as st

from cf2 import EpsSpec, Gf2Poly, letter_at, stream_prefix
from cf2.cfalg import _graded_coefficient
from cf2.gf2poly import mono_mul, sorted_monomials

settings.register_profile(
    "thousand",
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.register_profile(
    "default",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("default")


LETTERS = "abcde"


@st.composite
def eps_specs(draw, max_pre=3, max_per=4, n_letters=5):
    alphabet = LETTERS[:n_letters]
    pre = draw(st.text(alphabet=alphabet, min_size=0, max_size=max_pre))
    per = draw(st.text(alphabet=alphabet, min_size=1, max_size=max_per))
    return EpsSpec(pre, per)


@st.composite
def distinct_specs(draw, max_pre=3, max_per=4):
    total = draw(st.integers(min_value=1, max_value=max_pre + max_per))
    l = draw(st.integers(min_value=0, max_value=min(max_pre, total - 1)))
    letters = list("abcdefgh"[:total])
    draw(st.randoms()).shuffle(letters)
    return EpsSpec("".join(letters[:l]), "".join(letters[l:]))


def random_spec(rng: random.Random, max_pre=3, max_per=4, n_letters=5) -> EpsSpec:
    alphabet = LETTERS[:n_letters]
    pre = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_pre)))
    per = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_per)))
    return EpsSpec(pre, per)


def random_distinct_spec(rng: random.Random, max_pre=3, max_per=4) -> EpsSpec:
    total = rng.randint(1, max_pre + max_per)
    l = rng.randint(0, min(max_pre, total - 1))
    letters = list("abcdefgh"[:total])
    rng.shuffle(letters)
    return EpsSpec("".join(letters[:l]), "".join(letters[l:]))


def kernel_oracle_prefixes(spec: EpsSpec) -> set[tuple]:
    """Distinct subsequence prefixes n -> s(2^e n + r), e up to l+d+1.

    The prefix length 2^(l+d) pins the shifted seed letters, so distinct
    kernel elements give distinct prefixes and the count is exact for
    small seeds.
    """
    depth = spec.l + spec.d
    span = 1 << depth
    source = stream_prefix(spec, (2 << depth) * span)
    seen: set[tuple] = set()
    frontier = [(1, 0)]
    for _ in range(depth + 2):
        nxt = []
        for step, off in frontier:
            prefix = tuple(source[step * n + off] for n in range(span))
            if prefix in seen:
                continue
            seen.add(prefix)
            nxt.append((2 * step, off))
            nxt.append((2 * step, step + off))
        frontier = nxt
    return seen


def element_prefix(spec: EpsSpec, el, n: int) -> tuple:
    """Length-n prefix of a kernel element's sequence."""
    from cf2 import Constant, Shift

    if isinstance(el, Constant):
        return (el.letter,) * n
    shifted = spec.shifted(el.j)
    return tuple(letter_at(shifted, k) for k in range(n))


def general_continuant(quotients: list) -> tuple:
    """Reference convergent: the last (P_n, Q_n) of the quotients by the
    three-term recurrence from (P_-2, Q_-2) = (0, 1) and (P_-1, Q_-1) =
    (1, 0), in the quotients' ring; an empty list gives the Gf2Poly (1, 0)."""
    ring = type(quotients[0]) if quotients else Gf2Poly
    p_prev, q_prev, p, q = ring.zero(), ring.one(), ring.one(), ring.zero()
    for u in quotients:
        p, p_prev = u * p + p_prev, p
        q, q_prev = u * q + q_prev, q
    return p, q


def coeff_grid(pk, letters, coeff_deg_bound: int, z_deg_bound) -> tuple:
    """Reference coefficient grid of a relation search: the letter
    monomials of total degree <= bound as `Counter`s of combinations, times
    the z powers when z_deg_bound is not None, in the canonical print
    order reversed, and each one's factor over the packing pk, encoded
    from its (depth, term) monomial by monomial."""
    monos = [
        tuple(Counter(c).items())
        for d in range(coeff_deg_bound + 1)
        for c in combinations_with_replacement(letters, d)
    ]
    z_side = z_deg_bound is not None
    if z_side:
        monos = [
            mono_mul(m, (("z", e),)) if e else m
            for m in monos
            for e in range(z_deg_bound + 1)
        ]
    monos = sorted_monomials(monos)[::-1]
    return monos, [pk.factor(*_graded_coefficient(m, z_side)) for m in monos]
