"""Independent correctness checks for the benchmark's results.

Nothing here imports cf2.  Every target series is rebuilt from its
definition with this module's own GF(2)[t] bit-vector arithmetic, after
the seed letters are specialised to fixed distinct monic polynomials in t
of one common degree `delta`.  With a common degree, a term of depth d in
the letters becomes a Laurent series of 1/t-valuation exactly delta * d,
so "the residual vanishes below depth D" specialises to "the residual's
1/t-valuation is at least delta * D".  The specialisation can hide a
residual (leading terms may cancel) but never invent one, so a failed
check is always a real fault; the negative control shows the check is
not vacuous.

Polynomials in t are ints: bit i is the coefficient of t^i.
"""

from __future__ import annotations

import math
import re

INF = math.inf

# ------------------------------------------------------------ GF(2)[t]

_SPREAD = [
    sum(((v >> i) & 1) << (2 * i) for i in range(8)).to_bytes(2, "little")
    for v in range(256)
]


def deg(a: int) -> int:
    return a.bit_length() - 1


def clmul(a: int, b: int) -> int:
    """Carry-less product."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def square(a: int) -> int:
    """a(t)^2 = a(t^2) in characteristic 2: spread the bits apart."""
    if not a:
        return 0
    data = a.to_bytes((a.bit_length() + 7) // 8, "little")
    return int.from_bytes(b"".join(_SPREAD[v] for v in data), "little")


def tpow(a: int, e: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = clmul(out, a)
        e >>= 1
        if e:
            a = square(a)
    return out


def derivative(a: int) -> int:
    """Formal derivative: t^(2i+1) -> t^(2i), even powers vanish."""
    a >>= 1
    n = a.bit_length()
    return a & int("01" * ((n + 1) // 2), 2) if n else 0


def reverse(a: int, n: int) -> int:
    """Bits 0..n of a in reverse order."""
    return int(format(a, f"0{n + 1}b")[::-1], 2)


def inverse_unit(u: int, m: int) -> int:
    """u^-1 mod x^m for a power series u with constant term 1 (Newton)."""
    g, k = 1, 1
    while k < m:
        k = min(2 * k, m)
        mask = (1 << k) - 1
        g = clmul(u & mask, square(g)) & mask
    return g & ((1 << m) - 1)


class XS:
    """Series sum bits_i x^(shift+i) in x = 1/t, exact below x^prec."""

    __slots__ = ("bits", "shift", "prec")

    def __init__(self, bits: int, shift: int, prec=INF):
        if prec != INF:
            n = prec - shift
            bits = bits & ((1 << n) - 1) if n > 0 else 0
        self.bits, self.shift, self.prec = bits, shift, prec

    @classmethod
    def from_tpoly(cls, p: int) -> "XS":
        d = deg(p)
        return cls(reverse(p, d), -d)

    def val(self):
        if not self.bits:
            return self.prec
        return self.shift + (self.bits & -self.bits).bit_length() - 1

    def __add__(self, o: "XS") -> "XS":
        s = min(self.shift, o.shift)
        bits = (self.bits << (self.shift - s)) ^ (o.bits << (o.shift - s))
        return XS(bits, s, min(self.prec, o.prec))

    def __mul__(self, o: "XS") -> "XS":
        prec = min(self.prec + o.val(), o.prec + self.val())
        return XS(clmul(self.bits, o.bits), self.shift + o.shift, prec)

    def square(self) -> "XS":
        return XS(square(self.bits), 2 * self.shift, 2 * self.prec)

    def power(self, j: int) -> "XS":
        out, base = XS(1, 0), self
        while j:
            if j & 1:
                out = out * base
            j >>= 1
            if j:
                base = base.square()
        return out

    def inverse(self, prec=INF) -> "XS":
        v = self.val()
        if not self.bits:
            raise ZeroDivisionError("series is zero at this precision")
        out_prec = min(self.prec - 2 * v, prec)
        if out_prec == INF:
            raise ValueError("inverse needs a finite precision")
        unit = self.bits >> (v - self.shift)
        m = out_prec + v
        return XS(inverse_unit(unit, m) if m > 0 else 0, -v, out_prec)


# ------------------------------------------------------------ inputs

_SPEC_RE = re.compile(r"([a-y]*)\(([a-y]+)\)\Z")


def parse_spec(text: str) -> tuple[str, str]:
    m = _SPEC_RE.match(text)
    if m is None:
        raise ValueError(f"bad seed {text!r}")
    return m.group(1), m.group(2)


def seed_letter(spec: tuple[str, str], k: int) -> str:
    pre, per = spec
    return pre[k] if k < len(pre) else per[(k - len(pre)) % len(per)]


def parse_relation(text: str) -> dict[int, list[dict[str, int]]]:
    """'deg j: m + m + ...' lines -> {j: [monomial as {var: exp}]}."""
    out: dict[int, list[dict[str, int]]] = {}
    for line in text.strip().splitlines():
        head, _, body = line.partition(":")
        j = int(head.split()[1])
        monos = []
        for term in body.split("+"):
            mono: dict[str, int] = {}
            for factor in term.split("*"):
                factor = factor.strip()
                if factor == "1":
                    continue
                var, _, exp = factor.partition("^")
                mono[var] = mono.get(var, 0) + int(exp or 1)
            monos.append(mono)
        out[j] = monos
    return out


def letter_degree(mono: dict[str, int]) -> int:
    return sum(e for v, e in mono.items() if v != "z")


def letter_polys(letters: str, delta: int, rng) -> dict[str, int]:
    """Distinct monic polynomials of degree delta, one per letter."""
    low = rng.sample(range(1 << delta), len(letters))
    return {ch: (1 << delta) | b for ch, b in zip(letters, low)}


# ------------------------------------------------------------ targets


def tail_sum(spec, polys: dict[str, int], first: int, width: int) -> XS:
    """Sum over n >= first of 1/u_n(t), exact below x^width.

    u_0 = 1 and u_{n+1} = eps_n * u_n^2: the continuant numerators.
    """
    acc = XS(0, 0, width)
    u, n = 1, 0
    while deg(u) < width:
        if n >= first:
            acc = acc + XS.from_tpoly(u).inverse(width)
        u = clmul(polys[seed_letter(spec, n)], square(u))
        n += 1
    return acc


def inv_target(spec, kind: str, polys, width: int) -> XS:
    if kind == "G":
        return tail_sum(spec, polys, len(spec[0]) + 1, width)
    inv_cf = tail_sum(spec, polys, 1, width)
    if kind == "invcf":
        return inv_cf
    if kind == "cf":
        return inv_cf.inverse()
    raise ValueError(f"unknown target {kind!r}")


def _coeff_tpoly(monos, polys) -> int:
    acc = 0
    for mono in monos:
        p = 1
        for v, e in mono.items():
            p = clmul(p, tpow(polys[v], e))
        acc ^= p
    return acc


def inv_residual(rel_text: str, spec_text: str, kind: str, depth: int,
                 polys: dict[str, int], delta: int):
    """Specialised residual of an inverse-power relation, known below the
    image of `depth`.  Returns (vanished, residual valuation in depth units
    or None)."""
    rel = parse_relation(rel_text)
    spec = parse_spec(spec_text)
    want = delta * depth
    width = want + delta * (max(letter_degree(m) for ms in rel.values()
                                for m in ms) + 4 * max(rel)) + 8
    for _ in range(6):
        y = inv_target(spec, kind, polys, width)
        residual = XS(0, 0)
        for j, monos in rel.items():
            c = XS.from_tpoly(_coeff_tpoly(monos, polys))
            residual = residual + c * y.power(j)
        if residual.prec >= want:
            v = residual.val()
            if v >= want:
                return True, None
            return False, v // delta
        width += want - residual.prec + 8
    raise RuntimeError("checker could not reach the requested depth")


def z_residual(rel_text: str, spec_text: str, depth: int,
               polys: dict[str, int], delta: int):
    """Specialised residual of a z-side relation modulo z^depth.

    F = sum_n eps_{v2(n+1)} z^n, packed by Kronecker substitution z = t^K
    with K larger than any coefficient degree that can arise, so one
    carry-less product multiplies two z-series.  Returns (vanished, index
    of the first nonzero residual coefficient or None).
    """
    rel = parse_relation(rel_text)
    spec = parse_spec(spec_text)
    K = delta * max(
        max(letter_degree(m) for m in monos) + j for j, monos in rel.items()
    ) + 1
    mask = (1 << (depth * K)) - 1
    F = 0
    for n in range(depth):
        m = n + 1
        F |= polys[seed_letter(spec, (m & -m).bit_length() - 1)] << (n * K)
    residual = 0
    for j, monos in rel.items():
        c = 0
        for mono in monos:
            e = mono.get("z", 0)
            if e < depth:
                letters = {v: k for v, k in mono.items() if v != "z"}
                c ^= _coeff_tpoly([letters], polys) << (e * K)
        power, base, k = 1, F, j
        while k:
            if k & 1:
                power = clmul(power, base) & mask
            k >>= 1
            if k:
                base = square(base) & mask
        residual ^= clmul(c, power) & mask
    if not residual:
        return True, None
    return False, ((residual & -residual).bit_length() - 1) // K


# ------------------------------------------------------------ claims


def _check_relation(claim, polys, delta):
    if claim["side"] == "z":
        return z_residual(claim["relation"], claim["spec"], claim["depth"],
                          polys, delta)
    return inv_residual(claim["relation"], claim["spec"], claim["target"],
                        claim["depth"], polys, delta)


def _ydeg(text: str) -> int:
    return max(parse_relation(text))


def check_relation(claim, polys, delta) -> list[str]:
    errs = []
    if "ydeg" in claim and _ydeg(claim["relation"]) != claim["ydeg"]:
        errs.append(f"y-degree {_ydeg(claim['relation'])}, "
                    f"expected {claim['ydeg']}")
    ok, where = _check_relation(claim, polys, delta)
    if not ok:
        errs.append(f"residual at depth {where} below {claim['depth']}")
    return errs


def check_negative(claim, polys, delta) -> list[str]:
    """A relation with one monomial flipped must leave a residual."""
    errs = []
    ok, _ = _check_relation(claim, polys, delta)
    if ok:
        errs.append("checker missed the flipped monomial")
    if claim["cli_exit"] != 1:
        errs.append(f"cf verify exited {claim['cli_exit']}, expected 1")
    return errs


def check_cf_expand(claim, polys, delta) -> list[str]:
    """Exponent law c_2n = 1, c_2n+1 = 4 c_n - 1, and the quotients are
    the expansion of sum_k t^-((4^k - 1)/3): each convergent p_n/q_n
    leaves g*q_n - p_n of 1/t-valuation deg q_{n+1} = deg q_n + c_{n+1}."""
    errs = []
    quots = claim["quotients"]
    cs = []
    for q in quots[1:]:
        if q.bit_count() != 1:
            return [f"quotient {q:b} is not a monomial"]
        cs.append(deg(q))
    if any(cs[2 * n] != 1 for n in range(len(cs) // 2)):
        errs.append("c_2n != 1")
    if any(cs[2 * n + 1] != 4 * cs[n] - 1 for n in range((len(cs) - 1) // 2)):
        errs.append("c_2n+1 != 4 c_n - 1")
    prec = claim["precision"]
    g_bits, k = 0, 0
    while ((1 << (2 * k)) - 1) // 3 < prec:
        g_bits |= 1 << (((1 << (2 * k)) - 1) // 3)
        k += 1
    g = XS(g_bits, 0, prec)
    p_prev, q_prev, p_cur, q_cur = 1, 0, quots[0], 1
    for n in range(len(quots) - 1):
        if n:
            p_cur, p_prev = clmul(quots[n], p_cur) ^ p_prev, p_cur
            q_cur, q_prev = clmul(quots[n], q_cur) ^ q_prev, q_cur
        err = g * XS.from_tpoly(q_cur) + XS.from_tpoly(p_cur)
        want = deg(q_cur) + deg(quots[n + 1])
        if err.prec <= want:
            break
        if err.val() != want:
            errs.append(f"convergent {n} is not a best approximation")
            break
    if claim["status"] == "count" and len(quots) != claim["count"]:
        errs.append("expansion stopped early")
    return errs


def check_witness(claim, polys, delta) -> list[str]:
    """F_n = ab(a+b) P_n Q_n + ab(P_n^2 + Q_n^2), F_n + ab = g_n^2, and the
    Riccati residual (a'b + ab')/Q_n^2 has valuation 2 deg Q_n - deg (ab)'."""
    a, b, pattern, n = claim["a"], claim["b"], claim["pattern"], claim["n"]
    quot = {"a": a, "b": b, "c": a ^ b}
    p_prev, q_prev, p_cur, q_cur = 1, 0, quot[pattern[0]], 1
    for i in range(1, n + 1):
        u = quot[pattern[i]]
        p_cur, p_prev = clmul(u, p_cur) ^ p_prev, p_cur
        q_cur, q_prev = clmul(u, q_cur) ^ q_prev, q_cur
    ab = clmul(a, b)
    f_n = clmul(clmul(ab, a ^ b), clmul(p_cur, q_cur)) ^ clmul(
        ab, square(p_cur) ^ square(q_cur))
    errs = []
    if claim["f_n"] != f_n:
        errs.append(f"F_{n} differs from the convergent formula")
    if square(claim["g_n"]) != f_n ^ ab:
        errs.append(f"g_{n}^2 != F_{n} + ab")
    dab = derivative(ab)
    want = INF if not dab else 2 * deg(q_cur) - deg(dab)
    if claim["residual_valuation"] != want:
        errs.append(f"residual valuation {claim['residual_valuation']}, "
                    f"expected {want}")
    return errs


def check_baum_sweet(claim, polys, delta) -> list[str]:
    """Periodic quotients all of degree one <=> member of the class."""
    if claim["member"] != claim["expected"]:
        return [f"membership {claim['member']}, expected {claim['expected']}"]
    return []


def check_positions(claim, polys, delta) -> list[str]:
    """s_n = eps_{v2(n+1)}: slot j occurs at 2^k (2m+1) - 1 for every k
    whose seed letter is that slot's letter."""
    spec = parse_spec(claim["spec"])
    letter, horizon = spec[1][claim["j"]], claim["horizon"]
    want = []
    k = 0
    while (1 << k) - 1 < horizon:
        if seed_letter(spec, k) == letter:
            want.extend(range((1 << k) - 1, horizon, 1 << (k + 1)))
        k += 1
    want.sort()
    errs = []
    if list(claim["enumerated"]) != want:
        errs.append("enumerated positions disagree with the closed form")
    if list(claim["predicted"]) != want:
        errs.append("predicted positions disagree with the closed form")
    return errs


def check_cli(claim, polys, delta) -> list[str]:
    m = re.fullmatch(r"vanished below precision (\d+)\n", claim["stdout"])
    if claim["exit"] != 0 or m is None:
        return [f"exit {claim['exit']}, output {claim['stdout']!r}"]
    return check_relation({**claim, "depth": int(m.group(1))}, polys, delta)


def check_missing(claim, polys, delta) -> list[str]:
    """The library itself reported no result or a wrong one."""
    return [claim.get("why", "no relation found")]


CHECKS = {
    "missing": check_missing,
    "relation": check_relation,
    "negative": check_negative,
    "cf_expand": check_cf_expand,
    "witness": check_witness,
    "baum_sweet": check_baum_sweet,
    "positions": check_positions,
    "cli": check_cli,
}


def check_all(claims: list[dict], polys: dict[str, int], delta: int) -> list[str]:
    """Every failed check as one line; an empty list means all passed."""
    errors = []
    for claim in claims:
        for err in CHECKS[claim["kind"]](claim, polys, delta):
            errors.append(f"{claim['label']}: {err}")
    return errors
