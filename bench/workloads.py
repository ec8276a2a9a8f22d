"""The benchmark's three workloads.

`build(name, cf2, seed)` makes a workload's inputs from the seed and
returns its tasks (one closed-loop caller, one task at a time) and a
function that turns the tasks' results into claims for `checker`.

Tasks look up every library function through its module attribute at call
time (`cf2.cfalg.find_relation`, not a name bound at import), so that the
traced run can wrap those attributes from the benchmark's own files.

The seed renames the paper's letters a, b, c to three other letters kept
in the same order, so every search does exactly the same work on every
seed while its inputs and outputs differ.  It also draws the Riccati
patterns, the Baum-Sweet quotient lists and the distinct-letter seeds of
the position checks, all of fixed sizes.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# letters a seed may map to: 'z' is the series variable, 'y' the unknown
LETTERS = "abcdefghijklmnopqrstuvwx"

# The paper's relations, in the relation-file format, over letters a, b, c.
PAPER = {
    "(ab) G": """\
deg 0: a*b + b^2 + 1
deg 1: a^2*b + a*b^2
deg 2: a*b
deg 4: 1
""",
    "a(bc) CF": """\
deg 0: a^2
deg 2: a^2*b*c
deg 3: a^2*b^2*c + a^2*b*c^2
deg 4: a*b^2*c + a*b*c^2 + c^2
""",
    "(aabb) G": """\
deg 0: a^11*b^3 + a^10*b^4 + a^3*b^11 + a^2*b^12 + a^6*b^6 + a^4*b^8 \
+ a^2*b^10 + b^12 + a^6*b^2 + a^4*b^4 + a^2*b^6 + b^8 + 1
deg 1: a^12*b^3 + a^11*b^4 + a^4*b^11 + a^3*b^12
deg 2: a^11*b^3 + a^10*b^4 + a^8*b^6 + a^6*b^8 + a^4*b^10 + a^3*b^11
deg 8: a^6*b^2 + a^4*b^4 + a^2*b^6
deg 16: 1
""",
    "(ab) F": """\
deg 0: a^2*z + a*b*z + b^2*z + a^2 + a*b
deg 1: a*z^2 + b*z^2 + a + b
deg 2: z^3 + z
""",
    "a(bc) F": """\
deg 0: b^2*z^3 + b*c*z^3 + c^2*z^3 + a*b*z^2 + a*c*z^2 + a^2*z + b^2*z \
+ b*c*z + a*b + a*c
deg 1: b*z^4 + c*z^4 + b + c
deg 2: z^5 + z
""",
    "(aabb) F": """\
deg 0: a^4*z^3 + a^3*b*z^3 + a^2*b^2*z^3 + a*b^3*z^3 + b^4*z^3 + a^4*z^2 \
+ a^3*b*z^2 + a^2*b^2*z^2 + a*b^3*z^2 + a^4*z + a^3*b*z + a^2*b^2*z \
+ a*b^3*z + a^4 + a^3*b + a^2*b^2 + a*b^3
deg 1: a^3*z^4 + a^2*b*z^4 + a*b^2*z^4 + b^3*z^4 + a^3 + a^2*b + a*b^2 + b^3
deg 4: z^7 + z^3
""",
}

# inverse-power searches: (seed, target, ydeg, coeff deg, prec); the
# target is built 2 * prec + 16 (+ 8 for the degree-16 case) deep, so
# candidates are re-verified at double precision
INV_SEARCH = [
    ("(ab) G", "(ab)", "G", 4, 3, 256, 4),
    ("a(bc) CF", "a(bc)", "cf", 4, 6, 256, 4),
    ("(aabb) G", "(aabb)", "G", 16, 16, 512, 16),
]
# power-series sweeps: (seed, ydeg cap, coeff deg, z deg, prec, expected)
Z_SWEEP = [
    ("(ab) F", "(ab)", 2, 3, 3, 256, 2),
    ("a(bc) F", "a(bc)", 4, 3, 8, 256, 2),
    ("(aabb) F", "(aabb)", 8, 4, 8, 256, 4),
]
# verification depths, deeper than the searches used
VERIFY = [
    ("(ab) G", "(ab)", "G", 4096),
    ("(aabb) G", "(aabb)", "G", 4096),
    ("a(bc) CF", "a(bc)", "cf", 384),
    ("(ab) F", "(ab)", "F", 2048),
    ("a(bc) F", "a(bc)", "F", 2048),
    ("(aabb) F", "(aabb)", "F", 2048),
]
UNBOUNDED_PREC, UNBOUNDED_COUNT = 1 << 14, 128
RICCATI_PATTERNS, RICCATI_LEN = 6, 160
BAUM_SWEET_PERIODS = [3, 4, 5, 6, 3, 4, 5, 6]
BAUM_SWEET_PREC = 256
POSITION_SHAPES = [(0, 3), (1, 2), (2, 3), (1, 4)]
POSITION_HORIZON = 1 << 16
# CLI round trip: (relation, command group, target, --prec)
CLI_CALLS = [
    ("(ab) G", "cf", "G", 2048),
    ("a(bc) F", "ps", "F", 1024),
    ("a(bc) CF", "cf", "cf", 256),
]
NEGATIVE_PREC = 256
DELTA = 3  # degree of the checker's letter polynomials

WORKLOADS = ("inv-search", "z-sweep", "verify-expand")


@dataclass
class Workload:
    tasks: list[tuple[str, Callable[[], object]]]
    claims: Callable[[dict], list[dict]]
    letters: str  # the seed's images of a, b, c


def rename(text: str, letters: str) -> str:
    """Map a, b, c to the seed's letters in seeds and relation bodies."""
    table = dict(zip("abc", letters))
    sub = lambda s: re.sub("[abc]", lambda m: table[m.group()], s)
    if not text.startswith("deg"):
        return sub(text)
    return "".join(
        f"{head}:{sub(body)}\n"
        for head, _, body in (ln.partition(":") for ln in text.splitlines())
    )


def _relation_claims(label, rels, spec, side, target, depth, ydeg=None):
    claims = []
    for i, rel in enumerate(rels):
        claim = {"kind": "relation", "label": f"{label} #{i}", "spec": spec,
                 "side": side, "target": target, "depth": depth,
                 "relation": rel.to_file_text()}
        if i == 0 and ydeg is not None:
            claim["ydeg"] = ydeg
        claims.append(claim)
    return claims


def inv_search(cf2, rng: random.Random, workdir: Path) -> Workload:
    letters = "".join(sorted(rng.sample(LETTERS, 3)))
    cfalg = cf2.cfalg
    make_target = {"G": lambda s, p: cfalg.compute_G(s, p),
                "cf": lambda s, p: cfalg.compute_cf(s, p)}
    tasks, meta = [], {}
    for label, seed, target, ydeg, cdeg, prec, want in INV_SEARCH:
        text = rename(seed, letters)
        spec = cf2.EpsSpec.parse(text)
        depth = 2 * prec + (16 if prec <= 256 else 24)
        tasks.append((label, lambda spec=spec, b=make_target[target], d=depth,
                      y=ydeg, c=cdeg, p=prec:
                      cfalg.find_relation(b(spec, d), y, c, prec=p)))
        meta[label] = (text, target, 2 * prec, want)

    def claims(results):
        out = []
        for label, rels in results.items():
            text, target, depth, want = meta[label]
            if not rels:
                out.append({"kind": "missing", "label": label})
            out += _relation_claims(label, rels, text, "inv", target, depth, want)
        return out

    return Workload(tasks, claims, letters)


def z_sweep(cf2, rng: random.Random, workdir: Path) -> Workload:
    letters = "".join(sorted(rng.sample(LETTERS, 3)))
    tasks, meta = [], {}
    for label, seed, cap, cdeg, zdeg, prec, want in Z_SWEEP:
        text = rename(seed, letters)
        spec = cf2.EpsSpec.parse(text)
        tasks.append((label, lambda spec=spec, cap=cap, c=cdeg, z=zdeg, p=prec:
                      cf2.cfalg.minimal_degree_report(
                          cf2.zseries.compute_F(spec, 2 * p + 16), cap, c, z,
                          prec=p)))
        meta[label] = (text, 2 * prec, want)

    def claims(results):
        out = []
        for label, (deg, rel) in results.items():
            text, depth, want = meta[label]
            if deg != want or rel is None:
                out.append({"kind": "missing", "label": label,
                            "why": f"minimal degree {deg}, expected {want}"})
                continue
            out += _relation_claims(label, [rel], text, "z", "F", depth, want)
        return out

    return Workload(tasks, claims, letters)


def _riccati_inputs(cf2, rng):
    UniPoly = cf2.UniPoly
    seqs = []
    for _ in range(RICCATI_PATTERNS):
        # a, b monic of degree 3 with a + b non-constant
        lo_a, lo_b = rng.sample(range(8), 2)
        while (lo_a ^ lo_b) < 2:
            lo_a, lo_b = rng.sample(range(8), 2)
        pattern = tuple(rng.choice("abc") for _ in range(RICCATI_LEN))
        seqs.append(cf2.QuotientSeq(pattern, UniPoly(8 | lo_a),
                                    UniPoly(8 | lo_b)))
    lists = []
    for i, period in enumerate(BAUM_SWEET_PERIODS):
        quots = [UniPoly(rng.choice((2, 3))) for _ in range(period)]
        member = i % 2 == 0
        if not member:
            quots[rng.randrange(period)] = UniPoly(rng.choice((4, 5, 6, 7)))
        lists.append(([UniPoly(0)] + quots, period, member))
    return seqs, lists


def _position_specs(cf2, rng):
    specs = []
    for pre, per in POSITION_SHAPES:
        chosen = rng.sample(LETTERS, pre + per)
        specs.append(cf2.EpsSpec("".join(chosen[:pre]), "".join(chosen[pre:])))
    return specs


def _run_cli(cf2, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cf2.cli.main(argv)
    return code, out.getvalue()


def verify_expand(cf2, rng: random.Random, workdir: Path) -> Workload:
    letters = "".join(sorted(rng.sample(LETTERS, 3)))
    cfalg, laurent, riccati, seqcore = (cf2.cfalg, cf2.laurent, cf2.riccati,
                                        cf2.seqcore)
    rels = {k: cf2.Relation.from_file_text(rename(v, letters))
            for k, v in PAPER.items()}
    make_target = {"G": lambda s, p: cfalg.compute_G(s, p),
                "cf": lambda s, p: cfalg.compute_cf(s, p),
                "F": lambda s, p: cf2.zseries.compute_F(s, p)}
    tasks, meta = [], {}
    for label, seed, target, depth in VERIFY:
        text = rename(seed, letters)
        spec = cf2.EpsSpec.parse(text)
        tasks.append((f"verify {label}", lambda r=rels[label], b=make_target[target],
                      s=spec, d=depth: cfalg.verify_relation(r, b(s, d))))
        meta[f"verify {label}"] = ("verify", text, target, rels[label])

    tasks.append(("cf_expand unbounded", lambda: laurent.cf_expand(
        laurent.unbounded_quotient_series(UNBOUNDED_PREC), UNBOUNDED_COUNT)))
    meta["cf_expand unbounded"] = ("cf_expand",)

    seqs, lists = _riccati_inputs(cf2, rng)
    for i, q in enumerate(seqs):
        label = f"witness pattern {i}"
        tasks.append((label, lambda q=q: [riccati.fn_witness(q, n)
                                          for n in range(RICCATI_LEN)]))
        meta[label] = ("witness", q)
    for i, (quots, period, member) in enumerate(lists):
        label = f"baum-sweet list {i}"
        tasks.append((label, lambda qs=quots, k=period: riccati.baum_sweet_check(
            laurent.cf_value(qs, tail_period=k, precision=BAUM_SWEET_PREC + 32),
            BAUM_SWEET_PREC)))
        meta[label] = ("baum_sweet", member)
    for spec in _position_specs(cf2, rng):
        for j in range(spec.d):
            label = f"positions {spec} slot {j}"
            tasks.append((label, lambda s=spec, j=j: (
                seqcore.positions(s, s.period[j], POSITION_HORIZON),
                seqcore.positions_predicted(s, j, POSITION_HORIZON))))
            meta[label] = ("positions", str(spec), j)

    for i, (label, group, target, prec) in enumerate(CLI_CALLS):
        path = workdir / f"cli-{i}.rel"
        path.write_text(rels[label].to_file_text())
        spec = rename(label.split()[0], letters)
        argv = [group, "verify", "--eps", spec, "--target", target,
                "--relation-file", str(path), "--prec", str(prec)]
        tasks.append((f"cli {group} verify {label}",
                      lambda argv=argv: _run_cli(cf2, argv)))
        meta[f"cli {group} verify {label}"] = (
            "cli", spec, target, rels[label])

    def claims(results):
        out = []
        for label, res in results.items():
            kind, *info = meta[label]
            if kind == "verify":
                text, target, rel = info
                side = "z" if target == "F" else "inv"
                if not res.vanished:
                    out.append({"kind": "missing", "label": label,
                                "why": "library reported a residual"})
                out += _relation_claims(label, [rel], text, side, target,
                                        res.precision)
            elif kind == "cf_expand":
                out.append({"kind": "cf_expand", "label": label,
                            "precision": UNBOUNDED_PREC,
                            "count": UNBOUNDED_COUNT, "status": res.status,
                            "quotients": [q.bits for q in res.quotients]})
            elif kind == "witness":
                (q,) = info
                for w in res:
                    out.append({"kind": "witness", "label": f"{label} n={w.n}",
                                "a": q.a.bits, "b": q.b.bits,
                                "pattern": q.pattern, "n": w.n,
                                "f_n": w.f_n.bits, "g_n": w.g_n.bits,
                                "residual_valuation": w.residual_valuation})
            elif kind == "baum_sweet":
                out.append({"kind": "baum_sweet", "label": label,
                            "member": res, "expected": info[0]})
            elif kind == "positions":
                spec, j = info
                enum, pred = res
                out.append({"kind": "positions", "label": label, "spec": spec,
                            "j": j, "horizon": POSITION_HORIZON,
                            "enumerated": enum.indices,
                            "predicted": pred.indices})
            else:
                spec, target, rel = info
                code, stdout = res
                out.append({"kind": "cli", "label": label, "spec": spec,
                            "side": "z" if target == "F" else "inv",
                            "target": target, "exit": code, "stdout": stdout,
                            "relation": rel.to_file_text()})
        return out

    return Workload(tasks, claims, letters)


_WORKLOAD_FUNCS = {"inv-search": inv_search, "z-sweep": z_sweep,
            "verify-expand": verify_expand}


def build(name: str, cf2, seed: int, workdir: Path) -> Workload:
    return _WORKLOAD_FUNCS[name](cf2, random.Random(seed), workdir)


def negative_control(cf2, letters: str, rng: random.Random,
                     workdir: Path) -> dict:
    """Drop one seed-chosen monomial of the (ab) G quartic and run
    `cf2 cf verify` on it; the claim asks the checker to find a residual."""
    lines = rename(PAPER["(ab) G"], letters).splitlines()
    row = rng.randrange(len(lines))
    head, _, body = lines[row].partition(":")
    monos = [m.strip() for m in body.split("+")]
    monos.pop(rng.randrange(len(monos)))
    if monos:
        lines[row] = f"{head}: {' + '.join(monos)}"
    else:
        del lines[row]
    text = "\n".join(lines) + "\n"
    path = workdir / "negative.rel"
    path.write_text(text)
    spec = rename("(ab)", letters)
    code, _ = _run_cli(cf2, ["cf", "verify", "--eps", spec, "--target", "G",
                             "--relation-file", str(path),
                             "--prec", str(NEGATIVE_PREC)])
    return {"kind": "negative", "label": "negative control", "spec": spec,
            "side": "inv", "target": "G", "depth": NEGATIVE_PREC,
            "relation": text, "cli_exit": code}
