"""The benchmark's trace points still name attributes of the package.

`bench/spans.py` wraps module attributes and class methods of `cf2` by
(owner path, attribute); a renamed or moved function would make every
traced run fail, and a counter that misses calls would misreport a layer.
These tests only read `bench/`.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import cf2
import cf2.cli  # noqa: F401  (the benchmark imports the CLI too)
from cf2 import EpsSpec

_BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _bench(name: str):
    path = _BENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _spans():
    return _bench("spans")


def test_every_point_resolves():
    for name, owner_path, attr, _ in _spans()._POINTS:
        owner = cf2
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        assert attr in owner.__dict__, (name, owner_path, attr)


def test_positions_counters_count_indices():
    spans = _spans()
    seed = EpsSpec.parse("a(bc)")
    tracer = spans.Tracer()
    with tracer.patched(cf2):
        enumerated = cf2.seqcore.positions(seed, "b", 40)
        predicted = cf2.seqcore.positions_predicted(seed, 0, 40)
    assert enumerated == predicted
    metrics = tracer.layer_metrics(0, 1.0)
    assert metrics["seqcore.indices"] == 2 * len(enumerated.indices) > 0
    assert not hasattr(cf2.seqcore.positions, "__wrapped__")  # restored


def test_nullspace_counters_match_the_calls_made(monkeypatch):
    # c(baaa) G at y-degree 6 and coefficient degree 8 makes all three
    # kinds of call: the first solve of each of its four grades leaves 29
    # to 38 null vectors, one widening step each leaves 79 between them,
    # and the residual pass rules them out.  The traced counters must add
    # up what `cfalg.nullspace` received
    spans = _spans()
    received = []
    solve = cf2.cfalg.nullspace

    def recording(rows, n_cols):
        tags = solve(rows, n_cols)
        received.append((len(rows), n_cols, len(tags)))
        return tags

    monkeypatch.setattr(cf2.cfalg, "nullspace", recording)
    g = cf2.compute_G(EpsSpec.parse("c(baaa)"), 2 * 64 + 16)
    tracer = spans.Tracer()
    with tracer.patched(cf2):
        assert cf2.cfalg.find_relation(g, 6, 8, prec=64) == []
    assert [(r, n) for r, _, n in received] == [
        (306, 29), (29, 29), (269, 34), (34, 20), (284, 38), (38, 11),
        (296, 36), (36, 19), (79, 0),
    ]
    metrics = tracer.layer_metrics(0, 1.0)
    assert metrics["gf2linalg.nullspace_calls"] == len(received)
    assert metrics["gf2linalg.rows"] == sum(r for r, _, _ in received)
    assert metrics["gf2linalg.cols"] == sum(c for _, c, _ in received)
    assert metrics["gf2linalg.nullity"] == sum(n for _, _, n in received)


def _traced_powers(monkeypatch, search):
    """The exponents `cfalg._power_codes` formed during a traced search, the
    search's result and the traced run's power-call counters."""
    formed = []
    power_codes = cf2.cfalg._power_codes

    def counting(s, pk, j, *args):
        formed.append(j)
        return power_codes(s, pk, j, *args)

    monkeypatch.setattr(cf2.cfalg, "_power_codes", counting)
    tracer = _spans().Tracer()
    with tracer.patched(cf2):
        found = search()
    metrics = tracer.layer_metrics(0, 1.0)
    calls = (metrics["invseries.power_calls"], metrics["zseries.power_calls"])
    return formed, found, calls


def test_a_cf_search_forms_each_power_once_packed(monkeypatch):
    # a search of a(bc) CF forms the powers of its reciprocal r as packed
    # codes, never through the public `power`: y^j of a ydeg-4 search gets
    # the row of r^(4 - j), so it forms r^4 .. r^0 in the order of the
    # unknowns, 5 calls of the routine and no power span
    cf = cf2.compute_cf(EpsSpec.parse("a(bc)"), 2 * 256 + 16)
    formed, rels, calls = _traced_powers(
        monkeypatch, lambda: cf2.cfalg.find_relation(cf, 4, 6, prec=256))
    assert rels
    assert formed == [4, 3, 2, 1, 0]
    assert calls == (0, 0)


def test_a_cf_search_runs_newton_only_below_its_solve_depth():
    # the benchmark's a(bc) CF search solves below p_sys = 256 and reads
    # the continued fraction y only for its letters and for a count of
    # its codes below p_sys against its 420 unknowns, so Newton's
    # iteration stops at the iterate known below depth 255, 698 codes: no
    # code of y is formed at or past depth 256.  Reading the terms then
    # runs it on to the codes of the iteration run to the end at once
    spec = EpsSpec.parse("a(bc)")
    cf = cf2.compute_cf(spec, 2 * 256 + 16)
    assert cf2.cfalg.find_relation(cf, 4, 6, prec=256)
    newton = cf._newton
    assert newton.known - newton.m_depth <= 256
    assert newton.pk.depth(newton.x[-1]) < 256 and len(newton.x) == 698
    assert cf._terms is None
    eager = cf2.compute_cf(spec, 2 * 256 + 16)
    assert len(eager.packed[1]) == 2366
    assert cf.terms == eager.terms and cf.packed[1] == eager.packed[1]


def test_a_z_sweep_forms_each_power_once_packed(monkeypatch):
    # the (aabb) F sweep finds degree 4 after searching y-degrees 1 to 4;
    # its one supplier keeps the powers of one degree for the next, so it
    # forms y^0 .. y^4 once each, and none through the public `power`
    f = cf2.compute_F(EpsSpec.parse("(aabb)"), 2 * 256 + 16)
    formed, (ydeg, _), calls = _traced_powers(
        monkeypatch, lambda: cf2.cfalg.minimal_degree_report(f, 8, 4, 8, prec=256))
    assert ydeg == 4
    assert formed == [0, 1, 2, 3, 4]
    assert calls == (0, 0)


def _traced_grades(monkeypatch, tmp_path, name):
    """The traced run of a workload's pass: its per-layer metrics and the
    grade count of every search of every task."""
    grades = []

    class Recording(cf2.cfalg._GrownRows):
        def __init__(self, *args):
            super().__init__(*args)
            grades[-1][1].append(len(self.grades))

    monkeypatch.setattr(cf2.cfalg, "_GrownRows", Recording)
    spans = _spans()
    workload = _bench("workloads").build(name, cf2, 7, tmp_path)
    tracer = spans.Tracer()
    with tracer.patched(cf2):
        for label, task in workload.tasks:
            grades.append((label, []))
            assert task()
    return tracer.layer_metrics(0, 1.0), grades


def test_the_inv_search_elimination_keeps_its_shape(tmp_path, monkeypatch):
    # the benchmark's three inverse-power searches each solve two grades,
    # by the parity of their keys' depths: 6 systems, and each first solve
    # leaves only the search's relations, so none widens and no residual
    # pass solves.  The tags do not depend on how `nullspace` pivots, so
    # neither does the widening schedule nor any of these counts.  `cols`
    # adds up the bits of the blocks' key layouts, not their equations;
    # the a(bc) CF layouts are those of its reciprocal's powers
    metrics, grades = _traced_grades(monkeypatch, tmp_path, "inv-search")
    assert [n for _, n in grades] == [[2], [2], [2]]
    assert metrics["gf2linalg.nullspace_calls"] == 6
    assert metrics["gf2linalg.rows"] == 3071
    assert metrics["gf2linalg.cols"] == 13172
    assert metrics["gf2linalg.nullity"] == 8


def test_the_z_sweep_elimination_keeps_its_shape(tmp_path, monkeypatch):
    # the benchmark's three F sweeps solve 52 systems over their y-degrees:
    # a first solve per grade, the grades being the letter degrees of the
    # keys, and no residual pass solves, as every first solve leaves only
    # relations (solved as one grade, (aabb) F at degree 4 left 3 null
    # vectors, and the residual pass ruled one out).  Rows grown by
    # depth give each solve the equations that rows cut at the solve
    # precision would, so these counts but `cols` (layout bits) are the
    # full-row search's.  A sweep builds only the relation it returns, so
    # it strips no basis
    stripped = []
    stripped_basis = cf2.cfalg._stripped_basis

    def counting(tags, unknowns):
        stripped.append(len(tags))
        return stripped_basis(tags, unknowns)

    monkeypatch.setattr(cf2.cfalg, "_stripped_basis", counting)
    metrics, grades = _traced_grades(monkeypatch, tmp_path, "z-sweep")
    assert stripped == []
    # one search per y-degree, F having letter degree 1 in each term
    assert [n for _, n in grades] == [[5, 6], [5, 6], [6, 7, 8, 9]]
    assert metrics["gf2linalg.nullspace_calls"] == 52
    assert metrics["gf2linalg.rows"] == 2990
    assert metrics["gf2linalg.cols"] == 16710
    assert metrics["gf2linalg.nullity"] == 21
