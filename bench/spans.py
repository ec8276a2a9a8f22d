"""Spans around the calls into cf2's modules, recorded from outside them.

`Tracer.patched(cf2)` replaces module attributes and class methods of the
imported package with wrappers that record one span per call (name, task,
pass, start, end, parent, counts) in memory, and restores them on exit.  Nothing under
src/ changes: the wrappers sit at the boundaries the library's own callers
look up at call time (`cfalg.find_relation` as `minimal_degree_report`
calls it, `cfalg.nullspace` as `find_relation` calls it, the `power` and
`inverse` methods) and at the public functions the workloads call.

`Gf2Poly.__mul__` gets no span: it is a leaf made ~10^5 times a pass, and
wrapping it would distort the run.  Its cost shows in the self time of
whatever calls it.
"""

from __future__ import annotations

import contextlib
import time

# (span name, owner attribute path, attribute, counters); a counter maps a
# per-layer metric to a function of (args, result) giving the amount
_POINTS = [
    ("invseries.power", "invseries.InvSeries", "power",
     {"invseries.power_terms": lambda a, r: len(r.terms)}),
    ("invseries.inverse", "invseries.InvSeries", "inverse", {}),
    ("zseries.power", "zseries.ZSeries", "power", {}),
    ("zseries.build", "zseries", "compute_F", {}),
    ("zseries.build", "zseries", "compute_F0", {}),
    ("cfalg.find_relation", "cfalg", "find_relation", {}),
    ("cfalg.min_degree", "cfalg", "minimal_degree_report", {}),
    ("cfalg.verify", "cfalg", "verify_relation", {}),
    ("gf2linalg.nullspace", "cfalg", "nullspace",
     {"gf2linalg.rows": lambda a, r: len(a[0]),
      "gf2linalg.cols": lambda a, r: a[1],
      "gf2linalg.nullity": lambda a, r: len(r)}),
    ("laurent.cf_expand", "laurent", "cf_expand",
     {"laurent.quotients": lambda a, r: len(r.quotients)}),
    ("laurent.cf_value", "laurent", "cf_value", {}),
    ("riccati.witness", "riccati", "fn_witness", {}),
    ("riccati.baum_sweet", "riccati", "baum_sweet_check", {}),
    ("seqcore.positions", "seqcore", "positions",
     {"seqcore.indices": lambda a, r: len(r.indices)}),
    ("seqcore.positions", "seqcore", "positions_predicted",
     {"seqcore.indices": lambda a, r: len(r.indices)}),
    ("cli.main", "cli", "main", {}),
]

# span name -> the per-layer metric counting its calls
_CALLS = {
    "invseries.power": "invseries.power_calls",
    "zseries.power": "zseries.power_calls",
    "cfalg.find_relation": "cfalg.find_relation_calls",
    "cfalg.verify": "cfalg.verify_calls",
    "gf2linalg.nullspace": "gf2linalg.nullspace_calls",
    "riccati.witness": "riccati.witnesses",
    "cli.main": "cli.calls",
}

# per-layer metrics: name -> (unit, better)
LAYER_METRICS = {
    "invseries.power_s": ("s", "lower"),
    "invseries.power_calls": ("count", "lower"),
    "invseries.power_terms": ("count", "lower"),
    "invseries.inverse_s": ("s", "lower"),
    "zseries.power_s": ("s", "lower"),
    "zseries.power_calls": ("count", "lower"),
    "zseries.build_s": ("s", "lower"),
    "cfalg.find_relation_s": ("s", "lower"),
    "cfalg.find_relation_calls": ("count", "lower"),
    "cfalg.min_degree_s": ("s", "lower"),
    "cfalg.search_self_s": ("s", "lower"),
    "cfalg.verify_s": ("s", "lower"),
    "cfalg.verify_calls": ("count", "higher"),
    "gf2linalg.nullspace_s": ("s", "lower"),
    "gf2linalg.nullspace_calls": ("count", "lower"),
    "gf2linalg.rows": ("count", "lower"),
    "gf2linalg.cols": ("count", "lower"),
    "gf2linalg.nullity": ("count", "lower"),
    "laurent.cf_expand_s": ("s", "lower"),
    "laurent.quotients": ("count", "higher"),
    "laurent.cf_value_s": ("s", "lower"),
    "riccati.witness_s": ("s", "lower"),
    "riccati.witnesses": ("count", "higher"),
    "riccati.baum_sweet_s": ("s", "lower"),
    "seqcore.positions_s": ("s", "lower"),
    "seqcore.indices": ("count", "higher"),
    "cli.main_s": ("s", "lower"),
    "cli.calls": ("count", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        # span: [name, task, pass, start, end, parent index, counters]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.task = ""
        self.pass_index = 0

    def _wrap(self, name, fn, counters):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, self.task, self.pass_index, clock(), 0.0,
                    stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counters:
                span[6] = {k: f(args, result) for k, f in counters.items()}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def patched(self, cf2):
        saved = []
        try:
            for name, owner_path, attr, counters in _POINTS:
                owner = cf2
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counters))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self, pass_index: int, scale: float) -> dict[str, float]:
        """Per-layer totals of one traced pass (all but the overhead).

        A span's time is its duration times the run's host-speed scale;
        `cfalg.search_self_s` is the time of `find_relation` less that of
        its timed children (target powers and nullspace).
        """
        m = {k: 0 for k in LAYER_METRICS if k != "trace.overhead_pct"}
        in_pass = [(i, s) for i, s in enumerate(self.spans) if s[2] == pass_index]
        child_time: dict[int, float] = {}
        for _, s in in_pass:
            if s[5] is not None:
                child_time[s[5]] = (child_time.get(s[5], 0.0)
                                    + (s[4] - s[3]) * scale)
        for i, s in in_pass:
            name, dur = s[0], (s[4] - s[3]) * scale
            m[name + "_s"] += dur
            if name in _CALLS:
                m[_CALLS[name]] += 1
            if name == "cfalg.find_relation":
                m["cfalg.search_self_s"] += dur - child_time.get(i, 0.0)
            for k, v in (s[6] or {}).items():
                m[k] += v
        return m

    def dump(self) -> list[dict]:
        return [
            {"name": s[0], "task": s[1], "pass": s[2], "start": s[3],
             "end": s[4], "parent": s[5], **({"counts": s[6]} if s[6] else {})}
            for s in self.spans
        ]
