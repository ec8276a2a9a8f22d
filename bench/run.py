"""Benchmark for cf2: relation search, degree sweep and verification.

    python3 bench/run.py --workload inv-search --seed 1 --seconds 20 --trace 0

Runs one workload (`inv-search`, `z-sweep` or `verify-expand`, see
README.md) against the library in ../src: one caller, one task at a time.
The run is split over WORKERS processes started one after the other, each
with its own hash seed drawn from --seed, because the speed of cf2's
tuple-keyed sets depends on the hash seed by up to ~20%.  Each worker
sets up SETUPS times, runs whole passes over the workload's tasks until
its share of --seconds has passed, and checks every result with the
independent checker.  The last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (wall_s,
slowest_task_s, peak_rss_mb, setup_s), measured untraced.  With
`--trace 1` passes alternate untraced and traced; the metrics are the
per-layer ones from the traced passes plus the tracing overhead, and the
spans are written to bench/out/.

Host speed on a shared machine drifts by 15-80% over tens of seconds to
minutes, mostly through contention for caches and memory.  So every time
is scaled to a nominal host speed: a fixed reference loop that runs no cf2
code, but multiplies two sparse series of tuple terms the way cf2 does, is
timed after the set-ups and tasks often enough to fill REF_SHARE of the
measured time, and a worker's times are multiplied by
REF_NOMINAL_S / (its mean reference time).  The raw times are printed in
the summary line before the result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKERS = 2  # processes per run, each with its own hash seed
WORKER_TIMEOUT_S = 85
SETUPS = 15  # set-up repetitions per worker; setup_s is their median
REF_TERMS = 170  # terms per reference factor
REF_NOMINAL_S = 0.075  # median reference time on the 2-core VM it was tuned on
REF_SHARE = 0.1  # reference time as a share of the measured time

sys.path.insert(0, str(HERE))
import checker  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402


def _reference_terms(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    terms: set[tuple] = set()
    while len(terms) < REF_TERMS:
        exps = (rng.randrange(1, 40), rng.randrange(40), rng.randrange(40))
        terms.add(tuple((v, e) for v, e in zip("abc", exps) if e))
    return sorted(terms)


# fixed inputs: changing the reference loop or these redefines every time
_REF_X, _REF_Y = _reference_terms(1), _reference_terms(2)


def reference() -> float:
    """Time a product of two fixed sparse series of (letter, exponent)
    terms, accumulated in a set as cf2's series products are."""
    t0 = time.perf_counter()
    acc: set[tuple] = set()
    for t1 in _REF_X:
        for t2 in _REF_Y:
            exps = dict(t1)
            for v, e in t2:
                exps[v] = exps.get(v, 0) + e
            acc.symmetric_difference_update((tuple(sorted(exps.items())),))
    return time.perf_counter() - t0


class HostSpeed:
    """Reference samples taken in proportion to the time measured."""

    def __init__(self):
        self.refs = [reference()]
        self.measured = 0.0

    def after(self, seconds: float) -> None:
        self.measured += seconds
        while sum(self.refs) < REF_SHARE * self.measured:
            self.refs.append(reference())

    def scale(self) -> float:
        """Factor taking this process's times to nominal host speed."""
        return REF_NOMINAL_S / statistics.mean(self.refs)


def import_cf2():
    """Fresh import of cf2 and its CLI from ../src, dropping any cached one."""
    for name in [n for n in sys.modules if n == "cf2" or n.startswith("cf2.")]:
        del sys.modules[name]
    cf2 = importlib.import_module("cf2")
    importlib.import_module("cf2.cli")
    if Path(cf2.__file__).resolve().parent != SRC / "cf2":
        raise ImportError(f"cf2 imported from {cf2.__file__}, not {SRC}")
    return cf2


def set_up(name: str, seed: int, workdir: Path, host: HostSpeed):
    """Import cf2 and build the workload's inputs SETUPS times; keep the last."""
    times = []
    for _ in range(SETUPS):
        gc.collect()
        t0 = time.perf_counter()
        cf2 = import_cf2()
        work = workloads.build(name, cf2, seed, workdir)
        times.append(time.perf_counter() - t0)
        host.after(times[-1])
    return cf2, work, times


def run_pass(tasks, host: HostSpeed, tracer=None):
    """One pass over the tasks; returns the raw time of each task, their
    sum as the pass's wall time, the CPU time and the results."""
    results, task_s, failures = {}, [], []
    cpu = 0.0
    for label, fn in tasks:
        if tracer is not None:
            tracer.task = label
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            results[label] = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
        task_s.append(time.perf_counter() - t0)
        cpu += time.process_time() - c0
        host.after(task_s[-1])
    return {"wall": sum(task_s), "cpu": cpu, "task_s": task_s,
            "results": results, "failures": failures}


def measure(tasks, seconds: float, host: HostSpeed, tracer=None, cf2=None):
    """Whole passes until `seconds` have elapsed.

    With a tracer, passes alternate untraced and traced (always one of
    each, untraced first); the traced ones carry the pass index.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        plain.append(run_pass(tasks, host))
        if tracer is not None:
            gc.collect()
            tracer.pass_index = len(traced)
            with tracer.patched(cf2):
                traced.append(run_pass(tasks, host, tracer))
        if time.perf_counter() - start >= seconds:
            return plain, traced


def worker(args) -> dict:
    """One worker's share of a run: set-up, passes, checks; times scaled."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        host = HostSpeed()
        cf2, work, setup_s = set_up(args.workload, args.seed, workdir, host)
        tracer = Tracer() if args.trace else None
        plain, traced = measure(work.tasks, args.seconds, host, tracer, cf2)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # every pass must agree with the first, and the first pass's
        # results must satisfy the independent checker
        passes = plain + traced
        first = passes[0]["results"]
        errors = [f"{k}: result differs between passes" for p in passes[1:]
                  for k, v in p["results"].items() if k in first and v != first[k]]
        rng = random.Random(args.seed ^ 0x5EED)
        claims = work.claims(first)
        claims.append(workloads.negative_control(cf2, work.letters, rng, workdir))
        polys = checker.letter_polys(work.letters, workloads.DELTA, rng)
        errors += checker.check_all(claims, polys, workloads.DELTA)

    scale = host.scale()
    out = {
        "hash_seed": os.environ.get("PYTHONHASHSEED"), "letters": work.letters,
        "scale": scale, "refs": host.refs, "checks": len(claims),
        "attempted": len(work.tasks) * len(passes),
        "failures": [f for p in passes for f in p["failures"]],
        "errors": errors,
        "raw_wall_s": [p["wall"] for p in plain],
        "cpu_s": [p["cpu"] for p in plain],
        "raw_task_s": {label: statistics.median(p["task_s"][i] for p in plain)
                       for i, (label, _) in enumerate(work.tasks)},
        "wall_s": [scale * p["wall"] for p in plain],
        "slowest_task_s": [scale * max(p["task_s"]) for p in plain],
        "setup_s": [scale * t for t in setup_s],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        out["layers"] = [tracer.layer_metrics(i, scale) for i in range(len(traced))]
        out["overhead_pct"] = 100 * (
            statistics.median(p["wall"] for p in traced)
            / statistics.median(p["wall"] for p in plain) - 1)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}-w{args.worker}.json"
        trace_file.write_text(json.dumps(tracer.dump()))
        out["trace_file"] = str(trace_file.relative_to(ROOT))
    return out


def run_workers(args) -> list[dict] | None:
    """Run WORKERS worker processes one after the other; None on failure."""
    rng = random.Random(args.seed)
    runs = []
    for k in range(WORKERS):
        env = dict(os.environ, PYTHONHASHSEED=str(rng.randrange(1 << 32)))
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / WORKERS),
               "--trace", str(args.trace), "--worker", str(k)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return None
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "cf2" / "__init__.py").is_file():
        print(f"error: no cf2 sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.worker is not None:
        print(json.dumps(worker(args)))
        return 0

    runs = run_workers(args)
    if runs is None:
        return 1
    every = lambda key: [x for r in runs for x in r[key]]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "workers": [{k: v for k, v in r.items() if k != "layers"}
                                  for r in runs]}))
    for line in every("failures") + every("errors"):
        print(line, file=sys.stderr)

    if args.trace:
        layers = every("layers")
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["trace.overhead_pct"] = statistics.median(
            r["overhead_pct"] for r in runs)
        metrics = {k: {"value": values[k], "unit": LAYER_METRICS[k][0]}
                   for k in LAYER_METRICS}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(every("wall_s")), "unit": "s"},
            "slowest_task_s": {"value": statistics.median(
                every("slowest_task_s")), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in runs),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(every("setup_s")),
                        "unit": "s"},
        }
    print(json.dumps({"correct": not every("errors"),
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": len(every("failures")), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
