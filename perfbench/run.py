"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload hankel --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout; nothing is installed.
One client calls the ``edgejump.verify`` drivers of the workload one after
another (a closed loop, nothing concurrent), with ``EDGEJUMP_THREADS=1`` and
one BLAS thread.  A pass is one call of each driver, in order.  The run
starts passes while the next one, timed like the last, still ends within
``--seconds``; the first pass always runs.  Before each pass the program's
in-memory caches are cleared, so every pass starts cold, as a fresh
``edgejump verify`` process does.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median over
passes, first driver call to last driver return), ``setup_s`` (median of
five fresh interpreters importing the program) and ``peak_rss_mb``.
``--trace 1`` runs one untraced reference pass, then traced passes, and
reports the per-layer metrics of :mod:`spans` (median over traced passes)
and prints the layer-share table.

A driver that returns a failed verdict or raises counts as a failed
operation; the run goes on.  The output is correct when no driver failed and
every pass produced the same report rows.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The workloads take no random input: ``--seed`` is recorded
and changes nothing (see :mod:`workloads`).  Each run also appends a record
with its environment manifest to ``perfbench/out/results.jsonl`` and, when
traced, writes its spans to ``perfbench/out/``; ``perfbench/summarize.py``
turns records into medians, quartiles and deltas.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5

# Fixed before numpy loads: one client, nothing concurrent.
PINNED_ENV = {"EDGEJUMP_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, calls  # noqa: E402


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import the drivers."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import edgejump.verify"
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def clear_caches() -> None:
    """Empty the program's memo tables: ``lru_cache`` tables and ``*_CACHE`` dicts."""
    for name, mod in list(sys.modules.items()):
        if not (name == "edgejump" or name.startswith("edgejump.")) or mod is None:
            continue
        for attr, value in vars(mod).items():
            if callable(value) and not isinstance(value, type) and hasattr(value, "cache_clear"):
                value.cache_clear()
            elif attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()


def run_pass(verify, plan, failures: list) -> tuple[float, list]:
    """Call each driver once; return (wall seconds, per-driver outcome)."""
    outcomes = []
    t0 = time.perf_counter()
    for driver, kwargs in plan:
        try:
            rep = getattr(verify, driver)(**kwargs)
        except Exception as exc:  # a raising driver is a failed operation
            traceback.print_exc(file=sys.stderr)
            failures.append({"driver": driver, "error": type(exc).__name__,
                             "detail": str(exc)})
            outcomes.append({"driver": driver, "raised": type(exc).__name__})
            continue
        if not rep.passed:
            failures.append({"driver": driver, "error": "FAIL", "detail": rep.detail})
        outcomes.append({"driver": driver, "passed": rep.passed, "detail": rep.detail,
                         "rows": [r.as_record() for r in rep.rows]})
    return time.perf_counter() - t0, outcomes


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def manifest() -> dict:
    """The environment a result was measured in."""
    import mpmath
    import numpy
    import scipy

    import edgejump
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "edgejump": edgejump.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "edgejump_threads": os.environ["EDGEJUMP_THREADS"],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "edgejump" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    setup_s = None if args.trace else measure_setup()

    sys.path.insert(0, str(SRC))
    from edgejump import verify
    if Path(verify.__file__).resolve().parent.parent != SRC.resolve():
        print(f"edgejump imported from {verify.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        import spans

    plan = calls(args.workload)
    failures: list = []
    walls, traced_walls, outcomes, layer_runs = [], [], [], []
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    start = time.perf_counter()
    while True:
        clear_caches()
        if args.trace and walls:
            tracer = spans.Tracer(f"{run_id}-pass{len(traced_walls) + 1}")
            with tracer:
                wall, out = run_pass(verify, plan, failures)
            traced_walls.append(wall)
            layer_runs.append(tracer.spans)
        else:
            wall, out = run_pass(verify, plan, failures)
            walls.append(wall)
        outcomes.append(json.dumps(out, sort_keys=True, default=repr))
        elapsed = time.perf_counter() - start
        if args.trace and not traced_walls:
            continue
        if elapsed + wall > args.seconds:
            break

    attempted = len(plan) * len(outcomes)
    same_rows = all(o == outcomes[0] for o in outcomes[1:])
    correct = not failures and same_rows
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "passes": len(outcomes),
              "walls": walls, "traced_walls": traced_walls,
              "attempted": attempted, "failed": len(failures),
              "failures": failures, "same_rows": same_rows,
              "manifest": manifest()}

    OUT.mkdir(exist_ok=True)
    if args.trace:
        untraced = statistics.median(walls)
        per_pass = [spans.layer_metrics(s, w, untraced)
                    for s, w in zip(layer_runs, traced_walls)]
        values = {k: statistics.median(p[k] for p in per_pass)
                  for k in spans.metric_names()}
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in values.items()}
        span_file = OUT / f"spans-{run_id}.json"
        span_file.write_text(json.dumps([[asdict(s) for s in run] for run in layer_runs]))
        record["spans"] = span_file.name
        print(f"layer self time as a share of traced wall_s "
              f"({values['trace.wall_s']:.2f} s, {args.workload}):")
        for layer, share in sorted(spans.layer_shares(values).items(),
                                   key=lambda kv: -kv[1]):
            print(f"  {layer:<11} {100 * share:6.2f} %")
        print(f"  trace.overhead_s {values['trace.overhead_s']:+.3f} s")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
    record["metrics"] = metrics
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print("environment: " + ", ".join(f"{k}={v}" for k, v in record["manifest"].items()))
    print(f"{args.workload}: {len(outcomes)} passes, {attempted} driver calls, "
          f"fail_share {len(failures) / attempted:.3f}, identical rows: {same_rows}")
    for f in failures:
        print(f"  FAILED {f['driver']}: {f['error']} {f['detail']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
