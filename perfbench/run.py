"""speckleflow benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload pipeline-200 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Set-up (input generation from the seed) repeats
until it ran SETUP_REPEATS times and for SETUP_SECONDS; then timed passes
repeat until ``--seconds`` have passed and at least MIN_PASSES passes ran.  Each pass's outputs are checked
against the generator's ground truth.

With ``--trace 0`` the result holds the end-to-end metrics: ``run_s``
(median pass wall time), ``setup_s`` (median set-up time) and
``peak_rss_mb`` (peak resident set of this process).  With ``--trace 1``
untraced and traced passes alternate, and the result holds the per-layer
metrics of the median traced pass (see ``tracing.pass_profile``), the
accuracy of the outputs, and ``trace.overhead``.  The workloads, and which
end-to-end metric each layer metric should move, are listed in
``perfbench/plan.json``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` (operations and output checks) and ``metrics``.  The lines
before it are a run record and a readable summary.  Span dumps of traced
runs and scratch files go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the whole load is this one single-threaded process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
MIN_PASSES = 2


def import_package():
    """Import speckleflow from this checkout's sources, nowhere else."""
    if not (SRC / "speckleflow" / "__init__.py").is_file():
        sys.exit(f"error: no speckleflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import speckleflow
    if Path(speckleflow.__file__).resolve().parent != SRC / "speckleflow":
        sys.exit(f"error: speckleflow imported from {speckleflow.__file__}")


def git_sha():
    """HEAD commit read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "speckleflow").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def timed_pass(workload, prep, out: Path, ledger):
    """One pass; returns (seconds, outputs) or None when an operation failed."""
    from workloads import PassFailed
    out.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        result = workload.run(prep, out, ledger)
    except PassFailed:
        return None
    return time.perf_counter() - t0, result


def measure(workload, seed, seconds, trace, work: Path, tag: str):
    import tracing
    from speckleflow import cli, elastic, flow, invert, phantom, speckle
    import scipy.sparse.linalg as spla
    from workloads import ACCURACY, Ledger

    ledger = Ledger()
    rec = tracing.Recorder()
    points = tracing.hook_points(dict(cli=cli, elastic=elastic, flow=flow, invert=invert,
                                      phantom=phantom, speckle=speckle, spla=spla))
    setup_s, hashes = [], []
    if trace:
        with tracing.installed(rec, points), rec.span("bench.setup", f"{tag}/setup"):
            prep = workload.setup(seed, work / "setup0")
        hashes.append(prep.hashes)
    while not trace and (len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS):
        t0 = time.perf_counter()
        prep = workload.setup(seed, work / f"setup{len(setup_s)}")
        setup_s.append(time.perf_counter() - t0)
        hashes.append(prep.hashes)
    if len(hashes) > 1:
        ledger.record("same seed gives bit-identical inputs",
                      all(h == hashes[0] for h in hashes))

    times = {False: [], True: []}
    roots = []
    accuracy = {}
    deadline = time.perf_counter() + seconds
    n = 0
    while n < MIN_PASSES or time.perf_counter() < deadline:
        traced = trace and n % 2 == 1
        out = work / f"pass{n}"
        if traced:
            with tracing.installed(rec, points), rec.span("bench.pass", f"{tag}/pass{n}") as root:
                done = timed_pass(workload, prep, out, ledger)
        else:
            done = timed_pass(workload, prep, out, ledger)
        n += 1
        if done is None:
            continue
        times[traced].append(done[0])
        if traced:
            roots.append(root.id)
        accuracy = workload.check(prep, out, done[1], ledger)
    if not times[False]:
        return None

    metrics = {}
    if trace:
        if not roots:
            return None
        profiles = [tracing.pass_profile(rec.spans, r) for r in roots]
        counts = [[p[k] for k in tracing.COUNT_METRICS] for p in profiles]
        ledger.record("counts repeat across traced passes",
                      all(c == counts[0] for c in counts), f"{counts}")
        by_time = sorted(profiles, key=lambda p: p["trace.run_s"])
        metrics.update(by_time[(len(by_time) - 1) // 2])
        metrics["phantom.make_s"] = sum(s.duration for s in rec.spans if s.name == "phantom.make")
        metrics["trace.overhead"] = (statistics.median(times[True])
                                     / statistics.median(times[False]) - 1.0)
        for name in ACCURACY:
            metrics[name] = accuracy.get(name, 0.0)
        OUT.mkdir(exist_ok=True)
        rec.dump(OUT / f"spans-{tag}.json")
    else:
        metrics["run_s"] = statistics.median(times[False])
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": workload.name, "seed": seed, "trace": trace, "seconds": seconds,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "processes": 1,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "input_sha256": hashes[0], "setup_s": setup_s,
        "pass_s": times[False], "traced_pass_s": times[True],
        "accuracy": accuracy, "problems": ledger.problems,
    }
    return ledger, metrics, record


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import ACCURACY, WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload '{args.workload}'; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    units = declared_units(bool(args.trace))

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        measured = measure(workload, args.seed, args.seconds, bool(args.trace), work, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if measured is None:
        print("error: no timed pass completed", file=sys.stderr)
        return 1
    ledger, metrics, record = measured
    if set(metrics) != set(units):
        sys.exit(f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")

    print("record " + json.dumps(record, sort_keys=True))
    passes = record["pass_s"]
    q1, q3 = quartiles(passes)
    print(f"run_s {statistics.median(passes):.6g} s (quartiles {q1:.6g} .. {q3:.6g} s, "
          f"{len(passes)} untraced passes)")
    print(f"failed_frac {ledger.failed / ledger.attempted:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations and checks)")
    for name in ACCURACY:
        value = record["accuracy"].get(name)
        print(f"{name} {value:.6g} ratio" if value is not None else f"{name} n/a")
    for name, value in metrics.items():
        if name != "run_s" and name not in ACCURACY:
            print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
