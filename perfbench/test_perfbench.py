"""Tests of the benchmark itself: self-time arithmetic, wrapper installation,
seeded inputs, and exact repetition of the traced counts.

    python3 -m pytest perfbench/test_perfbench.py

The count test runs every workload twice with tracing, so the file takes
about three minutes.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def span(id, name, parent, start, end, **attrs):
    return Span(id, name, parent, "r", start, end, attrs)


def test_covered_length_merges_overlaps_and_clips():
    assert tracing.covered_length(0, 10, []) == 0
    assert tracing.covered_length(0, 10, [(1, 3), (2, 5), (9, 12)]) == 5
    assert tracing.covered_length(0, 10, [(4, 6), (1, 2)]) == 3
    assert tracing.covered_length(2, 4, [(0, 1), (5, 6)]) == 0


def test_self_time_is_duration_minus_child_coverage():
    spans = [span(0, "a", None, 0.0, 10.0), span(1, "b", 0, 1.0, 4.0),
             span(2, "c", 1, 2.0, 3.0), span(3, "d", 0, 3.5, 6.0)]
    own = tracing.self_times(spans)
    assert own == {0: 10.0 - 5.0, 1: 3.0 - 1.0, 2: 1.0, 3: 2.5}


def test_pass_profile_charges_factorizations_and_partitions_the_pass():
    spans = [
        span(0, "bench.pass", None, 0.0, 10.0),
        span(1, "cli.invert", 0, 1.0, 9.0),
        span(2, "invert.iterate", 1, 2.0, 8.0, steps=2, final_residual=1.5),
        span(3, "elastic.factorize", 2, 2.0, 5.0),
        span(4, "elastic.assemble", 3, 2.0, 3.0),
        span(5, "scipy.splu", 3, 3.0, 4.5, nnz=10),
        span(6, "grids.io", 1, 8.5, 8.75),
        span(7, "flow.multiscale", 0, 9.0, 9.75),
        span(8, "scipy.splu", 7, 9.0, 9.5, nnz=7),
        span(9, "phantom.make", None, 20.0, 21.0),  # outside the pass
    ]
    p = tracing.pass_profile(spans, 0)
    assert p["elastic.factor_s"] == 2.0
    assert p["elastic.assemble_s"] == 1.0
    assert p["elastic.factor_count"] == 1 and p["elastic.lu_nnz"] == 10
    assert p["flow.factor_s"] == 0.5 and p["flow.multiscale_s"] == 0.25
    assert p["flow.factor_count"] == 1 and p["flow.lu_nnz"] == 7
    assert p["invert.iterate_s"] == 6.0 and p["invert.self_s"] == 3.0
    assert p["invert.steps"] == 2 and p["invert.step_s"] == 3.0
    assert p["invert.factor_per_step"] == 0.5
    assert p["invert.final_residual"] == 1.5
    assert p["cli.invert_s"] == 8.0 and p["cli.overhead_s"] == 1.75
    assert p["grids.io_s"] == 0.25
    assert p["trace.run_s"] == 10.0 and p["trace.other_s"] == 1.25
    assert sum(p[k] for k in tracing.SELF_TIME_METRICS) == pytest.approx(10.0, abs=1e-12)


def _points():
    from speckleflow import cli, elastic, flow, invert, phantom, speckle
    import scipy.sparse.linalg as spla
    return tracing.hook_points(dict(cli=cli, elastic=elastic, flow=flow, invert=invert,
                                    phantom=phantom, speckle=speckle, spla=spla))


def test_wrappers_exist_only_inside_installed():
    points = _points()
    before = [vars(owner)[attr] for owner, attr, _, _ in points]
    rec = tracing.Recorder()
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(rec, points):
            assert all(vars(o)[a] is not b for (o, a, _, _), b in zip(points, before))
            1 / 0
    assert all(vars(o)[a] is b for (o, a, _, _), b in zip(points, before))


def test_wrapped_calls_record_nested_spans_with_fill():
    from speckleflow.elastic import BoundaryConditions, LameField, forward_solve
    rec = tracing.Recorder()
    bc = BoundaryConditions(dirichlet=[("bottom", "both", 0.0), ("top", "uy", -1.0)])
    with tracing.installed(rec, _points()), rec.span("bench.pass", "t"):
        forward_solve(LameField.constant(8, 8, 2.0, 1.0), bc)
    names = {s.name: s for s in rec.spans}
    assert set(names) == {"bench.pass", "elastic.factorize", "elastic.assemble",
                          "scipy.splu", "elastic.forward"}
    assert names["scipy.splu"].parent == names["elastic.factorize"].id
    assert names["scipy.splu"].attrs["nnz"] > 0
    assert all(s.run == "t" and s.end >= s.start for s in rec.spans)


def test_plan_and_benchmark_declare_the_same_names():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    plan = json.loads((HERE / "plan.json").read_text())
    assert set(plan["layer_map"]) == {m["name"] for m in bench["per_layer"]}
    assert set(plan["workloads"]) == {w["name"] for w in bench["workloads"]} \
        == set(workloads.WORKLOADS)
    assert plan["holdout_seed"] >= 0


@pytest.fixture
def scratch():
    path = run.OUT / "test-scratch"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_bit_identical_inputs(name, scratch):
    w = workloads.WORKLOADS[name]
    first = w.setup(3, scratch / "a").hashes
    assert w.setup(3, scratch / "b").hashes == first
    other = w.setup(4, scratch / "c").hashes
    assert other.keys() == first.keys() and other != first


def _traced_run(name, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", name, "--seed", str(seed), "--seconds", "0",
                         "--trace", "1"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_between_traced_runs(name):
    first, second = _traced_run(name, 5), _traced_run(name, 5)
    assert [first[k] for k in tracing.COUNT_METRICS] == \
        [second[k] for k in tracing.COUNT_METRICS]
    if name == "pipeline-200":
        assert first["elastic.factor_count"] > 0 and first["invert.steps"] == 2
    if name == "flow-squares-256":
        assert first["flow.factor_count"] == 5 * workloads.BATCH and first["elastic.factor_count"] == 0
    if name == "track-3d":
        assert first["speckle.pairs_tested"] > 0 and first["flow.factor_count"] == 0
    partition = sum(first[k] for k in tracing.SELF_TIME_METRICS)
    assert partition == pytest.approx(first["trace.run_s"], rel=1e-9)


def test_fails_without_the_package_sources(scratch):
    (scratch / "perfbench").mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
    for f in HERE.glob("*.py"):
        shutil.copy(f, scratch / "perfbench")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "track-3d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
