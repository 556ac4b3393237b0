"""Span recording for the traced benchmark run.

Spans are opened and closed by wrappers that the benchmark installs, from
outside the package, on the module and class attributes that speckleflow's
own callers look up (``speckle.detect``, ``ElasticModel.factorize``,
``scipy.sparse.linalg.splu``, ...).  Nothing under ``src/`` is edited: the
wrappers exist only inside :func:`installed` and the original attributes are
put back when it exits.

A span has a name, start and end (``time.perf_counter`` seconds), the id of
the span open when it started (its parent) and a run id shared by all spans
of one timed pass.  Spans stay in memory; :meth:`Recorder.dump` writes them
out once the run has ended.  A span's self time is its duration minus the
part of it that its children cover.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store for one process; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.run_id = ""

    def begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, self.run_id, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._open.pop() is not span:
            raise RuntimeError(f"span '{span.name}' closed out of order")

    @contextmanager
    def span(self, name: str, run_id: str | None = None):
        if run_id is not None:
            self.run_id = run_id
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump([asdict(s) for s in self.spans], f)


# ---------------------------------------------------------------------------
# wrapping the package's call boundaries


def _wrap(recorder: Recorder, fn, name: str, attrs_of):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if attrs_of is not None:
            span.attrs.update(attrs_of(args, result))
        return result
    return traced


def _detect_attrs(args, result):
    return {"bubbles": len(result[0])}


def _match_attrs(args, result):
    return {"pairs": len(args[0]) * len(args[1]), "matched": len(result)}


def _iterate_attrs(args, result):
    trace = result[1]
    return {"steps": sum(1 for s in trace.stepsizes if math.isfinite(s)),
            "final_residual": trace.residuals[-1]}


def _splu_attrs(args, result):
    # SuperLU.nnz counts the stored entries of L and U; building result.L
    # and result.U would copy both factors and slow the traced pass.
    return {"nnz": int(result.nnz)}


def hook_points(modules: dict) -> list:
    """(owner, attribute, span name, attrs function) for every boundary.

    ``modules`` maps the short names cli, elastic, flow, invert, phantom,
    speckle and spla (``scipy.sparse.linalg``) to the imported modules.
    """
    cli, elastic, flow = modules["cli"], modules["elastic"], modules["flow"]
    speckle, phantom = modules["speckle"], modules["phantom"]
    points = [
        (speckle, "detect", "speckle.detect", _detect_attrs),
        (speckle, "match_bubbles", "speckle.match", _match_attrs),
        (speckle, "gaussian_filter", "grids.filter", None),
        (flow, "multiscale_flow", "flow.multiscale", None),
        (flow, "assemble", "flow.assemble", None),
        (flow, "downsample", "grids.pyramid", None),
        (flow, "prolong", "grids.pyramid", None),
        (elastic.ElasticModel, "assemble", "elastic.assemble", None),
        (elastic.ElasticModel, "factorize", "elastic.factorize", None),
        (elastic.ElasticFactors, "solve_forward", "elastic.forward", None),
        (elastic.ElasticFactors, "derivative_apply", "elastic.derivative", None),
        (elastic.ElasticFactors, "derivative_adjoint", "elastic.adjoint", None),
        (modules["invert"], "nesterov_iterate", "invert.iterate", _iterate_attrs),
        (modules["spla"], "splu", "scipy.splu", _splu_attrs),
    ]
    for owner in (phantom, cli):
        for attr in ("make_inclusion_phantom", "make_moving_squares"):
            points.append((owner, attr, "phantom.make", None))
    for sub in ("synth", "track", "flow", "forward", "invert", "eval", "render"):
        points.append((cli, f"_cmd_{sub}", f"cli.{sub}", None))
    for attr in ("read_f64grid", "write_f64grid", "read_samples_csv",
                 "write_samples_csv"):
        points.append((cli, attr, "grids.io", None))
    return points


@contextmanager
def installed(recorder: Recorder, points):
    """Replace each hooked attribute by a span-recording wrapper, and put
    the original object back on exit, also when the body raises."""
    saved = []
    try:
        for owner, attr, name, attrs_of in points:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, original, name, attrs_of))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# self times and per-layer aggregation


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the coverage of its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered_length(s.start, s.end, children[s.id])
            for s in spans}


def layer_of(span: Span, by_id: dict) -> str:
    """Bucket that a span's self time is charged to.

    A sparse factorization is charged to the layer that called it
    (``flow.factor`` or ``elastic.factor``), and so is the rest of
    ``ElasticModel.factorize`` apart from its assembly child.
    """
    if span.name == "scipy.splu":
        parent = by_id.get(span.parent)
        layer = parent.name.split(".")[0] if parent is not None else "bench"
        return f"{layer}.factor"
    if span.name == "elastic.factorize":
        return "elastic.factor"
    return span.name


def descendants(spans, root_id: int) -> list:
    """The root span and every span below it (spans are in start order)."""
    inside = {root_id}
    out = []
    for s in spans:
        if s.id == root_id or s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out


def pass_profile(spans, root_id: int) -> dict:
    """Per-layer self times and counts of the pass rooted at ``root_id``."""
    tree = descendants(spans, root_id)
    by_id = {s.id: s for s in tree}
    own = self_times(tree)
    buckets = defaultdict(float)
    for s in tree:
        buckets[layer_of(s, by_id)] += own[s.id]

    def named(name):
        return [s for s in tree if s.name == name]

    splu = named("scipy.splu")
    flow_lu = [s for s in splu if layer_of(s, by_id) == "flow.factor"]
    elastic_lu = [s for s in splu if layer_of(s, by_id) == "elastic.factor"]
    iterates = named("invert.iterate")
    in_iterate = set()
    for it in iterates:
        in_iterate.update(s.id for s in descendants(tree, it.id))
    steps = sum(s.attrs.get("steps", 0) for s in iterates)
    iterate_s = sum(s.duration for s in iterates)
    pairs = sum(s.attrs.get("pairs", 0) for s in named("speckle.match"))
    matched = sum(s.attrs.get("matched", 0) for s in named("speckle.match"))
    cli = {sub: sum(s.duration for s in named(f"cli.{sub}"))
           for sub in ("track", "flow", "invert", "eval")}
    root = by_id[root_id]

    return {
        "speckle.detect_s": buckets["speckle.detect"],
        "grids.filter_s": buckets["grids.filter"],
        "speckle.match_s": buckets["speckle.match"],
        "speckle.bubbles": sum(s.attrs.get("bubbles", 0) for s in named("speckle.detect")),
        "speckle.pairs_tested": pairs,
        "speckle.matched": matched,
        "speckle.match_yield": matched / pairs if pairs else 0.0,
        "flow.multiscale_s": buckets["flow.multiscale"],
        "flow.assemble_s": buckets["flow.assemble"],
        "flow.factor_s": buckets["flow.factor"],
        "flow.factor_count": len(flow_lu),
        "flow.lu_nnz": sum(s.attrs["nnz"] for s in flow_lu),
        "grids.pyramid_s": buckets["grids.pyramid"],
        "elastic.assemble_s": buckets["elastic.assemble"],
        "elastic.factor_s": buckets["elastic.factor"],
        "elastic.factor_count": len(elastic_lu),
        "elastic.lu_nnz": (statistics.fmean(s.attrs["nnz"] for s in elastic_lu)
                           if elastic_lu else 0.0),
        "elastic.forward_s": buckets["elastic.forward"],
        "elastic.derivative_s": buckets["elastic.derivative"],
        "elastic.adjoint_s": buckets["elastic.adjoint"],
        "invert.iterate_s": iterate_s,
        "invert.self_s": buckets["invert.iterate"],
        "invert.steps": steps,
        "invert.step_s": iterate_s / steps if steps else 0.0,
        "invert.factor_per_step": (sum(1 for s in splu if s.id in in_iterate) / steps
                                   if steps else 0.0),
        "invert.final_residual": iterates[-1].attrs["final_residual"] if iterates else 0.0,
        "cli.track_s": cli["track"],
        "cli.flow_s": cli["flow"],
        "cli.invert_s": cli["invert"],
        "cli.eval_s": cli["eval"],
        "cli.overhead_s": sum(v for k, v in buckets.items() if k.startswith("cli.")),
        "grids.io_s": buckets["grids.io"],
        "trace.run_s": root.duration,
        "trace.other_s": buckets[root.name],
    }


# metrics of pass_profile that are event counts and must repeat exactly
COUNT_METRICS = ("speckle.bubbles", "speckle.pairs_tested", "speckle.matched",
                 "flow.factor_count", "flow.lu_nnz", "elastic.factor_count",
                 "elastic.lu_nnz", "invert.steps")

# metrics of pass_profile whose self times partition the traced pass
SELF_TIME_METRICS = ("speckle.detect_s", "grids.filter_s", "speckle.match_s",
                     "flow.multiscale_s", "flow.assemble_s", "flow.factor_s",
                     "grids.pyramid_s", "elastic.assemble_s", "elastic.factor_s",
                     "elastic.forward_s", "elastic.derivative_s",
                     "elastic.adjoint_s", "invert.self_s", "cli.overhead_s",
                     "grids.io_s", "trace.other_s")
