"""The benchmark's workloads: input generation, the timed pass, output checks.

Each workload makes its inputs from a seed (same seed, bit-identical
inputs), runs one timed pass through speckleflow, and checks the pass's
outputs against the ground truth its generator knows.  Operations and
checks are counted in a :class:`Ledger`; a failure is counted, never raised
past the pass.

- ``pipeline-200``: the README's CLI pipeline on the 200x200 inclusion
  phantom, in-process through ``speckleflow.cli.main``: set-up is ``synth``,
  the pass is ``track -> flow -> invert -> eval``.  Mostly elastic
  factorization inside ``invert``.
- ``flow-squares-256``: ``multiscale_flow`` alone on BATCH 256x256
  moving-squares phantoms per pass, with their exact bubble samples.
  Mostly flow assembly and factorization; no ``speckle``, ``elastic`` or
  ``invert``.
- ``track-3d``: ``run_tracking`` on BATCH 176x176x96 volume pairs per pass,
  850 bubbles each in a cylindrical sample, rendered here with an analytic
  displacement (axial compression along +z plus an outward radial bulge).
  Mostly pairwise matching; no sparse solve.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from speckleflow import cli, flow, phantom, speckle
from speckleflow.grids import Volume, write_f64grid
from speckleflow.invert import boundary_band_mask


# inputs per pass of the library workloads: a pass of one input is too short
# to average out the machine's speed changes
BATCH = 2

# accuracy of the outputs against ground truth, where a workload has them
ACCURACY = ("flow_err", "mu_err", "young_err", "track_recall", "track_precision")


class PassFailed(Exception):
    """An operation of the timed pass failed; the pass is not timed."""


class Ledger:
    """Operations and output checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{what}: {detail}" if detail else what)
        return ok


def call(ledger: Ledger, what: str, fn, *args):
    """Run one library operation of a pass, counting its outcome."""
    try:
        result = fn(*args)
    except Exception as exc:  # any failure of the program counts, typed or not
        traceback.print_exc(file=sys.stderr)
        ledger.record(what, False, f"{type(exc).__name__}: {exc}")
        raise PassFailed(what) from exc
    ledger.record(what, True)
    return result


def run_cli(ledger: Ledger, *argv) -> str:
    """Run one CLI subcommand in-process; returns what it printed."""
    argv = [str(a) for a in argv]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = call(ledger, f"cli {argv[0]} raised", cli.main, argv)
    if not ledger.record(f"cli {argv[0]} exit code", code == 0, f"exit {code}"):
        raise PassFailed(argv[0])
    return printed.getvalue()


@dataclass
class Prepared:
    """Generated inputs of one set-up and the SHA-256 of each."""

    data: dict
    hashes: dict


def member_seed(seed: int, j: int) -> int:
    """Independent 64-bit generator seed for input j of a batch."""
    return int(np.random.SeedSequence([seed, j]).generate_state(1, np.uint64)[0])


def sha256_of(value) -> str:
    """SHA-256 of a file's bytes, or of an array's shape and float64 bytes."""
    if isinstance(value, Path):
        return hashlib.sha256(value.read_bytes()).hexdigest()
    a = np.ascontiguousarray(value, dtype=np.float64)
    return hashlib.sha256(repr(a.shape).encode("ascii") + a.tobytes()).hexdigest()


def samples_array(samples) -> np.ndarray:
    """DisplacementSample list -> (n, 2 * dim) array of position, displacement."""
    if not samples:
        return np.zeros((0, 6))
    return np.array([np.concatenate([s.position, s.displacement]) for s in samples])


# ---------------------------------------------------------------------------
# independent readers and error measures used by the checks


def read_grid(path) -> np.ndarray:
    """F64GRID file -> array shaped (ny, nx[, ncomp]) or (nz, ny, nx)."""
    raw = Path(path).read_bytes()
    header, _, payload = raw.partition(b"\n")
    fields = header.decode("ascii").split(" ")
    if len(fields) != 5 or fields[0] != "F64GRID":
        raise ValueError(f"{path}: bad F64GRID header")
    ncomp, nx, ny, nz = (int(f) for f in fields[1:])
    data = np.frombuffer(payload, dtype="<f8")
    if data.size != ncomp * nx * ny * nz:
        raise ValueError(f"{path}: payload holds {data.size} values")
    shape = (nz, ny, nx) if nz > 1 else (ny, nx)
    return data.reshape(shape + ((ncomp,) if ncomp > 1 else ()))


def read_csv(path, header: str) -> np.ndarray:
    """Numeric CSV with the given header line -> (rows, columns) array."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: expected header '{header}'")
    width = header.count(",") + 1
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: a row does not hold {width} fields")
    return np.array(rows).reshape(-1, width)


def rel_errors(est: np.ndarray, truth: np.ndarray):
    """Relative L2 errors (total, x, y) of a 2-component field."""
    diff = est - truth
    return (float(np.linalg.norm(diff) / np.linalg.norm(truth)),
            float(np.linalg.norm(diff[..., 0]) / np.linalg.norm(truth[..., 0])),
            float(np.linalg.norm(diff[..., 1]) / np.linalg.norm(truth[..., 1])))


def tracking_scores(samples: np.ndarray, truth_at, placed: int):
    """(recall, precision): a sample is correct when its displacement is
    within 0.5 px of the true displacement at its start."""
    if len(samples) == 0:
        return 0.0, 0.0
    dim = samples.shape[1] // 2
    err = np.linalg.norm(samples[:, dim:] - truth_at(samples[:, :dim]), axis=1)
    correct = int(np.count_nonzero(err <= 0.5))
    return correct / placed, correct / len(samples)


def checked(ledger: Ledger, what: str, fn):
    """Run a check that reads outputs; an unreadable output fails it."""
    try:
        ok, detail = fn()
    except (OSError, ValueError, IndexError) as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    ledger.record(what, ok, detail)
    return ok


def finite_shape(arr: np.ndarray, shape) -> tuple:
    return (arr.shape == shape and bool(np.all(np.isfinite(arr))),
            f"shape {arr.shape}, expected {shape}, or non-finite values")


def kv(**items) -> str:
    return "".join(f"{k} = {v}\n" for k, v in items.items())


# ---------------------------------------------------------------------------
# pipeline-200


class Pipeline200:
    name = "pipeline-200"
    n = 200
    radius = 30.0

    def setup(self, seed: int, work: Path) -> Prepared:
        work.mkdir(parents=True)
        spec = work / "phantom.cfg"
        spec.write_text(kv(kind="inclusion", nx=self.n, ny=self.n, bubble_count=200,
                           compression_px=6, inclusion_radius=self.radius, seed=seed))
        ph = work / "ph"
        if cli.main(["synth", "--spec", str(spec), "--out", str(ph)]) != 0:
            raise RuntimeError("synth failed")
        mask = work / "mask.f64grid"
        write_f64grid(mask, boundary_band_mask(self.n, self.n, 10))
        (work / "track.cfg").write_text(kv(d_max=8, top_fraction=0.08))
        (work / "flow.cfg").write_text(kv(alpha=4, beta=4, sigma_g=5, levels=5))
        (work / "inv.cfg").write_text(kv(lambda0=490, mu0=10, acceleration="true",
                                         stepsize="steepest", stopping="manual(2)",
                                         mask_file=mask))
        files = [p for p in ph.rglob("*") if p.is_file()] + [mask]
        return Prepared({"work": work, "ph": ph},
                        {str(p.relative_to(work)): sha256_of(p) for p in sorted(files)})

    def run(self, prep: Prepared, out: Path, ledger: Ledger) -> str:
        w, ph = prep.data["work"], prep.data["ph"]
        run_cli(ledger, "track", "--a", ph / "i1.f64grid", "--b", ph / "i2.f64grid",
                "--config", w / "track.cfg", "--out", out / "tracked.csv")
        run_cli(ledger, "flow", "--i1", ph / "i1.f64grid", "--i2", ph / "i2.f64grid",
                "--samples", out / "tracked.csv", "--config", w / "flow.cfg",
                "--out", out / "u_est.f64grid")
        run_cli(ledger, "invert", "--data", out / "u_est.f64grid", "--bc", ph / "bc.cfg",
                "--config", w / "inv.cfg", "--out", out / "lame",
                "--trace", out / "inv_trace.csv")
        return run_cli(ledger, "eval", "--est", out / "u_est.f64grid",
                       "--truth", ph / "u_true.f64grid")

    def check(self, prep: Prepared, out: Path, printed: str, ledger: Ledger) -> dict:
        ph, n = prep.data["ph"], self.n
        truth = read_grid(ph / "u_true.f64grid")
        mu_t = read_grid(ph / "lame" / "mu.f64grid")
        lam_t = read_grid(ph / "lame" / "lambda.f64grid")
        acc = {}

        def truth_at(pos):
            return np.stack([ndimage.map_coordinates(truth[..., c], [pos[:, 1], pos[:, 0]],
                                                     order=1, mode="nearest")
                             for c in range(2)], axis=1)

        def samples_ok():
            s = read_csv(out / "tracked.csv", "x,y,z,ux,uy,uz")
            ok = len(s) > 0 and bool(np.all(np.isfinite(s))) and not np.any(s[:, [2, 5]])
            acc["track_recall"], acc["track_precision"] = tracking_scores(
                s[:, [0, 1, 3, 4]], truth_at, 200)
            return ok, f"{len(s)} finite 2-D samples expected"

        def flow_ok():
            u = read_grid(out / "u_est.f64grid")
            ok, detail = finite_shape(u, (n, n, 2))
            if ok:
                acc["flow_err"], acc["flow_err_x"], acc["flow_err_y"] = rel_errors(u, truth)
            return ok, detail

        def lame_ok():
            lam, mu, young = (read_grid(out / "lame" / f"{k}.f64grid")
                              for k in ("lambda", "mu", "young"))
            for a in (lam, mu, young):
                ok, detail = finite_shape(a, (n, n))
                if not ok:
                    return ok, detail
            if np.any(lam < 0) or np.any(mu < 1e-6):
                return False, "Lame field outside lambda >= 0, mu >= 1e-6"
            if not np.allclose(young, mu * (3 * lam + 2 * mu) / (lam + mu), rtol=1e-12, atol=0):
                return False, "young.f64grid differs from mu(3 lambda + 2 mu)/(lambda + mu)"
            xs, ys = np.meshgrid(np.arange(float(n)), np.arange(float(n)))
            c = (n - 1) / 2.0
            inner = (xs - c) ** 2 + (ys - c) ** 2 <= (0.8 * self.radius) ** 2
            young_t = mu_t * (3 * lam_t + 2 * mu_t) / (lam_t + mu_t)
            acc["mu_err"] = float(abs(mu[inner].mean() - mu_t[inner].mean()) / mu_t[inner].mean())
            acc["young_err"] = float(abs(young[inner].mean() - young_t[inner].mean())
                                     / young_t[inner].mean())
            return True, ""

        def trace_ok():
            rows = read_csv(out / "inv_trace.csv", "k,residual,stepsize,heuristic")
            res = rows[:, 1]
            ok = (rows[:, 0].tolist() == [0, 1, 2] and bool(np.all(np.isfinite(res)))
                  and res[-1] < res[0])
            return ok, f"trace {rows[:, :2].tolist()}: 3 rows, residual must fall"

        def eval_ok():
            printed_errs = [float(v) for v in printed.strip().split(",")]
            ours = [acc["flow_err"], acc["flow_err_x"], acc["flow_err_y"]]
            return (len(printed_errs) == 3 and np.allclose(printed_errs, ours, rtol=1e-12, atol=0),
                    f"eval printed {printed.strip()}, benchmark computes {ours}")

        checked(ledger, "tracked samples", samples_ok)
        flow_read = checked(ledger, "flow field", flow_ok)
        lame_read = checked(ledger, "Lame output", lame_ok)
        checked(ledger, "inversion trace", trace_ok)
        if flow_read:
            checked(ledger, "eval output", eval_ok)
        # tolerances: acceptance criterion 6 for the flow; for the inversion,
        # two steps must move mu closer than the initial guess (error 0.5)
        if flow_read:
            ledger.record("flow_err <= 0.15", acc["flow_err"] <= 0.15, f"{acc['flow_err']}")
        if lame_read:
            ledger.record("mu_err < 0.5", acc["mu_err"] < 0.5, f"{acc['mu_err']}")
        if "track_precision" in acc:
            ledger.record("track_precision >= 0.9", acc["track_precision"] >= 0.9,
                          f"{acc['track_precision']}")
        return acc


# ---------------------------------------------------------------------------
# flow-squares-256


class FlowSquares256:
    name = "flow-squares-256"
    params = dict(alpha=0.8, beta=4.0, sigma_g=5.0, levels=5)

    def setup(self, seed: int, work: Path) -> Prepared:
        cases, hashes = [], {}
        for j in range(BATCH):
            spec = phantom.PhantomSpec(kind="moving_squares", nx=256, ny=256,
                                       bubble_count=200, square_size=64, square_shift=12.0,
                                       seed=member_seed(seed, j))
            i1, i2, truth, samples = phantom.make_moving_squares(spec)
            cases.append((i1, i2, truth.data, samples))
            for key, a in (("i1", i1.data), ("i2", i2.data), ("truth", truth.data),
                           ("samples", samples_array(samples))):
                hashes[f"case{j}/{key}"] = sha256_of(a)
        return Prepared({"cases": cases}, hashes)

    def run(self, prep: Prepared, out: Path, ledger: Ledger) -> list:
        params = flow.FlowParams(**self.params)
        return [call(ledger, "multiscale_flow", flow.multiscale_flow, i1, i2, samples, params)
                for i1, i2, _, samples in prep.data["cases"]]

    def check(self, prep: Prepared, out: Path, fields: list, ledger: Ledger) -> dict:
        errs = []
        for (_, _, truth, _), u in zip(prep.data["cases"], fields):
            ok, detail = finite_shape(u.data, truth.shape)
            if not ledger.record("flow field", ok, detail):
                continue
            errs.append(float(np.linalg.norm(u.data - truth) / np.linalg.norm(truth)))
            # about 30 % above the error this configuration reaches today
            ledger.record("flow_err <= 0.6", errs[-1] <= 0.6, f"{errs[-1]}")
        return {"flow_err": float(np.mean(errs))} if errs else {}


# ---------------------------------------------------------------------------
# track-3d


@dataclass(frozen=True)
class CylinderPair:
    """Bubbles in a cylindrical sample under axial compression.

    The displacement is u = (b (x - cx), b (y - cy), u0 + e (nz - 1 - z)):
    every bubble moves along +z (the 3-D compression axis) and radially
    outward, so all five matching criteria, the tangential angle among them,
    hold for the true pairs.
    """

    nx: int = 176
    ny: int = 176
    nz: int = 96
    count: int = 850
    radius: float = 80.0
    sigma: tuple = (1.2, 2.0)
    u0: float = 1.0
    axial_strain: float = 0.03
    bulge: float = 0.02

    def displacement(self, pos: np.ndarray) -> np.ndarray:
        cx, cy = (self.nx - 1) / 2.0, (self.ny - 1) / 2.0
        return np.stack([self.bulge * (pos[:, 0] - cx),
                         self.bulge * (pos[:, 1] - cy),
                         self.u0 + self.axial_strain * (self.nz - 1 - pos[:, 2])], axis=1)

    def place(self, rng: np.random.Generator):
        """Rejection-sample separated centers (x, y, z) and blob widths."""
        cx, cy = (self.nx - 1) / 2.0, (self.ny - 1) / 2.0
        margin = 6.0
        top = self.u0 + self.axial_strain * (self.nz - 1)
        centers = np.empty((self.count, 3))
        sigmas = np.empty(self.count)
        placed = 0
        for _ in range(1000 * self.count):
            if placed == self.count:
                break
            r = (self.radius - margin) * math.sqrt(rng.uniform())
            theta = rng.uniform(0.0, 2.0 * math.pi)
            c = np.array([cx + r * math.cos(theta), cy + r * math.sin(theta),
                          rng.uniform(margin, self.nz - 1 - margin - top)])
            s = rng.uniform(*self.sigma)
            if placed and np.any(np.linalg.norm(centers[:placed] - c, axis=1)
                                 < 1.9 * (sigmas[:placed] + s)):
                continue
            centers[placed] = c
            sigmas[placed] = s
            placed += 1
        if placed < self.count:
            raise RuntimeError("could not place the bubbles")
        return centers, sigmas

    def render(self, centers: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
        """Sum of unit-peak Gaussian blobs, each evaluated on its own box."""
        vol = np.zeros((self.nz, self.ny, self.nx))
        for c, s in zip(centers, sigmas):
            r = int(math.ceil(4.0 * s))
            box = []
            for axis, n in ((0, self.nx), (1, self.ny), (2, self.nz)):
                lo, hi = max(0, int(c[axis]) - r), min(n, int(c[axis]) + r + 2)
                box.append((lo, hi, np.exp(-(np.arange(lo, hi) - c[axis]) ** 2 / (2 * s * s))))
            (x0, x1, gx), (y0, y1, gy), (z0, z1, gz) = box
            vol[z0:z1, y0:y1, x0:x1] += gz[:, None, None] * gy[None, :, None] * gx
        return vol


class Track3D:
    name = "track-3d"
    geometry = CylinderPair()
    criteria = dict(d_max=8.0)
    top_fraction = 0.02
    presmooth = 0.9

    def setup(self, seed: int, work: Path) -> Prepared:
        g = self.geometry
        pairs, hashes = [], {}
        for j in range(BATCH):
            centers, sigmas = g.place(np.random.Generator(np.random.PCG64(member_seed(seed, j))))
            v1 = g.render(centers, sigmas)
            v2 = g.render(centers + g.displacement(centers), sigmas)
            pairs.append((Volume(g.nx, g.ny, g.nz, v1), Volume(g.nx, g.ny, g.nz, v2)))
            for key, a in (("centers", centers), ("sigmas", sigmas), ("v1", v1), ("v2", v2)):
                hashes[f"pair{j}/{key}"] = sha256_of(a)
        return Prepared({"pairs": pairs}, hashes)

    def run(self, prep: Prepared, out: Path, ledger: Ledger) -> list:
        crit = speckle.MatchCriteria(**self.criteria)
        return [call(ledger, "run_tracking", speckle.run_tracking, v1, v2, crit,
                     self.top_fraction, self.presmooth)
                for v1, v2 in prep.data["pairs"]]

    def check(self, prep: Prepared, out: Path, results: list, ledger: Ledger) -> dict:
        g = self.geometry
        scores = []
        for samples in results:
            ok = bool(samples) and all(s.position.shape == (3,) and s.displacement.shape == (3,)
                                       for s in samples)
            if not ledger.record("3-D samples", ok, f"{len(samples)} samples"):
                continue
            s = samples_array(samples)
            inside = (np.all(np.isfinite(s)) and np.all(s[:, :3] >= 0)
                      and np.all(s[:, :3] <= [g.nx - 1, g.ny - 1, g.nz - 1]))
            ledger.record("sample positions inside the volume", bool(inside))
            recall, precision = tracking_scores(s, g.displacement, g.count)
            truth = g.displacement(s[:, :3])
            scores.append((recall, precision,
                           float(np.linalg.norm(s[:, 3:] - truth) / np.linalg.norm(truth))))
            ledger.record("track_precision >= 0.95", precision >= 0.95, f"{precision}")
            ledger.record("track_recall >= 0.7", recall >= 0.7, f"{recall}")
        if not scores:
            return {}
        recall, precision, err = np.mean(scores, axis=0)
        return {"track_recall": float(recall), "track_precision": float(precision),
                "flow_err": float(err)}


WORKLOADS = {w.name: w for w in (Pipeline200(), FlowSquares256(), Track3D())}
