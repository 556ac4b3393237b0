"""Iterative regularization for the elastography inverse problem.

Given a measured displacement field, the Lame parameters are recovered by
Landweber-type iteration: each step evaluates the forward elasticity
operator, pulls the data residual back through the adjoint of its
derivative, and takes a gradient step, optionally with Nesterov
extrapolation.  Freezing the parameters near the boundary (where they are
assumed known) is supported through a binary mask whose entries never
change across the iteration.

Every length is in pixels, so discrete L2 inner products are plain pixel
sums; the adjoint solves in :mod:`speckleflow.elastic` are exact
transposes under these pairings, so the stepsizes below have their
textbook meaning.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .config import finite_float, naming_path, read_config, write_lines
from .elastic import BoundaryConditions, ElasticModel, LameField, MU_FLOOR
from .errors import DomainError, FormatError, ShapeMismatch
from .grids import ScalarGrid, VectorGrid, read_f64grid
from .linsolve import check_overflow

__all__ = [
    "InversionConfig",
    "IterationTrace",
    "landweber_step",
    "nesterov_iterate",
    "stop_heuristic",
    "field_error",
    "field_inner",
    "field_norm",
    "boundary_band_mask",
    "write_trace_csv",
]

_STEPSIZES = ("steepest", "printed", "constant")
_STOPPING = ("discrepancy", "heuristic", "manual")


def field_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Discrete L2 pairing: plain pixel sum."""
    return float(np.sum(a * b))


def field_norm(a: np.ndarray) -> float:
    return math.sqrt(field_inner(a, a))


def field_error(u_est: VectorGrid, u_true: VectorGrid):
    """Relative L2 errors (total, x component, y component).

    A component whose true field vanishes gets error inf (0 if the estimate
    vanishes too); a vanishing total truth is a usage error.
    """
    if (u_est.nx, u_est.ny) != (u_true.nx, u_true.ny):
        raise ShapeMismatch("field extents differ")
    diff = u_est.data - u_true.data
    denom = np.linalg.norm(u_true.data)
    if denom == 0:
        raise DomainError("true field has zero norm")
    total = float(np.linalg.norm(diff) / denom)
    comps = []
    for c in range(2):
        dc = np.linalg.norm(diff[:, :, c])
        tc = np.linalg.norm(u_true.data[:, :, c])
        if tc == 0:
            comps.append(0.0 if dc == 0 else math.inf)
        else:
            comps.append(float(dc / tc))
    return total, comps[0], comps[1]


def boundary_band_mask(nx: int, ny: int, width: int) -> ScalarGrid:
    """Binary mask that freezes a band of pixels along all four sides."""
    if width < 0:
        raise DomainError("band width must be nonnegative")
    m = np.zeros((ny, nx))
    if width > 0:
        m[:width, :] = 1.0
        m[-width:, :] = 1.0
        m[:, :width] = 1.0
        m[:, -width:] = 1.0
    return ScalarGrid(nx, ny, m)


@dataclass
class InversionConfig:
    """Settings for the Landweber/Nesterov loop."""

    lambda0: float = 490.0
    mu0: float = 10.0
    tau: float = 1.5
    delta: float = 0.0
    max_iter: int = 100
    acceleration: bool = True
    stepsize: str = "steepest"
    omega: float = field(default=1.0, metadata={"config": False})
    boundary_mask: ScalarGrid | None = None
    stopping: str = "manual"

    def __post_init__(self):
        for name in ("lambda0", "mu0", "tau", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.lambda0 < 0:
            raise DomainError("lambda0 must be nonnegative")
        if self.mu0 < MU_FLOOR:
            raise DomainError(f"mu0 must be at least {MU_FLOOR}")
        if self.stepsize not in _STEPSIZES:
            raise DomainError(f"stepsize must be one of {_STEPSIZES}")
        if self.stepsize == "constant" and not 0 < self.omega < math.inf:
            raise DomainError("constant stepsize omega must be finite and positive")
        if self.stopping not in _STOPPING:
            raise DomainError(f"stopping must be one of {_STOPPING}")
        if self.stopping == "discrepancy" and self.tau <= 1:
            raise DomainError("tau must exceed 1 for the discrepancy principle")
        if self.delta < 0:
            raise DomainError("delta must be nonnegative")
        if self.max_iter < 0:
            raise DomainError("max_iter must be nonnegative")
        if self.boundary_mask is not None:
            vals = np.unique(self.boundary_mask.data)
            if not np.all(np.isin(vals, (0.0, 1.0))):
                raise DomainError("boundary mask must be binary")

    def check_extents(self, nx: int, ny: int) -> None:
        """`ShapeMismatch` unless the boundary mask, if any, is nx x ny."""
        m = self.boundary_mask
        if m is not None and (m.nx, m.ny) != (nx, ny):
            raise ShapeMismatch(f"boundary mask extents {m.nx}x{m.ny} differ from "
                                f"the data grid {nx}x{ny}")

    def initial_for(self, nx: int, ny: int) -> LameField:
        return LameField.constant(nx, ny, self.lambda0, self.mu0)

    @classmethod
    def from_config(cls, path) -> "InversionConfig":
        """Settings from an inversion config.  `stepsize = constant(omega)`
        also sets `omega`, `stopping = manual(k)` sets `max_iter = k` unless
        the file gives a smaller one, and `mask_file` names the F64GRID
        scalar grid read as `boundary_mask`."""
        cfg = read_config(path, "inversion", cls, {"mask_file": str})
        mask_file = cfg.pop("mask_file", None)
        m = re.fullmatch(r"constant\(([^)]+)\)", cfg.get("stepsize", ""))
        if m:
            try:
                cfg["stepsize"], cfg["omega"] = "constant", finite_float(m.group(1))
            except ValueError:
                raise FormatError(f"{path}: 'stepsize' must be constant(<float>), "
                                  f"got '{m.group(0)}'") from None
        m = re.fullmatch(r"manual\((\d+)\)", cfg.get("stopping", ""))
        if m:
            k = int(m.group(1))
            cfg["stopping"], cfg["max_iter"] = "manual", min(k, cfg.get("max_iter", k))
        try:
            mask = None if mask_file is None else read_f64grid(mask_file, ScalarGrid)
        except FormatError as exc:
            raise FormatError(f"{path}: mask_file: {exc}") from None
        with naming_path(path):
            return cls(boundary_mask=mask, **cfg)


@dataclass
class IterationTrace:
    """Append-only per-iterate records.

    Row j belongs to iterate j: its data residual, the stepsize of the step
    taken from it (nan on the final row), and the heuristic-rule value
    sqrt(k) * residual (inf for k = 0, where the rule is undefined).
    """

    ks: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    stepsizes: list = field(default_factory=list)
    heuristics: list = field(default_factory=list)
    stopped_by: str = ""
    k_star: int | None = None

    def append(self, k, residual, stepsize):
        if not math.isfinite(residual):
            raise DomainError("residual norm must be finite")
        self.ks.append(int(k))
        self.residuals.append(float(residual))
        self.stepsizes.append(float(stepsize))
        self.heuristics.append(math.sqrt(k) * residual if k >= 1 else math.inf)

    def __len__(self):
        return len(self.ks)


def stop_heuristic(trace: IterationTrace) -> int:
    """Argmin of sqrt(k) * residual over k >= 1 (ties: smallest k)."""
    if len(trace) == 0:
        raise DomainError("trace is empty")
    best_k, best_v = None, math.inf
    for k, v in zip(trace.ks, trace.heuristics):
        if k >= 1 and v < best_v:
            best_k, best_v = k, v
    if best_k is None:
        return trace.ks[0]
    return best_k


# ---------------------------------------------------------------------------
# iteration


def nesterov_alpha(k: int) -> float:
    """Extrapolation weight (k - 1) / (k + 2) of the k-th accelerated step."""
    if k < 1:
        raise DomainError("iteration index must be at least 1")
    return (k - 1) / (k + 2)


def _masked(arr: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    return arr if mask is None else arr * (1.0 - mask)


def _project(lam: np.ndarray, mu: np.ndarray):
    return np.maximum(lam, 0.0), np.maximum(mu, MU_FLOOR)


def _stepsize(cfg: InversionConfig, factors, u, r_data, s_lam, s_mu):
    """Stepsize for the masked gradient direction (s_lam, s_mu)."""
    s_sq = field_inner(s_lam, s_lam) + field_inner(s_mu, s_mu)
    if s_sq == 0:
        return 0.0
    if cfg.stepsize == "constant":
        return cfg.omega
    if cfg.stepsize == "printed":
        # literal reading of the published rule: residual norm over the
        # norm of the pulled-back residual (the minimal-error stepsize)
        r_sq = field_inner(r_data, r_data)
        return r_sq / s_sq
    fs = factors.derivative_apply(s_lam, s_mu, u)
    fs_sq = field_inner(fs.data, fs.data)
    if fs_sq == 0:
        return 0.0
    return s_sq / fs_sq


def _lame(model: ElasticModel, point) -> LameField:
    lam, mu = point
    return LameField(ScalarGrid(model.nx, model.ny, lam),
                     ScalarGrid(model.nx, model.ny, mu))


def _evaluate(model: ElasticModel, point, udelta_data):
    """Factorize at point = (lam, mu) and solve forward.  Returns
    (factors, u, r) with r = u - udelta the data residual."""
    factors = model.factorize(_lame(model, point))
    u = factors.solve_forward()
    return factors, u, u.data - udelta_data


@np.errstate(over="ignore", invalid="ignore")  # named below
def _step(model: ElasticModel, cfg: InversionConfig, point, factors, u, r):
    """Masked gradient, stepsize and projected update from a point evaluated
    by :func:`_evaluate`.  Returns (new point, stepsize); `DomainError` if
    the stepsize or the update overflowed."""
    lam, mu = point
    g_lam, g_mu = factors.derivative_adjoint(
        u, VectorGrid(model.nx, model.ny, r))
    mask = None if cfg.boundary_mask is None else cfg.boundary_mask.data
    s_lam = _masked(g_lam.data, mask)
    s_mu = _masked(g_mu.data, mask)
    omega = _stepsize(cfg, factors, u, r, s_lam, s_mu)
    check_overflow("inversion stepsize", omega)
    if omega == 0.0:
        return point, 0.0
    new = _project(lam - omega * s_lam, mu - omega * s_mu)
    check_overflow(f"inversion update at stepsize {omega:.6g}", *new)
    return new, omega


def landweber_step(p: LameField, udelta: VectorGrid, bc: BoundaryConditions,
                   cfg: InversionConfig):
    """One plain Landweber step from p.

    Returns (updated LameField, stepsize, residual norm at p).  Masked
    pixels receive a zero update; the result is projected back onto the
    admissible set (lambda >= 0, mu >= MU_FLOOR).
    """
    model = ElasticModel(p.lam.nx, p.lam.ny, bc)
    point = (p.lam.data, p.mu.data)
    factors, u, r = _evaluate(model, point, udelta.data)
    new, omega = _step(model, cfg, point, factors, u, r)
    return _lame(model, new), omega, field_norm(r)


def _kept_k(stopping: str, trace: IterationTrace) -> int:
    """Iterate a run returns when no discrepancy stop comes first: the last
    one for manual stopping, the heuristic argmin for heuristic stopping,
    else the smallest residual (earliest on ties)."""
    if stopping == "manual":
        return trace.ks[-1]
    if stopping == "heuristic":
        return stop_heuristic(trace)
    return int(np.argmin(trace.residuals))


def nesterov_iterate(cfg: InversionConfig, udelta: VectorGrid,
                     bc: BoundaryConditions):
    """Full iteration with the configured stopping rule.

    With acceleration the update is taken from the extrapolated point
    p_k + (k-1)/(k+2) (p_k - p_{k-1}) and the stepsize is computed there;
    the trace still records residuals at the primary iterates.  Past the
    first step, an iterate's residual comes from conjugate gradients on its
    stiffness, preconditioned with the factorization of the extrapolated
    point (of the last one, for the final iterate), so each step costs one
    factorization.  With acceleration off this is exactly the plain
    Landweber loop, with a factorization at every iterate.  Every rule
    takes at most max_iter steps (0 evaluates only the start point); a run
    the discrepancy principle did not stop returns the last iterate
    (manual), the heuristic argmin (heuristic) or the smallest-residual
    iterate with the trace flagged 'max_iter' (discrepancy).
    """
    nx, ny = udelta.nx, udelta.ny
    cfg.check_extents(nx, ny)
    model = ElasticModel(nx, ny, bc)
    initial = cfg.initial_for(nx, ny)

    trace = IterationTrace()
    prev = cur = kept = (initial.lam.data.copy(), initial.mu.data.copy())

    for k in range(cfg.max_iter + 1):
        # past the first step an accelerated run factorizes only the
        # extrapolated point, and the iterate's residual comes from CG
        # preconditioned with that factor (the final iterate uses the last one)
        near = cfg.acceleration and k >= 1
        bar = cur
        if near and k < cfg.max_iter:
            alpha = nesterov_alpha(k + 1)
            with np.errstate(over="ignore"):
                bar = _project(cur[0] + alpha * (cur[0] - prev[0]),
                               cur[1] + alpha * (cur[1] - prev[1]))
            check_overflow("inversion extrapolation", *bar)
        if not near or k < cfg.max_iter:
            factors = None  # dropped first: at most one factor is alive
            factors, u, r = _evaluate(model, bar, udelta.data)
        new, omega = cur, math.nan
        if k < cfg.max_iter:
            new, omega = _step(model, cfg, bar, factors, u, r)
        if near:
            u = factors.solve_forward(_lame(model, cur))
            r = u.data - udelta.data
        rnorm = field_norm(r)

        trace.append(k, rnorm, omega)
        if _kept_k(cfg.stopping, trace) == k:
            kept = cur
        if cfg.stopping == "discrepancy" and rnorm <= cfg.tau * cfg.delta:
            trace.stopped_by, trace.k_star, kept = "discrepancy", k, cur
            break
        prev, cur = cur, new
    else:
        trace.stopped_by = "max_iter" if cfg.stopping == "discrepancy" else cfg.stopping
        trace.k_star = _kept_k(cfg.stopping, trace)

    lam, mu = kept
    return _lame(model, (lam.copy(), mu.copy())), trace


# ---------------------------------------------------------------------------
# trace CSV

def write_trace_csv(path, trace: IterationTrace) -> None:
    lines = ["k,residual,stepsize,heuristic"]
    for k, r, s, hv in zip(trace.ks, trace.residuals, trace.stepsizes,
                           trace.heuristics):
        lines.append(f"{k},{r:.17g},{s:.17g},{hv:.17g}")
    write_lines(path, lines)
