"""Speckle-augmented optical-flow estimation.

The displacement field u minimizes the quadratic functional

    F(u) = sum_p (grad I . u + I_t)^2            (brightness constancy)
         + alpha * sum_edges |du|^2              (gradient smoothness)
         + beta  * sum_i sum_p g_i(p) |u - u_i|^2  (bubble pull)
         + gamma * sum_cells (div u)^2           (optional incompressibility)

discretized per pixel (midpoint quadrature, forward-difference stencils,
which is the bilinear-element / 5-point-Laplacian discretization on the
pixel grid).  Minimization reduces to one sparse SPD solve A u = y; the
matrix couples the two components through the image-gradient products and
through the divergence stencil.

All flow computations are carried out in pixel units: sample positions,
displacements, and the Gaussian width sigma_g are measured in pixels, and
the quadrature weight per pixel is 1.  Unknowns are interleaved as
(u1, u2) per pixel in row-major order, matching ``VectorGrid.data.ravel()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import naming_path, read_config
from .errors import DomainError, NotConverged, NotSPD, ShapeMismatch
from .grids import ScalarGrid, VectorGrid, bilinear_sample, downsample, prolong
from .linsolve import GridFactor, grid_order
from .speckle import DisplacementSample

__all__ = [
    "FlowParams",
    "FlowSystem",
    "gaussian_weight",
    "evaluate_functional",
    "assemble",
    "solve_flow",
    "gradient",
    "multiscale_flow",
]

# below this width the Gaussian peak 1/(2 pi sigma^2) exceeds 1 and the
# bubble term's scaling guarantees break down
MIN_SIGMA_G = 1.0 / math.sqrt(2.0 * math.pi)

_SOLVERS = ("direct", "cg")


@dataclass
class FlowParams:
    """Weights and solver settings for the flow functional."""

    alpha: float = 0.8
    beta: float = 0.0
    gamma: float = 0.0
    sigma_g: float = 5.0
    levels: int = 1
    eta: float = 0.5
    sigma0: float = 0.6
    solver: str = "direct"
    tol: float = 1e-8
    max_iter: int = 0  # 0 = automatic (10 * unknowns)

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise DomainError("alpha, beta, gamma must be nonnegative")
        if self.alpha + self.beta <= 0:
            raise DomainError("alpha + beta must be positive for a well-posed system")
        if self.beta > 0 and self.sigma_g < MIN_SIGMA_G:
            raise DomainError(f"sigma_g must be at least {MIN_SIGMA_G:.6f}")
        if self.levels < 1:
            raise DomainError("levels must be at least 1")
        if not 0.0 < self.eta < 1.0:
            raise DomainError("eta must lie in (0, 1)")
        if self.sigma0 <= 0:
            raise DomainError("sigma0 must be positive")
        if self.solver not in _SOLVERS:
            raise DomainError(f"solver must be one of {_SOLVERS}")
        if self.tol <= 0:
            raise DomainError("tol must be positive")
        if self.max_iter < 0:
            raise DomainError("max_iter must be nonnegative")

    @classmethod
    def from_config(cls, path) -> "FlowParams":
        cfg = read_config(path, "flow", cls)
        with naming_path(path):
            return cls(**cfg)


@dataclass
class FlowSystem:
    """Assembled sparse system A u = y with the constant term of the
    quadratic expansion F(u) = u'Au/2 - y'u + const.  `translation`, half
    of A on uniform fields, is sum_p grad I grad I' + beta sum_p W(p) I2; A
    is singular whenever it is (and, with alpha > 0, only then)."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    nx: int
    ny: int
    translation: np.ndarray
    constant: float = 0.0


def gaussian_weight(x, xhat, sigma: float) -> float:
    """Isotropic 2-D Gaussian bump of total mass one centered at xhat."""
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    d2 = float(np.sum((x[:2] - xhat[:2]) ** 2))
    return math.exp(-d2 / (2.0 * sigma * sigma)) / (2.0 * math.pi * sigma * sigma)


def _sample_fields(nx, ny, samples, sigma):
    """Accumulated Gaussian weight fields over the pixel grid.

    Returns (W, WU, wu2) with W(p) = sum_i g_i(p), WU(p) = sum_i g_i(p) u_i
    and wu2 = sum_i sum_p g_i(p) |u_i|^2.  The Gaussians are separable,
    g_i(p) = gy_i(y) gx_i(x), so the sums over samples are matrix products
    of the 1-D factors.
    """
    pos = np.array([s.position[:2] for s in samples], dtype=np.float64).reshape(-1, 2)
    u = np.array([s.displacement[:2] for s in samples], dtype=np.float64).reshape(-1, 2)
    inv = 1.0 / (2.0 * sigma * sigma)
    peak = inv / math.pi
    gx = np.exp(-((np.arange(nx) - pos[:, :1]) ** 2) * inv)
    gy = peak * np.exp(-((np.arange(ny) - pos[:, 1:]) ** 2) * inv)
    W = gy.T @ gx
    WU = np.stack([(gy.T * u[:, c]) @ gx for c in (0, 1)], axis=-1)
    wu2 = float((gy.sum(axis=1) * gx.sum(axis=1)) @ (u * u).sum(axis=1))
    return W, WU, wu2


def _check_fields(gradI: VectorGrid, It: ScalarGrid):
    if (gradI.nx, gradI.ny) != (It.nx, It.ny):
        raise ShapeMismatch("gradient and temporal-derivative extents differ")


def evaluate_functional(u: VectorGrid, gradI: VectorGrid, It: ScalarGrid,
                        samples, p: FlowParams) -> float:
    """Value of the discrete flow functional at u (always >= 0)."""
    _check_fields(gradI, It)
    if (u.nx, u.ny) != (It.nx, It.ny):
        raise ShapeMismatch("field extents differ")
    u1, u2 = u.data[:, :, 0], u.data[:, :, 1]
    gx, gy = gradI.data[:, :, 0], gradI.data[:, :, 1]

    data = float(np.sum((gx * u1 + gy * u2 + It.data) ** 2))

    rough = 0.0
    for comp in (u1, u2):
        rough += float(np.sum(np.diff(comp, axis=1) ** 2))
        rough += float(np.sum(np.diff(comp, axis=0) ** 2))

    bubble = 0.0
    if p.beta > 0 and samples:
        W, WU, wu2 = _sample_fields(u.nx, u.ny, samples, p.sigma_g)
        uu = u1 * u1 + u2 * u2
        bubble = float(np.sum(W * uu) - 2.0 * np.sum(WU[:, :, 0] * u1 + WU[:, :, 1] * u2) + wu2)

    div_term = 0.0
    if p.gamma > 0:
        div = np.diff(u1, axis=1)[:-1, :] + np.diff(u2, axis=0)[:, :-1]
        div_term = float(np.sum(div ** 2))

    return data + p.alpha * rough + p.beta * bubble + p.gamma * div_term


def assemble(gradI: VectorGrid, It: ScalarGrid, samples, p: FlowParams) -> FlowSystem:
    """Assemble the sparse SPD system whose solution minimizes the flow
    functional.

    The matrix is the Hessian of the discrete functional, written with the
    functional's own operators on the interleaved unknowns: the component
    pickers u1, u2, the data operator G = diag(Ix) u1 + diag(Iy) u2, the
    forward differences Dx, Dy and the per-cell divergence div, so that

        A = 2 (G'G + alpha kron(Dx'Dx + Dy'Dy, I2) + beta diag(W x 1_2)
               + gamma div'div),
        y = 2 (-G' It + beta WU).
    """
    _check_fields(gradI, It)
    nx, ny = It.nx, It.ny
    n = nx * ny
    g = gradI.data.reshape(n, 2)
    it = It.data.ravel()

    u1 = sp.kron(sp.identity(n), [[1.0, 0.0]], format="csr")
    u2 = sp.kron(sp.identity(n), [[0.0, 1.0]], format="csr")
    G = sp.diags(g[:, 0]) @ u1 + sp.diags(g[:, 1]) @ u2
    # 1-D forward differences (d v)_i = v_(i+1) - v_i
    dx = sp.diags([-1.0, 1.0], [0, 1], shape=(nx - 1, nx), format="csr")
    dy = sp.diags([-1.0, 1.0], [0, 1], shape=(ny - 1, ny), format="csr")
    Dx = sp.kron(sp.identity(ny), dx)
    Dy = sp.kron(dy, sp.identity(nx))
    H = G.T @ G + p.alpha * sp.kron(Dx.T @ Dx + Dy.T @ Dy, sp.identity(2))
    y = -(G.T @ it)
    constant = float(it @ it)
    translation = g.T @ g

    if p.beta > 0 and samples:
        W, WU, wu2 = _sample_fields(nx, ny, samples, p.sigma_g)
        H = H + p.beta * sp.diags(np.repeat(W.ravel(), 2))
        y = y + p.beta * WU.ravel()
        constant += p.beta * wu2
        translation = translation + p.beta * W.sum() * np.identity(2)

    if p.gamma > 0:
        # divergence of each cell from its lower-left pixel's forward differences
        div = (sp.kron(sp.eye(ny - 1, ny), dx) @ u1
               + sp.kron(dy, sp.eye(nx - 1, nx)) @ u2)
        H = H + p.gamma * (div.T @ div)

    return FlowSystem(matrix=sp.csr_matrix(2.0 * H), rhs=2.0 * y, nx=nx, ny=ny,
                      constant=constant, translation=translation)


def _solve_system(sys: FlowSystem, p: FlowParams) -> np.ndarray:
    if not np.all(np.isfinite(sys.translation)):
        raise NotSPD("flow system has non-finite entries")
    if np.linalg.matrix_rank(sys.translation) < 2:
        raise NotSPD("flow system is singular: neither the image gradient "
                     "nor the samples determine a uniform translation")
    # the matrix is PSD, so a diagonal entry <= 0 means a zero row
    if not np.all(sys.matrix.diagonal() > 0):
        raise NotSPD("flow system is singular: an unknown enters no term")
    if p.solver == "direct":
        try:
            x = GridFactor(sys.matrix, grid_order(sys.nx, sys.ny)).solve(sys.rhs)
        except RuntimeError as exc:
            raise NotSPD(f"sparse factorization failed: {exc}")
        if not np.all(np.isfinite(x)):
            raise NotSPD("sparse factorization produced non-finite values")
        rnorm = np.linalg.norm(sys.matrix @ x - sys.rhs)
        scale = np.linalg.norm(sys.rhs)
        if rnorm > 1e-10 * scale:
            raise NotSPD(f"relative residual {rnorm / scale:.2e} too large")
        return x
    max_iter = p.max_iter if p.max_iter > 0 else 10 * sys.rhs.size
    x, info = spla.cg(sys.matrix, sys.rhs, rtol=p.tol, atol=0.0, maxiter=max_iter)
    if info > 0:
        res = float(np.linalg.norm(sys.matrix @ x - sys.rhs))
        raise NotConverged(f"cg hit the iteration cap ({max_iter})", residual=res)
    if info < 0:
        raise NotSPD("cg reported an invalid system")
    return x


def solve_flow(sys: FlowSystem, p: FlowParams) -> VectorGrid:
    """Solve the assembled system and reshape to a displacement field;
    `NotSPD` if the system is singular (always if `translation` is, or if
    a diagonal entry of the matrix is zero)."""
    x = _solve_system(sys, p)
    return VectorGrid(sys.nx, sys.ny, x.reshape(sys.ny, sys.nx, 2))


def gradient(u: VectorGrid, gradI: VectorGrid, It: ScalarGrid, samples,
             p: FlowParams) -> VectorGrid:
    """Euclidean gradient of the discrete functional: A u - y."""
    if (u.nx, u.ny) != (It.nx, It.ny):
        raise ShapeMismatch("field extents differ")
    sys = assemble(gradI, It, samples, p)
    g = sys.matrix @ u.data.ravel() - sys.rhs
    return VectorGrid(u.nx, u.ny, g.reshape(u.ny, u.nx, 2))


def _scaled_samples(samples, factor):
    return [DisplacementSample(position=s.position * factor,
                               displacement=s.displacement * factor)
            for s in samples]


def _warp(img: np.ndarray, disp: np.ndarray) -> np.ndarray:
    """Sample img at x + disp(x) (bilinear, border-clamped)."""
    ny, nx = img.shape
    gx, gy = np.meshgrid(np.arange(nx, dtype=np.float64),
                         np.arange(ny, dtype=np.float64))
    return bilinear_sample(img, gx + disp[:, :, 0], gy + disp[:, :, 1])


def multiscale_flow(i1: ScalarGrid, i2: ScalarGrid, samples, p: FlowParams) -> VectorGrid:
    """Coarse-to-fine flow estimation.

    Image pyramids are built by repeated smoothing/downsampling; sample
    positions and displacements shrink by eta per level.  Every level starts
    from an estimate (zero on the coarsest, the prolonged coarser result
    otherwise), linearizes the data term there (the second frame is warped
    by it), solves the level's system for the correction and adds it.  With
    levels = 1 this is exactly the single-scale solve.
    """
    if (i1.nx, i1.ny) != (i2.nx, i2.ny):
        raise ShapeMismatch("image extents differ")
    levels = [(i1, i2)]
    for _ in range(p.levels - 1):
        a, b = levels[-1]
        levels.append((downsample(a, p.eta, p.sigma0),
                       downsample(b, p.eta, p.sigma0)))

    top = levels[-1][0]
    u = VectorGrid.zeros(top.nx, top.ny)
    for s in range(p.levels - 1, -1, -1):
        a, b = levels[s]
        if s < p.levels - 1:
            u = prolong(u, a.nx, a.ny, 1.0 / p.eta)
        up = u.data
        grad_a = _pixel_gradient(a)
        warped = _warp(b.data, up)
        # temporal term re-centered at the estimate
        it_eff = (warped - a.data) - (grad_a.data[:, :, 0] * up[:, :, 0]
                                      + grad_a.data[:, :, 1] * up[:, :, 1])
        sys = assemble(grad_a, ScalarGrid(a.nx, a.ny, it_eff),
                       _scaled_samples(samples, p.eta ** s), p)
        up_flat = up.ravel()
        corr_sys = replace(sys, rhs=sys.rhs - sys.matrix @ up_flat)
        u = VectorGrid(a.nx, a.ny, up_flat + _solve_system(corr_sys, p))
    return u


def _pixel_gradient(g: ScalarGrid) -> VectorGrid:
    """Gradient in index units regardless of the grid's physical spacing."""
    dy, dx = np.gradient(g.data)
    return VectorGrid(g.nx, g.ny, np.stack([dx, dy], axis=-1))
