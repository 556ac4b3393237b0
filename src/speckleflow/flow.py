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

from .config import naming_path, read_config
from .errors import DomainError, GridTooSmall, NotSPD, ShapeMismatch
from .grids import (ScalarGrid, VectorGrid, bilinear_sample, check_filter_width,
                    downsample, gaussian_profiles, prolong, pyramid_sigma,
                    spatial_gradient)
from .linsolve import COARSEST_NODES, GridMultigrid, check_overflow, solve_spd
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


@dataclass
class FlowParams:
    """Weights of the flow functional and the shape of its image pyramid."""

    alpha: float = 0.8
    beta: float = 0.0
    gamma: float = 0.0
    sigma_g: float = 5.0
    levels: int = 1
    eta: float = 0.5
    sigma0: float = 0.6

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "sigma_g", "sigma0"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
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

    def check_extents(self, nx: int, ny: int) -> None:
        """`GridTooSmall` unless each of the `levels` pyramid levels of
        nx x ny frames is at least 2x2, as `grids.downsample` rounds them;
        `DomainError` if a level's smoothing width exceeds the frame it
        smooths (`grids.check_filter_width`) or a level would repeat the
        extents of the one before (the pyramid has stopped shrinking)."""
        if nx < 2 or ny < 2:
            return  # the flow's own error, not the pyramid's
        mx, my = nx, ny
        for level in range(1, self.levels):
            prev = mx, my
            mx, my = int(round(self.eta * mx)), int(round(self.eta * my))
            if mx < 2 or my < 2:
                raise GridTooSmall(f"levels = {self.levels} downsamples {nx}x{ny} "
                                   f"frames to {mx}x{my} at level {level}, below 2x2")
            try:
                check_filter_width(pyramid_sigma(self.eta, self.sigma0), prev)
            except DomainError as exc:
                raise DomainError(f"sigma0 = {self.sigma0:g} at level {level}: {exc}") from None
            if (mx, my) == prev:
                raise DomainError(f"levels = {self.levels} exceeds {level}: {nx}x{ny} frames "
                                  f"stop shrinking at {mx}x{my} on level {level - 1}")

    @classmethod
    def from_config(cls, path) -> "FlowParams":
        cfg = read_config(path, "flow", cls)
        with naming_path(path):
            return cls(**cfg)


@dataclass
class FlowSystem:
    """Assembled sparse system A u = y of the quadratic expansion
    F(u) = u'Au/2 - y'u + F(0).  `translation`, half of A on uniform
    fields, is sum_p grad I grad I' + beta sum_p W(p) I2; A is singular
    whenever it is (and, with alpha > 0, only then)."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    nx: int
    ny: int
    translation: np.ndarray


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
    peak = 1.0 / (2.0 * sigma * sigma) / math.pi
    gx = gaussian_profiles(pos[:, 0], sigma, nx)
    gy = peak * gaussian_profiles(pos[:, 1], sigma, ny)
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


@np.errstate(over="ignore", invalid="ignore")  # the solve names an overflow
def assemble(gradI: VectorGrid, It: ScalarGrid, samples, p: FlowParams) -> FlowSystem:
    """Assemble the sparse SPD system whose solution minimizes the flow
    functional.

    The matrix is the Hessian of the discrete functional.  With the
    component pickers u1, u2 of the interleaved unknowns, the data operator
    G = diag(Ix) u1 + diag(Iy) u2, the forward differences Dx, Dy and the
    per-cell divergence div (the cell's lower-left pixel's forward
    differences),

        A = 2 (G'G + alpha kron(Dx'Dx + Dy'Dy, I2) + beta diag(W x 1_2)
               + gamma div'div),
        y = 2 (-G' It + beta WU).

    A is built directly as its bands, each computed elementwise.  With deg
    the number of a pixel's neighbours, and div'div the integer sums over
    cells (the number of cells of an unknown on the diagonal, the product
    of two unknowns' weights in the one cell they share off it):

        offset 0               Ix^2 or Iy^2 + alpha deg + beta W + gamma div'div,
        offsets +-1            Ix Iy between a pixel's u1 and u2 + gamma div'div,
        offsets +-2, +-2nx     -alpha between x- or y-neighbours + gamma div'div,
        offsets +-(2nx -+ 1)   gamma div'div.

    The terms are summed in the order of the formula, so every entry is
    bit for bit the one the operator products give, and, as there, exact
    zeros are not stored.
    """
    _check_fields(gradI, It)
    nx, ny = It.nx, It.ny
    n = nx * ny
    g = gradI.data.reshape(n, 2)
    it = It.data.ravel()
    col = np.tile(np.arange(nx), ny)
    row = np.repeat(np.arange(ny), nx)
    deg = 4.0 - (col == 0) - (col == nx - 1) - (row == 0) - (row == ny - 1)
    east = (col < nx - 1).astype(np.float64)  # pixel p + 1 is a neighbour
    north = (row < ny - 1).astype(np.float64)  # pixel p + nx is a neighbour
    zero = np.zeros(n)
    # band k holds entry (i, i + k) at [p, c] for the unknown i = 2p + c
    bands = {0: g * g + p.alpha * deg[:, None],
             1: np.stack([g[:, 0] * g[:, 1], zero], axis=1)}
    if nx > 1:
        bands[2] = np.repeat(-p.alpha * east[:, None], 2, axis=1)
    if ny > 1:
        bands[2 * nx] = np.repeat(-p.alpha * north[:, None], 2, axis=1)
    # summed from 0.0 as the sparse product G'It is, for the signs of zeros
    rhs = -(0.0 + g * it[:, None]).ravel()
    translation = g.T @ g

    if p.beta > 0 and samples:
        W, WU, _ = _sample_fields(nx, ny, samples, p.sigma_g)
        bands[0] = bands[0] + p.beta * W.reshape(n, 1)
        rhs = rhs + p.beta * WU.ravel()
        translation = translation + p.beta * W.sum() * np.identity(2)

    if p.gamma > 0 and nx > 1 and ny > 1:
        cell = east * north  # pixel p is the lower-left pixel of a cell
        west = np.concatenate([[0.0], cell[:-1]])  # ... or pixel p - 1 is
        south = np.concatenate([zero[:nx], cell[:-nx]])  # ... or pixel p - nx is
        bands[0] = bands[0] + p.gamma * np.stack([cell + west, cell + south], axis=1)
        bands[1] = bands[1] + p.gamma * np.stack([cell, -cell], axis=1)
        bands[2] = bands[2] + p.gamma * np.stack([-cell, zero], axis=1)
        bands[2 * nx - 1] = p.gamma * np.stack([west, zero], axis=1)
        bands[2 * nx] = bands[2 * nx] + p.gamma * np.stack([zero, -cell], axis=1)
        bands[2 * nx + 1] = p.gamma * np.stack([-cell, zero], axis=1)

    for band in bands.values():
        band *= 2.0
    m = 2 * n
    offsets = sorted(bands)
    diagonals = [bands[k].ravel()[:m - k] for k in offsets]
    # the conversion to CSR drops exact zeros, and leaves its arrays as views
    # into buffers sized for every band entry; the copy keeps only the nonzeros
    A = sp.diags(diagonals + diagonals[1:], offsets + [-k for k in offsets[1:]],
                 shape=(m, m), format="csr").copy()
    return FlowSystem(matrix=A, rhs=2.0 * rhs, nx=nx, ny=ny, translation=translation)


def solve_flow(sys: FlowSystem) -> VectorGrid:
    """Solve the assembled system (`solve_spd`) as a displacement field;
    `DomainError` if its matrix, right-hand side or solution overflowed,
    `NotSPD` if it is singular (always if `translation` is, or if a
    diagonal entry of the matrix is zero)."""
    # the translation block is half of A on uniform fields
    check_overflow("flow system matrix", sys.translation, sys.matrix.data)
    check_overflow("flow system right-hand side", sys.rhs)
    if np.linalg.matrix_rank(sys.translation) < 2:
        raise NotSPD("flow system is singular: neither the image gradient "
                     "nor the samples determine a uniform translation")
    # the matrix is PSD, so a diagonal entry <= 0 means a zero row
    if not np.all(sys.matrix.diagonal() > 0):
        raise NotSPD("flow system is singular: an unknown enters no term")
    # passed inline, the V-cycle's only reference is solve_spd's, which drops
    # it before a fallback factorization
    x = solve_spd(sys.matrix, sys.rhs, "flow solve", sys.nx, sys.ny, near=_v_cycle(sys))[0]
    return VectorGrid(sys.nx, sys.ny, x.reshape(sys.ny, sys.nx, 2))


def _v_cycle(sys: FlowSystem) -> GridMultigrid | None:
    """The V-cycle of a system above `COARSEST_NODES` nodes, or None when
    `GridMultigrid` raises `NotSPD` (a diagonal entry that is not positive,
    or an exactly singular coarsest matrix)."""
    if sys.nx * sys.ny <= COARSEST_NODES:
        return None
    try:
        return GridMultigrid(sys.matrix, sys.nx, sys.ny)
    except NotSPD:
        return None  # solve_spd factorizes the level


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

    Image pyramids are built, once `p.check_extents` passes, by repeated
    smoothing/downsampling; sample positions and displacements shrink by eta
    per level.  Every level starts from an estimate (zero on the coarsest,
    the prolonged coarser result otherwise), linearizes the data term there
    (the second frame is warped by it), solves the level's system for the
    correction and adds it.  With levels = 1 this is exactly the
    single-scale solve.
    """
    if (i1.nx, i1.ny) != (i2.nx, i2.ny):
        raise ShapeMismatch("image extents differ")
    if i1.nx < 2 or i1.ny < 2:
        raise GridTooSmall(f"flow needs frames of at least 2x2 pixels, got {i1.nx}x{i1.ny}")
    p.check_extents(i1.nx, i1.ny)
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
        grad_a = spatial_gradient(a)
        warped = _warp(b.data, up)
        # temporal term re-centered at the estimate
        it_eff = (warped - a.data) - (grad_a.data[:, :, 0] * up[:, :, 0]
                                      + grad_a.data[:, :, 1] * up[:, :, 1])
        sys = assemble(grad_a, ScalarGrid(a.nx, a.ny, it_eff),
                       _scaled_samples(samples, p.eta ** s), p)
        up_flat = up.ravel()
        sys = replace(sys, rhs=sys.rhs - sys.matrix @ up_flat)
        u = VectorGrid(a.nx, a.ny, up_flat + solve_flow(sys).data.ravel())
    return u
