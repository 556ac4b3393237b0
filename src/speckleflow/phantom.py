"""Synthetic test-data generators.

Two families: "moving squares" (two constant-intensity squares translating
toward each other, with Gaussian-blob bubbles riding the local flow) and
the elastography "inclusion" phantom (a rectangular sample with a stiffer
circular inclusion, compressed from the top, with bubbles displaced by the
elasticity solution).  Both render the pre/post frames directly from
geometry, so the bubble ground truth is exact.

Generation is deterministic: randomness comes from numpy's PCG64 generator
keyed by the spec's 64-bit seed, so a fixed spec reproduces bit-identical
phantoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import naming_path, read_config
from .elastic import BoundaryConditions, LameField, forward_solve
from .errors import SpecError
from .grids import ScalarGrid, VectorGrid, bilinear_sample
from .speckle import DisplacementSample

__all__ = [
    "PhantomSpec",
    "make_moving_squares",
    "make_inclusion_phantom",
    "render_blobs",
]

_KINDS = ("moving_squares", "inclusion")


@dataclass
class PhantomSpec:
    """Geometry, material and randomness settings for one phantom."""

    kind: str = "inclusion"
    nx: int = 200
    ny: int = 200
    bubble_count: int = 200
    bubble_sigma_min: float = 1.5
    bubble_sigma_max: float = 3.0
    seed: int = 0
    noise_rel: float = 0.0
    margin: int = 5
    # moving-squares geometry
    square_size: int = 48
    square_shift: float = 12.0
    square_intensity: float = 0.5
    # inclusion geometry and material
    compression_px: float = 20.0
    lame_background: tuple = (490.0, 10.0)
    lame_inclusion: tuple = (490.0, 20.0)
    inclusion_center: tuple | None = None
    inclusion_radius: float = 30.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SpecError(f"unknown phantom kind '{self.kind}'")
        if self.nx < 8 or self.ny < 8:
            raise SpecError("phantom grid must be at least 8x8")
        if self.bubble_count < 0:
            raise SpecError("bubble_count must be nonnegative")
        if self.kind == "inclusion" and self.bubble_count == 0:
            # the inclusion frames are rendered from the bubbles alone
            raise SpecError("an inclusion phantom needs at least one bubble")
        if not 0 < self.bubble_sigma_min <= self.bubble_sigma_max:
            raise SpecError("bubble sigma range must be positive and ordered")
        if self.noise_rel < 0:
            raise SpecError("noise_rel must be nonnegative")
        if self.margin < 0:
            raise SpecError("margin must be nonnegative")
        if self.square_size < 1:
            raise SpecError("square_size must be at least 1")
        if not self.inclusion_radius >= 0:
            raise SpecError("inclusion_radius must be nonnegative")

    @classmethod
    def from_config(cls, path) -> "PhantomSpec":
        """Spec from a phantom config.  The keys `lambda_bg`/`mu_bg`,
        `lambda_inc`/`mu_inc` and `inclusion_cx`/`inclusion_cy` set the
        tuple fields; a Lame value left out keeps its default, and the two
        center coordinates must be given together."""
        pair_keys = ("lambda_bg", "mu_bg", "lambda_inc", "mu_inc",
                     "inclusion_cx", "inclusion_cy")
        cfg = read_config(path, "phantom", cls, dict.fromkeys(pair_keys, float))
        (lb, mb), (li, mi) = cls.lame_background, cls.lame_inclusion
        cfg["lame_background"] = (cfg.pop("lambda_bg", lb), cfg.pop("mu_bg", mb))
        cfg["lame_inclusion"] = (cfg.pop("lambda_inc", li), cfg.pop("mu_inc", mi))
        center = tuple(cfg.pop(k) for k in ("inclusion_cx", "inclusion_cy") if k in cfg)
        if len(center) == 1:
            raise SpecError(f"{path}: inclusion_cx and inclusion_cy must be given together")
        with naming_path(path):
            return cls(inclusion_center=center or None, **cfg)


def _rng(spec: PhantomSpec) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(spec.seed))


def _place_bubbles(spec: PhantomSpec, rng: np.random.Generator):
    """Rejection-sample bubble centers with a boundary margin and pairwise
    separation so the rendered blobs stay distinct components."""
    lo_x, hi_x = spec.margin, spec.nx - 1 - spec.margin
    lo_y, hi_y = spec.margin, spec.ny - 1 - spec.margin
    if lo_x >= hi_x or lo_y >= hi_y:
        raise SpecError("margin leaves no room for bubbles")
    centers = np.empty((spec.bubble_count, 2))
    sigmas = np.empty(spec.bubble_count)
    placed = 0
    attempts = 0
    max_attempts = 1000 * max(spec.bubble_count, 1)
    while placed < spec.bubble_count:
        if attempts >= max_attempts:
            raise SpecError("could not place bubbles with the required separation")
        attempts += 1
        c = rng.uniform((lo_x, lo_y), (hi_x, hi_y))
        s = rng.uniform(spec.bubble_sigma_min, spec.bubble_sigma_max)
        if placed:
            d = np.linalg.norm(centers[:placed] - c, axis=1)
            if np.any(d < 1.9 * (sigmas[:placed] + s)):
                continue
        centers[placed] = c
        sigmas[placed] = s
        placed += 1
    return centers, sigmas


def render_blobs(nx, ny, centers, sigmas, peak=1.0) -> np.ndarray:
    """Sum of isotropic Gaussian blobs with unit peak by default."""
    img = np.zeros((ny, nx))
    xs = np.arange(nx, dtype=np.float64)
    ys = np.arange(ny, dtype=np.float64)
    for (cx, cy), s in zip(np.atleast_2d(centers), np.atleast_1d(sigmas)):
        gx = np.exp(-((xs - cx) ** 2) / (2.0 * s * s))
        gy = np.exp(-((ys - cy) ** 2) / (2.0 * s * s))
        img += peak * np.outer(gy, gx)
    return img


def _rescale_pair(a: np.ndarray, b: np.ndarray):
    """Shared affine rescale of a frame pair onto [0, 1]."""
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi == lo:
        raise SpecError("phantom images are constant")
    return (a - lo) / (hi - lo), (b - lo) / (hi - lo)


def _noised_samples(centers, disps, noise_rel, rng):
    """Exact samples, optionally with bounded relative perturbation of the
    displacement vectors (direction uniform, magnitude up to
    noise_rel * |u|)."""
    samples = []
    for c, u in zip(centers, disps):
        d = np.asarray(u, dtype=np.float64)
        if noise_rel > 0:
            mag = np.linalg.norm(d)
            if mag > 0:
                theta = rng.uniform(0.0, 2.0 * np.pi)
                rho = rng.uniform(0.0, 1.0)
                d = d + noise_rel * mag * rho * np.array([np.cos(theta),
                                                          np.sin(theta)])
        samples.append(DisplacementSample(position=np.asarray(c, dtype=np.float64),
                                          displacement=d))
    return samples


def make_moving_squares(spec: PhantomSpec):
    """Two squares translating toward each other plus bubbles.

    Returns (i1, i2, true_flow, samples).  The flow is +/-square_shift in x
    inside the squares' initial footprints and zero elsewhere; bubbles
    inside a square ride its motion, background bubbles stay put.
    """
    if spec.kind != "moving_squares":
        raise SpecError("spec.kind must be 'moving_squares'")
    nx, ny, size = spec.nx, spec.ny, spec.square_size
    shift = spec.square_shift
    cy0 = (ny - size) // 2
    gap = int(round(2 * shift)) + 6
    ax0 = nx // 2 - gap // 2 - size
    bx0 = nx // 2 + gap // 2
    if ax0 < 1 or bx0 + size > nx - 1:
        raise SpecError("squares do not fit in the grid")
    a1 = (ax0 + shift, cy0)      # square A moves right
    b1 = (bx0 - shift, cy0)      # square B moves left
    if a1[0] + size > b1[0]:
        raise SpecError("squares overlap after translation")

    def square_img(ax, bx):
        img = np.zeros((ny, nx))
        img[cy0:cy0 + size, int(round(ax)):int(round(ax)) + size] = spec.square_intensity
        img[cy0:cy0 + size, int(round(bx)):int(round(bx)) + size] = spec.square_intensity
        return img

    flow = np.zeros((ny, nx, 2))
    flow[cy0:cy0 + size, ax0:ax0 + size, 0] = shift
    flow[cy0:cy0 + size, bx0:bx0 + size, 0] = -shift
    true_flow = VectorGrid(nx, ny, flow)

    rng = _rng(spec)
    centers, sigmas = _place_bubbles(spec, rng)
    disps = np.zeros_like(centers)
    for i, (cx, cy) in enumerate(centers):
        in_a = ax0 <= cx < ax0 + size and cy0 <= cy < cy0 + size
        in_b = bx0 <= cx < bx0 + size and cy0 <= cy < cy0 + size
        if in_a:
            disps[i, 0] = shift
        elif in_b:
            disps[i, 0] = -shift

    raw1 = square_img(ax0, bx0) + render_blobs(nx, ny, centers, sigmas)
    raw2 = square_img(a1[0], b1[0]) + render_blobs(nx, ny, centers + disps, sigmas)
    d1, d2 = _rescale_pair(raw1, raw2)
    samples = _noised_samples(centers, disps, spec.noise_rel, rng)
    return (ScalarGrid(nx, ny, d1), ScalarGrid(nx, ny, d2), true_flow, samples)


def make_inclusion_phantom(spec: PhantomSpec):
    """Compressed rectangular sample with a circular inclusion.

    Returns (lame, bc, u_true, i1, i2, samples).  The bottom is fixed, the
    top is pressed down by compression_px (vertical component only, lateral
    slip), the sides are traction-free.  Bubble displacements are the
    elasticity solution evaluated at the bubble centers.
    """
    if spec.kind != "inclusion":
        raise SpecError("spec.kind must be 'inclusion'")
    nx, ny = spec.nx, spec.ny
    cx, cy = spec.inclusion_center if spec.inclusion_center is not None \
        else ((nx - 1) / 2.0, (ny - 1) / 2.0)
    r = spec.inclusion_radius
    if not (r < cx < nx - 1 - r and r < cy < ny - 1 - r):
        raise SpecError("inclusion is not strictly interior")

    lam_bg, mu_bg = spec.lame_background
    lam_in, mu_in = spec.lame_inclusion
    xs, ys = np.meshgrid(np.arange(nx, dtype=np.float64),
                         np.arange(ny, dtype=np.float64))
    inside = (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
    lam = np.where(inside, lam_in, lam_bg)
    mu = np.where(inside, mu_in, mu_bg)
    lame = LameField(ScalarGrid(nx, ny, lam), ScalarGrid(nx, ny, mu))

    bc = BoundaryConditions(dirichlet=[
        ("bottom", "both", 0.0),
        ("top", "uy", -float(spec.compression_px)),
    ])
    u_true = forward_solve(lame, bc)

    rng = _rng(spec)
    centers, sigmas = _place_bubbles(spec, rng)
    disps = bilinear_sample(u_true.data, centers[:, 0], centers[:, 1])

    raw1 = render_blobs(nx, ny, centers, sigmas)
    raw2 = render_blobs(nx, ny, centers + disps, sigmas)
    d1, d2 = _rescale_pair(raw1, raw2)
    samples = _noised_samples(centers, disps, spec.noise_rel, rng)
    return (lame, bc, u_true, ScalarGrid(nx, ny, d1), ScalarGrid(nx, ny, d2),
            samples)
