"""Bubble detection and matching.

Bright speckle formations ("bubbles") are detected in a pair of volumes by
thresholding and connected-component analysis, then matched between the
pre- and post-compression scans under geometric plausibility criteria.
Matched pairs yield sparse displacement samples that later constrain the
dense flow estimate.

Detection reads each volume in a fixed number of full passes: rescaling,
smoothing, the threshold (an exact order statistic, selected among the
values above a bound taken from a strided sample), the comparison, the
labeling, and one scan for the foreground voxels, over which alone the
bubble sizes and centroids are summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .config import finite_float, naming_path, read_config, read_table, write_lines
from .errors import ConstantField, DomainError, FitError, ShapeMismatch
from .grids import Volume, check_filter_width, gaussian_filter, normalize_intensity

__all__ = [
    "Bubble",
    "CylinderGeometry",
    "MatchCriteria",
    "DisplacementSample",
    "binarize_quantile",
    "connected_components",
    "extract_bubbles",
    "fit_circle",
    "match_bubbles",
    "run_tracking",
    "read_samples_csv",
    "write_samples_csv",
]


@dataclass
class Bubble:
    """A detected connected component: centroid in pixel coordinates
    (x, y, z; z = 0 for 2-D slices) and its voxel count."""

    label: int
    centroid: np.ndarray
    voxel_volume: int

    def __post_init__(self):
        self.centroid = np.asarray(self.centroid, dtype=np.float64).reshape(3)
        if not all(map(math.isfinite, self.centroid.tolist())):
            raise DomainError("centroid must be finite")
        if self.voxel_volume < 1:
            raise DomainError("voxel_volume must be at least 1")


@dataclass
class CylinderGeometry:
    """Sample axis estimate: lateral center and radius of the fitted circle.
    The axis is the z line through center_xy (the vertical line x = center
    for 2-D slices)."""

    center_xy: np.ndarray
    radius: float

    def __post_init__(self):
        self.center_xy = np.asarray(self.center_xy, dtype=np.float64).reshape(2)
        if self.radius <= 0:
            raise DomainError("radius must be positive")


@dataclass
class MatchCriteria:
    """Thresholds for the pairwise matching test.

    Volumes within epsilon_small (below volume_split) or epsilon_large
    (above) count as unchanged; d_max bounds the centroid displacement;
    phi_max bounds the tangential angle; [alpha_min, alpha_max] bounds the
    angle between the displacement and the compression axis.  min_voxels is
    the detection floor applied before matching.
    """

    epsilon_small: float = 20.0
    epsilon_large: float = 60.0
    volume_split: int = 300
    d_max: float = 25.0
    phi_max: float = 0.3
    alpha_min: float = 0.0
    alpha_max: float = 1.5
    min_voxels: int = 4

    def __post_init__(self):
        for name in ("epsilon_small", "epsilon_large", "d_max", "phi_max",
                     "alpha_min", "alpha_max"):
            if not getattr(self, name) >= 0:
                raise DomainError(f"{name} must be nonnegative")
        if self.alpha_min > self.alpha_max:
            raise DomainError("alpha_min must not exceed alpha_max")
        if self.volume_split < 0 or self.min_voxels < 0:
            raise DomainError("volume thresholds must be nonnegative")


@dataclass
class DisplacementSample:
    """One matched bubble: position of the start centroid and the vector to
    the end centroid, in pixels."""

    position: np.ndarray
    displacement: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        self.displacement = np.asarray(self.displacement, dtype=np.float64)
        if self.position.shape != self.displacement.shape or self.position.shape[0] not in (2, 3):
            raise ShapeMismatch("position and displacement must both be 2- or 3-vectors")
        if not all(map(math.isfinite, self.position.tolist() + self.displacement.tolist())):
            raise DomainError("sample values must be finite")


# ---------------------------------------------------------------------------
# detection


def binarize_quantile(data: np.ndarray, top_fraction: float) -> np.ndarray:
    """Boolean mask of the brightest ``top_fraction`` of voxels.

    The threshold is the (1 - top_fraction) quantile and the comparison is
    strict, so membership depends only on a voxel's value (equal values are
    kept or dropped as a group) and a constant array binarizes to all
    False.  The mask is ``data > np.quantile(data, 1 - top_fraction)`` bit
    for bit; see `_upper_quantile` for how the threshold is found without
    copying the whole array.
    """
    if not 0.0 < top_fraction < 1.0:
        raise DomainError("top_fraction must lie strictly between 0 and 1")
    return data > _upper_quantile(data, 1.0 - top_fraction)


# values in the strided sample that bounds an upper quantile from below
_QUANTILE_SAMPLE = 1 << 14


def _upper_quantile(data: np.ndarray, q: float):
    """``np.quantile(data, q)`` (numpy's 'linear' method) for float64 data,
    selected among the values at or above a sampled lower bound.

    The quantile interpolates between the order statistics of ranks k and
    k + 1 at the virtual index (n - 1) q = k + gamma.  A strided sample of
    about `_QUANTILE_SAMPLE` values, partitioned at its own rank for k less
    a margin (four binomial deviations plus 8), gives a bound t0; the values
    below t0 are dropped, and if at most k of them were, both order
    statistics are found by partitioning the rest with ranks shifted by the
    drop count (Floyd and Rivest's SELECT).  Otherwise, or for data that is
    not float64, numpy computes the quantile itself.  The interpolation
    repeats numpy's, so the result is the same float.
    """
    flat = np.ravel(data)
    n = flat.size
    if n == 0 or flat.dtype != np.float64:
        return np.quantile(data, q)
    v = (n - 1) * q
    k = math.floor(v)
    gamma = v - k
    k1 = min(k + 1, n - 1)
    sample = flat[::max(1, n // _QUANTILE_SAMPLE)].copy()
    m = sample.size
    p = k / n
    r0 = max(0, k * m // n - math.ceil(4.0 * math.sqrt(m * p * (1.0 - p))) - 8)
    sample.partition(r0)
    below = flat < sample[r0]
    candidates = flat[np.logical_not(below, out=below)]  # NaN stays a candidate
    dropped = n - candidates.size
    if dropped > k:
        return np.quantile(data, q)
    if np.isnan(candidates).any():
        return math.nan  # numpy's quantile of data holding a NaN
    candidates.partition((k - dropped, k1 - dropped))
    a = float(candidates[k - dropped])
    b = float(candidates[k1 - dropped])
    diff = b - a
    return b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma


def connected_components(mask: np.ndarray) -> np.ndarray:
    """Integer labels of the connected groups of nonzero voxels of an
    (nz, ny, nx) mask.

    Uses 26-connectivity (8-connectivity in the nz = 1 case).  Labels run
    from 1 to K, ordered by each component's smallest linear voxel index
    (`ndimage.label` numbers components in raster order of their first
    voxel), so the labeling is reproducible; background is 0.
    """
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3, 3), dtype=int))
    return labels


def extract_bubbles(labels: np.ndarray, min_voxels: int) -> list[Bubble]:
    """Turn an (nz, ny, nx) integer label array into bubbles, dropping
    components smaller than ``min_voxels``.  Centroids are arithmetic means
    of member voxel coordinates in (x, y, z) order.

    One scan finds the foreground voxels (numpy finds the nonzero entries
    of a boolean array faster than those of an integer one); sizes and
    coordinate sums are taken over those alone, summed in raster order."""
    _, ny, nx = labels.shape
    flat = labels.ravel()
    index = np.flatnonzero(flat != 0)
    vals = flat[index]
    sizes = np.bincount(vals)
    keep = np.flatnonzero(sizes >= max(min_voxels, 1))
    zy, xx = np.divmod(index, nx)
    zz, yy = np.divmod(zy, ny)
    sums = np.column_stack([np.bincount(vals, weights=w, minlength=sizes.size)[keep]
                            for w in (xx, yy, zz)])
    centroids = sums / sizes[keep, None]
    return [Bubble(label=int(k), centroid=c, voxel_volume=int(sizes[k]))
            for k, c in zip(keep, centroids)]


def _boundary_points(mask: np.ndarray):
    """Pixels of the mask with at least one 4-neighbor outside it."""
    m = mask.astype(bool)
    interior = np.zeros_like(m)
    interior[1:-1, 1:-1] = (m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1]
                            & m[1:-1, :-2] & m[1:-1, 2:])
    ys, xs = np.nonzero(m & ~interior)
    return xs.astype(np.float64), ys.astype(np.float64)


def fit_circle(slice_mask: np.ndarray) -> CylinderGeometry:
    """Algebraic least-squares circle through the boundary pixels of a
    binary 2-D mask.

    Solves min_{D,E,F} sum (x^2 + y^2 + D x + E y + F)^2, which is linear
    in the parameters and exact for points lying on a true circle.
    """
    mask = np.asarray(slice_mask)
    if mask.ndim != 2:
        raise ShapeMismatch("fit_circle expects a 2-D mask")
    xs, ys = _boundary_points(mask)
    if xs.size < 3:
        raise FitError(f"need at least 3 boundary points, found {xs.size}")
    A = np.column_stack([xs, ys, np.ones_like(xs)])
    rhs = -(xs ** 2 + ys ** 2)
    sol, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
    if rank < 3:
        raise FitError("boundary points are collinear")
    d, e, f = sol
    cx, cy = -d / 2.0, -e / 2.0
    r2 = cx * cx + cy * cy - f
    if r2 <= 0:
        raise FitError("degenerate circle fit")
    return CylinderGeometry(center_xy=np.array([cx, cy]), radius=math.sqrt(r2))


# ---------------------------------------------------------------------------
# matching

_AXIS_3D = np.array([0.0, 0.0, 1.0])   # compression direction: +z (depth)
_AXIS_2D = np.array([0.0, -1.0, 0.0])  # compression direction: -y


def pair_matches(a: Bubble, b: Bubble, geom_a: CylinderGeometry,
                 geom_b: CylinderGeometry, crit: MatchCriteria,
                 two_d: bool) -> bool:
    """Evaluate all matching criteria for a candidate pair.

    1. volume change below the size-dependent tolerance;
    2. 0 < d_AB <= d_max and no radially inward motion (d_O1A <= d_O2B);
    3. motion has a positive component along the compression axis
       (z_A < z_B, or y_B < y_A for 2-D slices);
    4. tangential angle phi below phi_max (skipped for 2-D);
    5. alpha_min <= alpha <= alpha_max for the angle between the
       compression axis and the centroid shift.
    """
    eps = crit.epsilon_small if a.voxel_volume < crit.volume_split else crit.epsilon_large
    if abs(a.voxel_volume - b.voxel_volume) >= eps:
        return False
    delta = b.centroid - a.centroid
    d_ab = float(np.linalg.norm(delta))
    if not 0.0 < d_ab <= crit.d_max:
        return False
    if two_d:
        axis = _AXIS_2D
        d_oa = abs(a.centroid[0] - geom_a.center_xy[0])
        d_ob = abs(b.centroid[0] - geom_b.center_xy[0])
    else:
        axis = _AXIS_3D
        ra = a.centroid[:2] - geom_a.center_xy
        rb = b.centroid[:2] - geom_b.center_xy
        d_oa = float(np.linalg.norm(ra))
        d_ob = float(np.linalg.norm(rb))
    if d_oa > d_ob:
        return False
    axial = float(np.dot(delta, axis))
    if axial <= 0.0:
        return False
    if not two_d:
        if d_oa > 0 and d_ob > 0:
            cos_phi = np.clip(np.dot(ra, rb) / (d_oa * d_ob), -1.0, 1.0)
            phi = float(np.arccos(cos_phi))
        else:
            phi = 0.0
        if phi >= crit.phi_max:
            return False
    alpha = float(np.arccos(np.clip(axial / d_ab, -1.0, 1.0)))
    return crit.alpha_min <= alpha <= crit.alpha_max


def match_bubbles(a: list[Bubble], b: list[Bubble], geom_a: CylinderGeometry,
                  geom_b: CylinderGeometry, crit: MatchCriteria,
                  two_d: bool = False) -> list:
    """Match bubbles between two scans.

    Candidate pairs come from a k-d tree ball query with radius
    d_max * (1 + 1e-9), a superset of the pairs with d_AB <= d_max; each is
    then decided by `pair_matches`, visited in the order of a loop over a
    then b.  All admissible pairs are ranked by (d_AB, |V_A - V_B|, labels)
    with a stable sort and selected greedily so that every bubble appears in
    at most one sample.  The sample records the start centroid and the
    centroid shift, projected to 2 components for 2-D slices.
    """
    if not a or not b:
        return []
    tree_a = cKDTree(np.array([bub.centroid for bub in a]))
    tree_b = cKDTree(np.array([bub.centroid for bub in b]))
    near = tree_a.query_ball_tree(tree_b, crit.d_max * (1.0 + 1e-9))
    candidates = []
    for bub_a, js in zip(a, near):
        for j in sorted(js):
            bub_b = b[j]
            if pair_matches(bub_a, bub_b, geom_a, geom_b, crit, two_d):
                d_ab = float(np.linalg.norm(bub_b.centroid - bub_a.centroid))
                dv = abs(bub_a.voxel_volume - bub_b.voxel_volume)
                candidates.append((d_ab, dv, bub_a.label, bub_b.label, bub_a, bub_b))
    candidates.sort(key=lambda t: t[:4])
    used_a, used_b = set(), set()
    samples = []
    dim = 2 if two_d else 3
    for d_ab, dv, la, lb, bub_a, bub_b in candidates:
        if la in used_a or lb in used_b:
            continue
        used_a.add(la)
        used_b.add(lb)
        shift = bub_b.centroid - bub_a.centroid
        samples.append(DisplacementSample(position=bub_a.centroid[:dim].copy(),
                                          displacement=shift[:dim].copy()))
    return samples


def detect(v: Volume, crit: MatchCriteria, top_fraction: float,
           presmooth_sigma: float):
    """Detection half of the pipeline: returns (bubbles, geometry)."""
    smooth = gaussian_filter(normalize_intensity(v), presmooth_sigma)
    mask = binarize_quantile(smooth.data, top_fraction)
    bubbles = extract_bubbles(connected_components(mask), crit.min_voxels)
    return bubbles, fit_circle(mask.any(axis=0))


def _check_detection(top_fraction: float, presmooth_sigma: float) -> None:
    if not 0.0 < top_fraction < 1.0:
        raise DomainError("top_fraction must lie strictly between 0 and 1")
    if not 0.0 <= presmooth_sigma < math.inf:
        raise DomainError("presmooth_sigma must be finite and nonnegative")


def run_tracking(v1: Volume, v2: Volume, crit: MatchCriteria,
                 top_fraction: float = 0.01,
                 presmooth_sigma: float = 0.9) -> list:
    """Full tracking pipeline on a pre/post compression pair.

    Each volume is normalized, smoothed, binarized and decomposed into
    bubbles; the per-volume circle fit supplies the axis estimate, and the
    surviving bubbles are matched.  All-zero volumes yield no samples; the
    settings are checked first, so a featureless pair rejects the same bad
    settings as a textured one.
    """
    if (v1.nx, v1.ny, v1.nz) != (v2.nx, v2.ny, v2.nz):
        raise ShapeMismatch("volumes must share extents")
    _check_detection(top_fraction, presmooth_sigma)
    check_filter_width(presmooth_sigma, v1.data.shape)
    two_d = v1.nz == 1
    try:
        bubbles1, geom1 = detect(v1, crit, top_fraction, presmooth_sigma)
        bubbles2, geom2 = detect(v2, crit, top_fraction, presmooth_sigma)
    except (ConstantField, FitError):
        # featureless scan: nothing to detect, hence nothing to match
        return []
    if not bubbles1 or not bubbles2:
        return []
    return match_bubbles(bubbles1, bubbles2, geom1, geom2, crit, two_d=two_d)


# ---------------------------------------------------------------------------
# samples CSV

_CSV_HEADER = "x,y,z,ux,uy,uz"


def write_samples_csv(path, samples) -> None:
    """Write samples with 17 significant digits; 2-D samples get z = uz = 0."""
    lines = [_CSV_HEADER]
    for s in samples:
        p = np.zeros(3)
        u = np.zeros(3)
        p[:s.position.shape[0]] = s.position
        u[:s.displacement.shape[0]] = s.displacement
        lines.append(",".join(f"{v:.17g}" for v in (*p, *u)))
    write_lines(path, lines)


def read_samples_csv(path) -> list:
    return [DisplacementSample(position=np.array(vals[:3]), displacement=np.array(vals[3:]))
            for vals in read_table(path, _CSV_HEADER, [finite_float] * 6)]


def tracking_config(path):
    """Read a tracking config: MatchCriteria fields plus the pipeline's
    top_fraction and presmooth_sigma."""
    cfg = read_config(path, "tracking", MatchCriteria,
                      {"top_fraction": float, "presmooth_sigma": float})
    top_fraction = cfg.pop("top_fraction", 0.01)
    presmooth_sigma = cfg.pop("presmooth_sigma", 0.9)
    with naming_path(path):
        _check_detection(top_fraction, presmooth_sigma)
        return MatchCriteria(**cfg), top_fraction, presmooth_sigma
