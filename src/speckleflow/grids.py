"""Regular-grid field containers, derivative stencils, Gaussian filtering,
and the image pyramid used by the rest of the package.

Conventions
-----------
ScalarGrid data is stored as an (ny, nx) float array, VectorGrid data as
(ny, nx, 2) with components (u1, u2) = (x, y), and Volume data as
(nz, ny, nx).  Index order is therefore row-major with x fastest, matching
the on-disk F64GRID layout.  The y axis points from row 0 ("bottom") to row
ny-1 ("top").  Every length is measured in pixels: positions,
displacements and derivatives alike.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConstantField, DomainError, FormatError, GridTooSmall, ShapeMismatch

__all__ = [
    "ScalarGrid",
    "VectorGrid",
    "Volume",
    "normalize_intensity",
    "gaussian_filter",
    "check_filter_width",
    "pyramid_sigma",
    "downsample",
    "prolong",
    "spatial_gradient",
    "temporal_difference",
    "bilinear_sample",
    "gaussian_profiles",
    "read_f64grid",
    "write_f64grid",
]


def _check_finite(data, what):
    if not np.all(np.isfinite(data)):
        raise DomainError(f"{what} contains non-finite values")


@dataclass
class ScalarGrid:
    """Scalar field sampled on a regular nx-by-ny pixel grid."""

    nx: int
    ny: int
    data: np.ndarray

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise DomainError("grid extents must be positive")
        self.data = np.asarray(self.data, dtype=np.float64).reshape(self.ny, self.nx)
        _check_finite(self.data, "ScalarGrid")


@dataclass
class VectorGrid:
    """Two-component displacement field on a regular pixel grid."""

    nx: int
    ny: int
    data: np.ndarray

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise DomainError("grid extents must be positive")
        self.data = np.asarray(self.data, dtype=np.float64).reshape(self.ny, self.nx, 2)
        _check_finite(self.data, "VectorGrid")

    @classmethod
    def zeros(cls, nx, ny):
        return cls(nx, ny, np.zeros((ny, nx, 2)))


@dataclass
class Volume:
    """Scalar voxel volume; nz = 1 is the 2-D degenerate case."""

    nx: int
    ny: int
    nz: int
    data: np.ndarray

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise DomainError("volume extents must be positive")
        self.data = np.asarray(self.data, dtype=np.float64).reshape(self.nz, self.ny, self.nx)
        _check_finite(self.data, "Volume")

    @classmethod
    def from_array(cls, arr):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.ndim != 3:
            raise ShapeMismatch(f"expected 2-D or 3-D array, got shape {arr.shape}")
        return cls(nx=arr.shape[2], ny=arr.shape[1], nz=arr.shape[0], data=arr)

    @classmethod
    def _finite(cls, data: np.ndarray) -> "Volume":
        """Wrap (nz, ny, nx) float64 data that this module computed from a
        Volume and knows to be finite, without scanning it again."""
        v = cls.__new__(cls)
        v.nz, v.ny, v.nx = data.shape
        v.data = data
        return v


# ---------------------------------------------------------------------------
# intensity pre-processing


def normalize_intensity(v: Volume) -> Volume:
    """Rescale a volume's brightness to span exactly [0, 1].

    Constant input has no dynamic range and is rejected.
    """
    data = v.data
    lo = float(data.min())
    hi = float(data.max())
    if hi == lo:
        raise ConstantField("cannot rescale a constant field to [0, 1]")
    if not math.isfinite(hi - lo):
        raise DomainError("intensity range exceeds the float64 range")
    # one copy of the input, rescaled in place; with a finite range every
    # value lands in [0, 1]
    out = data - lo
    out /= hi - lo
    return Volume._finite(out)


def check_filter_width(sigma: float, extents) -> None:
    """`DomainError` unless a Gaussian of width sigma fits the data: sigma
    must not exceed the longest of the extents that are filtered (those
    above 1), which also bounds the kernel's length."""
    filtered = [n for n in extents if n > 1]
    if filtered and sigma > max(filtered):
        raise DomainError(f"smoothing width {sigma:g} exceeds the longest "
                          f"extent {max(filtered)} it filters")


def gaussian_filter(v: Volume, sigma: float) -> Volume:
    """Separable Gaussian smoothing with reflect padding.

    The kernel is truncated at radius ceil(4*sigma) and renormalized to unit
    sum, so constant fields pass through unchanged.  sigma = 0 is the
    identity; a sigma wider than the longest filtered axis is rejected
    (`check_filter_width`).  Axes of extent 1 are not filtered.  The result,
    a unit-sum average of finite values, is not scanned for finiteness
    again: only input within a rounding of the float64 limit could
    overflow, and `downsample` checks its own result.
    """
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    check_filter_width(sigma, v.data.shape)
    axes = [axis for axis, n in enumerate(v.data.shape) if n > 1]
    return Volume._finite(ndimage.gaussian_filter(
        v.data, sigma, mode="reflect", radius=math.ceil(4.0 * sigma), axes=axes))


# ---------------------------------------------------------------------------
# image pyramid


def pyramid_sigma(eta: float, sigma0: float) -> float:
    """Smoothing width used before downsampling by the factor eta."""
    if not 0.0 < eta < 1.0:
        raise DomainError("eta must lie in (0, 1)")
    if sigma0 <= 0:
        raise DomainError("sigma0 must be positive")
    return sigma0 * math.sqrt(eta ** -2 - 1.0)


def gaussian_profiles(centers, sigmas, n: int) -> np.ndarray:
    """exp(-(j - c)^2 / (2 sigma^2)) at the pixels j = 0..n-1, one row per
    center c; `sigmas` is one width or one per center.  A sum of separable
    2-D Gaussians is then the product `gy.T @ gx` of two such arrays."""
    s = np.reshape(sigmas, (-1, 1))
    inv = 1.0 / (2.0 * s * s)
    return np.exp(-((np.arange(n) - np.reshape(centers, (-1, 1))) ** 2) * inv)


def bilinear_sample(arr: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a 2-D array at fractional pixel coordinates.

    Coordinates are clamped to the valid range, so queries outside the grid
    return the nearest border value.
    """
    ny, nx = arr.shape[:2]
    xs = np.clip(xs, 0.0, nx - 1.0)
    ys = np.clip(ys, 0.0, ny - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, nx - 1)
    y1 = np.minimum(y0 + 1, ny - 1)
    fx = xs - x0
    fy = ys - y0
    if arr.ndim == 3:
        fx = fx[..., None]
        fy = fy[..., None]
    return ((1 - fx) * (1 - fy) * arr[y0, x0]
            + fx * (1 - fy) * arr[y0, x1]
            + (1 - fx) * fy * arr[y1, x0]
            + fx * fy * arr[y1, x1])


def _resample(arr: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Bilinear resampling of `arr` to nx x ny on corner-aligned grids:
    target pixel j samples the source at coordinate j * (n_src / n_dst)."""
    gx, gy = np.meshgrid(np.arange(nx) * (arr.shape[1] / nx),
                         np.arange(ny) * (arr.shape[0] / ny))
    return bilinear_sample(arr, gx, gy)


def downsample(g: ScalarGrid, eta: float, sigma0: float) -> ScalarGrid:
    """One pyramid level: Gaussian pre-smoothing, then bilinear resampling
    to round(eta * n) extents.

    The grids are corner-aligned: the coarse image at position eta*x
    samples the smoothed fine image at x.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError("eta must lie in (0, 1)")
    mx = int(round(eta * g.nx))
    my = int(round(eta * g.ny))
    if mx < 2 or my < 2:
        raise GridTooSmall(f"downsampled extents {mx}x{my} are below 2x2")
    smoothed = gaussian_filter(Volume.from_array(g.data), pyramid_sigma(eta, sigma0))
    return ScalarGrid(mx, my, _resample(smoothed.data[0], mx, my))


def prolong(u: VectorGrid, nx: int, ny: int, scale: float) -> VectorGrid:
    """Transfer a displacement field to a finer grid.

    Both components are interpolated bilinearly (corner-aligned, matching
    :func:`downsample`) and the vectors are multiplied by ``scale`` so that
    pixel-unit displacements stay consistent across levels.
    """
    if nx < u.nx or ny < u.ny:
        raise DomainError("prolongation target must not be smaller than the source")
    return VectorGrid(nx, ny, scale * _resample(u.data, nx, ny))


# ---------------------------------------------------------------------------
# derivatives


def spatial_gradient(g: ScalarGrid) -> VectorGrid:
    """Gradient by central differences, one-sided at the borders."""
    if g.nx < 2 or g.ny < 2:
        raise GridTooSmall(f"a gradient needs at least 2x2 pixels, got {g.nx}x{g.ny}")
    dy, dx = np.gradient(g.data)
    return VectorGrid(g.nx, g.ny, np.stack([dx, dy], axis=-1))


def temporal_difference(i1: ScalarGrid, i2: ScalarGrid) -> ScalarGrid:
    """Backward difference quotient between two frames: I2 - I1."""
    if (i1.nx, i1.ny) != (i2.nx, i2.ny):
        raise ShapeMismatch(
            f"extent mismatch: {i1.nx}x{i1.ny} vs {i2.nx}x{i2.ny}")
    return ScalarGrid(i1.nx, i1.ny, i2.data - i1.data)


# ---------------------------------------------------------------------------
# F64GRID file format
#
# ASCII header `F64GRID <ncomp> <nx> <ny> <nz>\n` followed by
# ncomp*nx*ny*nz little-endian float64, component-innermost, row-major,
# z outermost.

_MAGIC = b"F64GRID"

# The three kinds of F64GRID file and the ncomp of each.  Only a Volume has
# nz > 1; a header is of the first kind it fits, so an ncomp = 1, nz = 1
# file is a ScalarGrid, which also reads as a one-slice Volume.
_NCOMP = {ScalarGrid: 1, VectorGrid: 2, Volume: 1}


def _fits(kind, ncomp: int, nz: int) -> bool:
    return _NCOMP[kind] == ncomp and (nz == 1 or kind is Volume)


def write_f64grid(path, obj) -> None:
    """Serialize a ScalarGrid, VectorGrid or Volume to the F64GRID binary
    format."""
    if type(obj) not in _NCOMP:
        raise DomainError(f"cannot serialize {type(obj).__name__} as F64GRID")
    nz = getattr(obj, "nz", 1)
    header = f"F64GRID {_NCOMP[type(obj)]} {obj.nx} {obj.ny} {nz}\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(obj.data, dtype="<f8").tobytes())


def read_f64grid(path, kind=None):
    """Read an F64GRID file as the `kind` given (ScalarGrid, VectorGrid or
    Volume), or as the kind its header names when `kind` is None.

    Malformed input raises FormatError carrying the byte offset of the
    failure; a file that is not of `kind` fails at offset 8, its ncomp,
    with a message naming the path and both kinds.
    """
    with open(path, "rb") as f:
        line = f.readline()
        got = os.fstat(f.fileno()).st_size - len(line)  # payload bytes
    if not line.endswith(b"\n"):
        raise FormatError("missing header newline", offset=len(line))
    parts = line[:-1].split(b" ")
    if len(parts) != 5 or parts[0] != _MAGIC:
        raise FormatError("bad F64GRID header", offset=0)
    ext_offset = len(_MAGIC) + 1
    try:
        ncomp, nx, ny, nz = (int(p) for p in parts[1:])
    except ValueError:
        raise FormatError("non-integer extent in header", offset=ext_offset)
    found = next((k for k in _NCOMP if _fits(k, ncomp, nz)), None)
    if found is None or min(nx, ny, nz) < 1:
        raise FormatError("inadmissible extents in header", offset=ext_offset)
    if kind is not None and not _fits(kind, ncomp, nz):
        raise FormatError(f"{path}: expected a {kind.__name__}, found a {found.__name__}",
                          offset=ext_offset)
    kind = kind or found
    start = len(line)
    count = ncomp * nx * ny * nz
    need = count * 8
    if got < need:
        raise FormatError(f"payload truncated: expected {need} bytes, found {got}",
                          offset=start + got)
    if got > need:
        raise FormatError("trailing bytes after payload", offset=start + need)
    data = np.fromfile(path, dtype="<f8", count=count, offset=start)
    extents = (nx, ny, nz) if kind is Volume else (nx, ny)
    try:
        return kind(*extents, data)
    except DomainError:  # the container's finiteness check, the only scan
        bad = int(np.flatnonzero(~np.isfinite(data))[0])
        raise FormatError("non-finite value in payload", offset=start + 8 * bad) from None
