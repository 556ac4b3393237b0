import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from speckleflow import speckle
from speckleflow.errors import ConstantField, DomainError, FitError, FormatError
from speckleflow.grids import Volume, gaussian_filter, normalize_intensity
from speckleflow.speckle import (Bubble, CylinderGeometry, DisplacementSample,
                                 MatchCriteria, binarize_quantile,
                                 connected_components, extract_bubbles,
                                 fit_circle, match_bubbles, pair_matches,
                                 read_samples_csv, run_tracking,
                                 tracking_config, write_samples_csv)

# ---------------------------------------------------------------------------
# oracles


def flood_fill_labels(mask: np.ndarray) -> np.ndarray:
    """Brute-force 26-connectivity labeling, labels ordered by first voxel."""
    mask = mask.astype(bool)
    labels = np.zeros(mask.shape, dtype=np.int64)
    nz, ny, nx = mask.shape
    next_label = 0
    offsets = [(dz, dy, dx)
               for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
               if (dz, dy, dx) != (0, 0, 0)]
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if not mask[z, y, x] or labels[z, y, x]:
                    continue
                next_label += 1
                stack = [(z, y, x)]
                labels[z, y, x] = next_label
                while stack:
                    cz, cy, cx = stack.pop()
                    for dz, dy, dx in offsets:
                        pz, py, px = cz + dz, cy + dy, cx + dx
                        if 0 <= pz < nz and 0 <= py < ny and 0 <= px < nx \
                                and mask[pz, py, px] and not labels[pz, py, px]:
                            labels[pz, py, px] = next_label
                            stack.append((pz, py, px))
    return labels


def float_coded_detect(v, crit, top_fraction, presmooth_sigma):
    """Detection as done with float-coded volumes: a float 0/1 mask, a float
    label volume, and its int64 cast read label by label."""
    smooth = gaussian_filter(normalize_intensity(v), presmooth_sigma)
    threshold = np.quantile(smooth.data, 1.0 - top_fraction)
    binary = Volume(v.nx, v.ny, v.nz, (smooth.data > threshold).astype(np.float64))
    labels, _ = ndimage.label(binary.data != 0, structure=np.ones((3, 3, 3), dtype=int))
    lab = Volume(v.nx, v.ny, v.nz, labels.astype(np.float64)).data.astype(np.int64)
    count = int(lab.max())
    bubbles = []
    if count:
        sizes = np.bincount(lab.ravel(), minlength=count + 1)
        zz, yy, xx = np.nonzero(lab)
        vals = lab[zz, yy, xx]
        sx = np.bincount(vals, weights=xx, minlength=count + 1)
        sy = np.bincount(vals, weights=yy, minlength=count + 1)
        sz = np.bincount(vals, weights=zz, minlength=count + 1)
        for k in range(1, count + 1):
            if sizes[k] >= crit.min_voxels and sizes[k] > 0:
                c = np.array([sx[k], sy[k], sz[k]]) / sizes[k]
                bubbles.append(Bubble(label=k, centroid=c, voxel_volume=int(sizes[k])))
    return bubbles, fit_circle((binary.data != 0).any(axis=0))


def two_scan_extract_bubbles(labels, min_voxels):
    """Extraction as done with two full-volume scans: a bincount of every
    voxel, then the coordinates of every nonzero voxel."""
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0  # background
    zz, yy, xx = np.nonzero(labels)
    vals = labels[zz, yy, xx]
    keep = np.flatnonzero(sizes >= max(min_voxels, 1))
    sums = np.column_stack([np.bincount(vals, weights=w, minlength=sizes.size)[keep]
                            for w in (xx, yy, zz)])
    centroids = sums / sizes[keep, None]
    return [Bubble(label=int(k), centroid=c, voxel_volume=int(sizes[k]))
            for k, c in zip(keep, centroids)]


def bubble_bytes(bubbles):
    return [(b.label, b.centroid.tobytes(), b.voxel_volume) for b in bubbles]


def circle_through_three(p1, p2, p3):
    """Closed-form circumcircle of three points."""
    ax, ay = p1
    bx, by = p2
    cx, cy = p3
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax ** 2 + ay ** 2) * (by - cy) + (bx ** 2 + by ** 2) * (cy - ay)
          + (cx ** 2 + cy ** 2) * (ay - by)) / d
    uy = ((ax ** 2 + ay ** 2) * (cx - bx) + (bx ** 2 + by ** 2) * (ax - cx)
          + (cx ** 2 + cy ** 2) * (bx - ax)) / d
    r = np.hypot(ax - ux, ay - uy)
    return np.array([ux, uy]), r


def all_pairs_match(a, b, geom_a, geom_b, crit, two_d=False):
    """Matching by testing every pair, as before candidate generation."""
    candidates = []
    for bub_a in a:
        for bub_b in b:
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


# ---------------------------------------------------------------------------


class TestBinarize:
    def test_two_largest_of_ten(self):
        vals = np.arange(0.1, 1.05, 0.1).reshape(1, 2, 5)
        out = binarize_quantile(vals, 0.2)
        # sort-based oracle: exactly the 2 largest survive
        thresh_rank = np.sort(vals.ravel())[-2]
        assert out.dtype == bool
        np.testing.assert_array_equal(out, vals >= thresh_rank)
        assert out.sum() == 2

    def test_constant_all_zero(self):
        assert not binarize_quantile(np.full((1, 4, 4), 2.0), 0.01).any()

    def test_quantile_arithmetic_1000(self):
        rng = np.random.default_rng(0)
        vals = rng.permutation(np.linspace(0.0, 1.0, 1000)).reshape(10, 10, 10)
        out = binarize_quantile(vals, 0.005)
        assert out.sum() == 5
        top5 = np.sort(vals.ravel())[-5:]
        assert np.all(np.isin(vals[out], top5))

    def test_degenerate_fraction(self):
        vals = np.random.default_rng(1).random((1, 3, 3))
        for f in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                binarize_quantile(vals, f)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31), st.floats(0.01, 0.5))
    def test_count_bound_and_group_ties(self, seed, frac):
        rng = np.random.default_rng(seed)
        vals = rng.integers(0, 10, size=(4, 4, 4)).astype(float)
        ones = binarize_quantile(vals, frac)
        # ties at a value are kept or dropped as a whole group
        if ones.any():
            kept_min = vals[ones].min()
            assert not np.any(vals[~ones] > kept_min)


@st.composite
def _quantile_inputs(draw):
    """Arrays of 1 to about 250k values, 2-D slices (nz = 1) among them,
    continuous or with few distinct values, and a fraction down to 1/n."""
    shape = draw(st.one_of(
        st.tuples(st.sampled_from([1, 1, 2, 5]), st.integers(1, 30), st.integers(1, 30)),
        st.sampled_from([(1, 1, 1), (1, 1, 2), (1, 300, 700), (6, 120, 300), (96, 48, 56)])))
    n = math.prod(shape)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["uniform", "few", "sparse"]))
    if kind == "uniform":
        x = rng.random(shape)
    elif kind == "few":  # ties at the threshold
        x = rng.integers(0, draw(st.integers(1, 5)), size=shape).astype(float)
    else:  # a dark background with a few bright voxels, as in OCT volumes
        x = np.where(rng.random(shape) < 0.01, 1.0 + rng.random(shape), 0.0)
    lowest = 1.0 / max(n, 2)
    f = draw(st.one_of(st.just(lowest), st.sampled_from([0.02, 0.5]),
                       st.floats(lowest, 0.999)))
    return x, f


class TestQuantileThreshold:
    @settings(max_examples=150, deadline=None)
    @given(_quantile_inputs())
    def test_equals_numpy_quantile(self, case):
        x, f = case
        want = np.quantile(x, 1.0 - f)
        assert speckle._upper_quantile(x, 1.0 - f) == want
        np.testing.assert_array_equal(binarize_quantile(x, f), x > want)

    def test_interpolation_rounds_as_numpy(self):
        # for gamma >= 0.5 numpy interpolates down from the upper neighbour;
        # the two forms differ in the last bit for about 3% of these cases
        rng = np.random.default_rng(10)
        for _ in range(400):
            x = rng.random((1, 1, 7))
            q = 1.0 - rng.uniform(0.01, 0.6)
            assert speckle._upper_quantile(x, q) == np.quantile(x, q)

    def _counting_quantile(self, monkeypatch):
        calls = []
        quantile = np.quantile

        def counting(*args, **kwargs):
            calls.append(args)
            return quantile(*args, **kwargs)

        monkeypatch.setattr(np, "quantile", counting)
        return quantile, calls

    def test_selects_without_numpy_quantile(self, monkeypatch):
        x = np.random.default_rng(3).random((8, 160, 160))
        quantile, calls = self._counting_quantile(monkeypatch)
        np.testing.assert_array_equal(binarize_quantile(x, 0.02),
                                      x > quantile(x, 0.98))
        assert calls == []

    def test_falls_back_when_the_sample_misses_the_bright_voxels(self, monkeypatch):
        # every sampled voxel reads 0.5, above all unsampled dark voxels, so
        # the bound leaves fewer candidates than the ranks above the quantile
        n = 200_000
        rng = np.random.default_rng(4)
        x = 0.4 * rng.random(n)
        stride = n // speckle._QUANTILE_SAMPLE
        x[::stride] = 0.5
        bright = rng.choice(np.flatnonzero(np.arange(n) % stride), 300, replace=False)
        x[bright] = 1.0
        x = x.reshape(1, 400, 500)
        quantile, calls = self._counting_quantile(monkeypatch)
        np.testing.assert_array_equal(binarize_quantile(x, 0.5), x > quantile(x, 0.5))
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_follow_numpy(self, bad):
        x = np.random.default_rng(5).random((2, 50, 60))
        for index in (0, 5999):  # a dark or a bright voxel
            y = x.copy()
            y.ravel()[index] = bad
            np.testing.assert_array_equal(binarize_quantile(y, 0.02),
                                          y > np.quantile(y, 0.98))

    def test_non_float64_data_uses_numpy(self):
        x = np.random.default_rng(6).integers(0, 7, size=(3, 40, 40))
        for data in (x, x.astype(np.float32)):
            np.testing.assert_array_equal(binarize_quantile(data, 0.1),
                                          data > np.quantile(data, 0.9))


class TestConnectedComponents:
    def test_two_isolated_voxels(self):
        m = np.zeros((1, 5, 5), dtype=bool)
        m[0, 0, 0] = m[0, 4, 4] = True
        labels = connected_components(m)
        assert labels.dtype.kind == "i"
        assert labels.max() == 2

    def test_diagonal_touch_is_connected(self):
        m = np.zeros((3, 3, 3), dtype=bool)
        m[0, 0, 0] = m[1, 1, 1] = True
        assert connected_components(m).max() == 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_matches_flood_fill_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((6, 6, 6)) < 0.3
        np.testing.assert_array_equal(connected_components(mask), flood_fill_labels(mask))

    def test_16cubed_random(self):
        rng = np.random.default_rng(7)
        mask = rng.random((16, 16, 16)) < 0.2
        np.testing.assert_array_equal(connected_components(mask), flood_fill_labels(mask))


class TestExtractBubbles:
    def test_block_centroid(self):
        m = np.zeros((1, 4, 4), dtype=bool)
        m[0, 0:2, 0:2] = True
        bubbles = extract_bubbles(connected_components(m), min_voxels=1)
        assert len(bubbles) == 1
        np.testing.assert_allclose(bubbles[0].centroid, [0.5, 0.5, 0.0])
        assert bubbles[0].voxel_volume == 4

    def test_min_voxels_floor(self):
        m = np.zeros((5, 5, 5), dtype=bool)
        m.ravel()[:79] = True  # one raster-connected run of 79 voxels
        labels = connected_components(m)
        assert extract_bubbles(labels, min_voxels=80) == []
        assert len(extract_bubbles(labels, min_voxels=79)) == 1

    def test_no_components(self):
        assert extract_bubbles(np.zeros((2, 3, 3), dtype=np.int32), min_voxels=0) == []

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.02, 0.5), st.integers(0, 6))
    def test_matches_two_scan_oracle(self, seed, density, min_voxels):
        rng = np.random.default_rng(seed)
        labels = connected_components(rng.random((40, 50, 60)) < density)
        assert bubble_bytes(extract_bubbles(labels, min_voxels)) == \
            bubble_bytes(two_scan_extract_bubbles(labels, min_voxels))

    def test_unused_labels_match_two_scan_oracle(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 40, size=(30, 60, 70)) * 3  # 1, 2, 4, ... unused
        labels[rng.random(labels.shape) < 0.9] = 0
        for min_voxels in (0, 1, 50):
            assert bubble_bytes(extract_bubbles(labels, min_voxels)) == \
                bubble_bytes(two_scan_extract_bubbles(labels, min_voxels))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_all_background_matches_two_scan_oracle(self, dtype):
        labels = np.zeros((20, 70, 80), dtype=dtype)
        assert extract_bubbles(labels, 0) == two_scan_extract_bubbles(labels, 0) == []

    def test_volumes_match_oracle_counts(self):
        rng = np.random.default_rng(11)
        mask = rng.random((12, 12, 12)) < 0.25
        bubbles = extract_bubbles(connected_components(mask), min_voxels=1)
        oracle = flood_fill_labels(mask)
        counts = np.bincount(oracle.ravel())
        for b in bubbles:
            assert b.voxel_volume == counts[b.label]
        assert len(bubbles) == oracle.max()


@st.composite
def _integer_volumes(draw):
    nz = draw(st.sampled_from([1, 1, 2, 3, 5]))  # nz = 1, the 2-D case, twice as often
    shape = (nz, draw(st.integers(3, 12)), draw(st.integers(3, 12)))
    vals = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 4)))
    return Volume.from_array(vals)


def _render_blobs(shape, centers, sigma=1.6):
    """Volume of unit-height Gaussian blobs at (x, y, z) centers."""
    nz, ny, nx = shape
    zz, yy, xx = np.mgrid[0:nz, 0:ny, 0:nx].astype(float)
    img = np.zeros(shape)
    for cx, cy, cz in centers:
        img += np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2 + (zz - cz) ** 2) / (2 * sigma ** 2))
    return Volume(nx, ny, nz, img)


def _render_separable_blobs(shape, centers, sigma=1.6):
    """`_render_blobs` for large volumes: each blob is an outer product of
    three 1-D Gaussians."""
    nz, ny, nx = shape
    img = np.zeros(shape)
    for cx, cy, cz in centers:
        gx, gy, gz = (np.exp(-(np.arange(n) - c) ** 2 / (2 * sigma ** 2))
                      for n, c in ((nx, cx), (ny, cy), (nz, cz)))
        img += gz[:, None, None] * gy[:, None] * gx
    return Volume(nx, ny, nz, img)


class TestDetect:
    @settings(max_examples=300, deadline=None)
    @given(_integer_volumes(), st.sampled_from([0.05, 0.2, 0.5, 0.9]),
           st.sampled_from([0.0, 0.5, 0.9]), st.integers(0, 4))
    def test_matches_float_coded_oracle(self, v, top_fraction, sigma, min_voxels):
        # few distinct integer values, so the quantile threshold often ties
        crit = MatchCriteria(min_voxels=min_voxels)

        def outcome(fn):
            try:
                bubbles, geom = fn(v, crit, top_fraction, sigma)
            except (ConstantField, FitError) as exc:
                return type(exc)
            return ([(b.label, b.centroid.tobytes(), b.voxel_volume) for b in bubbles],
                    geom.center_xy.tobytes(), np.float64(geom.radius).tobytes())

        assert outcome(speckle.detect) == outcome(float_coded_detect)

    def test_large_blob_volume_matches_float_coded_oracle(self):
        centers = np.random.default_rng(9).uniform((4, 4, 4), (124, 124, 60), size=(150, 3))
        v = _render_separable_blobs((64, 128, 128), centers)
        crit = MatchCriteria()
        got_bubbles, got_geom = speckle.detect(v, crit, 0.02, 0.9)
        want_bubbles, want_geom = float_coded_detect(v, crit, 0.02, 0.9)
        assert len(got_bubbles) > 50
        assert bubble_bytes(got_bubbles) == bubble_bytes(want_bubbles)
        assert got_geom.center_xy.tobytes() == want_geom.center_xy.tobytes()
        assert got_geom.radius == want_geom.radius

    def test_peak_memory(self):
        # the float-coded path held a float 0/1 mask, float labels and their
        # int64 cast next to the smoothed copy: about 5x the input's bytes
        centers = np.random.default_rng(2).uniform((4, 4, 4), (60, 60, 28), size=(40, 3))
        v = _render_blobs((32, 64, 64), centers)
        tracemalloc.start()
        try:
            bubbles, _ = speckle.detect(v, MatchCriteria(), 0.02, 0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bubbles
        assert peak <= 4 * v.data.nbytes


class TestFitCircle:
    def test_rasterized_circle(self):
        n = 64
        ys, xs = np.mgrid[0:n, 0:n]
        mask = (xs - 32.0) ** 2 + (ys - 32.0) ** 2 <= 20.0 ** 2
        geom = fit_circle(mask)
        assert np.all(np.abs(geom.center_xy - 32.0) < 0.5)
        assert abs(geom.radius - 20.0) < 0.5

    def test_full_grid_center(self):
        geom = fit_circle(np.ones((21, 31)))
        np.testing.assert_allclose(geom.center_xy, [15.0, 10.0], atol=1e-9)

    def test_three_points_exact(self):
        center = np.array([12.3, -4.5])
        radius = 7.25
        angles = [0.3, 1.9, 4.0]
        mask_pts = [center + radius * np.array([np.cos(a), np.sin(a)])
                    for a in angles]
        # feed the points directly through the boundary-extraction path:
        # a mask with 3 isolated pixels has those pixels as its boundary
        oracle_c, oracle_r = circle_through_three(*mask_pts)
        np.testing.assert_allclose(oracle_c, center, atol=1e-9)
        # build a tiny mask at integer positions on a known circle instead
        c2, r2 = circle_through_three((0, 5), (5, 0), (0, -5))
        mask = np.zeros((11, 11))
        mask[5 + 5, 5] = mask[5, 5 + 5] = mask[5 - 5, 5] = 1  # (0,5),(5,0),(0,-5) about (5,5)... offset
        geom = fit_circle(mask)
        np.testing.assert_allclose(geom.center_xy, [5.0, 5.0], atol=1e-9)
        np.testing.assert_allclose(geom.radius, 5.0, atol=1e-9)

    def test_too_few_points(self):
        mask = np.zeros((5, 5))
        mask[2, 2] = 1
        with pytest.raises(FitError):
            fit_circle(mask)

    def test_collinear_points(self):
        mask = np.zeros((5, 9))
        mask[2, 1] = mask[2, 4] = mask[2, 7] = 1
        with pytest.raises(FitError):
            fit_circle(mask)


def _geom(cx=0.0, cy=0.0, r=50.0):
    return CylinderGeometry(center_xy=np.array([cx, cy]), radius=r)


def _crit(**kw):
    defaults = dict(epsilon_small=5.0, epsilon_large=5.0, volume_split=300,
                    d_max=10.0, phi_max=0.2, alpha_min=0.0, alpha_max=0.6,
                    min_voxels=1)
    defaults.update(kw)
    return MatchCriteria(**defaults)


def _lattice_bubbles(two_d):
    coord = st.integers(0, 4)
    z = st.just(0) if two_d else coord
    bubble = st.builds(Bubble, label=st.integers(1, 3),
                       centroid=st.tuples(coord, coord, z),
                       voxel_volume=st.integers(1, 4))
    return st.lists(bubble, max_size=12)


@st.composite
def _matching_instances(draw):
    two_d = draw(st.booleans())
    a = draw(_lattice_bubbles(two_d))
    b = draw(_lattice_bubbles(two_d))
    d_max = draw(st.sampled_from([0.0, 1.0, 2.0, math.sqrt(2.0), 5.0, math.inf]))
    crit = _crit(epsilon_small=3.0, epsilon_large=3.0, d_max=d_max,
                 phi_max=draw(st.sampled_from([0.2, 1.0, 3.2])),
                 alpha_max=draw(st.sampled_from([0.6, 1.0, 1.6])))
    return a, b, _geom(2.0, 2.0), _geom(2.0, 2.0), crit, two_d


class TestMatchCriteria:
    @pytest.mark.parametrize("name", ["epsilon_small", "epsilon_large", "d_max",
                                      "phi_max", "alpha_min", "alpha_max"])
    def test_nan_rejected(self, name):
        with pytest.raises(DomainError):
            MatchCriteria(**{name: math.nan})


class TestBubble:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_centroid_rejected(self, bad):
        with pytest.raises(DomainError):
            Bubble(label=1, centroid=[1.0, bad, 2.0], voxel_volume=5)


class TestDisplacementSample:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["position", "displacement"])
    def test_non_finite_values_rejected(self, bad, where):
        values = {"position": [1.0, 2.0, 3.0], "displacement": [0.5, -0.5, 0.0]}
        values[where][1] = bad
        with pytest.raises(DomainError, match="^sample values must be finite$"):
            DisplacementSample(**values)


def eager_pair_matches(a, b, geom_a, geom_b, crit, two_d):
    """`pair_matches` as it was when every distance and angle was computed
    before any criterion was tested."""
    delta = b.centroid - a.centroid
    d_ab = float(np.linalg.norm(delta))
    if two_d:
        axis = np.array([0.0, -1.0, 0.0])
        d_oa = abs(a.centroid[0] - geom_a.center_xy[0])
        d_ob = abs(b.centroid[0] - geom_b.center_xy[0])
        phi = 0.0
    else:
        axis = np.array([0.0, 0.0, 1.0])
        ra = a.centroid[:2] - geom_a.center_xy
        rb = b.centroid[:2] - geom_b.center_xy
        d_oa = float(np.linalg.norm(ra))
        d_ob = float(np.linalg.norm(rb))
        if d_oa > 0 and d_ob > 0:
            phi = float(np.arccos(np.clip(np.dot(ra, rb) / (d_oa * d_ob), -1.0, 1.0)))
        else:
            phi = 0.0
    axial = float(np.dot(delta, axis))
    alpha = float(np.arccos(np.clip(axial / d_ab, -1.0, 1.0))) if d_ab > 0 else 0.0
    eps = crit.epsilon_small if a.voxel_volume < crit.volume_split else crit.epsilon_large
    return (abs(a.voxel_volume - b.voxel_volume) < eps and 0.0 < d_ab <= crit.d_max
            and d_oa <= d_ob and axial > 0.0 and (two_d or phi < crit.phi_max)
            and crit.alpha_min <= alpha <= crit.alpha_max)


class TestPairMatches:
    @settings(max_examples=300, deadline=None)
    @given(st.booleans(), st.data(), st.sampled_from([0.0, 0.2, 1.0, 3.2]),
           st.sampled_from([0.0, 0.3]))
    def test_equals_eager_evaluation(self, two_d, data, phi_max, alpha_min):
        # lattice centroids put bubbles on the cylinder axis (2, 2), where
        # phi is 0 and phi_max = 0 still rejects
        a = data.draw(_lattice_bubbles(two_d))
        b = data.draw(_lattice_bubbles(two_d))
        crit = _crit(epsilon_small=3.0, epsilon_large=3.0, d_max=5.0, phi_max=phi_max,
                     alpha_min=alpha_min, alpha_max=1.6)
        geom = _geom(2.0, 2.0)
        for bub_a in a:
            for bub_b in b:
                assert (pair_matches(bub_a, bub_b, geom, geom, crit, two_d)
                        == eager_pair_matches(bub_a, bub_b, geom, geom, crit, two_d))


# two b bubbles tie with the a bubble on the whole sort key, at d_AB == d_max,
# so the visiting order of the candidates decides which one is matched
_TIED_B = [Bubble(label=1, centroid=[4, 3, 1], voxel_volume=2),
           Bubble(label=1, centroid=[4, 1, 1], voxel_volume=2)]
_TIED = ([Bubble(label=1, centroid=[4, 2, 0], voxel_volume=2)], _TIED_B,
         _geom(2.0, 2.0), _geom(2.0, 2.0),
         _crit(epsilon_small=3.0, epsilon_large=3.0, d_max=math.sqrt(2.0), phi_max=1.0,
               alpha_max=1.0), False)


class TestMatchBubbles:
    @settings(max_examples=300, deadline=None)
    @given(_matching_instances())
    @example(_TIED)
    @example((_TIED[0], _TIED_B[::-1], *_TIED[2:]))
    def test_matches_all_pairs_oracle(self, inst):
        # lattice centroids make d_AB == d_max occur; labels repeat
        got = match_bubbles(*inst[:5], two_d=inst[5])
        want = all_pairs_match(*inst)
        key = lambda samples: [(s.position.tobytes(), s.displacement.tobytes())
                               for s in samples]
        assert key(got) == key(want)

    def test_candidates_not_all_pairs(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return pair_matches(*args)

        monkeypatch.setattr(speckle, "pair_matches", counting)
        grid = [(10.0 * i, 10.0 * j) for i in range(20) for j in range(20)]
        a = [Bubble(label=k + 1, centroid=[x, y, 20.0], voxel_volume=50)
             for k, (x, y) in enumerate(grid)]
        b = [Bubble(label=k + 1, centroid=[x, y, 22.0], voxel_volume=50)
             for k, (x, y) in enumerate(grid)]
        crit = _crit(d_max=3.0, phi_max=3.2)
        samples = match_bubbles(a, b, _geom(95.0, 95.0), _geom(95.0, 95.0), crit)
        assert len(samples) == len(a)
        assert len(calls) == len(a)  # all pairs would be 160,000

    def test_worked_example(self):
        a = [Bubble(label=1, centroid=[10.0, 10.0, 5.0], voxel_volume=100)]
        b = [Bubble(label=1, centroid=[10.0, 10.0, 8.0], voxel_volume=102)]
        samples = match_bubbles(a, b, _geom(), _geom(), _crit())
        assert len(samples) == 1
        np.testing.assert_allclose(samples[0].displacement, [0.0, 0.0, 3.0])
        np.testing.assert_allclose(samples[0].position, [10.0, 10.0, 5.0])

    def test_equal_depth_no_match(self):
        a = [Bubble(label=1, centroid=[10.0, 10.0, 5.0], voxel_volume=100)]
        b = [Bubble(label=1, centroid=[10.0, 10.0, 5.0], voxel_volume=100)]
        assert match_bubbles(a, b, _geom(), _geom(), _crit()) == []

    def test_radially_inward_no_match(self):
        a = [Bubble(label=1, centroid=[10.0, 10.0, 5.0], voxel_volume=100)]
        b = [Bubble(label=1, centroid=[7.0, 7.0, 8.0], voxel_volume=100)]
        assert match_bubbles(a, b, _geom(), _geom(), _crit()) == []

    def test_volume_tolerance_strict(self):
        a = [Bubble(label=1, centroid=[10.0, 10.0, 5.0], voxel_volume=100)]
        b = [Bubble(label=1, centroid=[10.0, 10.0, 8.0], voxel_volume=105)]
        assert match_bubbles(a, b, _geom(), _geom(), _crit(epsilon_small=5.0)) == []
        assert len(match_bubbles(a, b, _geom(), _geom(), _crit(epsilon_small=6.0))) == 1

    def test_large_bubble_uses_large_epsilon(self):
        a = [Bubble(label=1, centroid=[10.0, 10.0, 5.0], voxel_volume=400)]
        b = [Bubble(label=1, centroid=[10.0, 10.0, 8.0], voxel_volume=430)]
        crit = _crit(epsilon_small=5.0, epsilon_large=40.0, volume_split=300)
        assert len(match_bubbles(a, b, _geom(), _geom(), crit)) == 1

    def test_tangential_angle_rejects(self):
        a = [Bubble(label=1, centroid=[10.0, 0.0, 5.0], voxel_volume=100)]
        b = [Bubble(label=1, centroid=[0.0, 11.0, 8.0], voxel_volume=100)]
        crit = _crit(phi_max=0.2, d_max=30.0, alpha_max=1.5)
        assert match_bubbles(a, b, _geom(), _geom(), crit) == []

    def test_ambiguity_resolved_by_distance(self):
        a = [Bubble(label=1, centroid=[10.0, 10.0, 5.0], voxel_volume=100)]
        b = [Bubble(label=1, centroid=[10.0, 10.0, 9.0], voxel_volume=100),
             Bubble(label=2, centroid=[10.0, 10.0, 7.0], voxel_volume=100)]
        samples = match_bubbles(a, b, _geom(), _geom(), _crit())
        assert len(samples) == 1
        np.testing.assert_allclose(samples[0].displacement, [0.0, 0.0, 2.0])

    def test_injective_both_directions(self):
        rng = np.random.default_rng(3)
        a = [Bubble(label=i + 1, centroid=[*rng.uniform(5, 30, 2), rng.uniform(0, 5)],
                    voxel_volume=100) for i in range(12)]
        b = [Bubble(label=i + 1,
                    centroid=bub.centroid + [0.3, 0.3, 2.0 + rng.uniform(0, 1)],
                    voxel_volume=100) for i, bub in enumerate(a)]
        crit = _crit(d_max=5.0, alpha_max=0.8, phi_max=0.5)
        samples = match_bubbles(a, b, _geom(), _geom(), crit)
        pos = [tuple(s.position) for s in samples]
        ends = [tuple(s.position + s.displacement) for s in samples]
        assert len(set(pos)) == len(samples)
        assert len(set(ends)) == len(samples)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        a = [Bubble(label=i + 1, centroid=[*rng.uniform(5, 30, 2), rng.uniform(0, 5)],
                    voxel_volume=100) for i in range(8)]
        b = [Bubble(label=i + 1, centroid=bub.centroid + [0.2, 0.2, 2.0],
                    voxel_volume=100) for i, bub in enumerate(a)]
        crit = _crit(d_max=5.0, alpha_max=0.8, phi_max=0.5)
        ref = match_bubbles(a, b, _geom(), _geom(), crit)
        perm = match_bubbles(a[::-1], b[::-1], _geom(), _geom(), crit)
        key = lambda s: tuple(s.position)
        assert sorted(map(key, ref)) == sorted(map(key, perm))


class TestRunTracking:
    def _translation_phantom(self, shift_z=3):
        """50 Gaussian blobs in a 64x64x24 volume, translated axially."""
        rng = np.random.default_rng(12)
        nz, ny, nx = 24, 64, 64
        centers = []
        while len(centers) < 50:
            c = rng.uniform((6, 6, 4), (nx - 6, ny - 6, nz - 4 - shift_z))
            if centers and np.min(np.linalg.norm(np.array(centers) - c, axis=1)) < 7.0:
                continue
            centers.append(c)
        centers = np.array(centers)
        v1 = _render_blobs((nz, ny, nx), centers)
        v2 = _render_blobs((nz, ny, nx), centers + [0.0, 0.0, shift_z])
        return v1, v2, centers

    def test_axial_translation_recovered(self):
        v1, v2, centers = self._translation_phantom()
        crit = MatchCriteria(epsilon_small=20, epsilon_large=60, volume_split=300,
                             d_max=6.0, phi_max=0.3, alpha_min=0.0,
                             alpha_max=0.6, min_voxels=4)
        samples = run_tracking(v1, v2, crit, top_fraction=0.02, presmooth_sigma=0.8)
        assert len(samples) >= 45
        for s in samples:
            np.testing.assert_allclose(s.displacement, [0.0, 0.0, 3.0], atol=0.5)

    def test_empty_volumes(self):
        z = Volume(8, 8, 4, np.zeros((4, 8, 8)))
        assert run_tracking(z, z, MatchCriteria()) == []

    @pytest.mark.parametrize("textured", [False, True], ids=["flat", "textured"])
    @pytest.mark.parametrize("kw", [
        dict(top_fraction=0.0), dict(top_fraction=1.0), dict(top_fraction=1.5),
        dict(top_fraction=math.nan), dict(presmooth_sigma=-1.0),
        dict(presmooth_sigma=math.nan), dict(presmooth_sigma=math.inf),
        dict(presmooth_sigma=1e20),
    ], ids=["top-0", "top-1", "top-1.5", "top-nan", "sigma-neg", "sigma-nan", "sigma-inf",
            "sigma-wider-than-volume"])
    def test_bad_settings_rejected_before_detection(self, monkeypatch, textured, kw):
        # a flat pair used to return [] where a textured one raised
        v = self._translation_phantom()[0] if textured else Volume(8, 8, 4, np.zeros((4, 8, 8)))

        def no_detection(*args):
            raise AssertionError("detection ran")

        monkeypatch.setattr(speckle, "detect", no_detection)
        with pytest.raises(DomainError):
            run_tracking(v, v, MatchCriteria(), **kw)

    def test_each_volume_is_normalized_and_smoothed_once(self, monkeypatch):
        # the benchmark's trace hooks speckle.gaussian_filter by attribute,
        # so detect must call it there; each volume is also normalized once
        calls = {"normalize_intensity": 0, "gaussian_filter": 0}

        def counted(name):
            fn = getattr(speckle, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(speckle, name, counted(name))
        v1, v2, _ = self._translation_phantom()
        assert run_tracking(v1, v2, MatchCriteria(d_max=6.0), top_fraction=0.02)
        assert calls == {"normalize_intensity": 2, "gaussian_filter": 2}

    def test_moving_squares_sample_cap(self):
        from speckleflow.phantom import PhantomSpec, make_moving_squares
        spec = PhantomSpec(kind="moving_squares", nx=128, ny=128,
                           bubble_count=50, seed=5)
        i1, i2, _, _ = make_moving_squares(spec)
        out = run_tracking(Volume.from_array(i1.data), Volume.from_array(i2.data),
                           MatchCriteria(), top_fraction=0.05)
        assert len(out) <= 50

    def test_emitted_matches_pass_recheck(self):
        v1, v2, _ = self._translation_phantom()
        crit = MatchCriteria(epsilon_small=20, epsilon_large=60, volume_split=300,
                             d_max=6.0, phi_max=0.3, alpha_min=0.0,
                             alpha_max=0.6, min_voxels=4)
        samples = run_tracking(v1, v2, crit, top_fraction=0.02, presmooth_sigma=0.8)
        assert samples
        for s in samples:
            d = np.linalg.norm(s.displacement)
            assert 0.0 < d <= crit.d_max
            assert s.displacement[2] > 0.0  # axial shift downward in z
            alpha = np.arccos(np.clip(s.displacement[2] / d, -1, 1))
            assert crit.alpha_min <= alpha <= crit.alpha_max


class TestSamplesCSV:
    def test_roundtrip_full_precision(self, tmp_path):
        rng = np.random.default_rng(8)
        samples = [DisplacementSample(position=rng.standard_normal(3),
                                      displacement=rng.standard_normal(3))
                   for _ in range(7)]
        path = tmp_path / "s.csv"
        write_samples_csv(path, samples)
        back = read_samples_csv(path)
        assert len(back) == 7
        for s, t in zip(samples, back):
            np.testing.assert_array_equal(s.position, t.position)
            np.testing.assert_array_equal(s.displacement, t.displacement)

    def test_2d_samples_padded(self, tmp_path):
        s = DisplacementSample(position=np.array([1.0, 2.0]),
                               displacement=np.array([0.5, -0.5]))
        path = tmp_path / "s.csv"
        write_samples_csv(path, [s])
        text = path.read_text()
        assert text.splitlines()[0] == "x,y,z,ux,uy,uz"
        back = read_samples_csv(path)
        np.testing.assert_array_equal(back[0].position, [1.0, 2.0, 0.0])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FormatError):
            read_samples_csv(path)

    @pytest.mark.parametrize("row", ["1,2,0,nan,0,0", "1,2,0,1e999,0,0", "-inf,2,0,0,0,0",
                                     "1,2,0,x,0,0", "1,2,0,0,0"])
    def test_bad_row_names_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y,z,ux,uy,uz\n{row}\n")
        with pytest.raises(FormatError) as err:
            read_samples_csv(path)
        assert str(err.value).startswith(f"{path}:2:")


class TestTrackingConfig:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "track.cfg"
        path.write_text("d_max = 8\nvolume_split = 100\ntop_fraction = 0.08\n")
        crit, top_fraction, presmooth_sigma = tracking_config(path)
        assert crit == MatchCriteria(d_max=8.0, volume_split=100)
        assert (top_fraction, presmooth_sigma) == (0.08, 0.9)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "track.cfg"
        path.write_text("d_max = 8\nbogus = 1\n")
        with pytest.raises(FormatError):
            tracking_config(path)
