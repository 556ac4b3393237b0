import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speckleflow.errors import (ConstantField, DomainError, FormatError,
                                GridTooSmall, ShapeMismatch)
from speckleflow.grids import (ScalarGrid, VectorGrid, Volume, bilinear_sample,
                               downsample, gaussian_filter, normalize_intensity,
                               prolong, pyramid_sigma, read_f64grid,
                               spatial_gradient, temporal_difference, write_f64grid)


class TestContainers:
    def test_scalar_grid_shape_checks(self):
        g = ScalarGrid(3, 2, np.arange(6.0))
        assert g.data.shape == (2, 3)
        with pytest.raises(DomainError):
            ScalarGrid(0, 2, np.zeros(0))
        with pytest.raises(DomainError):
            ScalarGrid(2, 2, [1.0, 2.0, np.nan, 0.0])

    def test_volume_2d_degenerate(self):
        v = Volume.from_array(np.ones((4, 5)))
        assert (v.nx, v.ny, v.nz) == (5, 4, 1)


class TestNormalizeIntensity:
    def test_already_normalized_unchanged(self):
        v = Volume.from_array(np.array([[0.0, 0.5, 1.0]]))
        out = normalize_intensity(v)
        np.testing.assert_array_equal(out.data, v.data)

    def test_constant_rejected(self):
        with pytest.raises(ConstantField):
            normalize_intensity(Volume.from_array(np.full((2, 3), 5.0)))

    def test_range_beyond_float64_rejected(self):
        with pytest.raises(DomainError, match="float64 range"):
            normalize_intensity(Volume.from_array(np.array([[-1e308, 0.0, 1e308]])))

    @pytest.mark.parametrize("signed", [False, True])
    def test_result_volume_keeps_the_input_extents(self, signed):
        v = Volume.from_array(np.random.default_rng(3).random((2, 4, 5))
                              + (-0.5 if signed else 0.5))
        out = normalize_intensity(v)
        assert (out.nx, out.ny, out.nz, out.data.shape, out.data.dtype) == \
            (5, 4, 2, (2, 4, 5), np.float64)
        assert np.all(np.isfinite(out.data))
        assert out.data.min() == 0.0 and out.data.max() == 1.0

    def test_monotone(self):
        rng = np.random.default_rng(0)
        vals = rng.random((4, 5)) + 0.1
        out = normalize_intensity(Volume.from_array(vals))
        order_in = np.argsort(vals.ravel())
        order_out = np.argsort(out.data.ravel())
        np.testing.assert_array_equal(order_in, order_out)


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Discrete Gaussian, truncated at radius ceil(4*sigma), renormalized."""
    r = math.ceil(4.0 * sigma)
    x = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


class TestGaussianFilter:
    def test_sigma_zero_identity(self):
        v = Volume.from_array(np.random.default_rng(1).random((6, 7)))
        out = gaussian_filter(v, 0.0)
        np.testing.assert_array_equal(out.data, v.data)

    def test_constant_preserved(self):
        v = Volume.from_array(np.full((9, 9), 3.25))
        out = gaussian_filter(v, 1.0)
        np.testing.assert_allclose(out.data, 3.25, atol=1e-12)

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            gaussian_filter(Volume.from_array(np.ones((3, 3))), -0.5)

    def test_impulse_matches_direct_kernel(self):
        # oracle: direct evaluation of the truncated renormalized 2-D kernel
        n = 21
        img = np.zeros((n, n))
        img[n // 2, n // 2] = 1.0
        out = gaussian_filter(Volume.from_array(img), 1.0)
        k1 = gaussian_kernel1d(1.0)
        r = len(k1) // 2
        oracle = np.outer(k1, k1)
        got = out.data[0, n // 2 - r:n // 2 + r + 1, n // 2 - r:n // 2 + r + 1]
        np.testing.assert_allclose(got, oracle, atol=1e-12)

    @pytest.mark.parametrize("shape, longest", [((1, 6, 9), 9), ((7, 3, 1), 7),
                                                ((1, 1, 4), 4)])
    def test_width_above_the_longest_filtered_extent_rejected(self, shape, longest):
        v = Volume.from_array(np.random.default_rng(4).random(shape))
        out = gaussian_filter(v, float(longest))
        assert (out.nx, out.ny, out.nz, out.data.shape) == (v.nx, v.ny, v.nz, shape)
        assert np.all(np.isfinite(out.data))
        for sigma in (math.nextafter(longest, math.inf), 1e20, 1e300):
            with pytest.raises(DomainError, match=f"longest extent {longest} it filters"):
                gaussian_filter(v, sigma)

    def test_single_voxel_is_not_filtered(self):
        v = Volume.from_array(np.array([[[2.5]]]))
        np.testing.assert_array_equal(gaussian_filter(v, 1e300).data, v.data)

    def test_mean_preserved(self):
        rng = np.random.default_rng(2)
        v = Volume.from_array(rng.random((16, 16)))
        out = gaussian_filter(v, 1.3)
        assert abs(out.data.mean() - v.data.mean()) < 1e-12


class TestPreprocessingMemory:
    """Normalization and smoothing work on one copy of the input each, and
    give the results of their out-of-place formulas."""

    SHAPES = [(6, 9, 11), (1, 12, 7), (5, 1, 8), (4, 6, 1), (1, 1, 1)]

    @pytest.mark.parametrize("shape", SHAPES[:-1])
    @pytest.mark.parametrize("signed", [False, True])
    def test_normalize_equals_formula(self, shape, signed):
        v = Volume.from_array(np.random.default_rng(4).random(shape) + (-0.6 if signed else 0.1))
        before = v.data.copy()
        expect = (before - before.min()) / (before.max() - before.min())
        np.testing.assert_array_equal(normalize_intensity(v).data, expect)
        np.testing.assert_array_equal(v.data, before)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("sigma", [0.0, 0.9, 2.0])
    def test_gaussian_filter_equals_successive_passes(self, shape, sigma):
        from scipy.ndimage import gaussian_filter1d
        v = Volume.from_array(np.random.default_rng(5).random(shape))
        before = v.data.copy()
        expect = v.data
        for axis in range(3):
            if sigma > 0 and expect.shape[axis] > 1:
                expect = gaussian_filter1d(expect, sigma, axis=axis, mode="reflect",
                                           radius=math.ceil(4 * sigma))
        out = gaussian_filter(v, sigma)
        np.testing.assert_array_equal(out.data, expect)
        assert not np.shares_memory(out.data, v.data)
        np.testing.assert_array_equal(v.data, before)

    def test_detection_preprocessing_peak(self):
        import tracemalloc
        v = Volume.from_array(np.random.default_rng(6).random((16, 48, 48)))
        tracemalloc.start()
        try:
            gaussian_filter(normalize_intensity(v), 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the normalized copy and the smoothed output, plus the finiteness
        # mask of each new volume (1/8); out-of-place passes peaked at 3x
        assert peak <= 2.25 * v.data.nbytes


class TestPyramidSigma:
    def test_half_downscale_value(self):
        assert pyramid_sigma(0.5, 0.6) == pytest.approx(1.03923, abs=1e-5)

    def test_sqrt2_case(self):
        assert pyramid_sigma(1 / math.sqrt(2), 0.6) == pytest.approx(0.6, abs=1e-12)

    def test_limit_to_one(self):
        assert pyramid_sigma(0.999, 0.6) < 0.03

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.5, 1.5])
    def test_bad_eta(self, eta):
        with pytest.raises(DomainError):
            pyramid_sigma(eta, 0.6)


class TestDownsampleProlong:
    def test_constant_preserved_and_extents(self):
        g = ScalarGrid(8, 8, np.full((8, 8), 2.5))
        out = downsample(g, 0.5, 0.6)
        assert (out.nx, out.ny) == (4, 4)
        np.testing.assert_allclose(out.data, 2.5, atol=1e-12)

    def test_extent_arithmetic(self):
        g = ScalarGrid(100, 100, np.zeros((100, 100)))
        out = downsample(g, 0.5, 0.6)
        assert (out.nx, out.ny) == (50, 50)

    def test_ramp_doubles_slope(self):
        n = 100
        ramp = np.tile(np.arange(n, dtype=float), (n, 1))
        out = downsample(ScalarGrid(n, n, ramp), 0.5, 0.6)
        # interior columns, away from the reflected border band
        js = np.arange(8, 42)
        np.testing.assert_allclose(out.data[25, js], 2.0 * js, atol=1e-9)

    def test_too_small_rejected(self):
        with pytest.raises(GridTooSmall):
            downsample(ScalarGrid(3, 3, np.zeros((3, 3))), 0.4, 0.6)

    def test_prolong_constant_scaled(self):
        u = VectorGrid(4, 4, np.tile([1.0, 2.0], (4, 4, 1)))
        out = prolong(u, 8, 8, 2.0)
        np.testing.assert_allclose(out.data[:, :, 0], 2.0, atol=1e-12)
        np.testing.assert_allclose(out.data[:, :, 1], 4.0, atol=1e-12)

    def test_prolong_identity(self):
        u = VectorGrid(2, 2, np.arange(8.0))
        out = prolong(u, 2, 2, 1.0)
        np.testing.assert_array_equal(out.data, u.data)

    def test_prolong_smaller_target_rejected(self):
        with pytest.raises(DomainError):
            prolong(VectorGrid.zeros(4, 4), 3, 4, 1.0)

    def test_bilinear_midpoint(self):
        arr = np.array([[0.0, 1.0], [0.0, 1.0]])
        val = bilinear_sample(arr, np.array([0.5]), np.array([0.5]))
        assert val[0] == pytest.approx(0.5, abs=1e-15)

    def test_down_then_prolong_constant_identity(self):
        g = ScalarGrid(10, 10, np.full((10, 10), 7.0))
        coarse = downsample(g, 0.5, 0.6)
        u = VectorGrid(coarse.nx, coarse.ny, np.stack([coarse.data, coarse.data], axis=-1))
        fine = prolong(u, 10, 10, 1.0)
        np.testing.assert_allclose(fine.data[:, :, 0], 7.0, atol=1e-12)


class TestDerivatives:
    def test_affine_gradient_exact(self):
        nx, ny = 9, 7
        xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
        g = ScalarGrid(nx, ny, 3.0 * xs + 4.0 * ys)
        grad = spatial_gradient(g)
        np.testing.assert_allclose(grad.data[:, :, 0], 3.0, atol=1e-12)
        np.testing.assert_allclose(grad.data[:, :, 1], 4.0, atol=1e-12)

    @pytest.mark.parametrize("nx, ny", [(5, 1), (1, 5), (1, 1)])
    def test_gradient_of_a_one_pixel_extent_rejected(self, nx, ny):
        with pytest.raises(GridTooSmall, match=f"got {nx}x{ny}"):
            spatial_gradient(ScalarGrid(nx, ny, np.zeros((ny, nx))))

    def test_temporal_difference(self):
        i1 = ScalarGrid(4, 3, np.zeros((3, 4)))
        ramp = np.tile(np.arange(4.0), (3, 1))
        i2 = ScalarGrid(4, 3, ramp)
        np.testing.assert_array_equal(temporal_difference(i1, i2).data, ramp)
        np.testing.assert_array_equal(temporal_difference(i2, i2).data, 0.0)

    def test_extent_mismatch(self):
        with pytest.raises(ShapeMismatch):
            temporal_difference(ScalarGrid(3, 3, np.zeros((3, 3))),
                                ScalarGrid(4, 3, np.zeros((3, 4))))


class TestPurity:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.5, 2.0))
    def test_gaussian_filter_deterministic(self, seed, sigma):
        v = Volume.from_array(np.random.default_rng(seed).random((8, 8)))
        a = gaussian_filter(v, sigma)
        b = gaussian_filter(v, sigma)
        np.testing.assert_array_equal(a.data, b.data)

    def test_downsample_does_not_mutate_input(self):
        data = np.random.default_rng(3).random((8, 8))
        g = ScalarGrid(8, 8, data.copy())
        downsample(g, 0.5, 0.6)
        np.testing.assert_array_equal(g.data, data)


class TestF64Grid:
    def test_scalar_roundtrip(self, tmp_path):
        g = ScalarGrid(3, 2, np.random.default_rng(4).random((2, 3)))
        path = tmp_path / "s.f64grid"
        write_f64grid(path, g)
        for kind in (None, ScalarGrid):
            back = read_f64grid(path, kind)
            assert isinstance(back, ScalarGrid)
            np.testing.assert_array_equal(back.data, g.data)

    def test_vector_roundtrip(self, tmp_path):
        v = VectorGrid(4, 3, np.random.default_rng(5).standard_normal((3, 4, 2)))
        path = tmp_path / "v.f64grid"
        write_f64grid(path, v)
        for kind in (None, VectorGrid):
            back = read_f64grid(path, kind)
            assert isinstance(back, VectorGrid)
            np.testing.assert_array_equal(back.data, v.data)

    def test_volume_roundtrip(self, tmp_path):
        v = Volume(2, 3, 4, np.random.default_rng(6).random((4, 3, 2)))
        path = tmp_path / "vol.f64grid"
        write_f64grid(path, v)
        for kind in (None, Volume):
            back = read_f64grid(path, kind)
            assert isinstance(back, Volume)
            np.testing.assert_array_equal(back.data, v.data)

    def test_scalar_file_reads_as_one_slice_volume(self, tmp_path):
        g = ScalarGrid(3, 2, np.random.default_rng(7).random((2, 3)))
        path = tmp_path / "s.f64grid"
        write_f64grid(path, g)
        back = read_f64grid(path, Volume)
        assert isinstance(back, Volume) and (back.nx, back.ny, back.nz) == (3, 2, 1)
        np.testing.assert_array_equal(back.data[0], g.data)

    @pytest.mark.parametrize("obj, kind", [
        (ScalarGrid(2, 2, np.ones(4)), VectorGrid),
        (VectorGrid(2, 2, np.ones(8)), ScalarGrid),
        (VectorGrid(2, 2, np.ones(8)), Volume),
        (Volume(2, 2, 3, np.ones(12)), ScalarGrid),
        (Volume(2, 2, 3, np.ones(12)), VectorGrid),
    ], ids=["scalar-as-vector", "vector-as-scalar", "vector-as-volume",
            "volume-as-scalar", "volume-as-vector"])
    def test_wrong_kind_names_path_and_both_kinds(self, tmp_path, obj, kind):
        path = tmp_path / "w.f64grid"
        write_f64grid(path, obj)
        with pytest.raises(FormatError) as err:
            read_f64grid(path, kind)
        assert err.value.offset == len(b"F64GRID ")
        assert str(err.value) == (f"{path}: expected a {kind.__name__}, found a "
                                  f"{type(obj).__name__} (byte offset 8)")

    def test_header_layout_exact(self, tmp_path):
        g = ScalarGrid(2, 1, np.array([[1.0, 2.0]]))
        path = tmp_path / "h.f64grid"
        write_f64grid(path, g)
        raw = path.read_bytes()
        assert raw.startswith(b"F64GRID 1 2 1 1\n")
        assert raw[16:] == np.array([1.0, 2.0]).astype("<f8").tobytes()
        for obj, header in ((VectorGrid.zeros(4, 3), b"F64GRID 2 4 3 1\n"),
                            (Volume(2, 3, 4, np.zeros(24)), b"F64GRID 1 2 3 4\n")):
            write_f64grid(path, obj)
            assert path.read_bytes().startswith(header)

    def test_bad_magic_offset(self, tmp_path):
        path = tmp_path / "bad.f64grid"
        path.write_bytes(b"NOTGRID 1 2 2 1\n" + b"\x00" * 32)
        with pytest.raises(FormatError) as err:
            read_f64grid(path)
        assert err.value.offset == 0

    @pytest.mark.parametrize("extents", [(3, 2, 2, 1), (1, 0, 2, 1), (2, 3, 3, 2)],
                             ids=["ncomp-3", "zero-width", "vector-volume"])
    def test_inadmissible_extents_offset(self, tmp_path, extents):
        path = tmp_path / "ext.f64grid"
        ncomp, nx, ny, nz = extents
        path.write_bytes(f"F64GRID {ncomp} {nx} {ny} {nz}\n".encode("ascii")
                         + b"\x00" * (8 * ncomp * nx * ny * nz))
        with pytest.raises(FormatError, match="inadmissible extents") as err:
            read_f64grid(path)
        assert err.value.offset == len(b"F64GRID ")

    @pytest.mark.parametrize("obj", [ScalarGrid(4, 3, np.ones((3, 4))),
                                     VectorGrid(2, 3, np.ones((3, 2, 2))),
                                     Volume(2, 2, 3, np.ones((3, 2, 2)))],
                             ids=["scalar", "vector", "volume"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_offset(self, tmp_path, obj, bad):
        path = tmp_path / "nan.f64grid"
        write_f64grid(path, obj)
        raw = bytearray(path.read_bytes())
        start = raw.index(b"\n") + 1
        raw[start + 8 * 7:start + 8 * 8] = np.array([bad], dtype="<f8").tobytes()
        raw[start + 8 * 9:start + 8 * 10] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-finite value in payload") as err:
            read_f64grid(path)
        assert err.value.offset == start + 8 * 7

    def test_read_data_is_writable_float64(self, tmp_path):
        path = tmp_path / "v.f64grid"
        write_f64grid(path, Volume(3, 2, 2, np.arange(12.0).reshape(2, 2, 3)))
        back = read_f64grid(path)
        assert back.data.dtype == np.float64 and back.data.flags.writeable
        back.data[0, 0, 0] = -1.0
        np.testing.assert_array_equal(read_f64grid(path).data.ravel(), np.arange(12.0))

    def test_missing_header_newline_offset(self, tmp_path):
        path = tmp_path / "nl.f64grid"
        path.write_bytes(b"F64GRID 1 2 2 1")
        with pytest.raises(FormatError, match="missing header newline") as err:
            read_f64grid(path)
        assert err.value.offset == len(b"F64GRID 1 2 2 1")

    def test_trailing_bytes_offset(self, tmp_path):
        path = tmp_path / "trail.f64grid"
        header = b"F64GRID 1 2 2 1\n"
        path.write_bytes(header + b"\x00" * 33)
        with pytest.raises(FormatError, match="trailing bytes") as err:
            read_f64grid(path)
        assert err.value.offset == len(header) + 32

    def test_truncated_payload_offset(self, tmp_path):
        path = tmp_path / "trunc.f64grid"
        header = b"F64GRID 1 2 2 1\n"
        path.write_bytes(header + b"\x00" * 16)  # 16 of 32 payload bytes
        with pytest.raises(FormatError) as err:
            read_f64grid(path)
        assert err.value.offset == len(header) + 16
