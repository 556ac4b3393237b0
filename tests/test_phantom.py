import numpy as np
import pytest

from speckleflow.elastic import LameField, forward_solve
from speckleflow.errors import SpecError
from speckleflow.grids import Volume, bilinear_sample
from speckleflow.phantom import (PhantomSpec, make_inclusion_phantom,
                                 make_moving_squares, render_blobs)
from speckleflow.speckle import MatchCriteria, run_tracking


class TestRenderBlobs:
    @pytest.mark.parametrize("count", [0, 1, 40])
    def test_matches_per_bubble_outer_products(self, count):
        rng = np.random.default_rng(30 + count)
        nx, ny = 37, 29
        centers = rng.uniform((-3.0, -3.0), (nx + 3.0, ny + 3.0), (count, 2))
        sigmas = rng.uniform(0.5, 6.0, count)
        expected = np.zeros((ny, nx))
        xs, ys = np.arange(nx, dtype=float), np.arange(ny, dtype=float)
        for (cx, cy), s in zip(centers, sigmas):
            gx = np.exp(-((xs - cx) ** 2) / (2.0 * s * s))
            gy = np.exp(-((ys - cy) ** 2) / (2.0 * s * s))
            expected += np.outer(gy, gx)
        got = render_blobs(nx, ny, centers, sigmas)
        assert got.shape == (ny, nx)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)

    def test_one_blob_has_unit_peak_at_its_center(self):
        img = render_blobs(9, 7, [4.0, 3.0], 1.5)
        assert img[3, 4] == 1.0
        assert img.max() == 1.0


class TestMovingSquares:
    def test_zero_translation_identity(self):
        spec = PhantomSpec(kind="moving_squares", nx=96, ny=96, bubble_count=20,
                           square_shift=0.0, square_size=24, seed=1)
        i1, i2, flow, samples = make_moving_squares(spec)
        np.testing.assert_array_equal(i1.data, i2.data)
        np.testing.assert_array_equal(flow.data, 0.0)
        assert all(np.all(s.displacement == 0.0) for s in samples)

    def test_deterministic_regeneration(self):
        spec = PhantomSpec(kind="moving_squares", nx=128, ny=128,
                           bubble_count=50, seed=7, noise_rel=0.001)
        a = make_moving_squares(spec)
        b = make_moving_squares(spec)
        np.testing.assert_array_equal(a[0].data, b[0].data)
        np.testing.assert_array_equal(a[1].data, b[1].data)
        np.testing.assert_array_equal(a[2].data, b[2].data)
        for sa, sb in zip(a[3], b[3]):
            np.testing.assert_array_equal(sa.displacement, sb.displacement)

    def test_noise_bound(self):
        base = dict(kind="moving_squares", nx=128, ny=128, bubble_count=50, seed=3)
        _, _, _, noisy = make_moving_squares(PhantomSpec(noise_rel=0.001, **base))
        _, _, _, exact = make_moving_squares(PhantomSpec(noise_rel=0.0, **base))
        deviated = 0
        for sn, se in zip(noisy, exact):
            np.testing.assert_array_equal(sn.position, se.position)
            mag = np.linalg.norm(se.displacement)
            dev = np.linalg.norm(sn.displacement - se.displacement)
            assert dev <= 0.001 * mag + 1e-15
            deviated += dev > 0
        assert deviated > 0

    def test_images_span_unit_interval(self):
        spec = PhantomSpec(kind="moving_squares", nx=128, ny=128,
                           bubble_count=30, seed=2)
        i1, i2, _, _ = make_moving_squares(spec)
        both = np.concatenate([i1.data.ravel(), i2.data.ravel()])
        assert both.min() == 0.0 and both.max() == 1.0
        assert i1.data.min() >= 0.0 and i1.data.max() <= 1.0

    def test_flow_support(self):
        spec = PhantomSpec(kind="moving_squares", nx=128, ny=128,
                           bubble_count=10, seed=4)
        _, _, flow, _ = make_moving_squares(spec)
        mag = np.hypot(flow.data[:, :, 0], flow.data[:, :, 1])
        assert mag.max() == spec.square_shift
        assert (mag > 0).sum() == 2 * spec.square_size ** 2

    def test_squares_must_fit(self):
        spec = PhantomSpec(kind="moving_squares", nx=64, ny=64,
                           square_size=48, square_shift=12.0, bubble_count=5)
        with pytest.raises(SpecError):
            make_moving_squares(spec)

    def test_kind_mismatch(self):
        with pytest.raises(SpecError):
            make_moving_squares(PhantomSpec(kind="inclusion"))


class TestInclusion:
    def test_zero_compression_identity(self):
        spec = PhantomSpec(kind="inclusion", nx=48, ny=48, bubble_count=10,
                           compression_px=0.0, inclusion_radius=8.0, seed=5)
        lame, bc, u_true, i1, i2, samples = make_inclusion_phantom(spec)
        np.testing.assert_allclose(u_true.data, 0.0, atol=1e-12)
        np.testing.assert_array_equal(i1.data, i2.data)

    def test_deterministic_regeneration(self):
        spec = PhantomSpec(kind="inclusion", nx=64, ny=64, bubble_count=30,
                           compression_px=3.0, inclusion_radius=10.0, seed=6)
        a = make_inclusion_phantom(spec)
        b = make_inclusion_phantom(spec)
        np.testing.assert_array_equal(a[2].data, b[2].data)
        np.testing.assert_array_equal(a[3].data, b[3].data)
        np.testing.assert_array_equal(a[4].data, b[4].data)

    def test_lame_disk_geometry(self):
        spec = PhantomSpec(kind="inclusion", nx=64, ny=64, bubble_count=5,
                           compression_px=2.0, inclusion_radius=10.0, seed=7,
                           lambda_bg=490.0, mu_bg=10.0, lambda_inc=490.0, mu_inc=20.0)
        lame, *_ = make_inclusion_phantom(spec)
        assert lame.mu.data[32, 32] == 20.0
        assert lame.mu.data[5, 5] == 10.0

    def test_inclusion_strictly_interior(self):
        spec = PhantomSpec(kind="inclusion", nx=40, ny=40, bubble_count=5,
                           inclusion_radius=25.0)
        with pytest.raises(SpecError):
            make_inclusion_phantom(spec)

    def test_homogeneous_centerline_matches_fine_grid(self):
        # inclusion = background: compare the centerline against a solve of
        # the same compression at twice the resolution
        n = 25
        spec = PhantomSpec(kind="inclusion", nx=n, ny=n, bubble_count=3,
                           bubble_sigma_min=1.0, bubble_sigma_max=1.2,
                           compression_px=2.0, inclusion_radius=4.0, seed=8,
                           margin=3, lambda_bg=5.0, mu_bg=2.0, lambda_inc=5.0,
                           mu_inc=2.0)
        lame, bc, u_true, *_ = make_inclusion_phantom(spec)
        fine_n = 2 * n - 1
        p_fine = LameField.constant(fine_n, fine_n, 5.0, 2.0)
        u_fine = forward_solve(p_fine, bc)
        mid = n // 2
        coarse_line = u_true.data[:, mid, 1]
        fine_line = u_fine.data[::2, 2 * mid, 1]
        np.testing.assert_allclose(fine_line, coarse_line, atol=0.02)
        # middle of the column moves about half the applied compression
        assert coarse_line[mid] == pytest.approx(-1.0, abs=0.15)
        np.testing.assert_allclose(u_true.data[:, mid, 0], 0.0, atol=0.05)

    def test_warp_consistency_over_bubble_supports(self):
        spec = PhantomSpec(kind="inclusion", nx=100, ny=100, bubble_count=50,
                           compression_px=3.0, inclusion_radius=15.0, seed=9)
        lame, bc, u_true, i1, i2, samples = make_inclusion_phantom(spec)
        ny, nx = i1.data.shape
        gx, gy = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
        pulled = bilinear_sample(i1.data, gx - u_true.data[:, :, 0],
                                 gy - u_true.data[:, :, 1])
        support = i2.data > 0.05
        assert support.any()
        err = np.abs(i2.data - pulled)[support].mean()
        assert err <= 0.02  # images span [0, 1]

    def test_sample_displacements_match_field(self):
        spec = PhantomSpec(kind="inclusion", nx=64, ny=64, bubble_count=20,
                           compression_px=3.0, inclusion_radius=10.0, seed=10)
        _, _, u_true, _, _, samples = make_inclusion_phantom(spec)
        for s in samples:
            expected = bilinear_sample(u_true.data, np.array([s.position[0]]),
                                       np.array([s.position[1]]))[0]
            np.testing.assert_allclose(s.displacement, expected, atol=1e-12)

    def test_tracking_recall_small(self):
        spec = PhantomSpec(kind="inclusion", nx=100, ny=100, bubble_count=60,
                           compression_px=3.0, inclusion_radius=15.0, seed=11)
        _, _, u_true, i1, i2, samples = make_inclusion_phantom(spec)
        crit = MatchCriteria(d_max=5.0)
        tracked = run_tracking(Volume.from_array(i1.data),
                               Volume.from_array(i2.data), crit,
                               top_fraction=0.08, presmooth_sigma=0.9)
        good = 0
        for s in tracked:
            truth = bilinear_sample(u_true.data, np.array([s.position[0]]),
                                    np.array([s.position[1]]))[0]
            if np.linalg.norm(s.displacement[:2] - truth) <= 0.5:
                good += 1
        assert good >= 0.9 * len(samples)


class TestPhantomConfig:
    def test_from_config(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("kind = inclusion\nnx = 80\nny = 90\nbubble_count = 40\n"
                        "seed = 123\ncompression_px = 8\ninclusion_radius = 12\n"
                        "lambda_bg = 480\nmu_bg = 10\nlambda_inc = 470\n"
                        "mu_inc = 20\nnoise_rel = 0.001\n"
                        "inclusion_cx = 39.5\ninclusion_cy = 45\n")
        spec = PhantomSpec.from_config(path)
        assert (spec.nx, spec.ny) == (80, 90)
        assert (spec.lambda_bg, spec.mu_bg, spec.lambda_inc, spec.mu_inc) == (480.0, 10.0,
                                                                              470.0, 20.0)
        assert (spec.inclusion_cx, spec.inclusion_cy) == (39.5, 45.0)
        assert spec.seed == 123

    def test_lame_values_left_out_keep_their_defaults(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("mu_inc = 30\n")
        spec = PhantomSpec.from_config(path)
        assert (spec.lambda_bg, spec.mu_bg, spec.lambda_inc, spec.mu_inc) == (490.0, 10.0,
                                                                              490.0, 30.0)
        assert (spec.inclusion_cx, spec.inclusion_cy) == (None, None)

    @pytest.mark.parametrize("key", ["inclusion_cx", "inclusion_cy"])
    def test_center_coordinates_go_together(self, tmp_path, key):
        path = tmp_path / "spec.cfg"
        path.write_text(f"{key} = 40\n")
        with pytest.raises(SpecError) as err:
            PhantomSpec.from_config(path)
        assert str(err.value) == f"{path}: inclusion_cx and inclusion_cy must be given together"
        with pytest.raises(SpecError, match="^inclusion_cx and inclusion_cy must be given"):
            PhantomSpec(**{key: 40.0})

    def test_unknown_key_rejected(self, tmp_path):
        from speckleflow.errors import FormatError
        path = tmp_path / "spec.cfg"
        path.write_text("kind = inclusion\nwat = 1\n")
        with pytest.raises(FormatError):
            PhantomSpec.from_config(path)

    def test_bad_kind(self):
        with pytest.raises(SpecError):
            PhantomSpec(kind="cube")

    def test_inclusion_without_bubbles_rejected(self):
        with pytest.raises(SpecError):
            PhantomSpec(kind="inclusion", bubble_count=0)

    @pytest.mark.parametrize("margin", [-1, -10])
    def test_negative_margin_rejected(self, margin):
        # margin = -10 on a 40x40 grid used to place bubble centers at x = -9
        with pytest.raises(SpecError):
            PhantomSpec(kind="inclusion", nx=40, ny=40, margin=margin)

    @pytest.mark.parametrize("radius", [-5.0, -1e-9, float("nan")])
    def test_negative_inclusion_radius_rejected(self, radius):
        # the disk test d^2 <= r^2 would build the same inclusion as |r|
        with pytest.raises(SpecError):
            PhantomSpec(kind="inclusion", inclusion_radius=radius)

    @pytest.mark.parametrize("size", [0, -4])
    def test_square_size_below_one_rejected(self, size):
        # such a spec rendered no squares and a zero true flow
        with pytest.raises(SpecError):
            PhantomSpec(kind="moving_squares", square_size=size)
