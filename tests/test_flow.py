import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from speckleflow import flow as flowmod
from speckleflow import linsolve
from speckleflow.errors import DomainError, GridTooSmall, NotSPD, ShapeMismatch
from speckleflow.flow import (FlowParams, _sample_fields, assemble,
                              evaluate_functional, gaussian_weight, gradient,
                              multiscale_flow, solve_flow)
from speckleflow.grids import (ScalarGrid, VectorGrid, downsample, spatial_gradient,
                              temporal_difference)
from speckleflow.linsolve import (COARSEST_NODES, GridFactor, GridMultigrid, grid_order,
                                  solve_near)
from speckleflow.speckle import DisplacementSample


def random_instance(seed, nx=8, ny=8, n_samples=2):
    rng = np.random.default_rng(seed)
    i1 = ScalarGrid(nx, ny, rng.random((ny, nx)))
    i2 = ScalarGrid(nx, ny, rng.random((ny, nx)))
    grad = spatial_gradient(i1)
    it = temporal_difference(i1, i2)
    samples = [DisplacementSample(position=rng.uniform(1, nx - 2, 2),
                                  displacement=rng.standard_normal(2))
               for _ in range(n_samples)]
    return grad, it, samples, rng


def hs_reference_solution(gradI, It, alpha):
    """Independent dense Horn-Schunck solve: Euler-Lagrange equations of
    sum (Ix u1 + Iy u2 + It)^2 + alpha * sum_edges |du|^2, assembled with
    explicit loops."""
    ny, nx = It.data.shape
    N = nx * ny
    A = np.zeros((2 * N, 2 * N))
    b = np.zeros(2 * N)
    gx = gradI.data[:, :, 0]
    gy = gradI.data[:, :, 1]
    for y in range(ny):
        for x in range(nx):
            p = y * nx + x
            A[2 * p, 2 * p] += 2 * gx[y, x] ** 2
            A[2 * p, 2 * p + 1] += 2 * gx[y, x] * gy[y, x]
            A[2 * p + 1, 2 * p] += 2 * gx[y, x] * gy[y, x]
            A[2 * p + 1, 2 * p + 1] += 2 * gy[y, x] ** 2
            b[2 * p] -= 2 * It.data[y, x] * gx[y, x]
            b[2 * p + 1] -= 2 * It.data[y, x] * gy[y, x]
            for (qy, qx) in ((y, x + 1), (y + 1, x)):
                if qy < ny and qx < nx:
                    q = qy * nx + qx
                    for c in range(2):
                        A[2 * p + c, 2 * p + c] += 2 * alpha
                        A[2 * q + c, 2 * q + c] += 2 * alpha
                        A[2 * p + c, 2 * q + c] -= 2 * alpha
                        A[2 * q + c, 2 * p + c] -= 2 * alpha
    return np.linalg.solve(A, b)


class TestGaussianWeight:
    def test_peak_value(self):
        assert gaussian_weight([0, 0], [0, 0], 5.0) == pytest.approx(
            1.0 / (50.0 * math.pi), rel=1e-12)

    def test_one_sigma_contour(self):
        peak = gaussian_weight([0, 0], [0, 0], 2.0)
        val = gaussian_weight([2.0, 0.0], [0.0, 0.0], 2.0)
        assert val == pytest.approx(peak * math.exp(-0.5), rel=1e-12)

    def test_direct_evaluation(self):
        got = gaussian_weight([3.0, 4.0], [0.0, 0.0], 5.0)
        assert got == pytest.approx(math.exp(-25.0 / 50.0) / (50.0 * math.pi),
                                    rel=1e-12)

    def test_nonpositive_sigma(self):
        with pytest.raises(DomainError):
            gaussian_weight([0, 0], [0, 0], 0.0)

    def test_sample_fields_match_per_sample_sums(self):
        # reference: one gaussian_weight per sample and pixel
        _, _, samples, _ = random_instance(7, nx=9, ny=7, n_samples=5)
        W = np.zeros((7, 9))
        WU = np.zeros((7, 9, 2))
        wu2 = 0.0
        for s in samples:
            for y in range(7):
                for x in range(9):
                    g = gaussian_weight([x, y], s.position, 2.5)
                    W[y, x] += g
                    WU[y, x] += g * s.displacement
                    wu2 += g * float(s.displacement @ s.displacement)
        got = _sample_fields(9, 7, samples, 2.5)
        np.testing.assert_allclose(got[0], W, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got[1], WU, rtol=1e-12, atol=1e-15)
        assert got[2] == pytest.approx(wu2, rel=1e-12)


class TestFunctionalAndAssembly:
    def test_zero_terms_when_field_matches_sample(self):
        nx = ny = 8
        grad = VectorGrid.zeros(nx, ny)
        it = ScalarGrid(nx, ny, np.zeros((ny, nx)))
        uhat = np.array([0.7, -0.3])
        s = [DisplacementSample(position=np.array([4.0, 4.0]), displacement=uhat)]
        u = VectorGrid(nx, ny, np.tile(uhat, (ny, nx, 1)))
        p = FlowParams(alpha=0.0, beta=2.0, sigma_g=3.0)
        assert evaluate_functional(u, grad, it, s, p) == pytest.approx(0.0, abs=1e-14)

    def test_zero_field_reduces_to_constants(self):
        grad, it, samples, _ = random_instance(0)
        p = FlowParams(alpha=0.5, beta=1.5, sigma_g=2.0)
        sys = assemble(grad, it, samples, p)
        u0 = VectorGrid.zeros(8, 8)
        assert evaluate_functional(u0, grad, it, samples, p) == pytest.approx(
            sys.constant, rel=1e-12)

    def test_extent_mismatch_rejected(self):
        grad, it, samples, _ = random_instance(0)
        p = FlowParams(alpha=0.5, beta=1.0, sigma_g=2.0)
        wrong = VectorGrid.zeros(9, 8)
        with pytest.raises(ShapeMismatch):
            evaluate_functional(wrong, grad, it, samples, p)

    def test_matches_quadratic_form(self):
        for seed in range(5):
            grad, it, samples, rng = random_instance(seed)
            p = FlowParams(alpha=0.7, beta=2.0, gamma=0.4, sigma_g=2.5)
            sys = assemble(grad, it, samples, p)
            x = rng.standard_normal(2 * 64)
            u = VectorGrid(8, 8, x.reshape(8, 8, 2))
            quad = 0.5 * x @ (sys.matrix @ x) - sys.rhs @ x + sys.constant
            fval = evaluate_functional(u, grad, it, samples, p)
            assert fval == pytest.approx(quad, rel=1e-10, abs=1e-10)
            assert fval >= 0.0

    def test_symmetry(self):
        for seed in range(5):
            grad, it, samples, _ = random_instance(seed)
            p = FlowParams(alpha=0.3, beta=1.0, gamma=0.2, sigma_g=2.0)
            A = assemble(grad, it, samples, p).matrix
            diff = (A - A.T).tocoo()
            scale = np.abs(A.data).max()
            assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-12 * scale

    def test_spd_alpha_positive(self):
        # smoothness-regularized case: definite whenever the gradient
        # components are linearly independent
        for seed in range(20):
            grad, it, _, _ = random_instance(seed)
            p = FlowParams(alpha=0.5, beta=0.0)
            A = assemble(grad, it, [], p).matrix.toarray()
            assert np.linalg.eigvalsh(A).min() > 0

    def test_spd_beta_only(self):
        # bubble-only case: definite for arbitrary image gradients
        for seed in range(20):
            _, it, samples, _ = random_instance(seed)
            grad0 = VectorGrid.zeros(8, 8)
            p = FlowParams(alpha=0.0, beta=0.8, sigma_g=2.0)
            A = assemble(grad0, it, samples, p).matrix.toarray()
            assert np.linalg.eigvalsh(A).min() > 0

    def test_beta_only_diagonal_and_solution(self):
        nx = ny = 10
        grad = VectorGrid.zeros(nx, ny)
        it = ScalarGrid(nx, ny, np.zeros((ny, nx)))
        uhat = np.array([1.5, -2.0])
        s = [DisplacementSample(position=np.array([5.0, 6.0]), displacement=uhat)]
        p = FlowParams(alpha=0.0, beta=3.0, sigma_g=4.0)
        sys = assemble(grad, it, s, p)
        A = sys.matrix.toarray()
        # block-diagonal: the only off-diagonal couplings vanish
        off = A - np.diag(np.diag(A))
        assert np.abs(off).max() == 0.0
        diag = np.diag(A)[0::2].reshape(ny, nx)
        w = gaussian_weight([0.0, 0.0], [0.0, 0.0], 4.0)
        assert diag[6, 5] == pytest.approx(2 * 3.0 * w, rel=1e-12)
        u = solve_flow(sys)
        np.testing.assert_allclose(u.data, np.tile(uhat, (ny, nx, 1)), atol=1e-10)

    def test_alpha_beta_zero_rejected(self):
        with pytest.raises(DomainError):
            FlowParams(alpha=0.0, beta=0.0)

    def test_sigma_g_floor_enforced(self):
        with pytest.raises(DomainError):
            FlowParams(alpha=0.1, beta=1.0, sigma_g=0.3)
        FlowParams(alpha=0.1, beta=0.0, sigma_g=0.3)  # irrelevant when beta=0


def assemble_from_operators(gradI, It, samples, p):
    """The flow system from sparse products of the functional's operators:
    the pickers u1, u2, G = diag(Ix) u1 + diag(Iy) u2, the forward
    differences Dx, Dy and the per-cell divergence, summed as
    A = 2 (((G'G + alpha kron(Dx'Dx + Dy'Dy, I2)) + beta diag(W x 1_2))
           + gamma div'div)."""
    nx, ny = It.nx, It.ny
    n = nx * ny
    g = gradI.data.reshape(n, 2)
    it = It.data.ravel()
    u1 = sp.kron(sp.identity(n), [[1.0, 0.0]], format="csr")
    u2 = sp.kron(sp.identity(n), [[0.0, 1.0]], format="csr")
    G = sp.diags(g[:, 0]) @ u1 + sp.diags(g[:, 1]) @ u2
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
        div = (sp.kron(sp.eye(ny - 1, ny), dx) @ u1
               + sp.kron(dy, sp.eye(nx - 1, nx)) @ u2)
        H = H + p.gamma * (div.T @ div)
    return sp.csr_matrix(2.0 * H), 2.0 * y, constant, translation


class TestBandAssembly:
    @pytest.mark.parametrize("frames", ["random", "flat"])
    @pytest.mark.parametrize("nx, ny", [(2, 2), (2, 7), (7, 2), (31, 17), (64, 48)])
    def test_matches_operator_products(self, nx, ny, frames):
        rng = np.random.default_rng(nx * ny)
        i1 = rng.random((ny, nx)) if frames == "random" else np.full((ny, nx), 0.5)
        i2 = np.roll(i1, 1, axis=1) + 0.1 * rng.standard_normal((ny, nx))
        grad = spatial_gradient(ScalarGrid(nx, ny, i1))
        it = temporal_difference(ScalarGrid(nx, ny, i1), ScalarGrid(nx, ny, i2))
        samples = [DisplacementSample(position=rng.uniform(0, max(nx, ny) - 1, 2),
                                      displacement=rng.standard_normal(2))
                   for _ in range(3)]
        for alpha in (0.0, 0.7):
            for beta, s in ((0.0, samples), (1.3, []), (1.3, samples)):
                for gamma in (0.0, 0.4, 50.0):
                    if alpha + beta == 0:
                        continue
                    p = FlowParams(alpha=alpha, beta=beta, gamma=gamma, sigma_g=1.5)
                    sys = assemble(grad, it, s, p)
                    A, rhs, constant, translation = assemble_from_operators(grad, it, s, p)
                    B = sys.matrix
                    assert B.has_canonical_format and np.all(B.data != 0)
                    assert np.array_equal(B.indptr, A.indptr)
                    assert np.array_equal(B.indices, A.indices)
                    # bitwise, so that the signs of zeros count
                    assert np.array_equal(B.data.view(np.int64), A.data.view(np.int64))
                    assert np.array_equal(sys.rhs.view(np.int64), rhs.view(np.int64))
                    assert np.array_equal(sys.constant, constant)
                    assert np.array_equal(sys.translation, translation)


class TestHornSchunckEquivalence:
    def test_matches_reference(self):
        for seed in range(20):
            grad, it, _, _ = random_instance(seed)
            p = FlowParams(alpha=0.8, beta=0.0)
            ours = solve_flow(assemble(grad, it, [], p)).data.ravel()
            ref = hs_reference_solution(grad, it, 0.8)
            np.testing.assert_allclose(ours, ref, atol=1e-8)


class TestSolvers:
    def test_translation_ramp(self):
        # brightness-constancy exact case: I = x1 - t*d
        nx = ny = 16
        d = 0.75
        ramp = np.tile(np.arange(nx, dtype=float), (ny, 1))
        i1 = ScalarGrid(nx, ny, ramp)
        i2 = ScalarGrid(nx, ny, ramp - d)
        grad = spatial_gradient(i1)
        it = temporal_difference(i1, i2)
        s = [DisplacementSample(position=np.array([8.0, 8.0]),
                                displacement=np.array([d, 0.0]))]
        p = FlowParams(alpha=0.8, beta=1.0, sigma_g=3.0)
        u = solve_flow(assemble(grad, it, s, p))
        np.testing.assert_allclose(u.data[2:-2, 2:-2, 0], d, atol=1e-6)
        np.testing.assert_allclose(u.data[2:-2, 2:-2, 1], 0.0, atol=1e-6)

    def test_flat_frames_without_smoothing_not_spd(self):
        # no image gradient, no smoothness and no samples: the matrix is zero
        flat = ScalarGrid(10, 10, np.full((10, 10), 0.5))
        p = FlowParams(alpha=0.0, beta=1.0)
        sys = assemble(spatial_gradient(flat), temporal_difference(flat, flat), [], p)
        with pytest.raises(NotSPD):
            solve_flow(sys)

    @pytest.mark.parametrize("levels", [1, 3])
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize("frames", ["flat", "x-stripes"])
    def test_undetermined_translation_not_spd(self, frames, gamma, levels):
        # without samples, frames that are featureless or vary only in x
        # leave a uniform (y) translation in the kernel of every level
        n = 40
        x = np.arange(n, dtype=float)
        data = (np.full((n, n), 0.5) if frames == "flat"
                else np.tile(0.5 + 0.4 * np.sin(0.7 * x), (n, 1)))
        i1 = ScalarGrid(n, n, data)
        i2 = ScalarGrid(n, n, np.roll(data, 1, axis=1))
        p = FlowParams(alpha=0.8, gamma=gamma, levels=levels)
        with pytest.raises(NotSPD):
            multiscale_flow(i1, i2, [], p)
        sys = assemble(spatial_gradient(i1), temporal_difference(i1, i2), [], p)
        with pytest.raises(NotSPD):
            solve_flow(sys)
        # one bubble sample pins the translation
        s = [DisplacementSample(position=np.array([20.0, 20.0]),
                                displacement=np.array([1.0, 0.0]))]
        p = FlowParams(alpha=0.8, beta=1.0, sigma_g=3.0, gamma=gamma, levels=levels)
        assert np.all(np.isfinite(multiscale_flow(i1, i2, s, p).data))

    def test_zero_row_not_spd(self):
        # alpha = 0 on flat frames: the sample's Gaussian weight underflows
        # to exactly 0 far from it, leaving zero rows although `translation`
        # has full rank
        flat = ScalarGrid(80, 8, np.full((8, 80), 0.5))
        s = [DisplacementSample(position=np.array([2.0, 4.0]),
                                displacement=np.array([1.0, 0.0]))]
        p = FlowParams(alpha=0.0, beta=1.0, sigma_g=1.0)
        sys = assemble(spatial_gradient(flat), temporal_difference(flat, flat), s, p)
        assert np.linalg.matrix_rank(sys.translation) == 2
        assert np.count_nonzero(sys.matrix.diagonal() == 0) > 0
        with pytest.raises(NotSPD):
            solve_flow(sys)

    @pytest.mark.parametrize("case", ["huge-beta", "huge-gradient"])
    def test_overflowing_system_not_spd(self, case):
        # finite inputs whose translation block overflows to inf
        n = 12
        x = np.arange(n, dtype=float)
        data = np.add.outer(np.sin(0.7 * x), np.cos(0.5 * x))
        scale, beta = (1.0, 1e308) if case == "huge-beta" else (1e160, 0.0)
        i1 = ScalarGrid(n, n, scale * data)
        i2 = ScalarGrid(n, n, scale * np.roll(data, 1, axis=1))
        s = [DisplacementSample(position=np.array([4.0, 4.0]),
                                displacement=np.array([1.0, 0.0])),
             DisplacementSample(position=np.array([7.0, 6.0]),
                                displacement=np.array([0.0, 1.0]))]
        p = FlowParams(alpha=0.5, beta=beta, sigma_g=2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match="flow system matrix overflows"):
                multiscale_flow(i1, i2, s, p)
            sys = assemble(spatial_gradient(i1), temporal_difference(i1, i2), s, p)
            with pytest.raises(DomainError, match="flow system matrix overflows"):
                solve_flow(sys)

    def test_solution_linearity_in_rhs(self):
        grad, it, samples, rng = random_instance(3)
        p = FlowParams(alpha=0.6, beta=1.0, sigma_g=2.0)
        sys = assemble(grad, it, samples, p)
        b1 = rng.standard_normal(sys.rhs.size)
        b2 = rng.standard_normal(sys.rhs.size)
        import scipy.sparse.linalg as spla
        lu = spla.splu(sys.matrix.tocsc())
        x12 = lu.solve(b1 + b2)
        np.testing.assert_allclose(x12, lu.solve(b1) + lu.solve(b2), atol=1e-9)

    def test_minimizer_beats_perturbations(self):
        grad, it, samples, rng = random_instance(4)
        p = FlowParams(alpha=0.5, beta=1.0, sigma_g=2.0)
        sys = assemble(grad, it, samples, p)
        u = solve_flow(sys)
        fmin = evaluate_functional(u, grad, it, samples, p)
        for _ in range(100):
            v = VectorGrid(8, 8, u.data + 1e-3 * rng.standard_normal((8, 8, 2)))
            assert evaluate_functional(v, grad, it, samples, p) >= fmin


class TestGradient:
    def test_gradient_at_solution_small(self):
        grad, it, samples, _ = random_instance(5)
        p = FlowParams(alpha=0.5, beta=1.0, sigma_g=2.0)
        sys = assemble(grad, it, samples, p)
        u = solve_flow(sys)
        g = gradient(u, grad, it, samples, p)
        assert np.linalg.norm(g.data) <= 1e-10 * np.linalg.norm(sys.rhs)

    def test_gradient_at_zero_is_minus_rhs(self):
        grad, it, samples, _ = random_instance(6)
        p = FlowParams(alpha=0.5, beta=1.0, sigma_g=2.0)
        sys = assemble(grad, it, samples, p)
        g = gradient(VectorGrid.zeros(8, 8), grad, it, samples, p)
        np.testing.assert_allclose(g.data.ravel(), -sys.rhs, atol=1e-14)

    def test_finite_difference_directional(self):
        for seed in range(20):
            grad, it, samples, rng = random_instance(seed)
            p = FlowParams(alpha=0.4, beta=1.2, gamma=0.3, sigma_g=2.0)
            u = VectorGrid(8, 8, rng.standard_normal((8, 8, 2)))
            h = rng.standard_normal((8, 8, 2))
            g = gradient(u, grad, it, samples, p)
            eps = 1e-6
            up = VectorGrid(8, 8, u.data + eps * h)
            um = VectorGrid(8, 8, u.data - eps * h)
            fd = (evaluate_functional(up, grad, it, samples, p)
                  - evaluate_functional(um, grad, it, samples, p)) / (2 * eps)
            inner = float(np.sum(g.data * h))
            assert fd == pytest.approx(inner, rel=1e-5)


class TestMultiscale:
    def test_levels_one_is_single_scale(self):
        rng = np.random.default_rng(9)
        nx = ny = 20
        i1 = ScalarGrid(nx, ny, rng.random((ny, nx)))
        i2 = ScalarGrid(nx, ny, rng.random((ny, nx)))
        samples = [DisplacementSample(position=np.array([10.0, 10.0]),
                                      displacement=np.array([0.5, 0.5]))]
        p = FlowParams(alpha=0.8, beta=1.0, sigma_g=2.0, levels=1)
        u_multi = multiscale_flow(i1, i2, samples, p)
        grad = spatial_gradient(i1)
        it = temporal_difference(i1, i2)
        u_single = solve_flow(assemble(grad, it, samples, p))
        np.testing.assert_array_equal(u_multi.data, u_single.data)

    def test_pyramid_bottoms_out(self):
        i = ScalarGrid(8, 8, np.random.default_rng(10).random((8, 8)))
        p = FlowParams(alpha=0.8, beta=0.0, levels=4, eta=0.4)
        with pytest.raises(GridTooSmall):
            multiscale_flow(i, i, [], p)

    @staticmethod
    def _pyramid_error(i, p):
        """(error type, message start) that building p's pyramid from the
        frame i level by level with `downsample` runs into, None if it
        builds every level: a level below 2x2, a smoothing width wider than
        the level it smooths, or a level that repeats the extents before."""
        g = i
        for level in range(1, p.levels):
            prev = g.nx, g.ny
            try:
                g = downsample(g, p.eta, p.sigma0)
            except GridTooSmall:
                return GridTooSmall, f"levels = {p.levels} downsamples"
            except DomainError:
                return DomainError, f"sigma0 = {p.sigma0:g} at level {level}: "
            if (g.nx, g.ny) == prev:
                return DomainError, f"levels = {p.levels} exceeds {level}: "
        return None

    def _check_agrees_with_the_pyramid(self, i, p):
        error = self._pyramid_error(i, p)
        if error is None:
            p.check_extents(i.nx, i.ny)
            multiscale_flow(i, i, [], p)
            return None
        for call in (lambda: p.check_extents(i.nx, i.ny), lambda: multiscale_flow(i, i, [], p)):
            with pytest.raises(error[0], match="^" + re.escape(error[1])):
                call()
        return error[1]

    @pytest.mark.parametrize("n, levels, eta", [(8, 4, 0.4), (8, 2, 0.4), (16, 4, 0.5),
                                                (16, 5, 0.5), (17, 3, 0.3), (16, 30, 0.9)])
    def test_extents_check_agrees_with_the_pyramid(self, n, levels, eta):
        i = ScalarGrid(n, n, np.random.default_rng(11).random((n, n)))
        p = FlowParams(alpha=0.8, beta=0.0, levels=levels, eta=eta)
        error = self._check_agrees_with_the_pyramid(i, p) or ""
        # at eta = 0.9, 16 pixels stop shrinking, at 4, on level 11
        stalls = (n, levels, eta) == (16, 30, 0.9)
        assert error.startswith(f"levels = {levels} exceeds") == stalls

    @pytest.mark.parametrize("n, levels, eta, sigma0, too_wide", [
        (20, 2, 0.5, 1e20, True), (20, 2, 0.5, 11.0, False), (20, 2, 0.5, 12.0, True),
        (16, 4, 0.5, 2.0, False), (16, 4, 0.5, 2.5, True), (16, 30, 0.9, 1.0, False),
        (16, 30, 0.9, 9.0, True)])
    def test_width_check_agrees_with_the_pyramid(self, n, levels, eta, sigma0, too_wide):
        i = ScalarGrid(n, n, np.random.default_rng(13).random((n, n)))
        p = FlowParams(alpha=0.8, beta=0.0, levels=levels, eta=eta, sigma0=sigma0)
        error = self._check_agrees_with_the_pyramid(i, p) or ""
        assert error.startswith(f"sigma0 = {sigma0:g} at level ") == too_wide
        if too_wide:
            with pytest.raises(DomainError, match="exceeds the longest extent"):
                multiscale_flow(i, i, [], p)
        # 16 pixels stop shrinking on level 11 at eta = 0.9, unless level 12's
        # smoothing is too wide first
        stalls = (levels, too_wide) == (30, False)
        assert error.startswith(f"levels = {levels} exceeds") == stalls

    def test_extents_check_stops_where_the_pyramid_stops_shrinking(self):
        # at eta = 0.9, 16 pixels shrink to 4 on level 11 and stay there
        FlowParams(alpha=0.8, levels=12, eta=0.9).check_extents(16, 16)
        message = "levels = 1000000000000 exceeds 12: 16x16 frames stop shrinking at 4x4 on level 11"
        with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
            FlowParams(alpha=0.8, levels=10**12, eta=0.9).check_extents(16, 16)

    def test_pyramid_checked_before_any_level_is_built(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a level was built")
        monkeypatch.setattr(flowmod, "downsample", fail)
        i = ScalarGrid(16, 16, np.random.default_rng(14).random((16, 16)))
        for p, error in [(FlowParams(alpha=0.8, levels=10**6, eta=0.9), DomainError),
                         (FlowParams(alpha=0.8, levels=5, eta=0.5), GridTooSmall)]:
            with pytest.raises(error, match=f"^levels = {p.levels} "):
                multiscale_flow(i, i, [], p)

    def test_extent_mismatch(self):
        a = ScalarGrid(8, 8, np.zeros((8, 8)))
        b = ScalarGrid(9, 8, np.zeros((8, 9)))
        with pytest.raises(ShapeMismatch):
            multiscale_flow(a, b, [], FlowParams(alpha=1.0))

    def test_three_levels_match_pinned_reference(self):
        rng = np.random.default_rng(12)
        n = 24
        i1 = ScalarGrid(n, n, rng.random((n, n)))
        i2 = ScalarGrid(n, n, rng.random((n, n)))
        samples = [DisplacementSample(position=np.array([11.0, 13.0]),
                                      displacement=np.array([0.4, -0.3]))]
        p = FlowParams(alpha=0.8, beta=1.0, sigma_g=3.0, levels=3)
        u = multiscale_flow(i1, i2, samples, p)
        ref = np.load(Path(__file__).parent / "data" / "multiscale_24_levels3.npy")
        np.testing.assert_allclose(u.data, ref, rtol=0, atol=1e-12)

    def test_three_levels_at_96_match_pinned_reference(self):
        # the 96^2 and 48^2 levels are solved by multigrid-preconditioned cg;
        # the reference was computed when every level was factorized
        rng = np.random.default_rng(14)
        n = 96
        i1 = ScalarGrid(n, n, rng.random((n, n)))
        i2 = ScalarGrid(n, n, rng.random((n, n)))
        samples = [DisplacementSample(position=np.array([40.0, 55.0]),
                                      displacement=np.array([0.6, -0.4])),
                   DisplacementSample(position=np.array([70.0, 20.0]),
                                      displacement=np.array([-0.3, 0.5]))]
        p = FlowParams(alpha=0.8, beta=1.0, sigma_g=3.0, levels=3)
        u = multiscale_flow(i1, i2, samples, p)
        ref = np.load(Path(__file__).parent / "data" / "multiscale_96_levels3.npy")
        np.testing.assert_allclose(u.data, ref, rtol=0, atol=1e-12)


def structured_system(nx, ny, gamma, seed=0):
    """Flow system of a smooth pattern shifted by one pixel, with samples."""
    rng = np.random.default_rng(seed)
    x, y = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
    data = np.sin(x / 5.0) * np.cos(y / 7.0) + 0.05 * rng.random((ny, nx))
    i1 = ScalarGrid(nx, ny, data)
    i2 = ScalarGrid(nx, ny, np.roll(data, 1, axis=1))
    samples = [DisplacementSample(position=rng.uniform(0, min(nx, ny) - 1, 2),
                                  displacement=rng.standard_normal(2))
               for _ in range(5)]
    p = FlowParams(alpha=0.8, beta=1.0, sigma_g=3.0, gamma=gamma)
    return assemble(spatial_gradient(i1), temporal_difference(i1, i2), samples, p)


class TestMultigrid:
    """Levels of more than `COARSEST_NODES` nodes are solved by conjugate
    gradients preconditioned with a multigrid V-cycle."""

    @pytest.fixture
    def cg_calls(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return solve_near(*args)

        monkeypatch.setattr(linsolve, "solve_near", counted)
        return calls

    @pytest.mark.parametrize("nx, ny, gamma", [(64, 48, 0.0), (64, 48, 1.0), (47, 53, 0.0),
                                               (101, 67, 0.5), (99, 97, 0.0)])
    def test_matches_fresh_factorization(self, cg_calls, nx, ny, gamma):
        assert nx * ny > COARSEST_NODES
        sys = structured_system(nx, ny, gamma)
        x = solve_flow(sys).data.ravel()
        assert len(cg_calls) == 1
        ref = GridFactor(sys.matrix, grid_order(nx, ny)).solve(sys.rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_small_levels_are_factorized(self, cg_calls):
        sys = structured_system(64, 32, 0.0)
        assert 64 * 32 == COARSEST_NODES
        solve_flow(sys)
        assert not cg_calls

    def test_runs_are_bit_identical(self):
        sys = structured_system(80, 60, 0.5)
        np.testing.assert_array_equal(solve_flow(sys).data, solve_flow(sys).data)

    def test_cg_at_its_cap_falls_back_to_factorizing(self, monkeypatch, cg_calls):
        sys = structured_system(64, 48, 1.0)
        monkeypatch.setattr(linsolve, "_CG_MAX_ITER", 0)
        x = solve_flow(sys).data.ravel()
        assert len(cg_calls) == 1
        np.testing.assert_array_equal(
            x, GridFactor(sys.matrix, grid_order(64, 48)).solve(sys.rhs))

    @pytest.fixture
    def v_cycles(self, monkeypatch):
        cycles = []
        solve = GridMultigrid.solve

        def counted(self, b):
            cycles.append(1)
            return solve(self, b)

        monkeypatch.setattr(GridMultigrid, "solve", counted)
        return cycles

    def test_hopeless_cg_gives_up_early(self, cg_calls, v_cycles):
        # with gamma >> alpha the smoother cannot damp the near-divergence-free
        # error, and cg would run to its cap of 50 iterations
        sys = structured_system(64, 48, 50.0)
        x = solve_flow(sys).data.ravel()
        assert len(cg_calls) == 1
        assert 1 < len(v_cycles) <= 10
        np.testing.assert_array_equal(
            x, GridFactor(sys.matrix, grid_order(64, 48)).solve(sys.rhs))

    def test_slow_cg_is_not_given_up(self, v_cycles):
        # gamma = 20 converges in about forty iterations, near the cap
        sys = structured_system(64, 48, 20.0)
        x = solve_near(sys.matrix, sys.rhs, GridMultigrid(sys.matrix, 64, 48))
        assert len(v_cycles) > 30
        ref = GridFactor(sys.matrix, grid_order(64, 48)).solve(sys.rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("case", ["zero-row", "flat-frames"])
    def test_singular_verdicts_do_not_depend_on_the_grid_size(self, case):
        # flat frames leave the translation undetermined without samples,
        # and with alpha = 0 leave zero rows far from a narrow sample (as in
        # TestSolvers.test_zero_row_not_spd)
        if case == "zero-row":
            s = [DisplacementSample(position=np.array([2.0, 4.0]),
                                    displacement=np.array([1.0, 0.0]))]
            p = FlowParams(alpha=0.0, beta=1.0, sigma_g=1.0)
        else:
            s, p = [], FlowParams(alpha=0.8)

        def verdict(nx, ny):
            flat = ScalarGrid(nx, ny, np.full((ny, nx), 0.5))
            sys = assemble(spatial_gradient(flat), temporal_difference(flat, flat), s, p)
            with pytest.raises(NotSPD) as info:
                solve_flow(sys)
            return str(info.value)

        assert 80 * 8 <= COARSEST_NODES < 80 * 40
        assert verdict(80, 8) == verdict(80, 40)


class TestFlowConfig:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "sigma_g", "sigma0"])
    def test_non_finite_value_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            FlowParams(**{name: value})

    def test_roundtrip(self, tmp_path):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("alpha = 4.0\nbeta = 4\nsigma_g = 5\nlevels = 5\n"
                       "eta = 0.5\nsigma0 = 0.6\ngamma = 0\n")
        p = FlowParams.from_config(cfg)
        assert p == FlowParams(alpha=4.0, beta=4.0, sigma_g=5.0, levels=5)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("alpha = 1.0\nbogus = 3\n")
        from speckleflow.errors import FormatError
        with pytest.raises(FormatError):
            FlowParams.from_config(cfg)
