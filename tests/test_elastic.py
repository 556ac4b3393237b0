from pathlib import Path

import numpy as np
import pytest

from speckleflow.elastic import (BoundaryConditions, ElasticModel, LameField,
                                 forward_solve, frechet_adjoint, frechet_apply,
                                 read_bc_config, write_bc_config, young_modulus)
from speckleflow.errors import (DivisionByZero, DomainError, FormatError, ShapeMismatch,
                               SingularSystem)
from speckleflow.grids import ScalarGrid, VectorGrid
from speckleflow.invert import field_inner

DATA = Path(__file__).parent / "data"


def affine_bc(nx, ny, a, b):
    """Dirichlet data of u = (a*x, b*y) on the whole boundary."""
    xs = np.arange(nx, dtype=float)
    ys = np.arange(ny, dtype=float)
    return BoundaryConditions(dirichlet=[
        ("bottom", "both", np.stack([a * xs, np.zeros(nx)], axis=-1)),
        ("top", "both", np.stack([a * xs, np.full(nx, b * (ny - 1))], axis=-1)),
        ("left", "both", np.stack([np.zeros(ny), b * ys], axis=-1)),
        ("right", "both", np.stack([np.full(ny, a * (nx - 1)), b * ys], axis=-1)),
    ])


def compression_bc(amount=-2.0):
    return BoundaryConditions(dirichlet=[("bottom", "both", 0.0),
                                         ("top", "uy", amount)])


def random_field(nx, ny, seed, lam0=5.0, mu0=2.0):
    rng = np.random.default_rng(seed)
    lam = ScalarGrid(nx, ny, lam0 + rng.random((ny, nx)))
    mu = ScalarGrid(nx, ny, mu0 + rng.random((ny, nx)))
    return LameField(lam, mu), rng


class TestLameField:
    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            LameField(ScalarGrid(3, 3, -np.ones((3, 3))),
                      ScalarGrid(3, 3, np.ones((3, 3))))

    def test_mu_floor_enforced(self):
        with pytest.raises(DomainError):
            LameField(ScalarGrid(3, 3, np.ones((3, 3))),
                      ScalarGrid(3, 3, np.zeros((3, 3))))

    def test_extent_mismatch(self):
        with pytest.raises(ShapeMismatch):
            LameField(ScalarGrid(3, 3, np.ones((3, 3))),
                      ScalarGrid(4, 3, np.ones((3, 4))))


class TestForwardSolve:
    def test_patch_tests_random_affine(self):
        rng = np.random.default_rng(0)
        nx, ny = 9, 8
        xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
        for _ in range(10):
            a, b = rng.uniform(-1, 1, 2)
            lam0, mu0 = rng.uniform(0.5, 10.0, 2)
            p = LameField.constant(nx, ny, lam0, mu0)
            u = forward_solve(p, affine_bc(nx, ny, a, b))
            exact = np.stack([a * xs, b * ys], axis=-1)
            np.testing.assert_allclose(u.data, exact, atol=1e-9)

    def test_zero_bc_zero_force(self):
        p = LameField.constant(8, 8, 3.0, 1.0)
        bc = BoundaryConditions(dirichlet=[("bottom", "both", 0.0),
                                           ("top", "both", 0.0)])
        u = forward_solve(p, bc)
        np.testing.assert_allclose(u.data, 0.0, atol=1e-12)

    def test_stiffness_symmetric_positive_definite(self):
        for seed in range(5):
            p, _ = random_field(7, 6, seed)
            model = ElasticModel(7, 6, compression_bc())
            K = model.assemble(p).toarray()
            assert np.abs(K - K.T).max() <= 1e-12 * np.abs(K).max()
            free = model.free
            K_ff = K[np.ix_(free, free)]
            assert np.linalg.eigvalsh(K_ff).min() > 0

    def test_stiffness_is_canonical(self):
        # the COO -> CSR conversion sums the cells' duplicate entries, so
        # assemble needs no sum_duplicates of its own
        p, _ = random_field(9, 7, 0)
        K = ElasticModel(9, 7, compression_bc()).assemble(p)
        assert K.has_canonical_format
        summed = K.copy()
        summed.sum_duplicates()
        assert summed.nnz == K.nnz

    def test_energy_identity(self):
        for seed in range(5):
            p, _ = random_field(8, 8, seed)
            bc = compression_bc()
            model = ElasticModel(8, 8, bc)
            factors = model.factorize(p)
            u = factors.solve_forward()
            w = u.data.ravel() - model.lift
            K = model.assemble(p)
            lhs = float(w @ (K @ w))
            rhs = float(model.load @ w) - float(model.lift @ (K @ w))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_traction_pulls_material(self):
        p = LameField.constant(10, 10, 3.0, 1.0)
        bc = BoundaryConditions(dirichlet=[("bottom", "both", 0.0)],
                                traction=[("top", (0.0, 0.5))])
        u = forward_solve(p, bc)
        assert u.data[-1, :, 1].mean() > 0.01

    def test_refinement_consistency(self):
        # the same Dirichlet problem at twice the resolution: the bilinear
        # stiffness does not depend on the cell size, so centerlines agree
        p1 = LameField.constant(21, 21, 5.0, 2.0)
        u1 = forward_solve(p1, compression_bc(-1.0))
        p2 = LameField.constant(41, 41, 5.0, 2.0)
        u2 = forward_solve(p2, compression_bc(-1.0))
        coarse_line = u1.data[:, 10, 1]
        fine_line = u2.data[::2, 20, 1]
        np.testing.assert_allclose(fine_line, coarse_line, atol=0.02)

    def test_inclusion_compression_regression(self):
        # 10% top compression of a 200-px sample with a stiff inclusion:
        # qualitative shape checks plus a comparison with a pinned field.
        # Equal 8-decimal roundings would only bound the change by 1e-8, and
        # a solver that moves the field by 1e-11 still flips some roundings,
        # so the field is compared directly, to 1e-9.
        import hashlib
        from speckleflow.phantom import PhantomSpec, make_inclusion_phantom
        spec = PhantomSpec(kind="inclusion", nx=200, ny=200, bubble_count=12,
                           bubble_sigma_min=1.5, bubble_sigma_max=2.0,
                           compression_px=20.0, inclusion_radius=30.0,
                           seed=0, margin=20)
        _, _, u_true, *_ = make_inclusion_phantom(spec)
        assert u_true.data[:, :, 1].min() == pytest.approx(-20.0, abs=1e-9)
        assert u_true.data[0, :, 1] == pytest.approx(0.0, abs=1e-12)  # fixed bottom
        # lateral bulge: outward on both sides at mid height
        mid = 100
        assert u_true.data[mid, 5, 0] < -1.0
        assert u_true.data[mid, -5, 0] > 1.0
        ref = np.load(DATA / "inclusion_compression_u.npy")
        # the stored field is the one the original digest pinned
        digest = hashlib.sha256(np.round(ref, 8).tobytes()).hexdigest()
        assert digest == ("139ca3e563ae0b276095bd4ad5655e44"
                          "163e55d01637bb32626a1b01a441bcce")
        np.testing.assert_allclose(u_true.data, ref, rtol=0, atol=1e-9)

    def test_underconstrained_bc_is_singular(self):
        # only ux is held, so a vertical translation costs no energy and the
        # net vertical traction cannot be balanced
        bc = BoundaryConditions(dirichlet=[("left", "ux", 0.0)],
                                traction=[("top", (0.3, -1.0))])
        with pytest.raises(SingularSystem):
            forward_solve(LameField.constant(12, 10, 1.0, 1.0), bc)

    @pytest.mark.parametrize("dirichlet", [
        [("left", "ux", 0.0)],
        [("bottom", "uy", 0.0)],
        # rotation about the bottom-left corner moves neither held component
        [("bottom", "ux", 0.0), ("left", "uy", 0.0)],
    ], ids=["left-ux", "bottom-uy", "corner-rotation"])
    def test_rigid_motion_free_bc_is_singular_for_linearization(self, dirichlet):
        bc = BoundaryConditions(dirichlet=dirichlet, traction=[("top", (0.3, -1.0))])
        p = LameField.constant(12, 10, 1.0, 1.0)
        d = ScalarGrid(12, 10, np.ones((10, 12)))
        w = VectorGrid(12, 10, np.ones((10, 12, 2)))
        with pytest.raises(SingularSystem):
            frechet_apply(p, w, d, d, bc)
        with pytest.raises(SingularSystem):
            frechet_adjoint(p, w, w, bc)

    @pytest.mark.parametrize("dirichlet", [
        [("left", "both", 0.0)],
        [("bottom", "uy", 0.0), ("left", "ux", 0.0)],
        [("bottom", "ux", 0.0), ("top", "ux", 1.0), ("left", "uy", 0.0)],
    ], ids=["cantilever", "roller-pair", "shear"])
    def test_bc_fixing_every_rigid_motion_accepted(self, dirichlet):
        bc = BoundaryConditions(dirichlet=dirichlet, traction=[("right", (0.3, -1.0))])
        u = forward_solve(LameField.constant(12, 10, 1.0, 1.0), bc)
        assert np.all(np.isfinite(u.data))

    @pytest.mark.parametrize("comps, shape", [
        ("both", (4, 2)), ("uy", (4, 2)), ("both", (6, 1)), ("ux", (6, 2)),
        ("both", (6, 2, 1)),
    ], ids=["both-4x2", "uy-4x2", "both-6x1", "ux-6x2", "both-6x2x1"])
    def test_dirichlet_value_shape_mismatch(self, comps, shape):
        # the bottom side of a 6 x 5 grid has 6 nodes
        def model(value):
            bc = BoundaryConditions(dirichlet=[("bottom", comps, value),
                                               ("top", "both", 0.0)])
            return ElasticModel(6, 5, bc)
        with pytest.raises(ShapeMismatch):
            model(np.zeros(shape))
        k = 2 if comps == "both" else 1
        sel = [0, 1] if comps == "both" else ([0] if comps == "ux" else [1])
        values = np.arange(6.0 * k).reshape(6, k)
        lift = model(values).lift.reshape(-1, 2)[:6]
        np.testing.assert_array_equal(lift[:, sel], values)
        lift = model(values[:, 0]).lift.reshape(-1, 2)[:6]
        np.testing.assert_array_equal(lift[:, sel], np.repeat(values[:, :1], k, axis=1))

    def test_dirichlet_and_traction_same_side_rejected(self):
        with pytest.raises(DomainError):
            BoundaryConditions(dirichlet=[("top", "both", 0.0)],
                               traction=[("top", (1.0, 0.0))])

    def test_dirichlet_required(self):
        with pytest.raises(DomainError):
            BoundaryConditions(dirichlet=[])


class TestDerivative:
    def test_zero_direction(self):
        p, _ = random_field(8, 8, 1)
        bc = compression_bc()
        u = forward_solve(p, bc)
        zero = ScalarGrid(8, 8, np.zeros((8, 8)))
        w = frechet_apply(p, u, zero, zero, bc)
        np.testing.assert_allclose(w.data, 0.0, atol=1e-14)

    def test_linearity(self):
        p, rng = random_field(8, 8, 2)
        bc = compression_bc()
        u = forward_solve(p, bc)
        dl = ScalarGrid(8, 8, rng.standard_normal((8, 8)))
        dm = ScalarGrid(8, 8, rng.standard_normal((8, 8)))
        w1 = frechet_apply(p, u, dl, dm, bc)
        dl2 = ScalarGrid(8, 8, 2.0 * dl.data)
        dm2 = ScalarGrid(8, 8, 2.0 * dm.data)
        w2 = frechet_apply(p, u, dl2, dm2, bc)
        np.testing.assert_allclose(w2.data, 2.0 * w1.data, atol=1e-10)

    def test_finite_difference_order(self):
        p, rng = random_field(10, 10, 3)
        bc = compression_bc()
        u = forward_solve(p, bc)
        dl = ScalarGrid(10, 10, 0.1 * rng.standard_normal((10, 10)))
        dm = ScalarGrid(10, 10, 0.1 * rng.standard_normal((10, 10)))
        w = frechet_apply(p, u, dl, dm, bc)

        def residual(t):
            pt = LameField(ScalarGrid(10, 10, p.lam.data + t * dl.data),
                           ScalarGrid(10, 10, p.mu.data + t * dm.data))
            ut = forward_solve(pt, bc)
            return np.linalg.norm(ut.data - u.data - t * w.data)

        e1, e2 = residual(1e-3), residual(1e-4)
        order = np.log10(e1 / e2)
        assert order >= 1.9

    def test_adjoint_identity_20_random(self):
        for seed in range(20):
            p, rng = random_field(8, 8, seed + 100)
            bc = compression_bc()
            u = forward_solve(p, bc)
            dl = ScalarGrid(8, 8, rng.standard_normal((8, 8)))
            dm = ScalarGrid(8, 8, rng.standard_normal((8, 8)))
            w = VectorGrid(8, 8, rng.standard_normal((8, 8, 2)))
            fh = frechet_apply(p, u, dl, dm, bc)
            gl, gm = frechet_adjoint(p, u, w, bc)
            lhs = field_inner(fh.data, w.data)
            rhs = field_inner(dl.data, gl.data) + field_inner(dm.data, gm.data)
            denom = np.linalg.norm(fh.data) * np.linalg.norm(w.data)
            assert abs(lhs - rhs) <= 1e-9 * max(denom, 1e-30)

    def test_adjoint_zero_w(self):
        p, _ = random_field(8, 8, 4)
        bc = compression_bc()
        u = forward_solve(p, bc)
        gl, gm = frechet_adjoint(p, u, VectorGrid.zeros(8, 8), bc)
        np.testing.assert_allclose(gl.data, 0.0, atol=1e-14)
        np.testing.assert_allclose(gm.data, 0.0, atol=1e-14)

    def test_adjoint_constant_divergence_structure(self):
        # u affine with div u = a + b: g_lam = -(a+b) * div q pointwise
        nx = ny = 9
        a, b = 0.4, -0.1
        p = LameField.constant(nx, ny, 4.0, 2.0)
        bc = affine_bc(nx, ny, a, b)
        u = forward_solve(p, bc)
        rng = np.random.default_rng(5)
        w = VectorGrid(nx, ny, rng.standard_normal((ny, nx, 2)))
        gl, _ = frechet_adjoint(p, u, w, bc)
        # reconstruct div q via the mu-free adjoint path: solve for q and
        # check proportionality through a second adjoint with scaled u
        u2 = VectorGrid(nx, ny, 2.0 * u.data)
        gl2, _ = frechet_adjoint(p, u2, w, bc)
        np.testing.assert_allclose(gl2.data, 2.0 * gl.data, atol=1e-10)


class TestYoungModulus:
    def test_initial_guess_value(self):
        p = LameField.constant(4, 4, 490.0, 10.0)
        np.testing.assert_allclose(young_modulus(p).data, 29.8, rtol=1e-12)

    def test_lambda_zero_collapses(self):
        p = LameField.constant(4, 4, 0.0, 3.0)
        np.testing.assert_allclose(young_modulus(p).data, 6.0, rtol=1e-12)

    def test_round_trip_from_reported_means(self):
        # mu and E measured; implied lambda = mu(2mu-E)/(E-3mu) inverts the map
        mu, E = 342.0, 1015.0
        lam = mu * (2 * mu - E) / (E - 3 * mu)
        p = LameField.constant(2, 2, lam, mu)
        assert young_modulus(p).data[0, 0] == pytest.approx(E, rel=1e-3)

    def test_zero_denominator(self):
        p = LameField.constant(2, 2, 0.0, 1.0)
        p.lam.data[:] = 0.0
        p.mu.data[:] = 0.0  # bypass constructor checks to probe the guard
        with pytest.raises(DivisionByZero):
            young_modulus(p)


class TestBCConfig:
    def test_roundtrip(self, tmp_path):
        bc = BoundaryConditions(dirichlet=[("bottom", "both", 0.0),
                                           ("top", "uy", -20.0)],
                                traction=[("left", (0.1, 0.0))])
        path = tmp_path / "bc.cfg"
        write_bc_config(path, bc)
        back = read_bc_config(path)
        assert back.dirichlet[1] == ("top", "uy", -20.0)
        assert back.traction[0][0] == "left"

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bc.cfg"
        path.write_text("dirichlet top uy\n")
        with pytest.raises(FormatError):
            read_bc_config(path)
        for line in ("dirichlet top uy nan", "dirichlet top uy -inf",
                     "traction left inf 0", "traction left 0 nan", "neumann top 0 0"):
            for head, lineno in (("", 2), ("# fixed base\n\n", 4)):
                path.write_text(f"{head}dirichlet bottom both 0\n{line}\n")
                with pytest.raises(FormatError) as err:
                    read_bc_config(path)
                assert str(err.value).startswith(f"{path}:{lineno}:")
