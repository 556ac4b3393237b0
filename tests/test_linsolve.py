import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from speckleflow import linsolve
from speckleflow.elastic import BoundaryConditions, ElasticModel, LameField
from speckleflow.errors import NotConverged, NotSPD
from speckleflow.flow import FlowParams, assemble
from speckleflow.grids import ScalarGrid, VectorGrid, prolong
from speckleflow.linsolve import GridFactor, GridMultigrid, grid_order, solve_near

extents = st.integers(min_value=2, max_value=40)


def random_mask(seed, n_dofs):
    return np.random.default_rng(seed).random(n_dofs) < 0.3


def check_solve(A, perm, seed):
    b = np.random.default_rng(seed).standard_normal(A.shape[0])
    x = GridFactor(A, perm).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    ref = spla.splu(A.tocsc()).solve(b)
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


@settings(max_examples=60, deadline=None)
@given(nx=extents, ny=extents, seed=st.integers(0, 2**32 - 1),
       masked=st.booleans())
def test_order_is_permutation_keeping_node_pairs(nx, ny, seed, masked):
    free = random_mask(seed, 2 * nx * ny) if masked else np.ones(2 * nx * ny, bool)
    perm = grid_order(nx, ny, free if masked else None)
    n_free = int(free.sum())
    np.testing.assert_array_equal(np.sort(perm), np.arange(n_free))
    # reduced index of each unknown; a node whose two unknowns are both
    # free has them in consecutive positions of the ordering
    reduced = np.cumsum(free) - 1
    position = np.empty(n_free, dtype=np.int64)
    position[perm] = np.arange(n_free)
    both = free[0::2] & free[1::2]
    ux = reduced[0::2][both]
    np.testing.assert_array_equal(position[ux + 1], position[ux] + 1)


@settings(max_examples=30, deadline=None)
@given(nx=extents, ny=extents, seed=st.integers(0, 2**32 - 1),
       alpha=st.floats(0.1, 5.0), gamma=st.floats(0.0, 1.0))
def test_flow_style_solve(nx, ny, seed, alpha, gamma):
    rng = np.random.default_rng(seed)
    grad = VectorGrid(nx, ny, rng.standard_normal((ny, nx, 2)))
    it = ScalarGrid(nx, ny, rng.standard_normal((ny, nx)))
    sys = assemble(grad, it, [], FlowParams(alpha=alpha, gamma=gamma))
    check_solve(sys.matrix, grid_order(nx, ny), seed)


@settings(max_examples=30, deadline=None)
@given(nx=extents, ny=extents, seed=st.integers(0, 2**32 - 1))
def test_elastic_style_solve(nx, ny, seed):
    rng = np.random.default_rng(seed)
    # the clamped bottom row removes the rigid motions; the random extra
    # fixed unknowns keep the reduced matrix definite
    model = ElasticModel(nx, ny, BoundaryConditions(dirichlet=[("bottom", "both", 0.0)]))
    free = model.free & ~random_mask(seed, 2 * nx * ny)
    p = LameField(ScalarGrid(nx, ny, rng.uniform(0.0, 10.0, (ny, nx))),
                  ScalarGrid(nx, ny, rng.uniform(0.1, 20.0, (ny, nx))))
    K = model.assemble(p)
    check_solve(K[free][:, free], grid_order(nx, ny, free), seed)


def stiffness_and_nearby_factor(seed, change, n=20):
    """Reduced stiffness of a random Lame field, and the factor of the
    stiffness of that field scaled pointwise by up to 1 +- change."""
    rng = np.random.default_rng(seed)
    model = ElasticModel(n, n, BoundaryConditions(dirichlet=[("bottom", "both", 0.0)]))
    lam = rng.uniform(0.0, 10.0, (n, n))
    mu = rng.uniform(0.1, 20.0, (n, n))

    def reduced(scale):
        p = LameField(ScalarGrid(n, n, lam * scale), ScalarGrid(n, n, mu * scale))
        return model.reduce(p).K_ff

    near = reduced(1.0 + change * rng.uniform(-1.0, 1.0, (n, n)))
    return reduced(1.0), GridFactor(near, model.order), rng


@pytest.mark.parametrize("seed", range(4))
def test_solve_near_converges_with_perturbed_factor(seed):
    A, near, rng = stiffness_and_nearby_factor(seed, 0.1)
    b = rng.standard_normal(A.shape[0])
    x = solve_near(A, b, near)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
    ref = spla.splu(A.tocsc()).solve(b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("cap", [0, 1])
def test_solve_near_reports_the_cap(monkeypatch, cap):
    A, near, rng = stiffness_and_nearby_factor(0, 0.9)
    monkeypatch.setattr(linsolve, "_CG_MAX_ITER", cap)
    with pytest.raises(NotConverged, match="iteration cap") as info:
        solve_near(A, rng.standard_normal(A.shape[0]), near)
    assert info.value.residual > 1e-14


def flow_matrix(nx, ny, seed, gamma=0.0):
    rng = np.random.default_rng(seed)
    grad = VectorGrid(nx, ny, rng.standard_normal((ny, nx, 2)))
    it = ScalarGrid(nx, ny, rng.standard_normal((ny, nx)))
    return assemble(grad, it, [], FlowParams(alpha=0.8, gamma=gamma)).matrix


@pytest.mark.parametrize("nx, ny", [(8, 6), (7, 9), (2, 3), (16, 1)])
def test_prolongation_reproduces_constant_and_linear_fields(nx, ny):
    mx, my = (nx + 1) // 2, (ny + 1) // 2
    X, Y = np.meshgrid(np.arange(mx, dtype=float), np.arange(my, dtype=float))

    def fields(x, y):
        # dyadic coefficients, so that the interpolation is exact in floating point
        return np.stack([2.0 + 0.5 * x - 0.25 * y, -1.0 + x + 0.75 * y], axis=-1)

    P = linsolve.prolongation(nx, ny)
    np.testing.assert_array_equal(P @ np.ones(2 * mx * my), np.ones(2 * nx * ny))
    # fine node (i, j) lies at coarse coordinates (j/2, i/2); the last fine
    # node of an even extent lies past the coarse grid and takes its edge
    xs, ys = np.meshgrid(np.minimum(np.arange(nx) / 2, mx - 1),
                         np.minimum(np.arange(ny) / 2, my - 1))
    np.testing.assert_array_equal((P @ fields(X, Y).ravel()).reshape(ny, nx, 2),
                                  fields(xs, ys))


@pytest.mark.parametrize("nx, ny", [(8, 6), (32, 20), (4, 2)])
def test_prolongation_is_grids_prolong_on_even_extents(nx, ny):
    coarse = VectorGrid(nx // 2, ny // 2,
                        np.random.default_rng(nx).standard_normal((ny // 2, nx // 2, 2)))
    fine = linsolve.prolongation(nx, ny) @ coarse.data.ravel()
    np.testing.assert_allclose(fine.reshape(ny, nx, 2), prolong(coarse, nx, ny, 1.0).data,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_galerkin_operator_and_v_cycle_are_symmetric(gamma):
    # 96^2 nodes coarsen twice, to 48^2 and to the factorized 24^2
    mg = GridMultigrid(flow_matrix(96, 96, 5, gamma), 96, 96)
    assert len(mg.levels) == 2
    Ac = mg.levels[1].A
    assert abs(Ac - Ac.T).max() <= 1e-12 * abs(Ac).max()
    rng = np.random.default_rng(6)
    x, y = rng.standard_normal((2, Ac.shape[0] * 4))
    Bx, By = mg.solve(x), mg.solve(y)
    assert abs(x @ By - y @ Bx) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(By)
    assert x @ Bx > 0


def test_v_cycle_rejects_an_indefinite_node_block():
    A = flow_matrix(50, 50, 7).tolil()
    A[10, 11] = A[11, 10] = 1.01 * np.sqrt(A[10, 10] * A[11, 11])
    with pytest.raises(NotSPD, match="2x2 diagonal block"):
        GridMultigrid(A.tocsr(), 50, 50)

