import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from speckleflow import linsolve
from speckleflow.elastic import BoundaryConditions, ElasticModel, LameField
from speckleflow.errors import NotConverged
from speckleflow.flow import FlowParams, assemble
from speckleflow.grids import ScalarGrid, VectorGrid
from speckleflow.linsolve import GridFactor, grid_order, solve_near

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
