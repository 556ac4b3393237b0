import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from speckleflow import linsolve
from speckleflow.elastic import BoundaryConditions, ElasticModel, LameField, forward_solve
from speckleflow.errors import DomainError, NotConverged, NotSPD, OutOfMemory
from speckleflow.flow import FlowParams, assemble, solve_flow
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
        return model.reduce(p)[0]

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


@pytest.mark.filterwarnings("error")
def test_solve_near_gives_up_at_once_on_overflow():
    # numpy's norm of such a b is inf, which accepted the first answer; with
    # finite norms r @ z overflows in the first iteration
    A, near, rng = stiffness_and_nearby_factor(0, 0.1)
    with pytest.raises(NotConverged, match="overflows the float64 range"):
        solve_near(A, 1e160 * rng.standard_normal(A.shape[0]), near)


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


def whole_matrix_level(A, nx, ny):
    """The inverse diagonal, theta, delta and the coarse operator (P'A)P of
    a V-cycle level, each formed from the whole matrix."""
    P = linsolve.prolongation(nx, ny)
    dinv = 1.0 / A.diagonal()
    # |A| over A's own index arrays: `abs(A)` would sort a coarse level's
    # indices in place, and with them the order of its row sums
    absA = sp.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
    upper = float((absA.sum(axis=1).A1 * dinv).max())
    lower = upper / linsolve._CHEB_RATIO
    return dinv, (upper + lower) / 2.0, (upper - lower) / 2.0, (P.T.tocsr() @ A) @ P


def assert_same_arrays(B, A):
    assert np.array_equal(B.indptr, A.indptr)
    assert np.array_equal(B.indices, A.indices)
    assert np.array_equal(B.data.view(np.int64), A.data.view(np.int64))


def block_wise_product(A, P, block_bytes):
    """(P'A)P formed by row blocks of P', each meeting about `block_bytes` of
    A's entries, and stacked."""
    R = P.T.tocsr()
    step = max(1, block_bytes * R.shape[0] // (A.data.nbytes + A.indices.nbytes))
    return sp.vstack([(R[r:r + step] @ A) @ P for r in range(0, R.shape[0], step)],
                     format="csr")


@pytest.mark.parametrize("block_bytes", [4096, 1 << 16])
@pytest.mark.parametrize("nx, ny, levels", [(64, 48, 1), (47, 53, 1), (100, 90, 2),
                                            (101, 91, 2)])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 20.0])
def test_block_wise_set_up_matches_whole_matrix_products(monkeypatch, block_bytes, nx, ny,
                                                         levels, gamma):
    # the last coarse operator is kept only inside the coarsest factor
    factorized = []

    def recorded(A, perm):
        factorized.append(A)
        return GridFactor(A, perm)

    monkeypatch.setattr(linsolve, "GridFactor", recorded)
    mg = GridMultigrid(flow_matrix(nx, ny, nx + ny, gamma), nx, ny)
    assert len(mg.levels) == levels
    coarse = [level.A for level in mg.levels[1:]] + factorized
    rng = np.random.default_rng(nx)
    for level, Ac in zip(mg.levels, coarse, strict=True):
        dinv, theta, delta, ref = whole_matrix_level(level.A, nx, ny)
        assert np.array_equal(level.dinv.view(np.int64), dinv.view(np.int64))
        assert (level.theta, level.delta) == (theta, delta)
        # P'AP in the other association rounds differently; the largest
        # difference measured on these systems was 4.7e-16 of the largest entry
        right = level.P.T.tocsr() @ (level.A @ level.P)
        assert abs(Ac - right).max() <= 1e-14 * abs(right).max()
        assert_same_arrays(Ac, ref)
        # each coarse row depends on its own row of P' alone, so the set-up
        # could form the product in small blocks, some ending at odd rows,
        # without changing a bit of it
        assert_same_arrays(Ac, block_wise_product(level.A, level.P, block_bytes))
        v = rng.standard_normal(level.P.shape[0])
        assert np.array_equal((level.R @ v).view(np.int64),
                              (level.P.T.tocsr() @ v).view(np.int64))
        nx, ny = (nx + 1) // 2, (ny + 1) // 2


def reference_cycle(mg, k, b):
    """The V-cycle from level k as its formulas read, with fresh arrays."""
    if k == len(mg.levels):
        return mg.coarsest.solve(b)
    level = mg.levels[k]

    def smooth(x):
        r = b.copy() if x is None else b - level.A @ x
        sigma = level.theta / level.delta
        rho = 1.0 / sigma
        d = (level.dinv * r) / level.theta
        x = d.copy() if x is None else x + d
        for _ in range(linsolve._CHEB_DEGREE - 1):
            r -= level.A @ d
            rho_next = 1.0 / (2.0 * sigma - rho)
            d = (rho_next * rho) * d + (2.0 * rho_next / level.delta) * (level.dinv * r)
            rho = rho_next
            x += d
        return x

    x = smooth(None)
    x = x + level.P @ reference_cycle(mg, k + 1, level.P.T.tocsr() @ (b - level.A @ x))
    return smooth(x)


@pytest.mark.parametrize("gamma", [0.0, 20.0])
def test_in_place_v_cycle_matches_its_formulas(gamma):
    mg = GridMultigrid(flow_matrix(100, 90, 3, gamma), 100, 90)
    assert len(mg.levels) == 2
    b = np.random.default_rng(4).standard_normal(2 * 100 * 90)
    assert np.array_equal(mg.solve(b).view(np.int64), reference_cycle(mg, 0, b).view(np.int64))


@pytest.mark.parametrize("entry", [0.0, -1.0])
def test_v_cycle_rejects_a_diagonal_entry_that_is_not_positive(entry):
    A = flow_matrix(50, 50, 7).tolil()
    A[11, 11] = entry
    with pytest.raises(NotSPD, match="diagonal entry is not positive"):
        GridMultigrid(A.tocsr(), 50, 50)


def test_indefinite_node_block_is_judged_by_its_solution():
    # the diagonal is positive, so the V-cycle builds; `solve_spd` judges
    # what conjugate gradients make of it, as it would a factorization
    A = flow_matrix(50, 50, 7).tolil()
    A[10, 11] = A[11, 10] = 1.01 * np.sqrt(A[10, 10] * A[11, 11])
    A = A.tocsr()
    b = np.random.default_rng(8).standard_normal(A.shape[0])
    x, factor = linsolve.solve_spd(A, b, "test solve", 50, 50, near=GridMultigrid(A, 50, 50))
    assert factor is None
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)



# what `spla.splu` raises: the allocation failures SuperLU reports, a raw
# MemoryError, and a zero pivot
SPLU_FAILURES = {
    "memory-error": (MemoryError(), OutOfMemory),
    "superlu-malloc": (RuntimeError("SUPERLU_MALLOC fails for ACstore"), OutOfMemory),
    "malloc": (RuntimeError("Malloc fails for A[]"), OutOfMemory),
    "not-enough-memory": (RuntimeError("Not enough memory to perform factorization."),
                          OutOfMemory),
    "zero-pivot": (RuntimeError("Factor is exactly singular"), NotSPD),
}


def failing_splu(monkeypatch, failure, first_failing=1):
    """Make `spla.splu` raise `failure` from its `first_failing`-th call on;
    returns the list of its calls."""
    calls = []
    splu = spla.splu

    def fake(*args, **kwargs):
        calls.append(args)
        if len(calls) < first_failing:
            return splu(*args, **kwargs)
        raise failure

    monkeypatch.setattr(spla, "splu", fake)
    return calls


def flow_system(nx, ny):
    rng = np.random.default_rng(4)
    grad = VectorGrid(nx, ny, rng.standard_normal((ny, nx, 2)))
    it = ScalarGrid(nx, ny, rng.standard_normal((ny, nx)))
    return assemble(grad, it, [], FlowParams(alpha=0.8))


@pytest.mark.parametrize("failure", list(SPLU_FAILURES))
@pytest.mark.parametrize("path", ["elastic", "flow-coarsest", "flow-factor", "flow-after-cg"])
def test_factorization_failures_are_named_and_not_retried(monkeypatch, failure, path):
    exc, expected = SPLU_FAILURES[failure]
    if path == "elastic":
        bc = BoundaryConditions(dirichlet=[("bottom", "both", 0.0)],
                                traction=[("top", (0.3, -1.0))])
        solve = lambda: forward_solve(LameField.constant(12, 10, 1.0, 1.0), bc)
    else:
        nx, ny = (40, 30) if path == "flow-factor" else (64, 48)
        assert (nx * ny > linsolve.COARSEST_NODES) == (path != "flow-factor")
        sys_ = flow_system(nx, ny)
        solve = lambda: solve_flow(sys_)
    if path == "flow-after-cg":
        monkeypatch.setattr(linsolve, "_CG_MAX_ITER", 0)
    first_failing = 2 if path == "flow-after-cg" else 1
    calls = failing_splu(monkeypatch, exc, first_failing)
    with pytest.raises(expected) as info:
        solve()
    if expected is OutOfMemory:
        assert str(info.value).startswith("out of memory factorizing")
        assert "nonzeros" in str(info.value)
        assert len(calls) == first_failing
    else:
        # a zero pivot on the V-cycle's coarsest grid leaves the decision to
        # a factorization of the whole level
        assert len(calls) == first_failing + (path == "flow-coarsest")


def test_check_solution_accepts_only_finite_accurate_solutions():
    A = flow_system(6, 5).matrix
    b = np.random.default_rng(5).standard_normal(A.shape[0])
    x = GridFactor(A, grid_order(6, 5)).solve(b)
    linsolve.check_solution(A, x, b)
    linsolve.check_solution(A, np.zeros_like(b), np.zeros_like(b))
    # a solution that is not finite leaves a nan residual
    for bad, message in ((np.where(np.arange(x.size) == 3, np.nan, x), "relative residual nan"),
                         (x * (1 + 1e-6), "relative residual"),
                         (np.full_like(x, 1e100), "relative residual")):
        with pytest.raises(NotSPD, match=message):
            linsolve.check_solution(A, bad, b)
    # a nan residual compares false with the bound, and is rejected too
    with pytest.raises(NotSPD, match="relative residual nan"):
        linsolve.check_solution(A, x, np.where(np.arange(b.size) == 3, np.nan, b))


def solve_with_scaled_factor(monkeypatch, path, eps):
    """An elastic or flow solve whose factor solves return (1 + eps) times
    the exact solution; one refinement step leaves a relative error eps^2."""
    solve = GridFactor.solve
    monkeypatch.setattr(GridFactor, "solve", lambda self, b: solve(self, b) * (1 + eps))
    if path == "elastic":
        bc = BoundaryConditions(dirichlet=[("bottom", "both", 0.0)],
                                traction=[("top", (0.3, -1.0))])
        return forward_solve(LameField.constant(12, 10, 1.0, 1.0), bc).data
    return solve_flow(flow_system(40, 30)).data


@pytest.mark.parametrize("path", ["elastic", "flow"])
def test_inaccurate_solves_are_not_spd(monkeypatch, path):
    with pytest.raises(NotSPD, match="^relative residual 1.00e-06 too large$"):
        solve_with_scaled_factor(monkeypatch, path, 1e-3)


def test_an_inaccurate_cg_solution_is_not_spd(monkeypatch):
    # no factor to refine with, and the level is not factorized either: the
    # one factorization is the V-cycle's coarsest grid
    assert 64 * 48 > linsolve.COARSEST_NODES
    near = linsolve.solve_near
    monkeypatch.setattr(linsolve, "solve_near", lambda *args: near(*args) * (1 + 1e-6))
    calls = failing_splu(monkeypatch, NotImplementedError(), first_failing=2)
    with pytest.raises(NotSPD, match="^relative residual 1.00e-06 too large$"):
        solve_flow(flow_system(64, 48))
    assert [a.shape for a, *_ in calls] == [(2 * 32 * 24, 2 * 32 * 24)]


@pytest.mark.parametrize("path", ["elastic", "flow"])
def test_one_refinement_step_repairs_a_solve(monkeypatch, path):
    exact = solve_with_scaled_factor(monkeypatch, path, 0.0)
    repaired = solve_with_scaled_factor(monkeypatch, path, 1e-6)
    np.testing.assert_allclose(repaired, exact, rtol=1e-11, atol=0)


@pytest.mark.parametrize("case, factorizations", [
    ("without-near", 1), ("converging-near", 0), ("cg-at-cap", 1), ("overflow", 1)])
def test_solve_spd_factorizes_only_when_cg_cannot_solve(monkeypatch, case, factorizations):
    A, near, rng = stiffness_and_nearby_factor(0, 0.1)
    perm = ElasticModel(20, 20, BoundaryConditions(dirichlet=[("bottom", "both", 0.0)])).order
    b = rng.standard_normal(A.shape[0])
    ref = GridFactor(A, perm).solve(b)
    if case == "cg-at-cap":
        monkeypatch.setattr(linsolve, "_CG_MAX_ITER", 0)
    if case == "overflow":
        monkeypatch.setattr(GridFactor, "solve", lambda self, b: np.full_like(b, np.inf))
    calls = []
    splu = spla.splu

    def counted(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    solve = lambda: linsolve.solve_spd(A, b, "test solve", 20, 20, perm,
                                       None if case in ("without-near", "overflow") else near)
    if case == "overflow":
        with pytest.raises(DomainError, match="^test solve overflows the float64 range$"):
            solve()
    else:
        x, factor = solve()
        # the factor is returned when solve_spd built one
        assert (factor is None) == (factorizations == 0)
        if factorizations:
            np.testing.assert_array_equal(x, ref)
        else:
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert len(calls) == factorizations


_RLIMIT_CHILD = """
import resource
from speckleflow.elastic import BoundaryConditions, ElasticModel, LameField
from speckleflow.errors import OutOfMemory
from speckleflow.linsolve import GridFactor

n = 300
model = ElasticModel(n, n, BoundaryConditions(dirichlet=[("bottom", "both", 0.0)]))
K_ff, _ = model.reduce(LameField.constant(n, n, 490.0, 10.0))
with open("/proc/self/status") as f:
    vm = next(int(line.split()[1]) for line in f if line.startswith("VmSize:")) * 1024
# the factor takes about 350 MB
resource.setrlimit(resource.RLIMIT_AS,
                   (vm + 200 * 2**20, resource.getrlimit(resource.RLIMIT_AS)[1]))
try:
    GridFactor(K_ff, model.order)
except OutOfMemory as exc:
    print(f"OutOfMemory: {exc}")
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_factorization_beyond_the_address_space_limit_is_out_of_memory():
    # the limit is lowered only in the child process
    src = str(Path(linsolve.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _RLIMIT_CHILD], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("OutOfMemory: out of memory factorizing a sparse "
                                 "matrix of order 179400 with ")
