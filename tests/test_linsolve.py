import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from speckleflow import linsolve
from speckleflow.elastic import BoundaryConditions, ElasticModel, LameField, forward_solve
from speckleflow.errors import NotConverged, NotSPD, OutOfMemory
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
    for bad, message in ((np.where(np.arange(x.size) == 3, np.nan, x), "non-finite"),
                         (x * (1 + 1e-6), "relative residual"),
                         (np.full_like(x, 1e100), "relative residual")):
        with pytest.raises(NotSPD, match=message):
            linsolve.check_solution(A, bad, b)
    # a nan residual compares false with the bound, and is rejected too
    with pytest.raises(NotSPD, match="relative residual nan"):
        linsolve.check_solution(A, x, np.where(np.arange(b.size) == 3, np.nan, b))


@pytest.mark.parametrize("path", ["elastic", "flow"])
def test_inaccurate_solves_are_not_spd(monkeypatch, path):
    solve = GridFactor.solve
    monkeypatch.setattr(GridFactor, "solve", lambda self, b: solve(self, b) * (1 + 1e-6))
    with pytest.raises(NotSPD, match="relative residual"):
        if path == "elastic":
            bc = BoundaryConditions(dirichlet=[("bottom", "both", 0.0)],
                                    traction=[("top", (0.3, -1.0))])
            forward_solve(LameField.constant(12, 10, 1.0, 1.0), bc)
        else:
            solve_flow(flow_system(40, 30))


_RLIMIT_CHILD = """
import resource
from speckleflow.elastic import BoundaryConditions, ElasticModel, LameField
from speckleflow.errors import OutOfMemory
from speckleflow.linsolve import GridFactor

n = 300
model = ElasticModel(n, n, BoundaryConditions(dirichlet=[("bottom", "both", 0.0)]))
system = model.reduce(LameField.constant(n, n, 490.0, 10.0))
with open("/proc/self/status") as f:
    vm = next(int(line.split()[1]) for line in f if line.startswith("VmSize:")) * 1024
# the factor takes about 350 MB
resource.setrlimit(resource.RLIMIT_AS,
                   (vm + 200 * 2**20, resource.getrlimit(resource.RLIMIT_AS)[1]))
try:
    GridFactor(system.K_ff, model.order)
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
