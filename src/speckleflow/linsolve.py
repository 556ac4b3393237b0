"""Sparse SPD solves on the pixel grid.

The flow system and the elastic stiffness are both symmetric positive
definite matrices over two unknowns per pixel, interleaved as (x, y) per
node in row-major order, whose stencils reach only the eight neighbouring
nodes.  Such a matrix is factorized after a geometric nested-dissection
ordering of the grid (George 1973, "Nested dissection of a regular finite
element mesh"): the grid is split across its longer side by one line of
nodes, each half is numbered recursively, and the separator line comes
last.  Because no stencil reaches past one node, the line decouples the
halves, which bounds the fill of the factor.

SuperLU then factorizes the pre-permuted matrix with the ordering kept as
given and pivots on the diagonal.  Callers check that their matrices are
SPD (the flow system's rank, the elastic boundary's rigid motions), so a
failed factorization, or a solution that `check_solution` rejects, means
the matrix is not SPD after all, and raises `NotSPD`.  A factor that
SuperLU cannot allocate raises `OutOfMemory`, which nothing retries.

A factor also serves matrices near the one it was built from: `solve_near`
runs conjugate gradients on such a matrix with the factor as the
preconditioner, which takes a handful of iterations where a fresh
factorization would cost far more (Knoll & Keyes 2004, "Jacobian-free
Newton-Krylov methods", on reusing a stale factorization as preconditioner).

The work of a factorization grows as N^1.5 in the number of nodes.  On
grids above `COARSEST_NODES` nodes, `GridMultigrid` is a preconditioner
whose cost grows as N and whose conjugate-gradient iteration count does not
grow with the grid: one geometric-multigrid V-cycle (Briggs, Henson &
McCormick 2000, "A Multigrid Tutorial"; Bruhn et al. 2005, "Variational
optical flow computation in real time").  The grid is halved until it has
at most `COARSEST_NODES` nodes; the transfer between two grids is the
bilinear interpolation of `grids.prolong` (on even extents) on both
unknowns of a node, each coarse matrix is the Galerkin product P'AP, and
only the coarsest one is factorized.  Each grid is smoothed by a Chebyshev
polynomial in the 2x2 per-node block-Jacobi preconditioned matrix, the same
polynomial before and after the coarse correction, so that the cycle is
symmetric as conjugate gradients requires.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import linalg

from .errors import DomainError, NotConverged, NotSPD, OutOfMemory

__all__ = ["COARSEST_NODES", "grid_order", "GridFactor", "GridMultigrid",
           "prolongation", "solve_near", "check_overflow", "check_solution",
           "solve_grid"]

# regions at most this many nodes across are numbered row by row
_LEAF = 2

# SuperLU's messages for a failed allocation
_SUPERLU_OOM = ("SUPERLU_MALLOC fail", "Malloc fails", "Not enough memory")

# `solve_near` stops at this relative residual, which keeps its solutions
# within about 1e-12 (relative) of a direct solve's
_CG_RTOL = 1e-14
# ... or gives up after this many iterations, or earlier once its mean
# contraction cannot get there within them; a factor of a nearby matrix
# needs a handful and a V-cycle about fifteen, so a preconditioner that
# needs more does not fit the matrix
_CG_MAX_ITER = 50

# `GridMultigrid` halves a grid while it has more nodes than this, and
# factorizes the grid it stops at
COARSEST_NODES = 2048
# degree of each smoothing polynomial, and the ratio of the top to the
# bottom of the part of the spectrum of D^-1 A that it damps; on five flow
# systems of 128^2 to 256^2 nodes these took 8 to 13 iterations, a ratio of
# 30 took 14 to 15, and degree 2 took 11 to 16 at its best ratio
_CHEB_DEGREE = 3
_CHEB_RATIO = 10.0


def _dissect(block: np.ndarray) -> list:
    """Pieces of `block` in nested-dissection order: both halves, then the separator."""
    h, w = block.shape
    if w <= _LEAF and h <= _LEAF:
        return [block.ravel()]
    if w >= h:
        m = w // 2
        halves, sep = (block[:, :m], block[:, m + 1:]), block[:, m]
    else:
        m = h // 2
        halves, sep = (block[:m], block[m + 1:]), block[m]
    return _dissect(halves[0]) + _dissect(halves[1]) + [sep]


def _node_order(nx: int, ny: int) -> np.ndarray:
    """Nested-dissection numbering of the nodes of an nx x ny grid."""
    # not a self-referencing closure: that is a reference cycle, which keeps
    # thousands of small pieces alive until the cyclic collector runs and
    # fragments the heap between factorizations
    return np.concatenate(_dissect(np.arange(nx * ny).reshape(ny, nx)))


def grid_order(nx: int, ny: int, free: np.ndarray | None = None) -> np.ndarray:
    """Fill-reducing ordering of the interleaved unknowns of an nx x ny grid.

    Returns `perm` such that `A[perm][:, perm]` is the matrix in
    nested-dissection order; a node's two unknowns stay adjacent.  With a
    boolean mask `free` over the 2*nx*ny unknowns, `perm` indexes the
    reduced matrix over the free unknowns (the fixed ones are dropped and
    the rest keep their relative order).
    """
    nodes = _node_order(nx, ny)
    dofs = np.stack([2 * nodes, 2 * nodes + 1], axis=1).ravel()
    if free is None:
        return dofs
    reduced = np.cumsum(free) - 1
    return reduced[dofs[free[dofs]]]


def _out_of_memory(A: sp.csc_matrix, exc: Exception) -> OutOfMemory:
    detail = f": {exc}" if str(exc) else ""
    return OutOfMemory(f"out of memory factorizing a sparse matrix of order "
                       f"{A.shape[0]} with {A.nnz} nonzeros{detail}")


class GridFactor:
    """Sparse LU factor of a grid SPD matrix in a given ordering.

    Raises `OutOfMemory` when the factor cannot be allocated and `NotSPD`
    when the factorization fails otherwise (a zero pivot).
    """

    def __init__(self, A: sp.spmatrix, perm: np.ndarray):
        self.perm = perm
        A = sp.csc_matrix(A)
        try:
            self._lu = spla.splu(A[perm][:, perm], permc_spec="NATURAL",
                                 diag_pivot_thresh=0.0,
                                 options=dict(SymmetricMode=True))
        except MemoryError as exc:
            raise _out_of_memory(A, exc)
        except RuntimeError as exc:
            if any(m in str(exc) for m in _SUPERLU_OOM):
                raise _out_of_memory(A, exc)
            raise NotSPD(f"sparse factorization failed: {exc}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b, dtype=np.float64)
        x[self.perm] = self._lu.solve(b[self.perm])
        return x


def _interpolation(n: int) -> sp.csr_matrix:
    """n x ceil(n/2) weights of linear interpolation along one axis: fine
    point j lies at coarse coordinate j/2, clamped to the last coarse point.

    For even n this is `grids.prolong` (coordinate j * m/n).  For odd n the
    coarse points sit on the even fine points, as they would not with
    m/n > 1/2; that keeps every Galerkin stencil within a node's eight
    neighbours, which the coarsest grid's ordering relies on.
    """
    m = (n + 1) // 2
    xs = np.minimum(np.arange(n) * 0.5, m - 1.0)
    lo = np.floor(xs).astype(np.intp)
    hi = np.minimum(lo + 1, m - 1)
    frac = xs - lo
    rows = np.arange(n)
    P = sp.csr_matrix((np.concatenate([1.0 - frac, frac]),
                       (np.concatenate([rows, rows]), np.concatenate([lo, hi]))),
                      shape=(n, m))
    P.eliminate_zeros()
    return P


def prolongation(nx: int, ny: int) -> sp.csr_matrix:
    """Bilinear prolongation P of the interleaved unknowns from the grid
    ceil(nx/2) x ceil(ny/2) to the grid nx x ny; on even extents, P v is
    `grids.prolong` of the field v with scale 1."""
    return sp.kron(sp.kron(_interpolation(ny), _interpolation(nx)), sp.identity(2),
                   format="csr")


class _Level:
    """One grid of a V-cycle above the coarsest: its matrix, the
    prolongation from the next coarser grid and the smoother."""

    def __init__(self, A: sp.csr_matrix, nx: int, ny: int):
        self.A = A
        self.P = prolongation(nx, ny)
        self.R = self.P.T.tocsr()
        d = A.diagonal()
        a, c, b = d[0::2], d[1::2], A.diagonal(1)[0::2]
        det = a * c - b * b
        if not (np.all(a > 0) and np.all(det > 0)):
            raise NotSPD("a 2x2 diagonal block is not positive definite")
        blocks = np.stack([c, -b, -b, a], axis=1).reshape(-1, 2, 2) / det[:, None, None]
        n = a.size
        self.Dinv = sp.bsr_matrix((blocks, np.arange(n), np.arange(n + 1)),
                                  shape=A.shape).tocsr()
        # the infinity norm of D^-1 A bounds its largest eigenvalue
        upper = float(abs(self.Dinv @ A).sum(axis=1).max())
        lower = upper / _CHEB_RATIO
        self.theta = (upper + lower) / 2.0
        self.delta = (upper - lower) / 2.0

    def smooth(self, b: np.ndarray, x: np.ndarray | None) -> np.ndarray:
        """`_CHEB_DEGREE` steps of the Chebyshev iteration for A x = b,
        preconditioned with the block diagonal D, from x (None is zero).

        Saad (2003), "Iterative Methods for Sparse Linear Systems",
        Algorithm 12.1; the result is x + p(D^-1 A) D^-1 (b - A x) for a
        fixed polynomial p.
        """
        r = b.copy() if x is None else b - self.A @ x
        sigma = self.theta / self.delta
        rho = 1.0 / sigma
        d = (self.Dinv @ r) / self.theta
        x = d.copy() if x is None else x + d
        for _ in range(_CHEB_DEGREE - 1):
            r -= self.A @ d
            rho_next = 1.0 / (2.0 * sigma - rho)
            d = (rho_next * rho) * d + (2.0 * rho_next / self.delta) * (self.Dinv @ r)
            rho = rho_next
            x += d
        return x


class GridMultigrid:
    """One V-cycle of geometric multigrid for an SPD matrix over the
    interleaved unknowns of an nx x ny grid, used as a preconditioner.

    Raises `NotSPD` when a 2x2 diagonal block of a grid's matrix is not
    positive definite or the coarsest matrix is exactly singular; the
    matrix is then not SPD, or too close to singular for the cycle.  The
    coarsest factor raises `OutOfMemory` as `GridFactor` does.
    """

    def __init__(self, A: sp.spmatrix, nx: int, ny: int):
        A = sp.csr_matrix(A)
        self.levels = []
        while nx * ny > COARSEST_NODES:
            level = _Level(A, nx, ny)
            self.levels.append(level)
            A = (level.R @ (A @ level.P)).tocsr()
            nx, ny = (nx + 1) // 2, (ny + 1) // 2
        self.coarsest = GridFactor(A, grid_order(nx, ny))

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._cycle(0, b)

    def _cycle(self, k: int, b: np.ndarray) -> np.ndarray:
        if k == len(self.levels):
            return self.coarsest.solve(b)
        level = self.levels[k]
        x = level.smooth(b, None)
        x += level.P @ self._cycle(k + 1, level.R @ (b - level.A @ x))
        return level.smooth(b, x)


def solve_near(A: sp.spmatrix, b: np.ndarray,
               near: GridFactor | GridMultigrid) -> np.ndarray:
    """Solve the SPD system A x = b by conjugate gradients preconditioned
    with `near` (the factor of a matrix close to A, or a V-cycle for A),
    starting from `near.solve(b)`.

    Iterates until ||b - A x|| <= 1e-14 ||b|| (the recursively updated
    residual) and raises `NotConverged` if that takes more than the
    module's iteration cap, or as soon as it cannot within the cap: from
    the eighth iteration j on, once the mean contraction so far,
    rho = (||r_j|| / ||r_0||)^(1/j), would leave ||r_j|| rho^(cap - j)
    above the tolerance.
    """
    # not scipy's `cg`: it reports success when maxiter is 0 and does not test
    # the residual after its last iteration, so the cap would not be exact
    x = near.solve(b)
    r = b - A @ x
    bnorm = np.linalg.norm(b)
    tol = _CG_RTOL * bnorm
    r0 = np.linalg.norm(r)
    p = rz = None
    for j in range(_CG_MAX_ITER):
        rnorm = np.linalg.norm(r)
        if rnorm <= tol:
            break
        if j >= 8 and rnorm * (rnorm / r0) ** ((_CG_MAX_ITER - j) / j) > tol:
            raise NotConverged(f"preconditioned cg cannot reach its tolerance within "
                               f"the iteration cap ({_CG_MAX_ITER})",
                               residual=rnorm / bnorm)
        z = near.solve(r)
        rz_prev, rz = rz, r @ z
        p = z if p is None else z + (rz / rz_prev) * p
        q = A @ p
        step = rz / (p @ q)
        x += step * p
        r -= step * q
    rnorm = np.linalg.norm(r)
    if not rnorm <= tol:
        raise NotConverged(f"preconditioned cg hit the iteration cap ({_CG_MAX_ITER})",
                           residual=rnorm / bnorm)
    return x


def check_overflow(what: str, *values) -> None:
    """`DomainError` naming `what` unless all `values` are finite.  Built
    from finite inputs, a matrix or vector is not finite only where it
    overflowed, which a factorization or solve would call not SPD."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise DomainError(f"{what} overflows the float64 range")


def check_solution(A: sp.spmatrix, x: np.ndarray, b: np.ndarray) -> None:
    """Accept x as the solution of A x = b, or raise `NotSPD` when x is not
    finite or its relative residual exceeds the bound below."""
    if not np.all(np.isfinite(x)):
        raise NotSPD("sparse solve produced non-finite values")
    # BLAS nrm2 rescales as it sums: numpy's norm overflows once |b| passes
    # about 1e154, and inf <= 1e-10 * inf would accept any x
    rnorm = linalg.norm(A @ x - b, check_finite=False)
    scale = linalg.norm(b, check_finite=False)
    if not rnorm <= 1e-10 * scale:
        raise NotSPD(f"relative residual {rnorm / scale:.2e} too large")


def solve_grid(A: sp.spmatrix, b: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Solve the SPD system A x = b over the unknowns of an nx x ny grid to
    machine precision: by conjugate gradients preconditioned with a V-cycle
    above `COARSEST_NODES` nodes, by factorization below that and whenever
    the V-cycle cannot be built or the iteration gives up."""
    x = None
    if nx * ny > COARSEST_NODES:
        try:
            x = solve_near(A, b, GridMultigrid(A, nx, ny))
        except (NotConverged, NotSPD):
            pass  # the factorization below decides
    if x is None:
        x = GridFactor(A, grid_order(nx, ny)).solve(b)
    check_solution(A, x, b)
    return x
