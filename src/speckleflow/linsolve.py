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
given and pivots on the diagonal.  Both matrices are positive semidefinite
by construction, so a zero pivot or an inaccurate solve means the matrix is
singular; callers detect that from the `RuntimeError` SuperLU raises and
from the residual of their solve.

A factor also serves matrices near the one it was built from: `solve_near`
runs conjugate gradients on such a matrix with the factor as the
preconditioner, which takes a handful of iterations where a fresh
factorization would cost far more (Knoll & Keyes 2004, "Jacobian-free
Newton-Krylov methods", on reusing a stale factorization as preconditioner).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NotConverged

__all__ = ["grid_order", "GridFactor", "solve_near"]

# regions at most this many nodes across are numbered row by row
_LEAF = 2

# `solve_near` stops at this relative residual, which keeps its solutions
# within about 1e-12 (relative) of a direct solve's
_CG_RTOL = 1e-14
# ... or gives up after this many iterations; a factor of a nearby matrix
# needs a handful, and one that needs more is no longer near
_CG_MAX_ITER = 50


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


class GridFactor:
    """Sparse LU factor of a grid SPD matrix in a given ordering.

    Raises `RuntimeError` (from SuperLU) when the matrix is exactly singular.
    """

    def __init__(self, A: sp.spmatrix, perm: np.ndarray):
        self.perm = perm
        A = sp.csc_matrix(A)
        self._lu = spla.splu(A[perm][:, perm], permc_spec="NATURAL",
                             diag_pivot_thresh=0.0,
                             options=dict(SymmetricMode=True))

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b, dtype=np.float64)
        x[self.perm] = self._lu.solve(b[self.perm])
        return x


def solve_near(A: sp.spmatrix, b: np.ndarray, near: GridFactor) -> np.ndarray:
    """Solve the SPD system A x = b by conjugate gradients preconditioned
    with `near`, the factor of a matrix close to A, starting from
    `near.solve(b)`.

    Iterates until ||b - A x|| <= 1e-14 ||b|| (the recursively updated
    residual) and raises `NotConverged` if that takes more than the
    module's iteration cap.
    """
    # not `spla.cg`: it reports success when maxiter is 0 and does not test
    # the residual after its last iteration, so the cap would not be exact
    x = near.solve(b)
    r = b - A @ x
    tol = _CG_RTOL * np.linalg.norm(b)
    p = rz = None
    for _ in range(_CG_MAX_ITER):
        if np.linalg.norm(r) <= tol:
            break
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
                           residual=rnorm / np.linalg.norm(b))
    return x
