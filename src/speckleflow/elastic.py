"""Linearized-elasticity forward solver and its linearization.

The displacement u of a sample with Lame fields (lambda, mu) under mixed
displacement/traction boundary conditions solves

    integral( lambda div u div v + 2 mu E(u):E(v) ) = l(v)

for all test fields v vanishing on the Dirichlet boundary, with
E(u) = (grad u + grad u^T) / 2.  The domain is the pixel grid: bilinear
quadrilateral elements on the cells between pixels, 2x2 Gauss quadrature,
and the Lame fields treated as piecewise constant per cell (corner
average).  Dirichlet data enters through a nodal lift, so the returned
displacement includes the prescribed boundary values.

The parameter-to-solution map (lambda, mu) -> u is differentiable; its
directional derivative and the adjoint of that derivative are one extra
linear solve each with the same stiffness matrix.  Every length is in
pixels: a cell is the unit square, a traction is a load per pixel edge,
discrete L2 pairings are plain pixel sums, and the adjoint is the exact
transpose of the derivative under those pairings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .config import content_lines, finite_float, naming_path, write_lines
from .errors import DomainError, FormatError, ShapeMismatch, SingularSystem
from .grids import ScalarGrid, VectorGrid
from .linsolve import check_overflow, grid_order, solve_spd

__all__ = [
    "LameField",
    "BoundaryConditions",
    "forward_solve",
    "frechet_apply",
    "frechet_adjoint",
    "young_modulus",
    "ElasticModel",
    "read_bc_config",
    "write_bc_config",
]

MU_FLOOR = 1e-6

_SIDES = ("top", "bottom", "left", "right")
_COMPS = ("ux", "uy", "both")


@dataclass
class LameField:
    """Pointwise-admissible Lame parameter pair on the pixel grid."""

    lam: ScalarGrid
    mu: ScalarGrid

    def __post_init__(self):
        if (self.lam.nx, self.lam.ny) != (self.mu.nx, self.mu.ny):
            raise ShapeMismatch("lambda and mu extents differ")
        if np.any(self.lam.data < 0):
            raise DomainError("lambda must be nonnegative everywhere")
        if np.any(self.mu.data < MU_FLOOR):
            raise DomainError(f"mu must be at least {MU_FLOOR} everywhere")

    @classmethod
    def constant(cls, nx, ny, lam, mu):
        return cls(ScalarGrid(nx, ny, np.full((ny, nx), float(lam))),
                   ScalarGrid(nx, ny, np.full((ny, nx), float(mu))))


@dataclass
class BoundaryConditions:
    """Mixed displacement/traction boundary data.

    dirichlet entries are (side, components, value) with components one of
    'ux', 'uy', 'both'; value may be a scalar or an array over the side's
    n nodes, of shape (n,) or (n, number of components).  traction entries
    are (side, (tx, ty)).  A side may not carry both kinds.  The y axis runs
    from the bottom row (0) to the top row.
    """

    dirichlet: list
    traction: list = field(default_factory=list)

    def __post_init__(self):
        if not self.dirichlet:
            raise DomainError("at least one Dirichlet side is required")
        d_sides = set()
        for side, comps, _ in self.dirichlet:
            if side not in _SIDES:
                raise DomainError(f"unknown side '{side}'")
            if comps not in _COMPS:
                raise DomainError(f"unknown component selector '{comps}'")
            d_sides.add(side)
        for side, value in self.traction:
            if side not in _SIDES:
                raise DomainError(f"unknown side '{side}'")
            if side in d_sides:
                raise DomainError(f"side '{side}' has both Dirichlet and traction data")
            if len(value) != 2:
                raise DomainError("traction value must be a 2-vector")

    def check_extents(self, nx: int, ny: int) -> None:
        """`ShapeMismatch` or `SingularSystem` unless the Dirichlet data fits and
        fixes an nx x ny grid (a grid below 2x2 is the elastic model's error)."""
        if nx >= 2 and ny >= 2:
            _dirichlet_lift(self, nx, ny)


def _side_nodes(side, nx, ny):
    if side == "bottom":
        return np.arange(nx)
    if side == "top":
        return (ny - 1) * nx + np.arange(nx)
    if side == "left":
        return np.arange(ny) * nx
    return np.arange(ny) * nx + (nx - 1)


def _dirichlet_lift(bc: BoundaryConditions, nx, ny):
    """Nodal lift of the Dirichlet data on an nx x ny grid, and the mask of
    the DOFs it leaves free."""
    lift = np.zeros(2 * nx * ny)
    fixed = np.zeros(lift.size, dtype=bool)
    for side, comps, value in bc.dirichlet:
        nodes = _side_nodes(side, nx, ny)
        sel = [0, 1] if comps == "both" else ([0] if comps == "ux" else [1])
        value = np.asarray(value, dtype=np.float64)
        if value.shape not in ((), (nodes.size,), (nodes.size, len(sel))):
            raise ShapeMismatch(
                f"Dirichlet value of shape {value.shape} on a side of "
                f"{nodes.size} nodes with {len(sel)} component(s)")
        dofs = 2 * nodes[:, None] + sel
        lift[dofs] = value.reshape(value.shape + (1,) * (2 - value.ndim))
        fixed[dofs] = True
    if not fixed.any():
        raise DomainError("Dirichlet boundary is empty")
    # with mu > 0 the stiffness is singular on the free DOFs exactly when
    # a rigid motion (x or y translation, rotation (-y, x)) leaves every
    # fixed DOF at rest
    ys, xs = np.divmod(np.arange(nx * ny), nx)
    rigid = np.zeros((lift.size, 3))
    rigid[0::2, 0] = 1.0
    rigid[1::2, 1] = 1.0
    rigid[0::2, 2] = -ys
    rigid[1::2, 2] = xs
    if np.linalg.matrix_rank(rigid[fixed]) < 3:
        raise SingularSystem("Dirichlet boundary leaves a rigid motion free")
    return lift, ~fixed


def _element_matrices():
    """8x8 element stiffness for unit lambda and unit mu on the unit cell."""
    gp = 1.0 / np.sqrt(3.0)
    corners = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    k_lam = np.zeros((8, 8))
    k_mu = np.zeros((8, 8))
    det_j = 0.25
    for xi in (-gp, gp):
        for eta in (-gp, gp):
            dn_dxi = 0.25 * corners[:, 0] * (1.0 + eta * corners[:, 1])
            dn_deta = 0.25 * corners[:, 1] * (1.0 + xi * corners[:, 0])
            dn_dx = dn_dxi * 2.0
            dn_dy = dn_deta * 2.0
            div = np.zeros(8)
            div[0::2] = dn_dx
            div[1::2] = dn_dy
            b = np.zeros((3, 8))
            b[0, 0::2] = dn_dx
            b[1, 1::2] = dn_dy
            b[2, 0::2] = dn_dy
            b[2, 1::2] = dn_dx
            k_lam += det_j * np.outer(div, div)
            k_mu += det_j * 2.0 * (b.T @ np.diag([1.0, 1.0, 0.5]) @ b)
    return k_lam, k_mu


class ElasticModel:
    """Discretization of one boundary-value problem.

    Holds the grid geometry, the Dirichlet partition, the lift and the load
    vector; stiffness assembly and factorization are per Lame field so the
    factorization can be reused for the derivative and adjoint solves, and
    to precondition the forward solve of a nearby Lame field.
    """

    def __init__(self, nx, ny, bc: BoundaryConditions):
        if nx < 2 or ny < 2:
            raise DomainError("elasticity needs at least a 2x2 grid")
        self.nx, self.ny = nx, ny
        self.n_nodes = nx * ny
        self.bc = bc
        self.k_lam_e, self.k_mu_e = _element_matrices()

        idx = np.arange(self.n_nodes).reshape(ny, nx)
        n00 = idx[:-1, :-1].ravel()
        n10 = idx[:-1, 1:].ravel()
        n11 = idx[1:, 1:].ravel()
        n01 = idx[1:, :-1].ravel()
        self.cell_nodes = np.stack([n00, n10, n11, n01], axis=1)
        # int32 halves these index arrays and is the index type scipy
        # builds the stiffness with, so assembly converts nothing
        dofs = np.empty((self.cell_nodes.shape[0], 8), dtype=np.int32)
        dofs[:, 0::2] = 2 * self.cell_nodes
        dofs[:, 1::2] = 2 * self.cell_nodes + 1
        self.cell_dofs = dofs
        self._rows = np.repeat(dofs, 8, axis=1).ravel()
        self._cols = np.tile(dofs, (1, 8)).ravel()

        self.lift, self.free = _dirichlet_lift(bc, nx, ny)
        self.order = grid_order(nx, ny, self.free)
        self._build_load()

    # -- boundary handling -------------------------------------------------

    def _build_load(self):
        load = np.zeros(2 * self.n_nodes)
        for side, value in self.bc.traction:
            nodes = _side_nodes(side, self.nx, self.ny)
            t = np.asarray(value, dtype=np.float64)
            # trapezoidal edge quadrature: end nodes carry half an edge
            w = np.ones(nodes.size)
            w[0] = w[-1] = 0.5
            load[2 * nodes] += w * t[0]
            load[2 * nodes + 1] += w * t[1]
        self.load = load

    # -- parameter handling -------------------------------------------------

    def cell_values(self, grid_data: np.ndarray) -> np.ndarray:
        """Per-cell value of a nodal field: average of the 4 corners."""
        return grid_data.ravel()[self.cell_nodes].mean(axis=1)

    def spread_to_nodes(self, cell_vals: np.ndarray) -> np.ndarray:
        """Exact transpose of :meth:`cell_values` (cell -> corner quarters)."""
        out = np.zeros(self.n_nodes)
        np.add.at(out, self.cell_nodes.ravel(),
                  np.repeat(cell_vals, 4) * 0.25)
        return out

    def assemble(self, p: LameField) -> sp.csc_matrix:
        lam_e = self.cell_values(p.lam.data)
        mu_e = self.cell_values(p.mu.data)
        # in place, and freed before the conversions: at 200x200 each
        # element-data array is 20 MB, and an inversion assembles while a
        # factorization is alive
        data = lam_e[:, None, None] * self.k_lam_e
        data += mu_e[:, None, None] * self.k_mu_e
        K = sp.csr_matrix((data.ravel(), (self._rows, self._cols)),
                          shape=(2 * self.n_nodes, 2 * self.n_nodes))
        del data
        return K.tocsc()

    @np.errstate(over="ignore", invalid="ignore")  # named below
    def reduce(self, p: LameField) -> tuple[sp.csc_matrix, np.ndarray]:
        """p's forward problem on the free DOFs, K_ff x = rhs = load - K lift,
        as (K_ff, rhs); `DomainError` if either overflowed."""
        K = self.assemble(p)
        K_ff, rhs = K[self.free][:, self.free], (self.load - K @ self.lift)[self.free]
        check_overflow("elastic stiffness", K_ff.data)
        check_overflow("elastic right-hand side", rhs)
        return K_ff, rhs

    def factorize(self, p: LameField) -> "ElasticFactors":
        """Factorized stiffness of p, with p's displacement solved."""
        return ElasticFactors(self, *solve_spd(*self.reduce(p), "elastic solve",
                                               self.nx, self.ny, self.order))


class ElasticFactors:
    """Factorized stiffness of one Lame field with its forward solution on
    the free DOFs (`solve_spd`'s); supports any number of homogeneous solves."""

    def __init__(self, model: ElasticModel, x: np.ndarray, lu):
        self.model = model
        self.x = x
        self._lu = lu

    def solve_forward(self, p: LameField | None = None) -> VectorGrid:
        """Displacement for this factor's Lame field.

        Given a nearby Lame field p instead, returns p's displacement:
        `solve_spd` on p's stiffness, assembled once, preconditioned with
        this factor (p's own factorization, built while this one is still
        alive, when conjugate gradients give up).
        """
        m = self.model
        x = self.x if p is None else solve_spd(*m.reduce(p), "elastic solve", m.nx, m.ny,
                                               m.order, self._lu)[0]
        u = m.lift.copy()
        u[m.free] += x
        return VectorGrid(m.nx, m.ny, u.reshape(m.ny, m.nx, 2))

    def solve_homogeneous(self, rhs_full: np.ndarray) -> np.ndarray:
        """Solve K w = rhs with w = 0 on the Dirichlet nodes."""
        m = self.model
        w = np.zeros(2 * m.n_nodes)
        x = self._lu.solve(rhs_full[m.free])
        check_overflow("elastic solve", x)
        w[m.free] = x
        return w

    # -- linearization -----------------------------------------------------

    def derivative_apply(self, dlam: np.ndarray, dmu: np.ndarray,
                         u: VectorGrid) -> VectorGrid:
        """Derivative w of u in the parameter direction (dlam, dmu), which may
        be negative: K w = -K(dlam, dmu) u with w = 0 on the Dirichlet nodes."""
        m = self.model
        ue = u.data.ravel()[m.cell_dofs]
        contrib = (m.cell_values(dlam)[:, None] * (ue @ m.k_lam_e.T)
                   + m.cell_values(dmu)[:, None] * (ue @ m.k_mu_e.T))
        Ku = np.zeros(2 * m.n_nodes)
        np.add.at(Ku, m.cell_dofs.ravel(), contrib.ravel())
        w = self.solve_homogeneous(-Ku)
        return VectorGrid(m.nx, m.ny, w.reshape(m.ny, m.nx, 2))

    def derivative_adjoint(self, u: VectorGrid, w: VectorGrid):
        m = self.model
        q = self.solve_homogeneous(w.data.ravel())
        u_flat = u.data.ravel()
        ue = u_flat[m.cell_dofs]
        qe = q[m.cell_dofs]
        cell_lam = np.einsum("ei,ij,ej->e", ue, m.k_lam_e, qe)
        cell_mu = np.einsum("ei,ij,ej->e", ue, m.k_mu_e, qe)
        g_lam = -m.spread_to_nodes(cell_lam)
        g_mu = -m.spread_to_nodes(cell_mu)
        return (ScalarGrid(m.nx, m.ny, g_lam.reshape(m.ny, m.nx)),
                ScalarGrid(m.nx, m.ny, g_mu.reshape(m.ny, m.nx)))


# ---------------------------------------------------------------------------
# public operations


def forward_solve(p: LameField, bc: BoundaryConditions) -> VectorGrid:
    """Displacement of the sample with Lame field p under bc."""
    model = ElasticModel(p.lam.nx, p.lam.ny, bc)
    return model.factorize(p).solve_forward()


def frechet_apply(p: LameField, u: VectorGrid, dlam: ScalarGrid,
                  dmu: ScalarGrid, bc: BoundaryConditions) -> VectorGrid:
    """Directional derivative of the parameter-to-solution map at p in the
    direction (dlam, dmu), given u = forward_solve(p, bc)."""
    if (dlam.nx, dlam.ny) != (p.lam.nx, p.lam.ny):
        raise ShapeMismatch("direction extents differ from the parameter grid")
    model = ElasticModel(p.lam.nx, p.lam.ny, bc)
    return model.factorize(p).derivative_apply(dlam.data, dmu.data, u)


def frechet_adjoint(p: LameField, u: VectorGrid, w: VectorGrid,
                    bc: BoundaryConditions):
    """Adjoint of the derivative applied to a displacement-space field w.

    One homogeneous solve with the same stiffness gives q; the gradient
    pair is the per-pixel evaluation of (-div u div q, -2 E(u):E(q)),
    realized as the average of the adjacent cells' Gauss means so that the
    discrete adjoint identity holds exactly.
    """
    if (w.nx, w.ny) != (p.lam.nx, p.lam.ny):
        raise ShapeMismatch("w extents differ from the parameter grid")
    model = ElasticModel(p.lam.nx, p.lam.ny, bc)
    return model.factorize(p).derivative_adjoint(u, w)


@np.errstate(over="ignore")  # named below
def young_modulus(p: LameField) -> ScalarGrid:
    """Young's modulus E = mu (3 lambda + 2 mu) / (lambda + mu), computed as
    mu (2 + lambda / (lambda + mu)) on halved parameters, whose intermediates
    cannot overflow: a `LameField` keeps lambda >= 0 and mu >= MU_FLOOR, so
    E lies in [2 mu, 3 mu).  `DomainError` if E itself does not fit."""
    lam, mu = p.lam.data, p.mu.data
    half_lam, half_mu = 0.5 * lam, 0.5 * mu
    E = mu * (2.0 + half_lam / (half_lam + half_mu))
    check_overflow("Young's modulus", E)
    return ScalarGrid(p.lam.nx, p.lam.ny, E)


# ---------------------------------------------------------------------------
# boundary-condition config files


def read_bc_config(path) -> BoundaryConditions:
    """Parse lines `dirichlet <side> <ux|uy|both> <value>` and
    `traction <side> <tx> <ty>`."""
    dirichlet = []
    traction = []
    for where, line in content_lines(path):
        parts = line.split()
        if parts[0] == "dirichlet" and len(parts) == 4:
            try:
                value = finite_float(parts[3])
            except ValueError:
                raise FormatError(f"{where}: bad Dirichlet value")
            dirichlet.append((parts[1], parts[2], value))
        elif parts[0] == "traction" and len(parts) == 4:
            try:
                tx, ty = finite_float(parts[2]), finite_float(parts[3])
            except ValueError:
                raise FormatError(f"{where}: bad traction value")
            traction.append((parts[1], (tx, ty)))
        else:
            raise FormatError(f"{where}: unrecognized boundary line")
    with naming_path(path):
        return BoundaryConditions(dirichlet=dirichlet, traction=traction)


def write_bc_config(path, bc: BoundaryConditions) -> None:
    lines = []
    for side, comps, value in bc.dirichlet:
        value = np.asarray(value, dtype=np.float64)
        if value.ndim != 0:
            raise DomainError("only constant Dirichlet data can be serialized")
        lines.append(f"dirichlet {side} {comps} {float(value):.17g}")
    for side, value in bc.traction:
        lines.append(f"traction {side} {value[0]:.17g} {value[1]:.17g}")
    write_lines(path, lines)
