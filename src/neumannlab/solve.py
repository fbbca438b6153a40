"""Pure-Neumann variational solves in both domain modes.

Both modes solve on one reduced stiffness operator, built once per solver and
reused across right-hand sides: sparse LU (factorized on first use) or Krylov
(CG for symmetric coefficients, GMRES otherwise), chosen by SolveConfig.

Bounded mode realizes the zero-mean-boundary-trace normalization in closed
form.  K annihilates constants on both sides, so the multiplier of the
constrained system K u + B^T mu = F, B u = 0 is mu_i = sum F_i / sum b per
component; it absorbs exactly the quadrature residual of the compatibility
condition, so the discrete variational identity holds against arbitrary test
fields up to solver precision.  The solve projects the load, solves the
consistent singular system (with one node grounded for LU, as is for Krylov),
then shifts each component by a constant to zero boundary mean (Bochev &
Lehoucq, SIAM Review 47, 2005).  Graph mode imposes homogeneous Dirichlet on
the far (truncation) boundary by removing its DOFs, and the natural condition
on the graph boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .discretize import (
    QUADRATURE_ORDER,
    DiscreteField,
    assemble_boundary_load,
    assemble_stiffness,
    assemble_volume_load,
    boundary_weight_vector,
    gauss_rule_1d,
    volume_quadrature,
)
from .errors import CompatibilityError, InterfaceError, NumericFailureError


#: Krylov iteration cap per right-hand side
MAX_ITERATIONS = 20000
#: largest |int f + int g| accepted, relative to the L1 size of the data
COMPATIBILITY_RTOL = 1e-6
#: graph solves flag a load supported within this many cells of the far cut
TRUNCATION_MARGIN_CELLS = 4


@dataclass(frozen=True)
class SolveConfig:
    tolerance: float = 1e-10
    linear_solver: str = "direct"  # or "krylov"

    def __post_init__(self):
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError("tolerance must lie in (0, 1)")
        if self.linear_solver not in ("direct", "krylov"):
            raise ValueError(f"unknown linear solver {self.linear_solver}")


@dataclass
class SolveInfo:
    """How one solve call went: one entry of ``iterations`` and ``residuals`` per
    right-hand side (a single one for a load vector)."""

    method: str
    iterations: np.ndarray
    residuals: np.ndarray
    multiplier: np.ndarray | None = None

    @property
    def residual(self):
        """Largest relative residual over the right-hand sides."""
        return float(self.residuals.max())


class NeumannSolver:
    """Stiffness + reduced operator + factorization bundle, reusable across loads."""

    def __init__(self, mesh, fld, config=None):
        self.mesh = mesh
        self.field = fld
        self.config = config or SolveConfig()
        self.stiffness = assemble_stiffness(mesh, fld)
        self.m = fld.m
        self.n_dof = self.stiffness.n_dof
        K = self.stiffness.matrix
        self.symmetric = abs(K - K.T).max() <= 1e-12 * max(abs(K).max(), 1.0)
        direct = self.config.linear_solver == "direct"
        if mesh.is_graph:
            removed = mesh.far_nodes[:, None] * self.m + np.arange(self.m)
        else:
            self.boundary_weights = boundary_weight_vector(mesh)
            # grounding node 0 leaves LU a nonsingular block; Krylov takes K as is
            removed = np.arange(self.m if direct else 0)
        self.free_dofs = np.setdiff1d(np.arange(self.n_dof), removed)
        block = K if len(self.free_dofs) == self.n_dof else K[self.free_dofs][:, self.free_dofs]
        self._block = block.tocsc() if direct else block.tocsr()
        self._lu = None

    def _solve_reduced(self, rhs):
        """Solve the reduced operator for rhs[free_dofs]; removed DOFs come back 0.

        ``rhs`` is a load vector or an (n_dof, r) block: LU solves a block in one
        call, Krylov one column at a time.  Returns (u, method, iterations per column).
        """
        cfg = self.config
        r = rhs[self.free_dofs]
        cols = r.reshape(len(r), -1)
        if cfg.linear_solver == "direct":
            if self._lu is None:
                try:
                    self._lu = spla.splu(self._block, permc_spec="MMD_AT_PLUS_A")
                except RuntimeError as e:
                    raise NumericFailureError(f"sparse LU factorization failed: {e}") from e
            x, method = self._lu.solve(r), "direct"
            iterations = np.ones(cols.shape[1], dtype=np.int64)
        else:
            method = "cg" if self.symmetric else "gmres"
            x = np.empty_like(cols)
            iterations = np.empty(cols.shape[1], dtype=np.int64)
            for j in range(cols.shape[1]):
                x[:, j], iterations[j] = self._krylov(method, cols[:, j])
            x = x.reshape(r.shape)
        u = np.zeros(rhs.shape)
        u[self.free_dofs] = x
        return u, method, iterations

    def _krylov(self, method, r):
        cfg = self.config
        count = [0]

        def cb(_):
            count[0] += 1

        if method == "cg":
            x, code = spla.cg(
                self._block, r, rtol=cfg.tolerance, atol=0.0, maxiter=MAX_ITERATIONS,
                callback=cb,
            )
        else:
            x, code = spla.gmres(
                self._block, r, rtol=cfg.tolerance, atol=0.0, maxiter=MAX_ITERATIONS,
                restart=200, callback=cb, callback_type="pr_norm",
            )
        if code != 0:
            raise NumericFailureError(
                f"{method} failed to converge (code {code})",
                diagnostics={"iterations": count[0]},
            )
        return x, count[0]

    # -- bounded mode --------------------------------------------------
    def solve_bounded(self, load):
        """Zero-boundary-mean solution for a load vector (n_dof,) or block (n_dof, r).

        Multiplier, shift and residual are per column; ``info.multiplier`` has
        shape (m,) for a vector and (m, r) for a block.
        """
        if self.mesh.is_graph:
            raise InterfaceError("bounded solve requested on a graph mesh")
        b = self.boundary_weights
        F = load.reshape(self.mesh.n_nodes, self.m, -1)
        # pairwise sums over contiguous node runs: a column of a block gets the
        # multiplier, and so the Krylov iterates, of its solve alone
        mu = np.ascontiguousarray(F.transpose(2, 1, 0)).sum(axis=2).T / b.sum()
        flux = (b[:, None, None] * mu).reshape(load.shape)  # B^T mu
        u, method, iterations = self._solve_reduced(load - flux)
        U = u.reshape(F.shape)
        U -= np.tensordot(b, U, axes=1) / b.sum()
        res = self.stiffness.matrix @ u + flux - load
        info = SolveInfo(
            f"bounded-{method}", iterations, _relative(res, load), mu.reshape((self.m,) + load.shape[1:])
        )
        _guard(info, self.config, "bounded")
        return u, info

    # -- graph mode ----------------------------------------------------
    def solve_graph(self, load):
        """Solution with zero far-cut values for a load vector or (n_dof, r) block."""
        if not self.mesh.is_graph:
            raise InterfaceError("graph solve requested on a bounded mesh")
        u, method, iterations = self._solve_reduced(load)
        rhs = load[self.free_dofs]
        res = self._block @ u[self.free_dofs] - rhs
        info = SolveInfo(f"graph-{method}", iterations, _relative(res, rhs))
        _guard(info, self.config, "graph")
        return u, info


def solver_for(mesh, fld, config, solver=None):
    """``solver`` when it was built for (mesh, fld), else a new NeumannSolver.

    A solver assembled on another mesh or for another coefficient field
    (including the other direction, forward vs adjoint) raises InterfaceError.
    """
    if solver is None:
        return NeumannSolver(mesh, fld, config)
    if solver.mesh is not mesh:
        raise InterfaceError("solver was built for a different mesh")
    if solver.field is not fld and (
        solver.field.spec != fld.spec or solver.field.is_adjoint != fld.is_adjoint
    ):
        raise InterfaceError("solver was built for a different coefficient field")
    return solver


def _relative(res, rhs):
    """Relative residual norm of each column."""
    rhs_norm = np.linalg.norm(rhs.reshape(len(rhs), -1), axis=0)
    return np.linalg.norm(res.reshape(len(res), -1), axis=0) / np.maximum(rhs_norm, 1e-300)


def _guard(info, cfg, mode):
    if info.residual > max(cfg.tolerance * 100, 1e-9):
        raise NumericFailureError(
            f"{mode} solve residual {info.residual:.3e} above tolerance",
            diagnostics={"method": info.method, "iterations": int(info.iterations.max())},
        )


def _load(mesh, f, g, m):
    """Load vector of the data (f, g) and its L1 size int |f| + int |g|.

    The L1 size is the Gauss quadrature of |f| and |g| on the values the load
    assembly evaluates, so each density is evaluated once; by the partition
    of unity it equals the total of the |f| and |g| loads.
    """
    l1 = []

    def tap(fn, w):  # fn, recording the quadrature of |fn| with point weights w
        def density(pts):
            vals = np.asarray(fn(pts), dtype=float)
            l1.append(np.abs(vals).reshape(len(vals) // len(w), len(w), -1).sum(axis=(0, 2)) @ w)
            return vals

        return None if fn is None else density

    w1 = gauss_rule_1d(QUADRATURE_ORDER)[1]
    w3 = volume_quadrature(QUADRATURE_ORDER)[1] * mesh.h**3
    load = assemble_volume_load(mesh, tap(f, w3), m)
    load += assemble_boundary_load(mesh, tap(g, np.outer(w1, w1).ravel() * mesh.h**2), m)
    return load, float(sum(l1))


def check_compatibility(mesh, f, g, m=1):
    """r = int_Omega f + int_{dOmega} g per component (pure evaluation)."""
    return _load(mesh, f, g, m)[0].reshape(-1, m).sum(axis=0)


def solve_neumann_bounded(mesh, fld, f, g, config=None, solver=None):
    """Unique zero-boundary-mean solution of L u = f, A Du . n = g.

    Raises CompatibilityError when int f + int g deviates from zero by more
    than COMPATIBILITY_RTOL relative to the L1 size of the data.
    """
    cfg = config or SolveConfig()
    solver = solver_for(mesh, fld, cfg, solver)
    m = fld.m
    load, scale = _load(mesh, f, g, m)
    residual = load.reshape(-1, m).sum(axis=0)
    if np.linalg.norm(residual) > COMPATIBILITY_RTOL * max(scale, 1e-300):
        raise CompatibilityError(residual)
    u, info = solver.solve_bounded(load)
    out = DiscreteField(mesh, u.reshape(-1, m))
    out.info = info
    return out


def solve_neumann_graph(mesh, fld, f, config=None, solver=None):
    """Y^{1,2}-type solve: natural condition on the graph boundary, zero on the far cut.

    A support too close to the far boundary sets a truncation-warning flag.
    """
    cfg = config or SolveConfig()
    solver = solver_for(mesh, fld, cfg, solver)
    m = fld.m
    load = assemble_volume_load(mesh, f, m)
    flags = _truncation_flags(mesh, load, m)
    u, info = solver.solve_graph(load)
    out = DiscreteField(mesh, u.reshape(-1, m), flags=flags)
    out.info = info
    return out


def _truncation_flags(mesh, load, m):
    margin = TRUNCATION_MARGIN_CELLS * mesh.h
    support = np.flatnonzero(np.abs(load.reshape(-1, m)).sum(axis=1) > 0)
    if len(support) == 0 or mesh.far_nodes is None or len(mesh.far_nodes) == 0:
        return ()
    pts = mesh.nodes[support]
    far_lo = mesh.facet_lo[~mesh.graph_facets]
    far_hi = mesh.facet_hi[~mesh.graph_facets]
    d = np.maximum(far_lo[None] - pts[:, None], 0.0) + np.maximum(pts[:, None] - far_hi[None], 0.0)
    dist = np.sqrt((d**2).sum(axis=2)).min()
    if dist < margin:
        return (f"truncation-warning: load support within {dist:.3g} of the far boundary",)
    return ()

