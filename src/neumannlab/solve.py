"""Pure-Neumann variational solves in both domain modes.

A solver holds one stiffness operator, K over the DOFs its mode keeps in
ascending order, built once and reused across right-hand sides and both
directions (the adjoint stiffness is K^T): sparse LU, factorized on first
use, or CG when SolveConfig asks for Krylov and K is symmetric, as the
assembly decides from the coefficient tensors.  A non-symmetric K takes LU
and factors K^T once, on its first adjoint solve.

SuperLU factors the matrix it is handed, in the order it is handed (NATURAL
column order, partial pivoting as usual; Li, ACM TOMS 31, 2005), so the LU
path hands it a copy of the operator's block ordered by geometric nested
dissection of the node lattice, and keeps only the factor.  Every mesh is an
occupied subset of an h-lattice and the 27-point stencil couples only
adjacent node planes, so one plane separates two halves of any node set; on
a regular grid this ordering has provably low fill (George, SIAM J. Numer.
Anal. 10, 1973).  A general-purpose ordering such as minimum degree ignores
the lattice.  CG runs on the operator itself, whose matvecs walk memory in
order.

CG is deflated by a coarse space, in the A-DEF2 form of Tang, Nabben, Vuik
& Erlangga (J. Sci. Comput. 39, 2009; deflated CG: Saad, Yeung, Erhel &
Guyomarc'h, SIAM J. Sci. Comput. 21, 2000).  With y = r / diag(K), its
preconditioner is M^-1 r = y + P Kc^-1 (P^T r - (K P)^T y), and it starts
from x0 = P Kc^-1 P^T b, which leaves P^T r0 = 0.  P aggregates the DOFs of
one component at the nodes of one 4^3 block of the node lattice, Kc = P^T K P
is the Galerkin coarse operator, and its sparse LU and the coupling (K P)^T
(at most 8m entries per DOF) are formed once per solver, on the first CG
solve, and serve every column.  Diagonal scaling alone removes the
dependence on contrast but not on h; the coarse solve carries the smooth
error that Jacobi cannot, so the iteration count depends on the aggregate
width H/h = 4, not on h (Toselli & Widlund, Domain Decomposition Methods,
2005; aggregation coarse spaces: Vanek, Mandel & Brezina, Computing 56,
1996).  The stopping rule is CG's own, ||K x - b|| <= tolerance ||b||, on
the unpreconditioned residual.

One entry, ``NeumannSolver.solve``, takes any load in either mode; the mode
is the mesh's.  ``solve_neumann(solver, f, g)`` assembles the load of data
(f, g) and solves it on a solver the caller holds, so a run's solves,
kernels and estimates share its one operator.  Bounded mode realizes the
zero-mean-boundary-trace normalization in closed form.  K annihilates
constants on both sides, so the multiplier of the constrained system
K u + B^T mu = F, B u = 0 is mu_i = sum F_i / sum b per component: the flux
B^T mu = b mu balances the load, whether that is the whole Neumann flux (a
unit-mass pole load gets b / sum b, the kernel's -(1/|dOmega|) e_k) or just
the quadrature residual of data that already balance.  So the discrete
variational identity holds against arbitrary test fields up to solver
precision.  The solve subtracts the flux, solves the consistent singular
system (with one node grounded for LU; CG solves it as is, and its coarse
operator grounds one aggregate), then shifts each component by a constant to
zero boundary mean (Bochev & Lehoucq, SIAM Review 47, 2005).

At high contrast the grounded LU solve loses digits: a random mean-free load
on a 24^3 contrast-1e6 checkerboard reads 7.6e-8 against the 1e-8 gate.  So
a bounded LU solve whose residual is above the guard's gate refines, at most
_REFINE_STEPS times (Skeel, Math. Comp. 35, 1980).  A step takes the
residual r = F - b mu - K u and solves it as a load of its own: the
multiplier update dmu = sum r / sum b re-projects r onto the range of K, the
grounded system is solved for r - b dmu, and its solution is shifted to zero
boundary mean and added to u, as dmu is to mu.  One step takes that 7.6e-8
to 1.3e-11; a plain re-solve of r, without dmu, took it only to 6.9e-8.  A
solve within the gate takes no step and keeps its bits.

CG's preconditioner C is projected onto mean-free vectors on both sides,
Pi C Pi, and so is its start: CG wants a symmetric preconditioner, and C Pi
alone is not (on singular consistent systems see Kaasschieter, J. Comput.
Appl. Math. 24, 1988); with C Pi, CG stalled at contrast 1e6.  Graph mode
imposes homogeneous Dirichlet on the far (truncation) boundary by assembling
K over the other DOFs only, and the natural condition on the graph boundary.

SuperLU's supernode kernels and numpy's dense products run in OpenBLAS, whose
blocking and summation order follow its thread count.  The runs whose results
are reported, ``cli.run_experiment`` and ``kernel.build_node_kernel_set``,
therefore pin every loaded OpenBLAS to one thread for their whole length
(``_one_blas_thread``), so their bits do not depend on the host's thread
setting, and worker threads that solve in parallel do not oversubscribe the
cores.  The libraries are looked up on each entry, among the files that
``/proc/self/maps`` lists (so only on Linux); elsewhere, or where none
exports the setter, the pin does nothing.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
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
from .errors import CompatibilityError, NumericFailureError


#: Krylov iteration cap per right-hand side
MAX_ITERATIONS = 20000
#: lattice nodes per edge of an aggregate of CG's coarse space
_AGGREGATE = 4
#: most iterative-refinement steps of a bounded LU solve above the residual gate
_REFINE_STEPS = 3
#: largest |int f + int g| accepted, relative to the L1 size of the data
COMPATIBILITY_RTOL = 1e-6


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

    @property
    def residual(self):
        """Largest relative residual over the right-hand sides."""
        return float(self.residuals.max())


class NeumannSolver:
    """Stiffness operator + factorizations, reusable across loads and both directions.

    The solver holds one operator in every mode and on every path: K over
    ``dofs``, the DOFs its mode keeps, in ascending order.  Bounded mode keeps
    every DOF; graph mode keeps those off the far cut, and the assembly reads
    K's block over them off directly, so K over the far cut is never formed.
    ``free_dofs`` is the order a solve works in: ``dofs`` for CG, the
    nested-dissection order for LU, less the grounded node 0 in bounded mode.
    The LU path cuts its factor's input, K[at][:, at] over ``free_dofs``, only
    to factor it, and keeps only the factor.  CG keeps its coarse space, whose
    coupling (K P)^T is the one other sparse matrix a solver holds.

    The one symmetry decision is the assembly's: A[a, b, i, j] ==
    A[b, a, j, i] bit for bit at every Gauss point, so neither K's
    transpose nor its difference from K is ever formed.
    """

    def __init__(self, mesh, fld, config=None):
        self.mesh = mesh
        self.config = config or SolveConfig()
        self.m = fld.m
        self.n_dof = mesh.n_nodes * self.m
        keep = np.ones(self.n_dof, dtype=bool)
        if mesh.is_graph:
            keep.reshape(-1, self.m)[mesh.far_nodes] = False
        else:
            self.boundary_weights = boundary_weight_vector(mesh)
        self.dofs = np.flatnonzero(keep)
        self.stiffness = assemble_stiffness(mesh, fld, self.dofs if mesh.is_graph else None)
        # the one symmetry decision: it picks the adjoint operator and the solver
        self.symmetric = self.stiffness.symmetric
        if self.config.linear_solver == "direct" or not self.symmetric:
            self._method = "direct"
            if not mesh.is_graph:
                keep[: self.m] = False  # grounding node 0 leaves LU a nonsingular block
            nodes = _dissection_order(_lattice_index(mesh))
            order = (nodes[:, None] * self.m + np.arange(self.m)).ravel()
            self.free_dofs = order[keep[order]]
        else:
            self._method = "cg"
            self.free_dofs = self.dofs
        self._factors = {}  # transposed? -> SuperLU factor of that direction
        self._coarse = None  # CG's coarse space (``_coarse_space``), built on its first solve

    def _prepare(self, adjoint):
        """What every solve of a direction shares, formed on first use: the LU
        factor of its operator, or CG's coarse space.  Forming it is not
        thread-safe; solves that find it formed are."""
        if self._method == "direct":
            transposed = adjoint and not self.symmetric
            if transposed not in self._factors:
                self._factors[transposed] = self._factor(transposed)
            return self._factors[transposed]
        if self._coarse is None:
            self._coarse = self._coarse_space()
        return self._coarse

    def operator(self, adjoint=False):
        """K over ``dofs`` for the forward system; for the adjoint one, K^T unless K is symmetric."""
        K = self.stiffness.matrix
        return K.T if adjoint and not self.symmetric else K

    def _factor(self, transposed):
        """SuperLU factor of K, or of K^T, over ``free_dofs`` in that order."""
        at = np.searchsorted(self.dofs, self.free_dofs)  # where free_dofs sit among K's rows
        block = self.stiffness.matrix[at][:, at].tocsc()
        if transposed:
            # a second factor, not SuperLU's trans="T", which solves a block column by column
            block = block.T.tocsc()
        try:
            return spla.splu(block, permc_spec="NATURAL")
        except RuntimeError as e:
            raise NumericFailureError(f"sparse LU factorization failed: {e}") from e

    def _solve_reduced(self, rhs, adjoint):
        """Solve the operator of a direction for rhs[free_dofs]; the other DOFs come back 0.

        ``rhs`` is a load vector or an (n_dof, r) block: LU solves a block in one
        call, CG one column at a time.  Returns (u, iterations per column).
        """
        r = rhs[self.free_dofs]
        cols = r.reshape(len(r), -1)
        if self._method == "direct":
            x = self._prepare(adjoint).solve(r)
            iterations = np.ones(cols.shape[1], dtype=np.int64)
        else:
            x = np.empty_like(cols)
            iterations = np.empty(cols.shape[1], dtype=np.int64)
            for j in range(cols.shape[1]):
                x[:, j], iterations[j] = self._cg(cols[:, j])
            x = x.reshape(r.shape)
        u = np.zeros(rhs.shape)
        u[self.free_dofs] = x
        return u, iterations

    def _cg(self, r):
        count = [0]

        def cb(_):
            count[0] += 1

        x, code = spla.cg(
            self.operator(), r, x0=self._mean_free(self._coarse_solve(r)),
            rtol=self.config.tolerance, atol=0.0, maxiter=MAX_ITERATIONS,
            M=self._preconditioner(), callback=cb,
        )
        if code != 0:
            residual = float(_relative(r - self.operator() @ x, r)[0])
            raise NumericFailureError(
                f"cg failed to converge (code {code})",
                diagnostics={"method": "cg", "iterations": count[0], "residual": residual},
            )
        return x, count[0]

    def _preconditioner(self):
        """A-DEF2 preconditioner of CG: M^-1 r = y + P Kc^-1 (P^T r - (K P)^T y), y = r / diag(K).

        P is the aggregation of the DOFs over ``dofs``: DOF (p, i) belongs to
        the coarse DOF (aggregate of p, i), where the aggregate of node p is its
        lattice index // _AGGREGATE.  Coarse ids follow the nested-dissection
        order of the aggregate lattice, Kc = P^T K P is factored once, with
        NATURAL order, and every column reuses the factor and the coupling
        (K P)^T.  The correction gives P^T K z = P^T r, so the residuals stay
        coarse-orthogonal, P^T r = 0, once the start ``_coarse_solve(b)``
        makes the first so (Tang, Nabben, Vuik & Erlangga, J. Sci. Comput. 39,
        2009).  In bounded mode K annihilates constants, and so would Kc: the
        first aggregate's m coarse DOFs are grounded, as node 0 is on the LU
        path.  A mesh whose one aggregate is grounded gets diagonal scaling
        alone.  Bounded mode also subtracts each component's mean from r
        before and from M^-1 r after: the residuals of the consistent singular
        system are mean-free up to roundoff, the grounded coarse inverse would
        amplify that roundoff along the constants, and the projection on both
        sides keeps M^-1 symmetric.
        """
        agg, inv_diag, lu, coupling = self._prepare(False)

        def apply(r):
            r = self._mean_free(r)
            y = r * inv_diag
            return self._mean_free(y if lu is None else y + self._coarse_solve(r, coupling @ y))

        return spla.LinearOperator((len(agg),) * 2, matvec=apply, dtype=float)

    def _mean_free(self, v):
        """v less each component's mean in bounded mode, where K annihilates
        constants; v itself in graph mode."""
        if self.mesh.is_graph:
            return v
        return (v.reshape(-1, self.m) - v.reshape(-1, self.m).mean(axis=0)).reshape(-1)

    def _coarse_solve(self, r, shift=0.0):
        """P Kc^-1 (P^T r - shift), CG's start for shift 0 (made mean-free in
        bounded mode); 0 with no coarse DOF."""
        agg, _, lu, _ = self._prepare(False)
        if lu is None:
            return np.zeros(len(r))
        nc = lu.shape[0]
        # P^T r, with the grounded DOFs summed into slot nc and dropped
        rc = np.bincount(agg, weights=r, minlength=nc + 1)[:nc]
        return np.append(lu.solve(rc - shift), 0.0)[agg]

    def _coarse_space(self):
        """(agg, 1 / diag K, SuperLU factor of Kc, (K P)^T as CSR): each DOF's
        coarse id, nc if none; the factor and the coupling are None if nc = 0."""
        m, K = self.m, self.stiffness.matrix
        lattice = _lattice_index(self.mesh) // _AGGREGATE
        span = lattice.max(axis=0) + 1
        key = np.ravel_multi_index(lattice.T, span)[self.dofs // m]
        used, agg = np.unique(key, return_inverse=True)
        rank = np.argsort(_dissection_order(np.stack(np.unravel_index(used, span), axis=1)))
        agg = rank[agg] * m + self.dofs % m
        grounded = 0 if self.mesh.is_graph else m
        nc = len(used) * m - grounded
        agg -= grounded
        agg[agg < 0] = nc
        inv_diag = 1.0 / K.diagonal()
        if nc == 0:
            return agg, inv_diag, None, None
        coarse = agg < nc
        P = sp.csr_matrix(
            (np.ones(coarse.sum()), agg[coarse], np.r_[0, np.cumsum(coarse)]), shape=(len(agg), nc)
        )
        KP = K @ P
        try:
            lu = spla.splu((P.T @ KP).tocsc(), permc_spec="NATURAL")
        except RuntimeError as e:
            raise NumericFailureError(f"coarse LU factorization failed: {e}") from e
        return agg, inv_diag, lu, KP.T.tocsr()

    def solve(self, load, adjoint=False):
        """Forward or adjoint solution for any load vector (n_dof,) or block (n_dof, r).

        In bounded mode the closed-form multiplier mu = sum F / sum b, per
        component and column, forms the compensating flux B^T mu = b mu, so a
        load need not balance: a unit-mass pole load gets the flux b / sum b,
        the discrete conormal data -(1/|dOmega|) e_k.  Each component is then
        shifted to zero boundary mean.  In graph mode the far-cut DOFs are 0.
        ``info`` holds the residual K u + B^T mu - F over ``dofs`` per column,
        guarded; a bounded LU solve above the guard's gate refines first.
        """
        if self.mesh.is_graph:
            mode, flux = "graph", 0.0
            u, iterations = self._solve_reduced(load, adjoint)
        else:
            mode = "bounded"
            u, flux, iterations = self._solve_bounded(load, adjoint)
        rhs = load[self.dofs]
        K = self.operator(adjoint)
        res = K @ u[self.dofs] + flux - rhs
        residuals = _relative(res, rhs)
        steps = _REFINE_STEPS if mode == "bounded" and self._method == "direct" else 0
        for _ in range(steps):
            if residuals.max() <= _gate(self.config):
                break
            # a refinement step: the bounded solve of r = F - B^T mu - K u
            du, dflux, _ = self._solve_bounded(-res, adjoint)
            u += du
            flux += dflux
            res = K @ u + flux - rhs
            residuals = _relative(res, rhs)
        info = SolveInfo(f"{mode}-{self._method}", iterations, residuals)
        _guard(info, self.config, mode)
        return u, info

    def _solve_bounded(self, load, adjoint):
        """Bounded solve of a load: (u, the flux B^T mu, iterations per column).

        The multiplier is mu = sum F / sum b per component and column, u solves
        the grounded system for F - b mu and is shifted to zero boundary mean.
        """
        b = self.boundary_weights
        F = load.reshape(self.mesh.n_nodes, self.m, -1)
        # pairwise sums over contiguous node runs: a column of a block gets the
        # multiplier, and so the Krylov iterates, of its solve alone
        mu = np.ascontiguousarray(F.transpose(2, 1, 0)).sum(axis=2).T / b.sum()
        flux = (b[:, None, None] * mu).reshape(load.shape)  # B^T mu
        u, iterations = self._solve_reduced(load - flux, adjoint)
        U = u.reshape(F.shape)
        U -= np.tensordot(b, U, axes=1) / b.sum()
        return u, flux, iterations


def _lattice_index(mesh):
    """Integer h-lattice index (N, 3) of each mesh node."""
    return np.rint((mesh.nodes - mesh.origin) / mesh.h).astype(np.int64)


def _dissection_order(ijk):
    """Nested-dissection order of the nodes at lattice indices ijk (N, 3).

    The bounding box of a node set is split at the middle plane of its
    longest axis: the nodes below the plane come first, then those above
    (each set ordered the same way), then the plane.  A set at most two
    planes thick keeps its lexicographic order.  All sets of one depth are
    split at once; a node's path of choices (0 below, 1 above, 2 in the plane)
    is its base-3 sort key.  The depth is about log2 of the bounding box's
    lattice point count, far below the 39 digits an int64 holds.
    """
    key = np.zeros(len(ijk), dtype=np.int64)
    live = np.arange(len(ijk))  # nodes of the sets still being split, grouped by set
    while len(live):
        key *= 3
        starts = np.flatnonzero(np.r_[True, np.diff(key[live]) != 0])
        sizes = np.diff(np.r_[starts, len(live)])
        pts = ijk[live]
        lo, hi = np.minimum.reduceat(pts, starts), np.maximum.reduceat(pts, starts)
        sets = np.arange(len(starts))
        axis = np.argmax(hi - lo, axis=1)
        split = np.repeat(hi[sets, axis] - lo[sets, axis] >= 2, sizes)
        mid = np.repeat((lo[sets, axis] + hi[sets, axis]) // 2, sizes)
        side = pts[np.arange(len(live)), np.repeat(axis, sizes)] - mid
        choice = np.where(side < 0, 0, np.where(side > 0, 1, 2)) * split
        key[live] += choice
        live = live[split & (choice < 2)]
        live = live[np.argsort(key[live], kind="stable")]
    return np.argsort(key, kind="stable")


def _loaded_openblas():
    """Every loaded OpenBLAS that exports ``openblas_set_num_threads_local``.

    The candidates are the files mapped into the process, read off
    ``/proc/self/maps``; where that file does not exist, none are found.
    """
    try:
        with open("/proc/self/maps") as maps:
            rows = [line.split(maxsplit=5) for line in maps if "openblas" in line]
    except OSError:
        return []
    found = []
    for path in dict.fromkeys(row[5].rstrip("\n") for row in rows if len(row) == 6):
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # mapped, but not a loaded library
            continue
        setter = getattr(lib, "openblas_set_num_threads_local", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
            found.append(lib)
    return found


@contextmanager
def _one_blas_thread():
    """Run with every loaded OpenBLAS at one thread; restore each count on exit.

    The setter acts process-wide, so threads started inside run at one too.
    """
    libs = _loaded_openblas()
    previous = [lib.openblas_set_num_threads_local(1) for lib in libs]
    try:
        yield
    finally:
        for lib, count in zip(libs, previous):
            lib.openblas_set_num_threads_local(count)


def _relative(res, rhs):
    """Relative residual norm of each column."""
    rhs_norm = np.linalg.norm(rhs.reshape(len(rhs), -1), axis=0)
    return np.linalg.norm(res.reshape(len(res), -1), axis=0) / np.maximum(rhs_norm, 1e-300)


def _gate(cfg):
    """Largest relative residual a solve may return: max(100 x tolerance, 1e-9)."""
    return max(cfg.tolerance * 100, 1e-9)


def _guard(info, cfg, mode):
    if info.residual > _gate(cfg):
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


def solve_neumann(solver, f, g):
    """The solver's solution of L u = f in the domain, A Du . n = g on its boundary.

    Bounded mode: the unique zero-boundary-mean solution; raises
    CompatibilityError when int f + int g deviates from zero by more than
    COMPATIBILITY_RTOL relative to the L1 size of the data.  Graph mode: g is
    the conormal data on the graph part, and the far cut is held at zero, so
    the data need not balance.
    """
    mesh, m = solver.mesh, solver.m
    load, scale = _load(mesh, f, g, m)
    residual = load.reshape(-1, m).sum(axis=0)
    if not mesh.is_graph and np.linalg.norm(residual) > COMPATIBILITY_RTOL * max(scale, 1e-300):
        raise CompatibilityError(residual)
    u, info = solver.solve(load)
    out = DiscreteField(mesh, u.reshape(-1, m))
    out.info = info
    return out


def solve_neumann_bounded(mesh, fld, f, g, config=None):
    """``solve_neumann`` on a new NeumannSolver for (mesh, fld, config)."""
    return solve_neumann(NeumannSolver(mesh, fld, config), f, g)
