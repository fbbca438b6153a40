"""Mollified Neumann kernels: construction, defining identities, duality.

A kernel at pole y is the m x m matrix of columns solving

    L v = Phi_eps e_k   with  A Dv . n = -(1/|dOmega|) e_k   (bounded mode)
    L v = Phi_eps e_k   with  A Dv . n = 0 on the graph part (graph mode)

where Phi_eps is a radial C^1 bump of mass one.  The discrete load of
Phi_eps is rescaled to unit mass under the assembly quadrature, and a column
solves that load alone: in bounded mode the solver's multiplier forms the
flux b / sum b, the exact-trace -(1/|dOmega|) e_k, so the pair is compatible
at the matrix level and the variational identities below hold to solver
precision.
The epsilon -> 0 limit is realized at mesh scale, eps = 2h, together with
an eps-consistency check; nothing below the mesh scale is resolvable.

The adjoint stiffness is K^T, so one operator, the forward solver's, serves
kernels of both directions (the Krylov path, CG, takes symmetric K only).

A node kernel set holds the adjoint kernels at every node as one array with
their pole loads, so the representation formula and the mollified readout
are one product each.
"""

from __future__ import annotations

import os
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from .discretize import (
    QUADRATURE_ORDER,
    DiscreteField,
    assemble_boundary_load,
    assemble_volume_load,
    gauss_rule_1d,
    interpolate,
    ordered_sum,
    shape_values,
)
from .errors import CoverageError, InterfaceError, InvalidGeometryError
from .mesh import distance_to_boundary
from .solve import NeumannSolver, _one_blas_thread, solver_for

#: normalization of the quartic bump (1 - |z|^2)^2 on the unit ball in d = 3:
#: 4 pi int_0^1 (1 - r^2)^2 r^2 dr = 32 pi / 105
MOLLIFIER_NORMALIZATION = 105.0 / (32.0 * np.pi)
#: sub-cells per cell axis of the mollifier load quadrature
MOLLIFIER_SUBDIV = 3


def _bump(z2, radius):
    """Phi_eps at squared scaled distances z2 = |x - y|^2 / eps^2."""
    vals = np.where(z2 < 1.0, (1.0 - np.minimum(z2, 1.0)) ** 2, 0.0)
    return MOLLIFIER_NORMALIZATION * vals / radius**3


@dataclass(frozen=True)
class Mollifier:
    """Radial bump Phi_eps(x) = c eps^-3 (1 - |x-y|^2/eps^2)_+^2 of unit mass."""

    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0:  # NaN fails this too
            raise ValueError("mollifier radius must be positive")

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        z2 = ((pts - np.asarray(self.center)) ** 2).sum(axis=1) / self.radius**2
        return _bump(z2, self.radius)


def integrate_mollifier(mollifier):
    """Mass of Phi_eps by its exact radial rule (mesh-independent).

    r^2 Phi_eps(r) = c eps^-3 r^2 (1 - r^2/eps^2)^2 is a polynomial of degree
    6 in r on [0, eps], so 4 pi times its 4-node Gauss-Legendre sum there is
    the mass, exact up to rounding.  The profile is read through
    ``mollifier`` itself, at points on a ray from its centre, so the check
    covers the Cartesian evaluation, offsets rounded through center + offset.
    """
    eps = mollifier.radius
    x, w = np.polynomial.legendre.leggauss(4)
    r = 0.5 * eps * (1.0 + x)
    ray = np.asarray(mollifier.center, dtype=float) + np.outer(r, (1.0, 0.0, 0.0))
    # 4 pi times the rule on [0, eps], whose weights are eps w / 2
    return float(2.0 * np.pi * eps * (w * r**2 * mollifier(ray)).sum())


#: fractional lattice offsets this close to a lattice point are snapped onto
#: it, so node poles, whose coordinates carry a few ulps of rounding, share
#: one stencil
_OFFSET_SNAP = 1e-12


def _subcell_rule():
    """The mollifier load's rule on the unit cell: QUADRATURE_ORDER Gauss points
    on each of MOLLIFIER_SUBDIV^3 sub-cells, axis by axis (3, G), their
    weights (G,) and the shape table (G, 8), all read-only."""
    x, w = gauss_rule_1d(QUADRATURE_ORDER)
    sub = (np.arange(MOLLIFIER_SUBDIV)[:, None] + x[None, :]).ravel() / MOLLIFIER_SUBDIV
    wsub = np.tile(w / MOLLIFIER_SUBDIV, MOLLIFIER_SUBDIV)
    points = np.stack(np.meshgrid(sub, sub, sub, indexing="ij"), axis=-1).reshape(-1, 3)
    weights = np.einsum("i,j,k->ijk", wsub, wsub, wsub).ravel()
    psi = shape_values(points)
    points = np.ascontiguousarray(points.T)
    for a in (points, weights, psi):
        a.setflags(write=False)
    return points, weights, psi


_SUBCELL_RULE = _subcell_rule()


def mollifier_load(mesh, centers, eps):
    """Unit-mass nodal loads l_p = int_Omega Phi_eps(. - y) psi_p / mass, one per center.

    ``centers`` is (k, 3) or a single (3,) point; returns the loads (n_nodes, k)
    and their raw quadrature masses (k,).  Every mesh is an occupied subset of
    an h-lattice, so the per-cell subdivided Gauss sums of Phi_eps depend only
    on a cell's lattice offset from the center and on the center's fractional
    offset within its lattice cell.  That stencil is evaluated once per
    distinct fractional offset and scattered onto the occupied cells; a ball
    clipped by the boundary just misses cells.  Each column is then rescaled
    to sum 1 exactly: the discrete mass of the mollified delta is one, which
    transfers the continuum compatibility identity to the matrix level.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    k, n, h = len(centers), mesh.n_nodes, mesh.h
    rel = (centers - mesh.origin) / h
    near = np.round(rel)
    snap = np.abs(rel - near) < _OFFSET_SNAP
    base = np.where(snap, near, np.floor(rel)).astype(np.int64)
    offsets, group = np.unique(np.where(snap, 0.0, rel - base), axis=0, return_inverse=True)
    group = group.reshape(-1)

    P, W, psi = _SUBCELL_RULE  # unit-cell points (3, G), weights (G,), shape table (G, 8)
    W = W * h**3
    reach = (eps + 1e-12) / h  # support half-width in lattice units, with slack
    hits = np.zeros(k, dtype=np.int64)
    index, weight = [], []
    for g, frac in enumerate(offsets):
        # lattice offsets of the cells whose closure meets the support box
        axes = [np.arange(int(np.floor(f - reach - 1)) + 1, int(np.ceil(f + reach))) for f in frac]
        D = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        # of those, the cells whose closure comes within eps of the center: the
        # Gauss points lie inside a cell, so a cell further off holds none in
        # the support (a node pole keeps 64 of its 216)
        gap = np.maximum(D - frac, 0.0) + np.maximum(frac - D - 1, 0.0)
        D = D[(gap**2).sum(axis=1) < (eps / h) ** 2]
        # the offsets from the center axis by axis, (3, cells, G), so that each
        # operation runs over whole rows; the squares add x, y, z in turn, as in
        # Mollifier.__call__
        lattice = D.T.astype(float, order="C")
        offset = h * (lattice[:, :, None] + P[:, None, :] - frac[:, None, None])
        vals = _bump(ordered_sum(offset**2, axis=0) / eps**2, eps)
        stencil = (vals * W) @ psi
        members = np.flatnonzero(group == g)
        cells = mesh.cell_ids(base[members][:, None, :] + D[None])
        hits[members] = (cells >= 0).sum(axis=1)
        col, cell = np.nonzero((cells >= 0) & np.any(stencil != 0.0, axis=1))
        index.append((members[col][:, None] * n + mesh.cells[cells[col, cell]]).ravel())
        weight.append(stencil[cell].ravel())
    loads = np.bincount(
        np.concatenate(index), np.concatenate(weight), minlength=k * n
    ).reshape(k, n)
    raw = loads.sum(axis=1)
    bad = np.flatnonzero((hits == 0) | (raw <= 0))
    if len(bad):
        i = bad[0]
        what = "support misses the mesh" if hits[i] == 0 else "has zero discrete mass"
        raise InvalidGeometryError(f"mollifier at {tuple(map(float, centers[i]))}: {what}")
    loads /= raw[:, None]
    return loads.T, raw


@dataclass
class NeumannKernel:
    """All m columns of the mollified kernel at one pole.

    ``values[p, j, k]`` is component j of column k at node p; ``pole_load``
    is the shared scalar mollifier load (the discrete averaging functional
    realizing point evaluation at the pole).
    """

    mesh: object
    pole: np.ndarray
    values: np.ndarray  # (n_nodes, m, m)
    pole_load: np.ndarray  # (n_nodes,)
    adjoint: bool
    solver: NeumannSolver
    telemetry: dict

    @property
    def m(self):
        return self.values.shape[1]

    def column(self, k):
        return DiscreteField(self.mesh, self.values[:, :, k])

    def value_at(self, points):
        """Kernel matrix N(x, y) at probe x, interpolated: (m, m) or (n, m, m)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        flat = interpolate(
            DiscreteField(self.mesh, self.values.reshape(self.mesh.n_nodes, -1)), pts
        )
        out = flat.reshape(len(pts), self.m, self.m)
        return out[0] if np.asarray(points).ndim == 1 else out

    def magnitude_at(self, points):
        """Frobenius |N(x, y)| over the (m, m) entries."""
        v = self.value_at(points)
        return float(np.linalg.norm(v)) if v.ndim == 2 else np.linalg.norm(v, axis=(1, 2))


def _check_pole(mesh, y):
    """The mollifier ball of radius 2h at y lies in the domain at depth 4h."""
    eps = 2 * mesh.h
    d = distance_to_boundary(mesh, y)  # raises OutOfDomainError when outside
    if d < eps - 1e-12:
        raise InvalidGeometryError(
            f"mollifier ball of radius {eps} at {tuple(map(float, y))} "
            "is not contained in the domain"
        )
    if d < 4 * mesh.h - 1e-12:
        raise InvalidGeometryError(f"pole depth {d:.4g} below the required {4 * mesh.h:.4g}")


def _pole_rhs(solver, loads):
    """Right-hand sides (n_dof, k m) of all m columns at k poles.

    Column i m + c carries the unit-mass pole load loads[:, i] in component
    c and nothing else.  In bounded mode the solver's multiplier then forms
    the column's flux b / sum b e_c, the discrete -(1/|dOmega|) e_c.
    """
    m = solver.m
    rhs = np.zeros((solver.mesh.n_nodes, m, loads.shape[1], m))
    for c in range(m):
        rhs[:, c, :, c] = loads
    return rhs.reshape(solver.n_dof, -1)


def _solve_poles(solver, loads, adjoint):
    """Kernel values (k, n_nodes, m, m) at the k poles of ``loads``, from one blocked solve."""
    m = solver.m
    u, info = solver.solve(_pole_rhs(solver, loads), adjoint)
    return u.reshape(solver.mesh.n_nodes, m, loads.shape[1], m).transpose(2, 0, 1, 3), info


def _telemetry(raw_mass, info, m):
    """Per-column solve telemetry of a one-pole solve."""
    return {
        "raw_mass": float(raw_mass),
        "columns": [
            {
                "k": k,
                "method": info.method,
                "iterations": int(info.iterations[k]),
                "residual": float(info.residuals[k]),
            }
            for k in range(m)
        ],
    }


def build_kernel(mesh, fld, y, config=None, adjoint=False, solver=None):
    """All m columns at pole y; adjoint=True builds the kernel of the adjoint operator.

    ``solver`` is the forward solver in both directions.  The mollifier
    radius is 2h, the finest resolvable scale, and the pole must lie at depth
    4h or more, so its mollifier is never clipped by the boundary.
    """
    y = np.asarray(y, dtype=float)
    _check_pole(mesh, y)
    solver = solver_for(mesh, fld, config, solver)
    loads, raw = mollifier_load(mesh, y, 2 * mesh.h)
    values, info = _solve_poles(solver, loads, adjoint)
    telemetry = _telemetry(raw[0], info, fld.m)
    values = np.ascontiguousarray(values[0])
    return NeumannKernel(mesh, y, values, loads[:, 0], adjoint, solver, telemetry)


def check_defining_identity(kernel, phi):
    """Residual of the discrete variational identity, one entry per column.

    Bounded: B(col_k, phi) + (1/|dOmega|) int_{dOmega} phi^k - (Phi_eps * phi^k)(y).
    Graph:   B(col_k, phi) - (Phi_eps * phi^k)(y); phi must vanish on the far cut.
    B is the bilinear form of the kernel's direction, the solver's operator:
    K, or K^T for the adjoint kernel of a non-symmetric operator, over the
    DOFs the solver keeps.  In graph mode the column and phi both vanish on
    the far cut, so that is the whole functional.
    """
    mesh = kernel.mesh
    if phi.mesh is not mesh:
        raise InterfaceError("test field lives on a different mesh")
    m = kernel.m
    K = kernel.solver.operator(kernel.adjoint)
    dofs = kernel.solver.dofs
    if mesh.is_graph:
        if np.abs(phi.values[mesh.far_nodes]).max() > 1e-14:
            raise InterfaceError("graph-mode test fields must vanish on the far boundary")
        boundary_term = np.zeros(m)
    else:
        boundary_term = (kernel.solver.boundary_weights @ phi.values) / mesh.boundary_measure
    phi_flat = phi.values.reshape(-1)[dofs]
    res = np.empty(m)
    for k in range(m):
        col = kernel.values[:, :, k].reshape(-1)[dofs]
        mollified = kernel.pole_load @ phi.values[:, k]
        res[k] = phi_flat @ (K @ col) + boundary_term[k] - mollified
    return res


def check_symmetry_identity(kernel_fwd, kernel_adj):
    """Defect of the mollified-pairing symmetry identity.

    max over (l, k) of |<Phi_eps(.; x), N_eps_{lk}(., y)> - <Phi_eps(.; y),
    Nt_eps_{kl}(., x)>| for the forward kernel at y and the adjoint kernel at
    x, both mollified at eps = 2h on one mesh.  Exact at the discrete level
    because the two stiffness operators are transposes.
    """
    if kernel_fwd.mesh is not kernel_adj.mesh:
        raise InterfaceError("kernels live on different meshes")
    if kernel_fwd.adjoint == kernel_adj.adjoint:
        raise InterfaceError("need one forward and one adjoint kernel")
    m = kernel_fwd.m
    defect = 0.0
    for l in range(m):
        for k in range(m):
            lhs = kernel_adj.pole_load @ kernel_fwd.values[:, l, k]
            rhs = kernel_fwd.pole_load @ kernel_adj.values[:, k, l]
            defect = max(defect, abs(lhs - rhs))
    return defect


#: largest mesh a full node kernel set is built on: its dense storage grows
#: like n_nodes^2, and representation tests are meant for coarse meshes
MAX_KERNEL_SET_NODES = 3500
#: poles per blocked solve.  Memory grows with the blocks in flight, one per
#: worker: solving all 343 poles of a 6^3 m = 3 set as one block doubled the
#: process's peak memory (100 -> 200 MB); two blocks of 16 in flight raise it
#: by about 5 MB over one block of 32 at a time, two blocks of 32 by about 10 MB
_POLE_BLOCK = 16
#: most worker threads solving pole blocks at once
_MAX_WORKERS = 4


def _workers(blocks):
    """Worker threads for ``blocks`` pole blocks: one per usable CPU, capped.

    Where the platform has no affinity call (macOS), every CPU counts as usable.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, blocks, _MAX_WORKERS)


@dataclass(frozen=True)
class NodeKernelSet:
    """The discrete Green-matrix transpose: adjoint kernels at every node of ``mesh``."""

    mesh: object
    values: np.ndarray  # (n_poles, n_nodes, m, m): [p, q] is pole p's kernel at node q
    loads: np.ndarray  # (n_nodes, n_poles): column p is pole p's mollifier load


@_one_blas_thread()
def build_node_kernel_set(mesh, fld, config=None):
    """The ``NodeKernelSet`` of adjoint kernels at eps = 2h at every mesh node.

    The forward solver's one factorization (of K^T unless K is symmetric),
    one load stencil and a few blocked adjoint solves serve all poles;
    boundary poles use clipped, renormalized mollifiers.  The factor is
    formed first; then worker threads solve the pole blocks, each writing its
    own slice of the values (SuperLU's triangular solves and sparse products
    release the GIL).  Everything runs with BLAS at one thread, so the values
    are bit-identical at any worker count and any host thread setting.
    """
    n, m = mesh.n_nodes, fld.m
    if n > MAX_KERNEL_SET_NODES:
        raise CoverageError(
            f"full kernel set on {n} nodes exceeds {MAX_KERNEL_SET_NODES}; "
            "representation tests are meant for coarse meshes"
        )
    solver = NeumannSolver(mesh, fld, config)
    loads, _ = mollifier_load(mesh, mesh.nodes, 2 * mesh.h)
    solver._prepare(adjoint=True)
    values = np.empty((n, n, m, m))

    def solve_block(lo):
        hi = min(lo + _POLE_BLOCK, n)
        values[lo:hi], _ = _solve_poles(solver, loads[:, lo:hi], True)

    starts = range(0, n, _POLE_BLOCK)
    # the workers share one factor, so its solve must be safe to call from
    # several threads at once.  SuperLU.solve is; scipy.linalg.lu_solve
    # (LAPACK getrs) is not: with scipy 1.17.1 and OpenBLAS 0.3.31, two threads
    # solving on one dense 300x300 factor returned wrong columns in 54-78 of
    # 80 blocks (up to 0.022 off), where SuperLU.solve, dtrsm, dgemm and
    # matmul matched serial.  Keep the pole blocks off dense LAPACK solves
    with futures.ThreadPoolExecutor(_workers(len(starts))) as pool:
        # drained, so that a worker's error reaches the caller
        list(pool.map(solve_block, starts))
    return NodeKernelSet(mesh, values, loads)


def representation_solve(kernels, f, g):
    """Evaluate u(x) = int N(x, y) f(y) dy + int_dOmega N(x, y) g(y) dsigma(y).

    Node p, component l, is <F, adjoint column l of pole x_p> for the load F
    of (f, g).  By discrete duality this equals the mollified readout of the
    direct solve (same discretization, same eps) to solver precision.
    """
    mesh = kernels.mesh
    n, m = mesh.n_nodes, kernels.values.shape[-1]
    load = assemble_volume_load(mesh, f, m)
    if not mesh.is_graph:
        load = load + assemble_boundary_load(mesh, g, m)
    elif g is not None:
        raise InterfaceError("graph-mode representation takes no boundary density")
    return DiscreteField(mesh, load @ kernels.values.reshape(n, n * m, m))


def mollified_readout(kernels, u):
    """Apply each pole's averaging functional to u: the eps-consistent point values."""
    if u.mesh is not kernels.mesh:
        raise InterfaceError("field lives on a different mesh")
    return DiscreteField(kernels.mesh, kernels.loads.T @ u.values)
