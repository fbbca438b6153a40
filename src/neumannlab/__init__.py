"""Numerical laboratory for Neumann functions of divergence-form elliptic systems.

Builds mollified Neumann kernels for rough-coefficient operators on hexahedral
meshes of Lipschitz (box, staircase, truncated-graph) domains and verifies
their defining identities, symmetry relation, decay estimates, weak-type
bounds, and energy inequalities against analytic oracles.
"""

from .coeff import (
    CellwiseRandom,
    Identity,
    ScalarCheckerboard,
    SkewPerturbed,
    SmoothVMO,
    make_coefficient,
    verify_ellipticity_bounds,
)
from .discretize import DiscreteField, boundary_mean
from .kernel import (
    Mollifier,
    NeumannKernel,
    NodeKernelSet,
    build_kernel,
    build_node_kernel_set,
    check_defining_identity,
    check_symmetry_identity,
    representation_solve,
)
from .mesh import (
    Mesh,
    build_box_mesh,
    build_staircase_mesh,
    build_truncated_graph_mesh,
    distance_to_boundary,
)
from .solve import (
    NeumannSolver,
    SolveConfig,
    solve_neumann_bounded,
    solve_neumann_graph,
)

__version__ = "0.1.0"

__all__ = [
    "CellwiseRandom",
    "DiscreteField",
    "Identity",
    "Mesh",
    "Mollifier",
    "NeumannKernel",
    "NeumannSolver",
    "NodeKernelSet",
    "ScalarCheckerboard",
    "SkewPerturbed",
    "SmoothVMO",
    "SolveConfig",
    "boundary_mean",
    "build_box_mesh",
    "build_kernel",
    "build_node_kernel_set",
    "build_staircase_mesh",
    "build_truncated_graph_mesh",
    "check_defining_identity",
    "check_symmetry_identity",
    "distance_to_boundary",
    "make_coefficient",
    "representation_solve",
    "solve_neumann_bounded",
    "solve_neumann_graph",
    "verify_ellipticity_bounds",
]
