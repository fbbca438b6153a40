"""Each refusal of bad input that no other test reaches raises its own typed error."""

import numpy as np
import pytest

from neumannlab import estimates
from neumannlab.coeff import CoefficientField, Identity, make_coefficient
from neumannlab.discretize import DiscreteField
from neumannlab.errors import (
    InterfaceError,
    InvalidGeometryError,
    NonEllipticSpecError,
    UnderResolvedError,
)
from neumannlab.kernel import build_kernel, check_symmetry_identity
from neumannlab.mesh import Mesh, build_box_mesh, build_truncated_graph_mesh
from neumannlab.oracle import cube_neumann_series_batch

CENTER = (0.5, 0.5, 0.5)


def kernel_8():
    """Forward identity kernel at the cube centre on a new 8^3 box."""
    return build_kernel(build_box_mesh((1, 1, 1), 8), make_coefficient(Identity()), CENTER)


def kernels_on_two_meshes():
    check_symmetry_identity(kernel_8(), kernel_8())


def two_forward_kernels():
    kern = kernel_8()
    check_symmetry_identity(kern, kern)


def holder(radius, mu):
    mesh = build_box_mesh((1, 1, 1), 8)
    u = DiscreteField(mesh, np.ones((mesh.n_nodes, 1)))
    return estimates.holder_seminorm(u, CENTER, radius, mu)


def graph_without_cells():
    # the profile sits within the snapping slack of one cell below the box
    # top, so every column's floor rounds up to the top
    top = 1.0 - 0.25 + 0.9e-9
    return build_truncated_graph_mesh(
        lambda x, y: np.full_like(x, top), 0.0, ((0, 0, 0), (1, 1, 1)), 0.25
    )


CASES = {
    "symmetry-identity-two-meshes": (
        kernels_on_two_meshes, InterfaceError, "kernels live on different meshes"
    ),
    "symmetry-identity-two-forward-kernels": (
        two_forward_kernels, InterfaceError, "need one forward and one adjoint kernel"
    ),
    "power-law-one-sample": (
        lambda: estimates.fit_power_law([(1.0, 2.0)]), ValueError, "at least two samples"
    ),
    "power-law-one-scale": (
        lambda: estimates.fit_power_law([(1.0, 2.0), (1.0, 3.0)]), ValueError,
        "all scales equal",
    ),
    "local-norm-radius-beyond-pole-distance": (
        lambda: estimates.local_lp_norm(kernel_8(), [0.25, 0.6], 1.0), InvalidGeometryError,
        "radius 0.6 exceeds pole distance 0.5",
    ),
    "holder-exponent-zero": (lambda: holder(0.25, 0.0), ValueError, r"mu must lie in \(0, 1\]"),
    "holder-one-node-in-half-ball": (
        lambda: holder(0.1, 0.5), UnderResolvedError, "fewer than two nodes in the half ball"
    ),
    "mesh-empty-cell-set": (
        lambda: Mesh(np.zeros(3), 1.0, np.zeros((2, 2, 2), dtype=bool)), InvalidGeometryError,
        "empty cell set",
    ),
    "box-extent-off-the-lattice": (
        lambda: build_box_mesh((1.5, 1, 1), 1), InvalidGeometryError,
        "extent 1.5 is not commensurate with h=1.0",
    ),
    "box-extent-below-one-cell": (
        lambda: build_box_mesh((1e-9, 1, 1), 1), InvalidGeometryError,
        r"extent 1e-09 shorter than one cell \(h=1.0\)",
    ),
    "graph-profile-leaves-no-cells": (
        graph_without_cells, InvalidGeometryError, "profile leaves no cells inside the box"
    ),
    "oracle-cutoff-zero": (
        lambda: cube_neumann_series_batch(np.array([CENTER]), np.array(CENTER), 0), ValueError,
        "cutoff must be >= 1",
    ),
    "coefficient-lambda-above-bound": (
        lambda: CoefficientField(1, 3.0, 1.0, None), NonEllipticSpecError,
        "declared lambda=3.0 exceeds bound M=1.0",
    ),
    "unknown-coefficient-spec": (
        lambda: make_coefficient("identity"), TypeError, "unknown coefficient spec: 'identity'"
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_input_raises_its_error(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call()
