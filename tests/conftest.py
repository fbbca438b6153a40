import numpy as np
import pytest

from neumannlab.coeff import Identity, ScalarCheckerboard, make_coefficient
from neumannlab.discretize import QUADRATURE_ORDER, gradient_at_quadrature, volume_quadrature
from mesh_reference import l_shape as l_shape_mesh
from neumannlab.mesh import build_box_mesh, build_truncated_graph_mesh
from neumannlab.solve import SolveConfig


@pytest.fixture(scope="session")
def unit_cube_8():
    return build_box_mesh((1, 1, 1), 8)


@pytest.fixture(scope="session")
def unit_cube_12():
    return build_box_mesh((1, 1, 1), 12)


@pytest.fixture(scope="session")
def l_shape():
    # unit cube minus the quarter column (0.5,1) x (0.5,1) x (0,1)
    return l_shape_mesh(0.25)


@pytest.fixture(scope="session")
def flat_graph_12():
    return build_truncated_graph_mesh(
        lambda x, y: np.zeros_like(x), 0.0, ((0, 0, 0), (1, 1, 1)), 1.0 / 12
    )


@pytest.fixture(scope="session")
def identity_field():
    return make_coefficient(Identity())


@pytest.fixture(scope="session")
def checkerboard_field():
    return make_coefficient(ScalarCheckerboard(10.0))


@pytest.fixture(scope="session")
def solve_config():
    return SolveConfig()


@pytest.fixture(scope="session")
def gradient_l2_norm():
    """||D u||_{L2} of a DiscreteField under the assembly quadrature."""

    def norm(fld):
        g = gradient_at_quadrature(fld)
        _, w = volume_quadrature(QUADRATURE_ORDER)
        return float(np.sqrt(np.einsum("g,cgma->", w * fld.mesh.h**3, g**2)))

    return norm
