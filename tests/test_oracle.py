import numpy as np
import pytest
from numpy.testing import assert_allclose

from neumannlab.errors import SingularityError
from neumannlab.mesh import build_box_mesh
from neumannlab.oracle import cube_neumann_series_batch, fundamental_solution, halfspace_neumann

Y_CENTER = np.array([0.5, 0.5, 0.5])


# Scalar reference: the cube series summed mode by mode in a double loop, an
# independent check of the vectorized cube_neumann_series_batch.
def _g0(s, t):
    """1D kernel of -g'' = delta_t - 1, Neumann ends, zero mean on (0, 1)."""
    return 0.5 * (s * s + t * t) - max(s, t) + 1.0 / 3.0


def _gk(kappa, s, t):
    """1D kernel of -g'' + kappa^2 g = delta_t, Neumann ends on (0, 1).

    Stable form of cosh(kappa s_<) cosh(kappa (1 - s_>)) / (kappa sinh kappa).
    """
    lo, hi = (s, t) if s <= t else (t, s)
    e = np.exp
    num = (
        e(-kappa * (hi - lo))
        + e(-kappa * (hi + lo))
        + e(-kappa * (2.0 - hi - lo))
        + e(-kappa * (2.0 - hi + lo))
    )
    return num / (2.0 * kappa * (1.0 - e(-2.0 * kappa)))


def _w(p):
    return float(np.sum(p - p * p) / 6.0)


def cube_neumann_series(x, y, cutoff=20):
    """Unit-cube Neumann kernel with flux -1/6 and zero boundary mean, one probe."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    axis = int(np.argmax(np.abs(x - y)))
    t1, t2 = [a for a in range(3) if a != axis]
    k = np.arange(cutoff + 1)
    nu2 = np.where(k == 0, 1.0, 2.0)
    c1 = nu2 * np.cos(k * np.pi * x[t1]) * np.cos(k * np.pi * y[t1])
    c2 = nu2 * np.cos(k * np.pi * x[t2]) * np.cos(k * np.pi * y[t2])
    s, t = x[axis], y[axis]
    total = 0.0
    for i in range(cutoff + 1):
        for j in range(cutoff + 1):
            if i == 0 and j == 0:
                g = _g0(s, t)
            else:
                g = _gk(np.pi * np.hypot(i, j), s, t)
            total += c1[i] * c2[j] * g
    return total + _w(x) + _w(y) - 5.0 / 36.0


def series_at(x, y, cutoff=20):
    """cube_neumann_series_batch at one probe."""
    return cube_neumann_series_batch(np.asarray(x)[None], y, cutoff)[0]


class TestFundamentalSolution:
    def test_unit_distance(self):
        assert_allclose(fundamental_solution((0, 0, 0), (1, 0, 0)), 1 / (4 * np.pi))

    def test_half_distance(self):
        assert_allclose(fundamental_solution((0, 0, 0), (0.5, 0, 0)), 1 / (2 * np.pi))

    def test_exact_slope(self):
        r = np.array([0.1, 0.2, 0.4, 0.8])
        v = np.array([fundamental_solution((0, 0, 0), (ri, 0, 0)) for ri in r])
        slopes = np.diff(np.log(v)) / np.diff(np.log(r))
        assert_allclose(slopes, -1.0, atol=1e-13)

    def test_singularity(self):
        with pytest.raises(SingularityError):
            fundamental_solution((0.3, 0.2, 0.1), (0.3, 0.2, 0.1))


class TestOneDimensionalKernels:
    """The axis-resummed factors against brute-force cosine sums."""

    @pytest.mark.parametrize("s,t", [(0.3, 0.7), (0.11, 0.13), (0.5, 0.5)])
    def test_g0_matches_mode_sum(self, s, t):
        k = np.arange(1, 200001)
        brute = np.sum(2 * np.cos(k * np.pi * s) * np.cos(k * np.pi * t) / (np.pi**2 * k**2))
        # the brute-force tail is O(1/K); the closed form is exact
        assert_allclose(_g0(s, t), brute, atol=1e-5)

    @pytest.mark.parametrize("kappa", [np.pi, 5 * np.pi, 40 * np.pi])
    def test_gk_matches_mode_sum(self, kappa):
        s, t = 0.4, 0.65
        k = np.arange(0, 200001)
        nu2 = np.where(k == 0, 1.0, 2.0)
        brute = np.sum(
            nu2 * np.cos(k * np.pi * s) * np.cos(k * np.pi * t) / (np.pi**2 * k**2 + kappa**2)
        )
        assert_allclose(_gk(kappa, s, t), brute, rtol=1e-8, atol=1e-11)

    def test_gk_stable_at_large_kappa(self):
        assert np.isfinite(_gk(200.0, 0.1, 0.9))
        assert _gk(200.0, 0.1, 0.9) >= 0


class TestCubeSeries:
    def test_symmetry_in_arguments(self):
        x = np.array([0.3, 0.45, 0.6])
        y = np.array([0.52, 0.5, 0.48])
        assert series_at(x, y) == series_at(y, x)

    def test_axis_permutation_consistency(self):
        # the resummation axis is an implementation detail of the same object
        x = np.array([0.3, 0.45, 0.6])
        y = np.array([0.52, 0.5, 0.48])
        perm = [1, 0, 2]
        assert_allclose(series_at(x, y), series_at(x[perm], y[perm]), rtol=1e-12)

    def test_cutoff_self_consistency(self):
        x = Y_CENTER + np.array([0.1, 0.05, 0.02])
        a = series_at(x, Y_CENTER, 20)
        b = series_at(x, Y_CENTER, 40)
        assert abs(a - b) / abs(b) < 0.01

    def test_near_field_fundamental_dominance(self):
        x = Y_CENTER + np.array([0.05, 0.0, 0.0])
        v = series_at(x, Y_CENTER)
        assert abs(v * 4 * np.pi * 0.05 - 1.0) < 0.1

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(0.05, 0.95, (20, 3))
        batch = cube_neumann_series_batch(xs, Y_CENTER, 24)
        single = np.array([cube_neumann_series(x, Y_CENTER, 24) for x in xs])
        assert np.array_equal(batch, single)

    def test_conormal_flux_is_uniform(self):
        # one-sided second-order difference at a face: dN/dn = -1/|dOmega| = -1/6
        d = 1e-3
        probes = np.array([[0.5, 0.5, 1.0 - i * d] for i in range(3)])
        vals = cube_neumann_series_batch(probes, Y_CENTER, 30)
        flux = (3 * vals[0] - 4 * vals[1] + vals[2]) / (2 * d)
        assert_allclose(flux, -1.0 / 6.0, atol=1e-6)

    def test_boundary_mean_vanishes(self):
        # facet-midpoint quadrature of the trace; converges at second order
        mesh = build_box_mesh((1, 1, 1), 16)
        vals = cube_neumann_series_batch(mesh.facet_center, Y_CENTER, 24)
        assert abs((vals * mesh.facet_area).sum()) < 1e-3

    def test_boundary_integral_closed_form(self):
        # the closed form of int_{dOmega} G(., y) against facet quadrature of G
        y = np.array([0.3, 0.6, 0.55])
        mesh = build_box_mesh((1, 1, 1), 24)
        n_vals = cube_neumann_series_batch(mesh.facet_center, y, 24)
        w_face = np.sum(mesh.facet_center - mesh.facet_center**2, axis=1) / 6.0
        w_y = np.sum(y - y * y) / 6.0
        g_vals = n_vals - w_face - w_y + 5.0 / 36.0
        quad = float((g_vals * mesh.facet_area).sum())
        assert_allclose(quad, np.sum(y * y - y) + 0.5, atol=2e-3)


class TestHalfspace:
    def test_axis_values(self):
        v = halfspace_neumann(np.array([0, 0, 2.0]), np.array([0, 0, 1.0]))
        assert_allclose(v, 1 / (4 * np.pi) + 1 / (12 * np.pi))

    def test_symmetric(self):
        x = np.array([0.3, -0.2, 0.8])
        y = np.array([-0.1, 0.4, 1.5])
        assert halfspace_neumann(x, y) == halfspace_neumann(y, x)

    def test_normal_derivative_vanishes_on_plane(self):
        y = np.array([0.2, -0.3, 0.9])
        d = 1e-6
        x0 = np.array([0.5, 0.5, d])
        x1 = np.array([0.5, 0.5, 2 * d])
        deriv = (halfspace_neumann(x1, y) - halfspace_neumann(x0, y)) / d
        assert abs(deriv) < 1e-4

    def test_deep_probes_reduce_to_free_space(self):
        x = np.array([0.0, 0.0, 30.0])
        y = np.array([0.0, 0.0, 29.0])
        reflected = 1 / (4 * np.pi * 59)
        assert abs(halfspace_neumann(x, y) - fundamental_solution(x, y)) <= reflected * (1 + 1e-12)
