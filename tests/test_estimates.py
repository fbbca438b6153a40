import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import local_boundedness_reference
from neumannlab import discretize, estimates, solve
from neumannlab.coeff import Identity, ScalarCheckerboard, SkewPerturbed, make_coefficient
from neumannlab.discretize import (
    QUADRATURE_ORDER,
    DiscreteField,
    assemble_boundary_load,
    assemble_volume_load,
    gradient_at_quadrature,
    ordered_sum,
    quadrature_points,
    values_at_quadrature,
    volume_quadrature,
)
from neumannlab.errors import (
    ExponentRangeError,
    InvalidGeometryError,
    OutOfDomainError,
    UnderResolvedError,
)
from neumannlab.estimates import (
    annulus_fit,
    annulus_norms,
    caccioppoli_check,
    cell_magnitudes,
    distribution_fit,
    fit_power_law,
    holder_seminorm,
    local_lp_norm,
    local_norm_fit,
    pointwise_decay_check,
    random_compatible_data,
    relative_spread,
    test_local_boundedness as local_boundedness_trials,
)
from neumannlab.kernel import build_kernel
from neumannlab.mesh import build_box_mesh
from neumannlab.solve import SolveConfig, solve_neumann_bounded, solver_for

CENTER = (0.5, 0.5, 0.5)


@pytest.fixture(scope="module")
def cb_kernel_16():
    mesh = build_box_mesh((1, 1, 1), 16)
    fld = make_coefficient(ScalarCheckerboard(10.0))
    return build_kernel(mesh, fld, CENTER, SolveConfig())


@pytest.fixture(scope="module")
def cb_kernel_20():
    # fine enough (4h < d_y/2) for a non-empty annulus band
    mesh = build_box_mesh((1, 1, 1), 20)
    fld = make_coefficient(ScalarCheckerboard(10.0))
    return build_kernel(mesh, fld, CENTER, SolveConfig())


@pytest.fixture(scope="module")
def skew_kernel_12():
    mesh = build_box_mesh((1, 1, 1), 12)
    fld = make_coefficient(SkewPerturbed(ScalarCheckerboard(10.0, m=2), 0.5))
    return build_kernel(mesh, fld, CENTER, SolveConfig())


def _flat(kernel):
    return DiscreteField(kernel.mesh, kernel.values.reshape(kernel.mesh.n_nodes, -1))


def reference_annulus_norms(kernel, r):
    """One radius's annulus norms, from the kernel evaluated at every Gauss point."""
    mesh = kernel.mesh
    lo = mesh.cell_origins()
    gap = np.maximum(lo - kernel.pole, 0.0) + np.maximum(kernel.pole - (lo + mesh.h), 0.0)
    outside = np.sqrt(ordered_sum(gap**2, axis=1)) >= r
    _, w = volume_quadrature(QUADRATURE_ORDER)
    vals = values_at_quadrature(_flat(kernel))[outside]
    mag6 = ordered_sum(vals**2, axis=2) ** 3
    grads = gradient_at_quadrature(_flat(kernel))[outside]
    mag2 = ordered_sum(grads**2, axis=(2, 3))
    return (
        float(ordered_sum(w * mesh.h**3 * mag6) ** (1.0 / 6.0)),
        float(np.sqrt(ordered_sum(w * mesh.h**3 * mag2))),
    )


def reference_local_lp_norm(kernel, r, p, gradient):
    """One radius's ball norm, from the kernel evaluated at every Gauss point."""
    pts, w = quadrature_points(kernel.mesh)
    inside = ordered_sum((pts - kernel.pole) ** 2, axis=2) <= r**2
    if gradient:
        mag = np.sqrt(ordered_sum(gradient_at_quadrature(_flat(kernel)) ** 2, axis=(2, 3)))
    else:
        mag = np.sqrt(ordered_sum(values_at_quadrature(_flat(kernel)) ** 2, axis=2))
    return float(ordered_sum(w * np.where(inside, mag**p, 0.0))) ** (1.0 / p)


def _count_calls(monkeypatch, modules, name):
    """Count the calls of ``name`` made through each of ``modules``; returns the counter."""
    calls = [0]
    for mod in modules:
        fn = getattr(mod, name)

        def counted(*args, _fn=fn, **kwargs):
            calls[0] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    return calls


class TestFitPowerLaw:
    def test_exact_power_law(self):
        scales = np.array([0.1, 0.2, 0.4, 0.8, 1.6])
        fit = fit_power_law([(s, 7.0 * s**-1) for s in scales])
        assert_allclose(fit.slope, -1.0, atol=1e-12)
        assert fit.stderr < 1e-12

    def test_two_point_finite_difference(self):
        fit = fit_power_law([(1.0, 2.0), (2.0, 8.0)])
        assert_allclose(fit.slope, np.log(4.0) / np.log(2.0))
        assert fit.stderr == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 1.0), (2.0, -1.0), (3.0, 2.0)])

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-3, 3), st.floats(0.1, 10))
    def test_recovers_random_exponents(self, slope, amp):
        scales = np.geomspace(0.1, 10, 7)
        fit = fit_power_law([(s, amp * s**slope) for s in scales])
        assert_allclose(fit.slope, slope, atol=1e-9)


class TestNormMonotonicity:
    def test_annulus_norms_nonincreasing(self, cb_kernel_16):
        radii = np.linspace(4 / 16, 0.45, 5)
        l6 = [annulus_norms(cb_kernel_16, r)[0] for r in radii]
        dn = [annulus_norms(cb_kernel_16, r)[1] for r in radii]
        assert np.all(np.diff(l6) <= 1e-14)
        assert np.all(np.diff(dn) <= 1e-14)

    def test_annulus_under_resolved(self, cb_kernel_16):
        with pytest.raises(UnderResolvedError):
            annulus_norms(cb_kernel_16, 1 / 16)

    @pytest.mark.parametrize("radii", [np.nan, [0.3, np.nan]], ids=["nan", "nan-entry"])
    def test_annulus_radius_not_a_number(self, cb_kernel_16, radii):
        with pytest.raises(UnderResolvedError, match="annulus radius nan"):
            annulus_norms(cb_kernel_16, radii)

    @pytest.mark.parametrize("radii", [np.nan, 0.0, -0.1, [0.3, np.nan]])
    def test_local_lp_radius_not_positive(self, cb_kernel_16, radii):
        # a negative radius would read as its absolute value through r**2
        with pytest.raises(ValueError, match="ball radius must be > 0, got"):
            local_lp_norm(cb_kernel_16, radii, 1.0)

    def test_local_lp_nondecreasing_in_r(self, cb_kernel_16):
        radii = np.linspace(4 / 16, 0.5, 5)
        vals = [local_lp_norm(cb_kernel_16, r, 1.0) for r in radii]
        assert np.all(np.diff(vals) >= -1e-14)

    def test_sharp_exponent_thresholds(self, cb_kernel_16):
        with pytest.raises(ExponentRangeError):
            local_lp_norm(cb_kernel_16, 0.3, 3.0)
        with pytest.raises(ExponentRangeError):
            local_lp_norm(cb_kernel_16, 0.3, 1.5, gradient=True)
        # interior values of the admissible ranges work
        assert local_lp_norm(cb_kernel_16, 0.3, 2.9) > 0
        assert local_lp_norm(cb_kernel_16, 0.3, 1.49, gradient=True) > 0

    @pytest.mark.parametrize("gradient", [False, True])
    def test_distribution_fit_samples_nonincreasing(self, cb_kernel_20, gradient):
        # superlevel-set measures fall as the threshold rises
        rec = distribution_fit(cb_kernel_20, gradient=gradient)
        ts, meas = np.array(rec.samples).T
        assert not rec.skipped and len(ts) > 2
        assert np.all(np.diff(ts) > 0) and np.all(meas > 0)
        assert np.all(np.diff(meas) <= 0)

    def test_zero_field_norms(self, unit_cube_8, identity_field, solve_config):
        # the f = 0 build: all norms vanish
        u = solve_neumann_bounded(unit_cube_8, identity_field, None, None, solve_config)
        assert np.all(cell_magnitudes(u) == 0.0)
        assert np.all(cell_magnitudes(u, gradient=True) == 0.0)


class TestRadiusSweeps:
    @pytest.mark.parametrize("name", ["cb_kernel_20", "skew_kernel_12"])
    def test_annulus_sweep_bit_equal_to_per_radius(self, name, request):
        kern = request.getfixturevalue(name)
        radii = np.geomspace(4 * kern.mesh.h, 0.45, 6)
        l6, l2 = annulus_norms(kern, radii)
        ref = np.array([reference_annulus_norms(kern, r) for r in radii])
        assert np.array_equal(l6, ref[:, 0]) and np.array_equal(l2, ref[:, 1])

    @pytest.mark.parametrize("name", ["cb_kernel_20", "skew_kernel_12"])
    @pytest.mark.parametrize("p, gradient", [(1.0, False), (2.5, False), (1.0, True), (1.4, True)])
    def test_local_lp_sweep_bit_equal_to_per_radius(self, name, p, gradient, request):
        kern = request.getfixturevalue(name)
        radii = np.geomspace(4 * kern.mesh.h, 0.5, 6)
        norms = local_lp_norm(kern, radii, p, gradient=gradient)
        ref = [reference_local_lp_norm(kern, r, p, gradient) for r in radii]
        assert np.array_equal(norms, ref)

    def test_fits_evaluate_the_kernel_once(self, cb_kernel_20, monkeypatch):
        values = _count_calls(monkeypatch, [estimates], "values_at_quadrature")
        grads = _count_calls(monkeypatch, [estimates], "gradient_at_quadrature")
        rec_l6, rec_dn = annulus_fit(cb_kernel_20)
        assert not rec_l6.skipped and not rec_dn.skipped
        assert (values[0], grads[0]) == (1, 1)
        local_norm_fit(cb_kernel_20, gradient=True)
        assert (values[0], grads[0]) == (1, 2)


def _relaid(monkeypatch, layout):
    """Make each Gauss-point evaluation the reductions read return its array
    (of a tuple, the first item) copied into ``layout``: the same values,
    in another memory order."""
    for module in (discretize, estimates):
        for name in ("values_at_quadrature", "gradient_at_quadrature", "quadrature_points"):
            fn = getattr(module, name)

            def relaid(*args, _fn=fn, **kwargs):
                out = _fn(*args, **kwargs)
                return (layout(out[0]), *out[1:]) if isinstance(out, tuple) else layout(out)

            monkeypatch.setattr(module, name, relaid)


def _ball_data(kernel):
    pts, w = quadrature_points(kernel.mesh)  # relaid under the patch
    fv = np.cos(pts[..., :1])
    return estimates._ball_data(kernel.column(0), fv, None, (0.45, 0.5, 0.55), 0.3, pts, w)


#: every reduction of Gauss-point values that reaches report.json, on a kernel
REPORT_REDUCTIONS = {
    "l2_norm": lambda k: discretize.l2_norm(k.column(0)),
    "l2_error": lambda k: discretize.l2_error(k.column(0), lambda x: np.sin(x[:, : k.m])),
    "annulus_norms": lambda k: annulus_norms(k, np.geomspace(4 * k.mesh.h, 0.45, 6)),
    "local_lp_norm": lambda k: local_lp_norm(k, np.geomspace(4 * k.mesh.h, 0.5, 6), 1.0),
    "local_lp_norm-gradient": lambda k: local_lp_norm(
        k, np.geomspace(4 * k.mesh.h, 0.5, 6), 1.4, gradient=True
    ),
    "cell_magnitudes": lambda k: cell_magnitudes(k),
    "cell_magnitudes-gradient": lambda k: cell_magnitudes(k, gradient=True),
    "holder_seminorm": lambda k: holder_seminorm(k.column(0), (0.45, 0.5, 0.55), 0.35, 0.5),
    "_ball_data": _ball_data,
    "caccioppoli_check": lambda k: caccioppoli_check(
        k.column(0), (0.45, 0.5, 0.55), 0.4, lambda x: np.cos(x[:, : k.m]), None
    ).to_dict(),
}


class TestStatedOrder:
    @pytest.mark.parametrize("axis", [None, 0, 1, 2, (1, 2), (2, 3)])
    def test_ordered_sum_ignores_layout(self, axis):
        a = np.random.default_rng(5).standard_normal((300, 8, 3, 3))
        sums = [ordered_sum(layout, axis=axis) for layout in
                (np.ascontiguousarray(a), np.asfortranarray(a), a.transpose(3, 2, 1, 0).T)]
        assert all(np.asarray(s).tobytes() == np.asarray(sums[0]).tobytes() for s in sums)

    @pytest.mark.parametrize("name", ["cb_kernel_20", "skew_kernel_12"])
    @pytest.mark.parametrize("reduction", sorted(REPORT_REDUCTIONS))
    def test_report_reductions_ignore_layout(self, reduction, name, request, monkeypatch):
        # the same Gauss-point values in C and in Fortran order give the same bits
        kern = request.getfixturevalue(name)
        results = []
        for layout in (np.ascontiguousarray, np.asfortranarray):
            with monkeypatch.context() as patch:
                _relaid(patch, layout)
                results.append(REPORT_REDUCTIONS[reduction](kern))
        c_order, f_order = results
        if isinstance(c_order, dict):
            assert c_order == f_order
        else:
            assert np.asarray(c_order).tobytes() == np.asarray(f_order).tobytes()


class TestDecay:
    def test_checkerboard_slope_in_window(self):
        mesh = build_box_mesh((1, 1, 1), 24)
        fld = make_coefficient(ScalarCheckerboard(10.0))
        kern = build_kernel(mesh, fld, CENTER, SolveConfig())
        rec = pointwise_decay_check(kern)
        assert -1.3 <= rec.slope <= -0.7
        # the narrow resolved band is flagged low-power rather than suite-gating
        assert rec.params.get("low_power") and rec.params.get("in_window")
        assert rec.empirical_constant > 0

    def test_unresolvable_band_skips(self, identity_field, solve_config):
        mesh = build_box_mesh((1, 1, 1), 8)
        kern = build_kernel(mesh, identity_field, CENTER, solve_config)
        rec = pointwise_decay_check(kern)
        assert rec.skipped

    def test_global_bound_constant_near_boundary_pole(self, solve_config):
        # pole at depth 4h: the global-bound ratio sup |N| |x-y| over probes
        # across the whole domain stays finite
        mesh = build_box_mesh((1, 1, 1), 12)
        fld = make_coefficient(ScalarCheckerboard(10.0))
        kern = build_kernel(mesh, fld, (1 / 3, 0.5, 0.5), solve_config)
        rng = np.random.default_rng(0)
        probes = rng.uniform(0.05, 0.95, (60, 3))
        sep = np.linalg.norm(probes - kern.pole, axis=1)
        keep = sep >= 4 * mesh.h
        c2 = float((kern.magnitude_at(probes[keep]) * sep[keep]).max())
        assert np.isfinite(c2) and c2 > 0


class TestHolder:
    def test_constant_field(self, unit_cube_8):
        u = DiscreteField(unit_cube_8, np.full((unit_cube_8.n_nodes, 1), 4.2))
        sem, ratio = holder_seminorm(u, CENTER, 0.4, 0.5)
        assert sem == 0.0
        assert ratio == 0.0

    def test_linear_field_lipschitz(self, unit_cube_8):
        u = DiscreteField(unit_cube_8, unit_cube_8.nodes[:, :1])
        sem, _ = holder_seminorm(u, CENTER, 0.4, 1.0)
        assert_allclose(sem, 1.0, rtol=1e-12)

    def test_ball_outside_domain(self, unit_cube_8):
        u = DiscreteField(unit_cube_8, unit_cube_8.nodes[:, :1])
        with pytest.raises(InvalidGeometryError):
            holder_seminorm(u, (0.1, 0.5, 0.5), 0.4, 0.5)

    def test_kernel_ih_ratio_finite(self, cb_kernel_16):
        u = cb_kernel_16.column(0)
        sem, ratio = holder_seminorm(u, (0.25, 0.75, 0.75), 0.25, 0.5)
        assert np.isfinite(sem) and sem > 0
        assert np.isfinite(ratio) and ratio > 0


#: name: (mesh.n, coefficient spec, linear solver)
LOCAL_BOUNDEDNESS_CASES = {
    "checkerboard-12-direct": (12, ScalarCheckerboard(10.0), "direct"),
    "checkerboard-12-krylov": (12, ScalarCheckerboard(10.0), "krylov"),
    "identity-8": (8, Identity(), "direct"),
    "checkerboard-m2-10": (10, ScalarCheckerboard(10.0, m=2), "direct"),
    "skew-m3-9": (9, SkewPerturbed(ScalarCheckerboard(10.0, m=3), 0.5), "direct"),
}


#: relative tolerance of the ratios and constant against the trial-by-trial
#: reference: roundoff of the basis combination on LU, CG's stopping rule on Krylov
LOCAL_BOUNDEDNESS_RTOL = {"direct": 1e-12, "krylov": 1e-9}


class TestLocalBoundedness:
    @pytest.mark.parametrize("name", sorted(LOCAL_BOUNDEDNESS_CASES))
    def test_matches_trial_by_trial_reference(self, name):
        # a trial's solution combines the 3m basis solutions, so it sums in
        # another order than the reference's own solve: the draws and radii
        # are exact, the ratios agree to a relative tolerance
        n, spec, linear_solver = LOCAL_BOUNDEDNESS_CASES[name]
        rtol = LOCAL_BOUNDEDNESS_RTOL[linear_solver]
        mesh = build_box_mesh((1, 1, 1), n)
        fld = make_coefficient(spec)
        solver = solver_for(mesh, fld, SolveConfig(linear_solver=linear_solver), None)
        balls = [(CENTER, 0.4), ((0.3, 0.6, 0.45), 0.25), ((0.0, 0.0, 1.0), 0.6)]
        for seed, balls in [(0, None), (7, None), (3, balls)]:
            rec = local_boundedness_trials(mesh, fld, trials=6, seed=seed, solver=solver,
                                           balls=balls)
            samples, constant = local_boundedness_reference.local_boundedness_trials(
                mesh, fld, 6, seed, solver=solver, balls=balls
            )
            assert len(samples) > 0
            radii, ratios = zip(*rec.samples)
            assert list(radii) == [r for r, _ in samples]
            assert_allclose(ratios, [v for _, v in samples], rtol=rtol)
            assert_allclose(rec.empirical_constant, constant, rtol=rtol)

    def test_constants_finite_and_reproducible(self, unit_cube_8, checkerboard_field, solve_config):
        a = local_boundedness_trials(unit_cube_8, checkerboard_field, trials=5, seed=9)
        b = local_boundedness_trials(unit_cube_8, checkerboard_field, trials=5, seed=9)
        assert a.empirical_constant > 0
        assert a.empirical_constant == b.empirical_constant
        assert len(a.samples) <= 5

    @pytest.mark.parametrize("m", [1, 2])
    def test_one_volume_load_per_basis_density(self, unit_cube_8, m, monkeypatch):
        # 3m basis loads serve every trial; 5 trials tell the counts apart
        calls = _count_calls(monkeypatch, [estimates, solve], "assemble_volume_load")
        fld = make_coefficient(ScalarCheckerboard(10.0, m=m))
        local_boundedness_trials(unit_cube_8, fld, trials=5, seed=1)
        assert calls[0] == 3 * m

    def test_memory_does_not_grow_with_trials(self, unit_cube_8, checkerboard_field):
        # the pass holds the basis solutions and one trial at a time; a pass
        # that kept each trial's data would hold about 74 KB a trial here
        solver = solver_for(unit_cube_8, checkerboard_field, None, None)
        # the first pass factors K, which both measured passes then share
        local_boundedness_trials(unit_cube_8, checkerboard_field, trials=1, solver=solver)
        peaks = []
        for trials in (2, 200):
            tracemalloc.start()
            try:
                local_boundedness_trials(
                    unit_cube_8, checkerboard_field, trials=trials, solver=solver
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_refused(self, unit_cube_8, identity_field, trials):
        # zero trials would return a record with no samples and constant 0.0
        with pytest.raises(ValueError, match="trials"):
            local_boundedness_trials(unit_cube_8, identity_field, trials=trials)

    def test_no_balls_refused(self, identity_field):
        # an empty list would divide by zero picking a trial's ball
        with pytest.raises(ValueError, match="balls"):
            local_boundedness_trials(build_box_mesh((1, 1, 1), 4), identity_field, balls=[])

    def test_ball_centred_outside_refused(self, identity_field):
        # every trial of such a ball is degenerate: no sample and a constant of 0
        balls = [(CENTER, 0.4), ((9.0, 9.0, 9.0), 0.5)]
        with pytest.raises(OutOfDomainError):
            local_boundedness_trials(build_box_mesh((1, 1, 1), 4), identity_field, balls=balls)

    @pytest.mark.parametrize("radius", [0.0, -0.3, np.nan])
    def test_ball_radius_must_be_positive(self, identity_field, radius):
        # 0 divided by zero, -0.3 compared a complex power, NaN gave a constant of 0
        balls = [(CENTER, 0.4), (CENTER, radius)]
        with pytest.raises(ValueError, match=f"radius must be > 0, got {radius}"):
            local_boundedness_trials(
                build_box_mesh((1, 1, 1), 4), identity_field, trials=3, balls=balls
            )

    def test_ball_without_data_is_under_resolved(self, identity_field):
        # a ball that holds no Gauss point makes every trial degenerate
        with pytest.raises(UnderResolvedError, match="no ball"):
            local_boundedness_trials(
                build_box_mesh((1, 1, 1), 4), identity_field, trials=3, balls=[(CENTER, 1e-9)]
            )


class TestRandomCompatibleData:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_density_matches_naive_modes(self, unit_cube_8, m):
        # f evaluates each mode's cosines once; the values stay bit-equal to
        # the per-(mode, component) expression summed in the same order
        pts = quadrature_points(unit_cube_8)[0].reshape(-1, 3)
        for seed in range(20):
            f, _, _ = random_compatible_data(unit_cube_8, m, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            modes = rng.integers(1, 4, size=(3, m))
            amps = rng.uniform(-1.0, 1.0, size=(3, m))
            naive = np.zeros((len(pts), m))
            for comp in range(m):
                for q in range(3):
                    k = modes[q, comp]
                    naive[:, comp] += amps[q, comp] * np.cos(k * np.pi * pts[:, 0]) * np.cos(
                        k * np.pi * pts[:, 1]
                    )
            assert np.array_equal(f(pts), naive)

    @pytest.mark.parametrize("m", [1, 3])
    def test_load_is_the_compatible_data_load(self, unit_cube_8, m):
        # the returned load is the one a solve of (f, g) would assemble, and it
        # balances exactly, so the solve needs no compatibility re-check
        for seed in range(20):
            f, g, load = random_compatible_data(unit_cube_8, m, np.random.default_rng(seed))
            expected = assemble_volume_load(unit_cube_8, f, m) + assemble_boundary_load(
                unit_cube_8, g, m
            )
            assert np.array_equal(load, expected)
            balance = np.abs(load.reshape(-1, m).sum(axis=0))
            assert np.all(balance <= 1e-12 * np.abs(load).sum())


class TestCaccioppoli:
    def test_zero_solution(self, unit_cube_8, identity_field, solve_config):
        u = solve_neumann_bounded(unit_cube_8, identity_field, None, None, solve_config)
        rec = caccioppoli_check(u, CENTER, 0.5, None, None)
        assert rec.empirical_constant == 0.0

    def test_homogeneity(self, unit_cube_8, identity_field, solve_config):
        f = lambda p: (np.pi**2 * np.cos(np.pi * p[:, 0]))[:, None]
        f2 = lambda p: 2 * f(p)
        u = solve_neumann_bounded(unit_cube_8, identity_field, f, None, solve_config)
        rec1 = caccioppoli_check(u, CENTER, 0.5, f, None)
        rec2 = caccioppoli_check(DiscreteField(u.mesh, 2 * u.values), CENTER, 0.5, f2, None)
        assert_allclose(rec1.empirical_constant, rec2.empirical_constant, rtol=1e-12)

    def test_manufactured_ratio_stable_under_refinement(self, identity_field, solve_config):
        f = lambda p: (np.pi**2 * np.cos(np.pi * p[:, 0]))[:, None]
        ratios = []
        for n in (8, 16):
            mesh = build_box_mesh((1, 1, 1), n)
            u = solve_neumann_bounded(mesh, identity_field, f, None, solve_config)
            ratios.append(caccioppoli_check(u, CENTER, 0.5, f, None).empirical_constant)
        assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.3

    def test_under_resolved(self, unit_cube_8, identity_field, solve_config):
        f = lambda p: (np.pi**2 * np.cos(np.pi * p[:, 0]))[:, None]
        u = solve_neumann_bounded(unit_cube_8, identity_field, f, None, solve_config)
        with pytest.raises(UnderResolvedError):
            caccioppoli_check(u, CENTER, 0.3, f, None)

    def test_nan_radius_is_under_resolved(self, unit_cube_8, identity_field, solve_config):
        # NaN compares false with 4h either way: it returned a constant of nan
        f = lambda p: (np.pi**2 * np.cos(np.pi * p[:, 0]))[:, None]
        u = solve_neumann_bounded(unit_cube_8, identity_field, f, None, solve_config)
        with pytest.raises(UnderResolvedError, match="nan is not at least 4h"):
            caccioppoli_check(u, CENTER, np.nan, f, None)


def test_relative_spread():
    assert relative_spread([1.0, 1.0, 1.0]) == 0.0
    assert_allclose(relative_spread([1.0, 2.0]), 0.5)
    assert relative_spread([]) == 0.0
