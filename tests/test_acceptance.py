"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The heavy shared builds (24^3 checkerboard kernel, the deep-pole
identity kernel, the 32^3 oracle-comparison kernel) are session fixtures.
"""

import copy

import numpy as np
import pytest

from neumannlab.cli import RunConfig, emit_report, run_experiment
from neumannlab.coeff import (
    Identity,
    ScalarCheckerboard,
    SkewPerturbed,
    make_coefficient,
)
from neumannlab.discretize import DiscreteField, interpolate, l2_error, l2_norm
from neumannlab.errors import CompatibilityError, ExponentRangeError
from neumannlab.estimates import (
    annulus_fit,
    caccioppoli_check,
    distribution_fit,
    holder_seminorm,
    local_lp_norm,
    local_norm_fit,
    pointwise_decay_check,
    relative_spread,
    test_local_boundedness as local_boundedness_trials,
)
from neumannlab.kernel import (
    Mollifier,
    build_kernel,
    build_node_kernel_set,
    check_defining_identity,
    check_symmetry_identity,
    integrate_mollifier,
    mollified_readout,
    representation_solve,
)
from neumannlab.mesh import build_box_mesh, build_truncated_graph_mesh
from neumannlab.oracle import cube_neumann_series_batch, halfspace_neumann
from neumannlab.solve import NeumannSolver, SolveConfig, solve_neumann_bounded

CENTER = np.array([0.5, 0.5, 0.5])
CFG = SolveConfig()


def announce(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} ({detail})", flush=True)
    assert passed, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="session")
def checkerboard_24_kernel():
    mesh = build_box_mesh((1, 1, 1), 24)
    fld = make_coefficient(ScalarCheckerboard(10.0))
    return build_kernel(mesh, fld, CENTER, CFG)


@pytest.fixture(scope="session")
def deep_identity_kernel():
    # pole on the axis of a (1, 1, 3) box: d_y = 0.5 with the boundary-induced
    # smooth field three times weaker than on the unit cube, so the resolved
    # band [4h, d_y] is scaling-dominated
    mesh = build_box_mesh((1, 1, 3), 24)
    fld = make_coefficient(Identity())
    return build_kernel(mesh, fld, (0.5, 0.5, 1.5), CFG)


def test_c01_mollifier_normalization():
    mol = Mollifier(tuple(CENTER), 0.2)
    mass_err = abs(integrate_mollifier(mol) - 1.0)
    sup_err = abs(mol(CENTER)[0] * mol.radius**3 - 105.0 / (32.0 * np.pi))
    rng = np.random.default_rng(0)
    pts = CENTER + 0.25 * rng.standard_normal((2000, 3))
    unscaled = mol(pts) * mol.radius**3
    bound_ok = np.all(unscaled >= 0.0) and np.all(unscaled <= 2.0)
    passed = mass_err <= 1e-6 and sup_err <= 1e-9 and bound_ok
    announce(1, "mollifier-normalization", passed,
             f"mass err {mass_err:.2e}, sup err {sup_err:.2e}, 0<=Phi<=2 {bound_ok}")


def test_c02_defining_identity_both_modes():
    worst = {}
    for mode in ("bounded", "graph"):
        if mode == "bounded":
            mesh = build_box_mesh((1, 1, 1), 12)
            pole = CENTER
        else:
            mesh = build_truncated_graph_mesh(
                lambda x, y: np.zeros_like(x), 0.0, ((0, 0, 0), (1, 1, 1)), 1.0 / 12
            )
            pole = np.array([0.5, 0.5, 0.45])
        fld = make_coefficient(Identity())
        kern = build_kernel(mesh, fld, pole, CFG)
        rng = np.random.default_rng(1)
        w = 0.0
        for _ in range(20):
            vals = rng.standard_normal((mesh.n_nodes, 1))
            if mesh.is_graph:
                vals[mesh.far_nodes] = 0.0
            w = max(w, float(np.abs(check_defining_identity(kern, DiscreteField(mesh, vals))).max()))
        worst[mode] = w
    passed = max(worst.values()) <= 1e-8
    announce(2, "defining-identity", passed,
             f"bounded {worst['bounded']:.2e}, graph {worst['graph']:.2e}, tol 1e-8")


def test_c03_symmetry_identity_nonvacuous():
    mesh = build_box_mesh((1, 1, 1), 12)
    fld = make_coefficient(SkewPerturbed(ScalarCheckerboard(10.0), 0.5))
    solver = NeumannSolver(mesh, fld, CFG)
    poles = [
        np.array([0.5, 0.5, 1 / 3]),
        np.array([0.5, 0.5, 2 / 3]),
        np.array([1 / 3, 0.5, 0.5]),
        np.array([2 / 3, 0.5, 0.5]),
        np.array([5 / 12, 5 / 12, 5 / 12]),
    ]
    kerns = [build_kernel(mesh, fld, p, CFG, solver=solver) for p in poles]
    adj = build_kernel(mesh, fld, poles[1], CFG, adjoint=True)
    defect = check_symmetry_identity(kerns[0], adj)
    asym = max(
        abs(kerns[j].value_at(poles[i])[0, 0] - kerns[i].value_at(poles[j])[0, 0])
        for i in range(len(poles))
        for j in range(i + 1, len(poles))
    )
    passed = defect <= 1e-8 and asym > 1e-3
    announce(3, "symmetry-identity", passed,
             f"pairing defect {defect:.2e} <= 1e-8, observed asymmetry {asym:.2e} > 1e-3")


def test_c04_representation_formula():
    mesh = build_box_mesh((1, 1, 1), 8)
    fld = make_coefficient(ScalarCheckerboard(10.0))
    kernels = build_node_kernel_set(mesh, fld, CFG)
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, 2)
    gconst = 0.3

    def f(p):
        return (
            a[0] * np.cos(np.pi * p[:, 0])
            + a[1] * np.cos(np.pi * p[:, 1]) * np.cos(2 * np.pi * p[:, 2])
            - 6.0 * gconst
        )[:, None]

    def g(p):
        return np.full((len(p), 1), gconst)

    direct = solve_neumann_bounded(mesh, fld, f, g, CFG)
    rep = representation_solve(kernels, f, g)
    readout = mollified_readout(kernels, direct)
    rel = l2_norm(rep - readout) / l2_norm(readout)
    passed = rel <= 1e-7
    announce(4, "representation-formula", passed,
             f"rel L2 diff {rel:.2e} <= 1e-7 over {len(kernels.values)} pole solves")


def test_c05_interior_pointwise_decay(checkerboard_24_kernel):
    rec = pointwise_decay_check(checkerboard_24_kernel)
    passed = rec.slope is not None and abs(rec.slope - (-1.0)) <= 0.3
    announce(5, "interior-pointwise-decay", passed,
             f"slope {rec.slope:.3f} in [-1.3, -0.7], stderr {rec.stderr:.3f}")


def test_c06_weak_type_exponents(checkerboard_24_kernel):
    rec_n = distribution_fit(checkerboard_24_kernel, gradient=False)
    rec_dn = distribution_fit(checkerboard_24_kernel, gradient=True)
    ok_n = abs(rec_n.slope - (-3.0)) <= 0.6
    ok_dn = abs(rec_dn.slope - (-1.5)) <= 0.3
    announce(6, "weak-type-exponents", ok_n and ok_dn,
             f"N slope {rec_n.slope:.3f} (-3 +- 0.6), DN slope {rec_dn.slope:.3f} (-1.5 +- 0.3)")


def test_c06_counts_ignore_kernel_roundoff(checkerboard_24_kernel):
    # mirrored cells tie to roundoff at both ends of the DN band: an end
    # threshold on a sampled magnitude counts a different number of them
    # after a 1e-13 relative change of the kernel
    kern = checkerboard_24_kernel
    for gradient in (False, True):
        base = [m for _, m in distribution_fit(kern, gradient).samples]
        for seed in range(3):
            noise = np.random.default_rng(seed).standard_normal(kern.values.shape)
            moved = copy.copy(kern)
            moved.values = kern.values * (1 + 1e-13 * noise)
            assert [m for _, m in distribution_fit(moved, gradient).samples] == base


def test_c07_annulus_norms(deep_identity_kernel):
    rec_l6, rec_dn = annulus_fit(deep_identity_kernel)
    ok = abs(rec_l6.slope + 0.5) <= 0.15 and abs(rec_dn.slope + 0.5) <= 0.15
    announce(7, "annulus-norms", ok,
             f"L6 slope {rec_l6.slope:.3f}, DN L2 slope {rec_dn.slope:.3f}, window -0.5 +- 0.15")


def test_c08_local_lp_norms(deep_identity_kernel):
    rec_n = local_norm_fit(deep_identity_kernel, gradient=False)
    rec_dn = local_norm_fit(deep_identity_kernel, gradient=True)
    ok_slopes = abs(rec_n.slope - 2.0) <= 0.3 and abs(rec_dn.slope - 1.0) <= 0.2
    with pytest.raises(ExponentRangeError):
        local_lp_norm(deep_identity_kernel, 0.3, 3.0)
    with pytest.raises(ExponentRangeError):
        local_lp_norm(deep_identity_kernel, 0.3, 1.5, gradient=True)
    announce(8, "local-lp-norms", ok_slopes,
             f"L1(N) slope {rec_n.slope:.3f} (2 +- 0.3), L1(DN) slope {rec_dn.slope:.3f} "
             f"(1 +- 0.2); p = 3 and p = 1.5 rejected")


def test_c09_cube_oracle_agreement():
    mesh = build_box_mesh((1, 1, 1), 32)
    fld = make_coefficient(Identity())
    kern = build_kernel(mesh, fld, CENTER, CFG)
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((16, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.geomspace(4 * mesh.h, 0.25, 4)
    probes = np.concatenate([CENTER + r * dirs for r in radii])
    fe = kern.magnitude_at(probes)
    oracle = np.abs(cube_neumann_series_batch(probes, CENTER, 20))
    rel = float(np.max(np.abs(fe - oracle) / oracle))
    passed = rel <= 0.05
    announce(9, "cube-series-oracle", passed,
             f"max rel err {rel:.4f} <= 0.05 over {len(probes)} probes, 32^3 mesh")


def test_c10_graph_halfspace_oracle():
    h = 1.0 / 6.0
    pole = np.array([0.0, 0.0, 4 * h])
    # floor probes under the pole: the maximal far-distance locus of this
    # domain type, where the reflection doubles the kernel value
    probes = np.array([[0, 0, 0], [h, 0, 0], [0, h, 0], [-h, 0, 0], [2 * h, 0, 0]])
    exact = np.array([halfspace_neumann(p, pole) for p in probes])

    def rel_err(L):
        mesh = build_truncated_graph_mesh(
            lambda x, y: np.zeros_like(x), 0.0,
            ((-L / 2, -L / 2, 0), (L / 2, L / 2, L)), h,
        )
        cfg = SolveConfig(linear_solver="krylov", tolerance=1e-10)
        kern = build_kernel(mesh, make_coefficient(Identity()), pole, cfg)
        fe = interpolate(kern.column(0), probes)[:, 0]
        return np.abs(fe - exact) / exact

    err_half = rel_err(8.0)
    err_full = rel_err(16.0)
    passed = err_full.max() <= 0.10 and err_full.max() < err_half.max()
    announce(10, "halfspace-oracle", passed,
             f"max rel err {err_full.max():.4f} <= 0.10 at L = 16, "
             f"doubling decreased it from {err_half.max():.4f}")


def test_c11_manufactured_convergence():
    fld = make_coefficient(Identity())
    f = lambda p: (np.pi**2 * np.cos(np.pi * p[:, 0]))[:, None]
    exact = lambda p: np.cos(np.pi * p[:, 0])
    errs = {}
    for n in (8, 16):
        u = solve_neumann_bounded(build_box_mesh((1, 1, 1), n), fld, f, None, CFG)
        errs[n] = l2_error(u, exact)
    ratio = errs[8] / errs[16]
    passed = 3.4 <= ratio <= 4.6
    announce(11, "manufactured-convergence", passed,
             f"L2 error ratio h/(h/2) = {ratio:.3f} in [3.4, 4.6]")


def test_c12_compatibility_enforcement():
    mesh = build_box_mesh((1, 1, 1), 8)
    fld = make_coefficient(Identity())
    rejected, residual = False, None
    try:
        solve_neumann_bounded(mesh, fld, lambda p: np.ones((len(p), 1)), None, CFG)
    except CompatibilityError as e:
        rejected = True
        residual = float(np.atleast_1d(e.residual)[0])
    accepted = solve_neumann_bounded(
        mesh, fld,
        lambda p: np.ones((len(p), 1)),
        lambda p: np.full((len(p), 1), -1.0 / 6.0),
        CFG,
    )
    ok = rejected and abs(residual - 1.0) < 1e-10 and np.all(np.isfinite(accepted.values))
    announce(12, "compatibility-enforcement", ok,
             f"incompatible rejected with residual {residual}, compatible accepted")


def test_c13_condition_constants_stability(checkerboard_24_kernel):
    fld = make_coefficient(ScalarCheckerboard(10.0))
    f_cos = lambda p: (np.pi**2 * np.cos(np.pi * p[:, 0]))[:, None]
    rng_dirs = np.random.default_rng(2).standard_normal((26, 3))
    rng_dirs /= np.linalg.norm(rng_dirs, axis=1, keepdims=True)
    probes = CENTER + 0.25 * rng_dirs

    balls = [
        ((0.5, 0.5, 0.5), 0.4),
        ((0.25, 0.25, 0.5), 0.3),
        ((0.75, 0.5, 0.25), 0.35),
        ((0.125, 0.5, 0.5), 0.3),
    ]
    c0, c1, c2, cacc = [], [], [], []
    for n in (8, 16, 24):
        mesh = build_box_mesh((1, 1, 1), n)
        solver = NeumannSolver(mesh, fld, CFG)
        kern = (
            checkerboard_24_kernel
            if n == 24
            else build_kernel(mesh, fld, CENTER, CFG, solver=solver)
        )
        c2.append(0.25 * kern.magnitude_at(probes).max())
        _, ih_ratio = holder_seminorm(kern.column(0), (0.25, 0.25, 0.75), 0.25, 0.5)
        c0.append(ih_ratio)
        lb = local_boundedness_trials(mesh, fld, trials=12, seed=0, solver=solver, balls=balls)
        c1.append(lb.empirical_constant)
        u = solve_neumann_bounded(mesh, fld, f_cos, None, CFG, solver=solver)
        cacc.append(caccioppoli_check(u, CENTER, 0.5, f_cos, None).empirical_constant)

    spreads = {name: relative_spread(seq) for name, seq in
               (("C0", c0), ("C1", c1), ("C2", c2), ("Caccioppoli", cacc))}
    all_bounded = all(s <= 0.5 for s in spreads.values())
    flags_agree = (spreads["C1"] <= 0.5) == (spreads["C2"] <= 0.5)
    announce(13, "condition-constants-stability", all_bounded and flags_agree,
             ", ".join(f"{k} spread {v:.2f}" for k, v in spreads.items())
             + f"; LB/C2 flags agree: {flags_agree}")


def test_c14_determinism(tmp_path):
    cfg = RunConfig(kind="full-suite", mesh_n=8, coeff_type="identity", seed=7, trials=5)
    emit_report(run_experiment(cfg), tmp_path / "a")
    emit_report(run_experiment(cfg), tmp_path / "b")
    ja = (tmp_path / "a/report.json").read_bytes()
    jb = (tmp_path / "b/report.json").read_bytes()
    csvs_a = sorted((tmp_path / "a/records").glob("*.csv"))
    csvs_b = sorted((tmp_path / "b/records").glob("*.csv"))
    csv_ok = all(x.read_bytes() == y.read_bytes() for x, y in zip(csvs_a, csvs_b))
    passed = ja == jb and csv_ok and len(csvs_a) == len(csvs_b)
    announce(14, "determinism", passed,
             f"report.json and {len(csvs_a)} CSVs byte-identical across reruns")
