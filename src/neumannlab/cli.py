"""Configuration-driven experiment runner.

Config files are plain key = value lines (``#`` comments).  The keys are the
RunConfig field names, with the first ``_`` of a mesh, coeff or solve field
written as ``.`` (``mesh_n`` is ``mesh.n``); every key has a default,
``mesh.extents`` holds three lengths, and ``trials``, ``coeff.m`` and
``mesh.n`` are at least 1.  Example::

    kind = full-suite
    seed = 7
    mesh.extents = 1 1 1
    mesh.n = 12
    coeff.type = checkerboard
    coeff.contrast = 10
    poles = center

Experiment kinds: verify-coeff, solve, kernel, estimates, oracle-compare,
full-suite.  The cube series oracle applies to identity coefficients on the
unit cube box only: oracle-compare elsewhere is a config error, and
full-suite skips it.  Reports are one JSON document plus one CSV per fitted
check; re-emission is byte-identical.  Exit codes: 0 all checks pass, 1 check
failure, 2 config/io error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import coeff as coeffmod
from . import estimates as est
from .discretize import DiscreteField, boundary_mean
from .errors import (
    CompatibilityError,
    InvalidGeometryError,
    NeumannLabError,
    NonEllipticSpecError,
    NumericFailureError,
)
from .kernel import (
    Mollifier,
    _check_pole,
    build_kernel,
    check_defining_identity,
    check_symmetry_identity,
    integrate_mollifier,
)
from .mesh import build_box_mesh, build_truncated_graph_mesh
from .oracle import cube_neumann_series_batch
from .solve import (
    NeumannSolver,
    SolveConfig,
    _one_blas_thread,
    solve_neumann_bounded,
    solve_neumann_graph,
)

KINDS = ("verify-coeff", "solve", "kernel", "estimates", "oracle-compare", "full-suite")
#: accepted values of the choice keys; coeff.type and solve.* are checked by
#: building the spec and the SolveConfig
_CHOICES = {
    "kind": KINDS,
    "mesh_type": ("box", "graph"),
    "poles": ("center", "near-boundary", "lattice"),
}
#: gate of the defining and symmetry identity residuals
IDENTITY_TOL = 1e-8
#: gates of the solve experiment's relative residual and boundary mean; fixed,
#: so a loose solve.tolerance fails them instead of loosening them
_RESIDUAL_TOL = 1e-8
_BOUNDARY_MEAN_TOL = 1e-9
#: gate of the relative deviation from the cube series oracle
ORACLE_RTOL = 0.05
#: largest predicted problem, in DOFs of a scalar field.  Building a Krylov
#: solver peaks at about 530 bytes per scalar DOF (63 MB at 48^3), so the
#: budget is about 1.3 GB of set-up and admits 128^3 (2.15M DOFs).  A DOF's
#: stiffness row holds up to 27 m entries, so an m-component field gets 1/m
#: of the budget
_MAX_DOFS = 2_500_000


@dataclass
class RunConfig:
    kind: str = "full-suite"
    seed: int = 0
    outdir: str = "out"
    mesh_type: str = "box"  # box | graph
    mesh_extents: tuple = (1.0, 1.0, 1.0)
    mesh_n: int = 8
    coeff_type: str = "identity"  # identity | checkerboard | cellwise-random | skew | smooth
    coeff_m: int = 1
    coeff_contrast: float = 10.0
    coeff_cell: float = 0.25
    coeff_amplitude: float = 0.5
    coeff_lam: float = 0.5
    coeff_bound: float = 2.0
    coeff_frequency: float = 1.0
    solve_tolerance: float = 1e-10
    solve_linear_solver: str = "direct"
    poles: str = "center"  # center | near-boundary | lattice
    trials: int = 8

    def to_dict(self):
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.__dict__.items()}

    def hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: config key -> RunConfig field (see the module docstring)
_KEYS = {
    (f.name.replace("_", ".", 1) if f.name.startswith(("mesh_", "coeff_", "solve_")) else f.name): f
    for f in fields(RunConfig)
}


def parse_config(path):
    cfg = RunConfig()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        field = _KEYS[key]
        if isinstance(field.default, tuple):
            setattr(cfg, field.name, tuple(float(tok) for tok in value.split()))
        else:
            setattr(cfg, field.name, type(field.default)(value))
    _checked(cfg)
    return cfg


def _checked(cfg):
    """The coefficient spec and SolveConfig of cfg; ValueError on any bad value."""
    for attr, allowed in _CHOICES.items():
        if getattr(cfg, attr) not in allowed:
            raise ValueError(f"unknown {attr} {getattr(cfg, attr)!r}; expected one of {allowed}")
    if cfg.kind == "oracle-compare" and not _oracle_applies(cfg):
        raise ValueError(
            "oracle-compare needs identity coefficients on the unit cube "
            "(mesh.type = box, mesh.extents = 1 1 1)"
        )
    if cfg.trials < 1:
        raise ValueError(f"trials must be >= 1, got {cfg.trials}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be >= 0, got {cfg.seed}")
    if len(cfg.mesh_extents) != 3:
        raise ValueError(f"mesh.extents needs 3 lengths, got {len(cfg.mesh_extents)}")
    if cfg.coeff_m < 1:
        raise ValueError(f"coeff.m must be >= 1, got {cfg.coeff_m}")
    if cfg.mesh_n < 1:
        raise ValueError(f"mesh.n must be >= 1, got {cfg.mesh_n}")
    # node count of the box lattice; a bad extent is left to the mesh build
    nodes = np.prod(np.rint(np.maximum(cfg.mesh_extents, 0.0) * cfg.mesh_n) + 1)
    if nodes * cfg.coeff_m > _MAX_DOFS / cfg.coeff_m:
        raise ValueError(
            f"problem too large: {nodes * cfg.coeff_m:.4g} predicted DOFs exceed the budget "
            f"of {_MAX_DOFS // cfg.coeff_m} for coeff.m = {cfg.coeff_m}"
        )
    return _build_spec(cfg), _solve_config(cfg)


def _oracle_applies(cfg):
    """Whether the cube series oracle applies: identity coefficients on the unit cube box."""
    return (
        cfg.coeff_type == "identity"
        and cfg.mesh_type == "box"
        and tuple(cfg.mesh_extents) == (1.0, 1.0, 1.0)
    )


def _build_mesh(cfg):
    if cfg.mesh_type == "box":
        return build_box_mesh(cfg.mesh_extents, cfg.mesh_n)
    return build_truncated_graph_mesh(
        lambda x, y: np.zeros_like(x), 0.0, ((0.0, 0.0, 0.0), cfg.mesh_extents),
        1.0 / cfg.mesh_n,
    )


def _build_spec(cfg):
    t = cfg.coeff_type
    if t == "identity":
        return coeffmod.Identity(m=cfg.coeff_m)
    if t == "checkerboard":
        return coeffmod.ScalarCheckerboard(
            cfg.coeff_contrast, cell=cfg.coeff_cell, seed=cfg.seed, m=cfg.coeff_m
        )
    if t == "cellwise-random":
        return coeffmod.CellwiseRandom(
            cfg.coeff_lam, cfg.coeff_bound, cell=cfg.coeff_cell, seed=cfg.seed, m=cfg.coeff_m
        )
    if t == "skew":
        return coeffmod.SkewPerturbed(
            coeffmod.ScalarCheckerboard(
                cfg.coeff_contrast, cell=cfg.coeff_cell, seed=cfg.seed, m=cfg.coeff_m
            ),
            cfg.coeff_amplitude,
            seed=cfg.seed,
        )
    if t == "smooth":
        return coeffmod.SmoothVMO(cfg.coeff_frequency, cfg.coeff_amplitude, m=cfg.coeff_m)
    raise ValueError(f"unknown coefficient type {t!r}")


def _solve_config(cfg):
    return SolveConfig(tolerance=cfg.solve_tolerance, linear_solver=cfg.solve_linear_solver)


def _pole_list(cfg, mesh):
    center = 0.5 * (mesh.nodes.min(axis=0) + mesh.nodes.max(axis=0))
    if cfg.poles == "center":
        return [center]
    if cfg.poles == "near-boundary":
        depth = 4 * mesh.h  # the least pole depth of an eps = 2h kernel
        p = center.copy()
        p[0] = mesh.nodes[:, 0].min() + depth
        return [center, p]
    lo = mesh.nodes.min(axis=0)  # lattice
    hi = mesh.nodes.max(axis=0)
    offs = (0.375, 0.625)
    return [lo + np.array([a, b, c]) * (hi - lo) for a in offs for b in offs for c in offs]


def _rec(name, value, tol, extra=None):
    rec = est.CheckRecord(name=name, samples=[(1.0, value)], params=extra or {})
    rec.empirical_constant = float(value)
    rec.passed = bool(value <= tol)
    rec.params["tolerance"] = tol
    return rec


@_one_blas_thread()
def run_experiment(cfg):
    """Execute the configured pipeline; deterministic given (config, seed).

    The run holds BLAS at one thread, so its report does not depend on the
    host's BLAS thread setting.

    A bad config value raises ValueError before anything is built.  Geometry
    the mesh cannot be built from, or a pole whose mollifier ball the mesh
    cannot hold, raises InvalidGeometryError before any check runs, and a
    coefficient spec that ``make_coefficient`` rejects raises
    NonEllipticSpecError.  Only ``verify-coeff``, which checks the spec
    itself, records that rejection as its check's failure.
    """
    records = []
    failures = []
    spec, scfg = _checked(cfg)
    mesh = _build_mesh(cfg)
    if cfg.kind in ("kernel", "estimates", "full-suite"):
        for pole in _pole_list(cfg, mesh):
            _check_pole(mesh, pole)
    fld = None if cfg.kind == "verify-coeff" else coeffmod.make_coefficient(spec)
    provenance = {
        "config": cfg.to_dict(),
        "mesh": {"type": cfg.mesh_type, "extents": list(cfg.mesh_extents), "n": cfg.mesh_n},
        "coeff": repr(spec),
        "seed": cfg.seed,
    }
    try:
        _run_kind(cfg, mesh, fld or coeffmod.make_coefficient(spec), scfg, records)
    except CompatibilityError as e:
        failures.append(
            {
                "stage": cfg.kind,
                "error": "compatibility",
                "detail": "volume/boundary data violate the integral balance",
                "residual": [float(v) for v in np.atleast_1d(e.residual)],
            }
        )
    except NumericFailureError as e:
        failures.append(
            {"stage": cfg.kind, "error": "numeric-failure", "detail": str(e),
             "diagnostics": e.diagnostics}
        )
    except NeumannLabError as e:
        failures.append({"stage": cfg.kind, "error": type(e).__name__, "detail": str(e)})
    return est.EstimateReport(records, provenance, cfg.hash(), failures)


def _run_kind(cfg, mesh, fld, scfg, records):
    """Run the experiments of cfg.kind on one mesh and one forward solver."""
    kind = cfg.kind
    if kind in ("verify-coeff", "full-suite"):
        records.extend(_verify_coeff(cfg, fld))
    if kind == "verify-coeff":
        return
    solver = NeumannSolver(mesh, fld, scfg)
    if kind in ("solve", "full-suite"):
        records.extend(_solve_experiment(cfg, solver))
    first_kernel = None
    if kind in ("kernel", "full-suite"):
        recs, first_kernel = _kernel_experiment(cfg, solver)
        records.extend(recs)
    if kind in ("estimates", "full-suite"):
        records.extend(_estimates_experiment(cfg, solver, first_kernel))
    if kind == "oracle-compare" or (kind == "full-suite" and _oracle_applies(cfg)):
        records.extend(_oracle_experiment(cfg, solver, first_kernel))


def _verify_coeff(cfg, fld):
    rng = np.random.default_rng(cfg.seed)
    lo = np.zeros(3)
    hi = np.asarray(cfg.mesh_extents, dtype=float)
    pts = lo + rng.uniform(size=(64, 3)) * (hi - lo)
    lam_est, m_est = coeffmod.verify_ellipticity_bounds(fld, pts, seed=cfg.seed)
    rec = est.CheckRecord(
        name="ellipticity-bounds",
        samples=[(1.0, lam_est), (2.0, m_est)],
        params={"lambda_est": lam_est, "M_est": m_est, "declared": [fld.lam, fld.bound]},
    )
    rec.passed = True  # verify_ellipticity_bounds raises on violation
    return [rec]


def _solve_experiment(cfg, solver):
    mesh, fld, scfg = solver.mesh, solver.field, solver.config
    m = fld.m
    L = cfg.mesh_extents[0]

    def f(p):
        return np.broadcast_to(
            (np.pi / L) ** 2 * np.cos(np.pi * p[:, 0] / L)[:, None], (len(p), m)
        ).copy()

    if mesh.is_graph:
        center = 0.5 * (mesh.nodes.min(0) + mesh.nodes.max(0))

        def bump(p):
            r2 = ((p - center) ** 2).sum(axis=1)
            return np.broadcast_to(
                np.maximum(0.0, 1.0 - r2 / (4 * mesh.h) ** 2)[:, None], (len(p), m)
            ).copy()

        u = solve_neumann_graph(mesh, fld, bump, scfg, solver=solver)
        far = float(np.abs(u.values[mesh.far_nodes]).max())
        return [
            _rec("graph-far-boundary-zero", far, 1e-14),
            _rec("solve-residual", u.info.residual, _RESIDUAL_TOL),
        ]

    u = solve_neumann_bounded(mesh, fld, f, None, scfg, solver=solver)
    bm = float(np.abs(boundary_mean(u)).max())
    recs = [_rec("solve-boundary-mean", bm, _BOUNDARY_MEAN_TOL)]
    recs.append(_rec("solve-residual", u.info.residual, _RESIDUAL_TOL))
    return recs


def _kernel_experiment(cfg, solver):
    mesh, fld, scfg = solver.mesh, solver.field, solver.config
    recs = []

    mol = Mollifier(tuple(0.5 * (mesh.nodes.min(0) + mesh.nodes.max(0))), 2 * mesh.h)
    mass = integrate_mollifier(mol)
    recs.append(_rec("mollifier-mass", abs(mass - 1.0), 1e-6))

    rng = np.random.default_rng(cfg.seed)
    poles = _pole_list(cfg, mesh)
    kernels = []
    for pole in poles:
        kern = build_kernel(mesh, fld, pole, scfg, solver=solver)
        kernels.append(kern)
        worst = 0.0
        for _ in range(cfg.trials):
            vals = rng.standard_normal((mesh.n_nodes, fld.m))
            if mesh.is_graph:
                vals[mesh.far_nodes] = 0.0
            phi = DiscreteField(mesh, vals)
            worst = max(worst, float(np.abs(check_defining_identity(kern, phi)).max()))
        recs.append(
            _rec(
                "defining-identity",
                worst,
                IDENTITY_TOL,
                {"pole": list(map(float, pole)), "telemetry": kern.telemetry},
            )
        )
    if not mesh.is_graph:
        # forward kernel at the first pole against the adjoint kernel at the last
        k_adj = build_kernel(mesh, fld, poles[-1], scfg, adjoint=True, solver=solver)
        defect = check_symmetry_identity(kernels[0], k_adj)
        recs.append(_rec("symmetry-identity", defect, IDENTITY_TOL))
    return recs, kernels[0]


def _estimates_experiment(cfg, solver, kern=None):
    """Estimate fits on the forward kernel at the first pole (built here unless given)."""
    mesh, fld, scfg = solver.mesh, solver.field, solver.config
    if kern is None:
        pole = _pole_list(cfg, mesh)[0]
        kern = build_kernel(mesh, fld, pole, scfg, solver=solver)
    recs = [est.pointwise_decay_check(kern, seed=cfg.seed)]
    a6, adn = est.annulus_fit(kern)
    recs += [a6, adn]
    recs.append(est.local_norm_fit(kern, gradient=False))
    recs.append(est.local_norm_fit(kern, gradient=True))
    recs.append(est.distribution_fit(kern, gradient=False))
    recs.append(est.distribution_fit(kern, gradient=True))
    if not mesh.is_graph:
        recs.append(
            est.test_local_boundedness(mesh, fld, trials=cfg.trials, seed=cfg.seed, solver=solver)
        )
    return recs


def _oracle_experiment(cfg, solver, kern=None):
    """Series-oracle comparison of the forward kernel at the cube centre.

    ``kern``, the full-suite run's first forward kernel, is reused when its
    pole is the centre, else the kernel is built here.  The identity system's
    kernel is the scalar one times I_m, so its Frobenius magnitude is sqrt(m)
    times the scalar oracle's.
    """
    mesh = solver.mesh
    if kern is None or np.any(kern.pole != 0.5):
        kern = build_kernel(mesh, solver.field, (0.5, 0.5, 0.5), solver.config, solver=solver)
    h = mesh.h
    rng = np.random.default_rng(cfg.seed)
    dirs = rng.standard_normal((16, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.geomspace(4 * h, 0.25, 4)
    probes = np.concatenate([np.array([0.5, 0.5, 0.5]) + r * dirs for r in radii])
    fe = kern.magnitude_at(probes) / np.sqrt(solver.m)
    oracle = np.abs(cube_neumann_series_batch(probes, np.array([0.5, 0.5, 0.5])))
    rel = float(np.max(np.abs(fe - oracle) / oracle))
    return [_rec("oracle-cube-agreement", rel, ORACLE_RTOL, {"probes": len(probes)})]


def emit_report(report, outdir):
    """Write report.json and one CSV per record; returns the file list."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(report.to_json())
    written = [path]
    rec_dir = out / "records"
    rec_dir.mkdir(exist_ok=True)
    for i, rec in enumerate(report.records):
        path = rec_dir / f"{i:02d}_{rec.name}.csv"
        lines = ["scale,value"] + [f"{a!r},{b!r}" for a, b in rec.samples]
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written


def main(argv=None):
    parser = argparse.ArgumentParser(prog="neumannlab", description=__doc__)
    sub = parser.add_subparsers(dest="kind")
    # the options go before or after the subcommand; its copies default to
    # SUPPRESS, so they set only what they are given and never reset a value
    # parsed before the subcommand
    targets = [(parser, None)] + [(sub.add_parser(kind), argparse.SUPPRESS) for kind in KINDS]
    for target, default in targets:
        target.add_argument("--config", default=default, help="key = value configuration file")
        target.add_argument("--seed", type=int, default=default, help="override the config seed")
        target.add_argument("--out", default=default, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        if args.kind:
            cfg.kind = args.kind
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out:
            cfg.outdir = args.out
        _checked(cfg)
    except (OSError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        report = run_experiment(cfg)
    # from the mesh build, a pole or the coefficient spec, before any check ran
    except (InvalidGeometryError, NonEllipticSpecError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        emit_report(report, cfg.outdir)
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2
    for rec in report.records:
        if rec.skipped:
            status = "skip"
        elif rec.passed is None:
            status = "info"  # recorded but not suite-gating (e.g. low-power fits)
        else:
            status = "pass" if rec.passed else "FAIL"
        slope = "" if rec.slope is None else f" slope={rec.slope:.3f}"
        const = (
            ""
            if rec.empirical_constant is None
            else f" const={rec.empirical_constant:.3g}"
        )
        print(f"[{status}] {rec.name}{slope}{const}")
    for failure in report.failures:
        print(f"[FAIL] {failure['error']}: {failure['detail']}")
    if any(f["error"] == "numeric-failure" for f in report.failures):
        return 3
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
