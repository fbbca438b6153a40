"""Norms, distribution functions, exponent fits, and condition constants.

Everything here is a pure function of immutable fields.  Magnitudes of the
m x m kernel matrix and of gradients are Frobenius norms over all components,
matching the |xi|^2 = sum |xi^i_alpha|^2 convention of the coercivity bound.
Fitted slopes carry the OLS standard error; empirical constants are reported
as refinement sequences and "pass" always means bounded variation across the
sequence, never agreement with some externally supplied constant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .discretize import (
    QUADRATURE_ORDER,
    DiscreteField,
    assemble_volume_load,
    gradient_at_quadrature,
    quadrature_points,
    values_at_quadrature,
    volume_quadrature,
)
from .errors import (
    ExponentRangeError,
    InvalidGeometryError,
    UnderResolvedError,
)
from .mesh import distance_to_boundary
from .solve import SolveConfig, solve_neumann_bounded, solver_for

D = 3
P_MAX_VALUE = D / (D - 2)  # sharp integrability threshold for N
P_MAX_GRADIENT = D / (D - 1)  # and for DN


@dataclass
class PowerLawFit:
    slope: float
    intercept: float
    stderr: float


def fit_power_law(samples):
    """OLS fit of log(value) = intercept + slope * log(scale).

    Two samples give the finite-difference slope with stderr 0.
    """
    samples = [(float(s), float(v)) for s, v in samples]
    if len(samples) < 2:
        raise ValueError("need at least two samples to fit a power law")
    arr = np.asarray(samples, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("power-law fit requires positive scales and values")
    lx = np.log(arr[:, 0])
    ly = np.log(arr[:, 1])
    n = len(lx)
    mx, my = lx.mean(), ly.mean()
    sxx = ((lx - mx) ** 2).sum()
    if sxx == 0:
        raise ValueError("degenerate fit: all scales equal")
    slope = ((lx - mx) * (ly - my)).sum() / sxx
    intercept = my - slope * mx
    if n == 2:
        stderr = 0.0
    else:
        resid = ly - (intercept + slope * lx)
        stderr = float(np.sqrt((resid**2).sum() / (n - 2) / sxx))
    return PowerLawFit(float(slope), float(intercept), stderr)


# ----------------------------------------------------------------------
# sampled kernel magnitudes


def _kernel_fields(obj):
    """Uniform access to (mesh, flat DiscreteField) for kernels and fields."""
    return obj.mesh, DiscreteField(obj.mesh, obj.values.reshape(obj.mesh.n_nodes, -1))


def cell_magnitudes(obj, gradient=False):
    """Frobenius magnitude per cell, sampled at cell centers (values) or
    cell-wise gradients (single Gauss point at the center)."""
    mesh, flat = _kernel_fields(obj)
    if gradient:
        g = gradient_at_quadrature(flat, quadrature_order=1)  # (C, 1, mm, 3)
        return np.sqrt((g[:, 0] ** 2).sum(axis=(1, 2)))
    vals = values_at_quadrature(flat, quadrature_order=1)  # (C, 1, mm)
    return np.sqrt((vals[:, 0] ** 2).sum(axis=1))


def annulus_norms(kernel, r):
    """(L^6 norm of N, L^2 norm of DN) over cells fully outside B_r(pole)."""
    mesh = kernel.mesh
    if r < 4 * mesh.h - 1e-12:
        raise UnderResolvedError(f"annulus radius {r} below 4h = {4 * mesh.h}")
    y = kernel.pole
    lo = mesh.cell_origins()
    hi = lo + mesh.h
    gap = np.maximum(lo - y, 0.0) + np.maximum(y - hi, 0.0)
    outside = np.sqrt((gap**2).sum(axis=1)) >= r
    if not outside.any():
        return 0.0, 0.0
    _, flat = _kernel_fields(kernel)
    _, w = volume_quadrature(QUADRATURE_ORDER)
    vals = values_at_quadrature(flat)[outside]
    mag6 = ((vals**2).sum(axis=2)) ** 3  # |N|^6 at each Gauss point
    l6 = float(np.einsum("g,cg->", w * mesh.h**3, mag6) ** (1.0 / 6.0))
    grads = gradient_at_quadrature(flat)[outside]
    mag2 = (grads**2).sum(axis=(2, 3))
    l2 = float(np.sqrt(np.einsum("g,cg->", w * mesh.h**3, mag2)))
    return l6, l2


def local_lp_norm(kernel, r, p, gradient=False):
    """L^p norm of |N| (or |DN|) over B_r(pole), pole cell included.

    The exponent ranges [1, 3) for N and [1, 1.5) for DN are sharp; requests
    at or beyond the endpoint raise ExponentRangeError.
    """
    limit = P_MAX_GRADIENT if gradient else P_MAX_VALUE
    if not (1.0 <= p < limit - 1e-12):
        raise ExponentRangeError(
            f"p={p} outside [1, {limit}) for {'DN' if gradient else 'N'}"
        )
    mesh = kernel.mesh
    y = kernel.pole
    d_y = distance_to_boundary(mesh, y, include_far=not mesh.is_graph)
    if r > d_y + 1e-12:
        raise InvalidGeometryError(f"radius {r} exceeds pole distance {d_y}")
    _, flat = _kernel_fields(kernel)
    pts, w = quadrature_points(mesh)
    inside = ((pts - y) ** 2).sum(axis=2) <= r**2  # (C, G)
    if gradient:
        g = gradient_at_quadrature(flat)
        mag = np.sqrt((g**2).sum(axis=(2, 3)))
    else:
        v = values_at_quadrature(flat)
        mag = np.sqrt((v**2).sum(axis=2))
    integrand = np.where(inside, mag**p, 0.0)
    total = float(np.einsum("g,cg->", w, integrand))
    return total ** (1.0 / p)


def distribution_function(obj, thresholds, gradient=False):
    """|{ x : |value| > t }| by cell-center sampling, one measure per threshold."""
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(thresholds <= 0) or np.any(np.diff(thresholds) <= 0):
        raise ValueError("thresholds must be positive and strictly increasing")
    mesh, _ = _kernel_fields(obj)
    mags = cell_magnitudes(obj, gradient=gradient)
    return np.array([(mags > t).sum() * mesh.h**3 for t in thresholds])


# ----------------------------------------------------------------------
# records


@dataclass
class CheckRecord:
    name: str
    samples: list
    slope: float | None = None
    stderr: float | None = None
    target: float | None = None
    window: float | None = None
    empirical_constant: float | None = None
    params: dict = dc_field(default_factory=dict)
    passed: bool | None = None
    skipped: bool = False

    def finalize_slope(self):
        if self.slope is None or self.target is None or self.window is None:
            return self
        scales = [s for s, _ in self.samples]
        band_ratio = max(scales) / min(scales) if scales else 0.0
        if band_ratio < 3.0:
            # under half a decade: recorded, windowed, but not suite-gating
            self.params["low_power"] = True
            self.params["in_window"] = bool(abs(self.slope - self.target) <= self.window)
            self.passed = None
        else:
            self.passed = bool(abs(self.slope - self.target) <= self.window)
        return self

    def to_dict(self):
        return {
            "name": self.name,
            "samples": [[float(a), float(b)] for a, b in self.samples],
            "slope": self.slope,
            "stderr": self.stderr,
            "target": self.target,
            "window": self.window,
            "empirical_constant": self.empirical_constant,
            "params": self.params,
            "passed": self.passed,
            "skipped": self.skipped,
        }


#: random probe directions per radius of the pointwise-decay fit
N_DIRECTIONS = 26
#: samples per slope fit: radii, or thresholds of the weak-type fits
FIT_SAMPLES = 6


def radial_probe_samples(kernel, radii, seed=0):
    """(r, direction-averaged |N|) pairs; geometric mean tames rough-coefficient wobble."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((N_DIRECTIONS, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    y = kernel.pole
    pts = y[None, None, :] + np.asarray(radii, dtype=float)[:, None, None] * dirs[None, :, :]
    inside = kernel.mesh.contains(pts.reshape(-1, 3)).reshape(pts.shape[:2])
    samples = []
    raw = []
    for r, probes, keep in zip(radii, pts, inside):
        if not keep.any():
            continue
        mags = kernel.magnitude_at(probes[keep])
        mags = mags[mags > 0]
        if len(mags) == 0:
            continue
        samples.append((float(r), float(np.exp(np.log(mags).mean()))))
        raw.extend((float(r), float(v)) for v in mags)
    return samples, raw


def pointwise_decay_check(kernel, seed=0):
    """Fit of log |N| vs log |x - y| over interior probes; target slope 2 - d = -1.

    Probes sit at FIT_SAMPLES radii in [4h, d_y/2].  Also records the empirical
    pointwise constant sup |N(x,y)| |x-y|^{d-2}.
    """
    mesh = kernel.mesh
    lo, hi = 4 * mesh.h, _pole_distance(kernel) / 2
    if lo >= hi:
        return CheckRecord(
            name="pointwise-decay", samples=[], params={"reason": "probe band unresolvable"},
            skipped=True,
        )
    samples, raw = radial_probe_samples(kernel, np.geomspace(lo, hi, FIT_SAMPLES), seed)
    fit = fit_power_law(samples)
    c2 = max(v * r ** (D - 2) for r, v in raw)
    rec = CheckRecord(
        name="pointwise-decay",
        samples=samples,
        slope=fit.slope,
        stderr=fit.stderr,
        target=float(2 - D),
        window=0.3,
        empirical_constant=float(c2),
        params={"n_directions": N_DIRECTIONS, "raw_probes": len(raw)},
    )
    return rec.finalize_slope()


def _pole_distance(kernel):
    return distance_to_boundary(
        kernel.mesh, kernel.pole, include_far=not kernel.mesh.is_graph
    )


def annulus_fit(kernel):
    """Slope fits of the annulus norms over radii in [4h, d_y/2]; target -1/2.

    Returns one record for the L^6 norm of N and one for the L^2 norm of DN.
    The annulus excludes the mollified core entirely, so the 4h floor serves
    both the value and the gradient norm.
    """
    mesh = kernel.mesh
    d_y = _pole_distance(kernel)
    lo, hi = 4 * mesh.h, d_y / 2
    if lo >= hi:
        skip = CheckRecord("annulus", [], params={"reason": "band unresolvable"}, skipped=True)
        return skip, skip
    radii = np.geomspace(lo, hi, FIT_SAMPLES)
    pairs = [annulus_norms(kernel, r) for r in radii]
    recs = []
    for idx, name in ((0, "annulus-l6"), (1, "annulus-gradient-l2")):
        samples = [(float(r), p[idx]) for r, p in zip(radii, pairs)]
        fit = fit_power_law(samples)
        recs.append(
            CheckRecord(
                name=name, samples=samples, slope=fit.slope, stderr=fit.stderr,
                target=(2 - D) / 2, window=0.15,
            ).finalize_slope()
        )
    return recs[0], recs[1]


def local_norm_fit(kernel, p=1.0, gradient=False):
    """Slope fit of the local L^p ball norms; targets 2-d+d/p (N), 1-d+d/p (DN).

    Value norms fit radii in [4h, d_y]; gradient norms start at 8h because the
    FE gradient of the mollified column is under-resolved closer to the pole.
    """
    mesh = kernel.mesh
    d_y = _pole_distance(kernel)
    lo = (8 if gradient else 4) * mesh.h
    if lo >= d_y:
        return CheckRecord(
            "local-lp", [], params={"reason": "band unresolvable"}, skipped=True
        )
    radii = np.geomspace(lo, d_y, FIT_SAMPLES)
    samples = [(float(r), local_lp_norm(kernel, r, p, gradient=gradient)) for r in radii]
    fit = fit_power_law(samples)
    target = (1 - D + D / p) if gradient else (2 - D + D / p)
    return CheckRecord(
        name=f"local-l{p:g}-{'gradient' if gradient else 'value'}",
        samples=samples,
        slope=fit.slope,
        stderr=fit.stderr,
        target=float(target),
        window=0.2 if gradient else 0.3,
        params={"p": p},
    ).finalize_slope()


def resolved_thresholds(kernel, gradient=False):
    """Thresholds whose superlevel sets have the resolved ball volumes.

    Superlevel sets between vol(B_{4h}) and vol(B_{d_y/2}) for values, and
    between vol(B_{8h}) and vol(B_{d_y}) for gradients (the weak-type gradient
    estimate ranges over the full interior ball; gradients resolve at 8h).
    """
    mesh = kernel.mesh
    d_y = _pole_distance(kernel)
    r_lo, r_hi = (8 * mesh.h, d_y) if gradient else (4 * mesh.h, d_y / 2)
    if r_lo >= r_hi:
        return None
    mags = np.sort(cell_magnitudes(kernel, gradient=gradient))[::-1]
    volumes = (np.arange(len(mags)) + 1) * mesh.h**3
    i_lo = np.searchsorted(volumes, 4.0 / 3.0 * np.pi * r_lo**3)
    i_hi = min(np.searchsorted(volumes, 4.0 / 3.0 * np.pi * r_hi**3), len(mags) - 1)
    if i_lo >= i_hi or mags[i_hi] <= 0:
        return None
    return np.geomspace(mags[i_hi], mags[i_lo], FIT_SAMPLES)


def distribution_fit(kernel, gradient=False):
    """Weak-type slope fit over the resolved threshold band.

    Targets -d/(d-2) = -3 for N and -d/(d-1) = -1.5 for DN.
    """
    ts = resolved_thresholds(kernel, gradient=gradient)
    name = f"distribution-{'gradient' if gradient else 'value'}"
    if ts is None:
        return CheckRecord(name, [], params={"reason": "band unresolvable"}, skipped=True)
    meas = distribution_function(kernel, ts, gradient=gradient)
    samples = list(zip(ts.tolist(), meas.tolist()))
    fit = fit_power_law(samples)
    target = -D / (D - 1) if gradient else -D / (D - 2)
    return CheckRecord(
        name=name, samples=samples, slope=fit.slope, stderr=fit.stderr,
        target=float(target), window=0.3 if gradient else 0.6,
    ).finalize_slope()


def holder_seminorm(u, center, radius, mu, boundary=False):
    """Discrete Hoelder seminorm over node pairs in the half ball, plus the
    interior-continuity ratio seminorm * R^mu / sqrt(mean |u|^2 over B_R).

    ``boundary=True`` works on Omega_R = Omega intersected with the ball (the
    up-to-the-boundary variant); the interior version requires the ball
    inside the domain.
    """
    if not (0 < mu <= 1):
        raise ValueError("mu must lie in (0, 1]")
    mesh = u.mesh
    center = np.asarray(center, dtype=float)
    if not boundary:
        d = distance_to_boundary(mesh, center)
        if radius > d + 1e-12:
            raise InvalidGeometryError(f"ball of radius {radius} not inside the domain")
    dist = np.linalg.norm(mesh.nodes - center, axis=1)
    inner = np.flatnonzero(dist <= radius / 2)
    if len(inner) < 2:
        raise UnderResolvedError("fewer than two nodes in the half ball")
    vals = u.values[inner]
    pts = mesh.nodes[inner]
    sem = 0.0
    for i in range(len(inner) - 1):
        dv = np.linalg.norm(vals[i + 1 :] - vals[i], axis=1)
        dp = np.linalg.norm(pts[i + 1 :] - pts[i], axis=1)
        sem = max(sem, float((dv / dp**mu).max()))
    pts_q, w = quadrature_points(mesh)
    inside = ((pts_q - center) ** 2).sum(axis=2) <= radius**2
    vol = float(np.einsum("g,cg->", w, inside.astype(float)))
    vq = values_at_quadrature(u)
    mean_sq = float(np.einsum("g,cg->", w, np.where(inside, (vq**2).sum(axis=2), 0.0))) / vol
    ratio = sem * radius**mu / np.sqrt(mean_sq) if mean_sq > 0 else 0.0
    return sem, float(ratio)


def _region_masks(mesh, center, radius):
    pts, w = quadrature_points(mesh)
    return ((pts - center) ** 2).sum(axis=2) <= radius**2, pts, w


def _sup_on_nodes(u, center, radius):
    dist = np.linalg.norm(u.mesh.nodes - np.asarray(center), axis=1)
    sel = dist <= radius
    if not sel.any():
        return 0.0
    return float(np.abs(u.values[sel]).max())


def _l2_on_ball(u, center, radius):
    inside, _, w = _region_masks(u.mesh, center, radius)
    vq = values_at_quadrature(u)
    return float(np.sqrt(np.einsum("g,cg->", w, np.where(inside, (vq**2).sum(axis=2), 0.0))))


def _sup_fn_on_ball(fn, mesh, center, radius, m):
    inside, pts, _ = _region_masks(mesh, center, radius)
    flat = pts.reshape(-1, 3)
    vals = np.abs(np.asarray(fn(flat), dtype=float)).reshape(inside.shape + (m,)).max(axis=2)
    sel = np.where(inside, vals, 0.0)
    return float(sel.max())


def _sup_boundary(mesh, gfn, center, radius, m):
    sel = np.linalg.norm(mesh.facet_center - np.asarray(center), axis=1) <= radius
    if not sel.any() or gfn is None:
        return 0.0, sel.any()
    vals = np.abs(np.asarray(gfn(mesh.facet_center[sel]), dtype=float))
    return float(vals.max()), True


def random_compatible_data(mesh, m, rng):
    """Smooth random cosine-mode f with a constant g balancing it exactly."""
    modes = rng.integers(1, 4, size=(3, m))
    amps = rng.uniform(-1.0, 1.0, size=(3, m))

    def f(pts):
        out = np.zeros((len(pts), m))
        for comp in range(m):
            for q in range(3):
                k = modes[q, comp]
                out[:, comp] += amps[q, comp] * np.cos(k * np.pi * pts[:, 0]) * np.cos(
                    k * np.pi * pts[:, 1]
                )
        return out

    fl = assemble_volume_load(mesh, f, m).reshape(-1, m).sum(axis=0)
    gconst = -fl / mesh.boundary_measure

    def g(pts):
        return np.broadcast_to(gconst, (len(pts), m)).copy()

    return f, g, gconst


def test_local_boundedness(mesh, fld, trials=20, seed=0, solver=None, balls=None):
    """Empirical C1 of the local-boundedness estimate over random data and balls.

    ratio = sup |u| over the half ball / (R^{-d/2} ||u||_{L2(ball)} +
    R^2 sup|f| + R sup|g|); the max over trials is a lower bound for C1.
    Passing explicit ``balls`` [(center, radius), ...] makes the estimate
    comparable across refinements of the same domain.
    """
    solver = solver_for(mesh, fld, SolveConfig(), solver)
    rng = np.random.default_rng(seed)
    m = fld.m
    diam = np.linalg.norm(mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0))
    table = []
    best = 0.0
    for trial in range(trials):
        f, g, gconst = random_compatible_data(mesh, m, rng)
        u = solve_neumann_bounded(mesh, fld, f, g, solver=solver)
        if balls is not None:
            center, radius = balls[trial % len(balls)]
            center = np.asarray(center, dtype=float)
        else:
            center = mesh.nodes[rng.integers(0, mesh.n_nodes)]
            radius = float(rng.uniform(4 * mesh.h, diam / 2))
        sup_half = _sup_on_nodes(u, center, radius / 2)
        l2_ball = _l2_on_ball(u, center, radius)
        sup_f = _sup_fn_on_ball(f, mesh, center, radius, m)
        sup_g, has_bdry = _sup_boundary(mesh, g, center, radius, m)
        rhs = radius ** (-D / 2) * l2_ball + radius**2 * sup_f + radius * sup_g
        if rhs == 0.0:
            continue  # degenerate 0/0 trial
        ratio = sup_half / rhs
        table.append((radius, ratio))
        best = max(best, ratio)
    return CheckRecord(
        name="local-boundedness",
        samples=table,
        empirical_constant=float(best),
        params={"trials": trials, "seed": seed},
    )


def _eta_profile(dist, radius):
    """Radial cutoff: 1 on B_{R/2}, 0 outside B_R, linear between (|grad| <= 4/R)."""
    return np.clip(2.0 - 2.0 * dist / radius, 0.0, 1.0)


def caccioppoli_check(u, center, radius, f, g):
    """ratio = ||Du||_{L2(half ball)} / (R^{-1}||u||_{L2(ball)} +
    R^{d/2}(1+R) sup|g| + R^{d/2+1} sup|f|).

    Also reports the eta-weighted gradient energy (trilinear interpolant of
    the radial cutoff profile), the quantity the energy argument actually
    bounds.
    """
    mesh = u.mesh
    if radius < 4 * mesh.h:
        raise UnderResolvedError(f"Caccioppoli radius {radius} below 4h")
    center = np.asarray(center, dtype=float)
    m = u.m
    pts, w = quadrature_points(mesh)
    dist2 = ((pts - center) ** 2).sum(axis=2)
    grads = gradient_at_quadrature(u)
    gmag2 = (grads**2).sum(axis=(2, 3))
    half = dist2 <= (radius / 2) ** 2
    lhs = float(np.sqrt(np.einsum("g,cg->", w, np.where(half, gmag2, 0.0))))
    eta_nodes = _eta_profile(np.linalg.norm(mesh.nodes - center, axis=1), radius)
    eta_q = values_at_quadrature(DiscreteField(mesh, eta_nodes[:, None]))[:, :, 0]
    lhs_weighted = float(np.sqrt(np.einsum("g,cg->", w, eta_q**2 * gmag2)))
    l2_ball = _l2_on_ball(u, center, radius)
    sup_f = _sup_fn_on_ball(f, mesh, center, radius, m) if f is not None else 0.0
    sup_g, _ = _sup_boundary(mesh, g, center, radius, m)
    rhs = radius ** (-1.0) * l2_ball + radius ** (D / 2) * (1 + radius) * sup_g + radius ** (
        D / 2 + 1
    ) * sup_f
    ratio = 0.0 if rhs == 0 else lhs / rhs
    return CheckRecord(
        name="caccioppoli",
        samples=[(radius, ratio)],
        empirical_constant=float(ratio),
        params={
            "lhs": lhs,
            "lhs_eta_weighted": lhs_weighted,
            "rhs": rhs,
            "center": [float(c) for c in center],
        },
    )


def relative_spread(values):
    """(max - min) / max over a refinement sequence; 'bounded' means <= 0.5."""
    vals = np.asarray(list(values), dtype=float)
    if len(vals) == 0 or np.all(vals == 0):
        return 0.0
    return float((vals.max() - vals.min()) / vals.max())


@dataclass
class EstimateReport:
    """All check records of one experiment run plus provenance.

    Serialization is deterministic (sorted keys, repr floats), so identical
    configs and seeds reproduce byte-identical reports.
    """

    records: list
    provenance: dict
    config_hash: str
    failures: list = dc_field(default_factory=list)

    @property
    def passed(self):
        if self.failures:
            return False
        gated = [r.passed for r in self.records if not r.skipped and r.passed is not None]
        return all(gated) if gated else True

    def to_dict(self):
        return {
            "schema_version": 1,
            "config_hash": self.config_hash,
            "provenance": self.provenance,
            "records": [r.to_dict() for r in self.records],
            "failures": self.failures,
            "passed": self.passed,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
