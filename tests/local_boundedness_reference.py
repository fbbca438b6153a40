"""The local-boundedness trials, one density evaluation per use.

The package solves the 3m basis loads once and combines their solutions,
loads and densities by each trial's coefficients.  Tests compare it against
this loop, which draws each trial's data with ``random_compatible_data`` and
its ball, solves each trial's own load (all trials' loads as one block), and
evaluates f again at the Gauss points inside the ball.
"""

import numpy as np

from neumannlab.discretize import (
    DiscreteField,
    ordered_sum,
    quadrature_points,
    values_at_quadrature,
)
from neumannlab.estimates import random_compatible_data
from neumannlab.solve import solver_for

D = 3


def ball_data(u, f, g, center, radius, pts, w):
    """(||u||_{L2(B)}, sup_B |f|, sup |g| over the boundary facets centred in B)
    for B = B_radius(center); f is evaluated at the Gauss points in B."""
    mesh = u.mesh
    inside = ordered_sum((pts - center) ** 2, axis=2) <= radius**2
    sq = ordered_sum(values_at_quadrature(u) ** 2, axis=2)
    l2 = float(np.sqrt(ordered_sum(w * np.where(inside, sq, 0.0))))
    sup_f = sup_g = 0.0
    if f is not None and inside.any():
        sup_f = float(np.abs(np.asarray(f(pts[inside]), dtype=float)).max())
    near = np.linalg.norm(mesh.facet_center - center, axis=1) <= radius
    if g is not None and near.any():
        sup_g = float(np.abs(np.asarray(g(mesh.facet_center[near]), dtype=float)).max())
    return l2, sup_f, sup_g


def local_boundedness_trials(mesh, fld, trials, seed, solver=None, balls=None):
    """(samples, constant) of ``estimates.test_local_boundedness``, trial by trial."""
    solver = solver_for(mesh, fld, None, solver)
    rng = np.random.default_rng(seed)
    m = fld.m
    diam = np.linalg.norm(mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0))
    pts, w = quadrature_points(mesh)
    drawn = []
    for trial in range(trials):
        f, g, load = random_compatible_data(mesh, m, rng)
        if balls is not None:
            center, radius = balls[trial % len(balls)]
            center = np.asarray(center, dtype=float)
        else:
            center = mesh.nodes[rng.integers(0, mesh.n_nodes)]
            radius = float(rng.uniform(4 * mesh.h, diam / 2))
        drawn.append((f, g, load, center, radius))
    block = solver.solve(np.stack([load for _, _, load, _, _ in drawn], axis=1))[0]
    table = []
    best = 0.0
    for trial, (f, g, _, center, radius) in enumerate(drawn):
        u = DiscreteField(mesh, block[:, trial].reshape(-1, m))
        dist = np.linalg.norm(mesh.nodes - center, axis=1)
        sel = dist <= radius / 2
        sup_half = float(np.abs(u.values[sel]).max()) if sel.any() else 0.0
        l2_ball, sup_f, sup_g = ball_data(u, f, g, center, radius, pts, w)
        rhs = radius ** (-D / 2) * l2_ball + radius**2 * sup_f + radius * sup_g
        if rhs == 0.0:
            continue
        ratio = sup_half / rhs
        table.append((radius, ratio))
        best = max(best, ratio)
    return table, float(best)
