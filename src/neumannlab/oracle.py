"""Analytic reference kernels for Identity coefficients (L = -Laplacian).

Normalization conversion
------------------------
The textbook eigenfunction expansion on the unit cube,

    G(x, y) = sum_{k != 0} phi_k(x) phi_k(y) / (pi^2 |k|^2),

solves -Delta_x G = delta_y - 1 with zero conormal flux and zero volume mean.
The kernel produced here instead satisfies the normalization used throughout
this package: boundary flux identically -1/|dOmega| and zero *boundary* mean.
The conversion is exact:

    N(x, y) = G(x, y) + w(x) + w(y) - 5/36,
    w(t)    = sum_i (t_i - t_i^2) / 6,

where w solves -Delta w = 1/|Omega| with dw/dn = -1/|dOmega| (closed form on
the cube) and the constant recenters the boundary trace; the w(y) form follows
from int_{dOmega} G(., y) dsigma = sum_i (y_i^2 - y_i) + 1/2, summed in closed
form.  Without this additive correction every comparison against the solver
kernels would be off by a smooth field.

The mode sum is evaluated by resumming the series exactly along the axis of
largest separation (1D Neumann kernel of -d^2/ds^2 + kappa^2), which converges
exponentially in the two tangential cutoffs; ``cutoff`` below is that
tangential mode cutoff.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularityError

_FOUR_PI = 4.0 * np.pi
#: probes per vectorized block of cube_neumann_series_batch
_BATCH_CHUNK = 2048


def fundamental_solution(x, y):
    """Free-space kernel 1 / (4 pi |x - y|)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.linalg.norm(x - y)
    if r == 0.0:
        raise SingularityError("fundamental solution evaluated at x = y")
    return 1.0 / (_FOUR_PI * r)


def _gk_batch(kappa, s, t):
    """1D kernels of -g'' + kappa^2 g = delta_t, Neumann ends on (0, 1): (n, K).

    Stable form of cosh(kappa s_<) cosh(kappa (1 - s_>)) / (kappa sinh kappa)
    for an array of kappa (K,) against an array of s (n,), scalar t.
    """
    lo = np.minimum(s, t)[:, None]
    hi = np.maximum(s, t)[:, None]
    k = kappa[None, :]
    num = (
        np.exp(-k * (hi - lo))
        + np.exp(-k * (hi + lo))
        + np.exp(-k * (2.0 - hi - lo))
        + np.exp(-k * (2.0 - hi + lo))
    )
    return num / (2.0 * k * (1.0 - np.exp(-2.0 * k)))


def cube_neumann_series_batch(xs, y, cutoff):
    """Unit-cube Neumann kernel N(x, y), flux -1/6 and zero boundary mean, at probes xs (n, 3)."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    y = np.asarray(y, dtype=float)
    K = cutoff
    k = np.arange(K + 1)
    nu2 = np.where(k == 0, 1.0, 2.0)
    out = np.empty(len(xs))
    axes = np.argmax(np.abs(xs - y), axis=1)
    for axis in (0, 1, 2):
        rows = np.flatnonzero(axes == axis)
        if len(rows) == 0:
            continue
        t1, t2 = [a for a in range(3) if a != axis]
        kap = np.pi * np.sqrt((k[:, None] ** 2 + k[None, :] ** 2).astype(float))  # (K+1, K+1)
        for s0 in range(0, len(rows), _BATCH_CHUNK):
            sel = rows[s0 : s0 + _BATCH_CHUNK]
            x = xs[sel]
            c1 = nu2[None] * np.cos(np.outer(x[:, t1], k) * np.pi) * np.cos(k * np.pi * y[t1])[None]
            c2 = nu2[None] * np.cos(np.outer(x[:, t2], k) * np.pi) * np.cos(k * np.pi * y[t2])[None]
            g = _gk_batch(kap.ravel()[1:], x[:, axis], y[axis])  # skip (0,0)
            gfull = np.empty((len(sel), (K + 1) ** 2))
            gfull[:, 1:] = g
            s_ax = x[:, axis]
            # the (0, 0) mode: -g'' = delta_t - 1 with zero mean on (0, 1)
            gfull[:, 0] = 0.5 * (s_ax**2 + y[axis] ** 2) - np.maximum(s_ax, y[axis]) + 1.0 / 3.0
            total = np.einsum(
                "ni,nj,nij->n", c1, c2, gfull.reshape(len(sel), K + 1, K + 1)
            )
            out[sel] = total
    w_x = np.sum(xs - xs * xs, axis=1) / 6.0
    return out + w_x + np.sum(y - y * y) / 6.0 - 5.0 / 36.0


def halfspace_neumann(x, y):
    """Half-space {x3 > 0} kernel by reflection: Gamma(x - y) + Gamma(x - y*)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ystar = y.copy()
    ystar[2] = -ystar[2]
    return fundamental_solution(x, y) + fundamental_solution(x, ystar)
