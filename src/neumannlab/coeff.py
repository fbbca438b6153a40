"""Coefficient tensors A[alpha, beta, i, j] for m x m systems in d = 3.

A field evaluates batches of points to arrays of shape (n, 3, 3, m, m); the
(md) x (md) matrix view used for ellipticity checks flattens row index
(alpha, i) against column index (beta, j).  All generators are deterministic
given their spec (and seed), and evaluation is order-independent, so assembled
operators are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    InterfaceError,
    NonEllipticFieldError,
    NonEllipticSpecError,
    NumericFailureError,
)

D = 3
#: random (xi, eta) probe pairs per sample point of verify_ellipticity_bounds
_ELLIPTICITY_PROBES = 8


@dataclass(frozen=True)
class Identity:
    m: int = 1


@dataclass(frozen=True)
class ScalarCheckerboard:
    """a(x) in {1, contrast}, constant per lattice cell, parity pattern.

    The seed shifts the parity phase so two seeds give complementary patterns.
    """

    contrast: float
    cell: float = 0.25
    seed: int = 0
    m: int = 1


@dataclass(frozen=True)
class CellwiseRandom:
    """Independent random symmetric (md x md) tensor per lattice cell.

    Eigenvalues are drawn uniformly from [lam_target, m_target], so the
    declared bounds hold by construction.
    """

    lam_target: float
    m_target: float
    cell: float = 0.25
    seed: int = 0
    m: int = 1


@dataclass(frozen=True)
class SkewPerturbed:
    """base + amplitude * S(x), with S(x) a unit-spectral-norm skew matrix per cell.

    The skew part drops out of every quadratic form, so ellipticity is
    inherited from the base.  The orientation of S is drawn per lattice cell
    (seeded): a constant skew matrix would act only through the conormal data
    (div of a constant skew gradient vanishes identically), while a rough skew
    field makes the operator genuinely non-self-adjoint in the interior.
    """

    base: Union[Identity, ScalarCheckerboard, CellwiseRandom]
    amplitude: float
    cell: float = 0.25
    seed: int = 0


@dataclass(frozen=True)
class SmoothVMO:
    """a(x) = 1 + amplitude * prod_i sin(2 pi frequency x_i); requires |amplitude| < 1."""

    frequency: float = 1.0
    amplitude: float = 0.5
    m: int = 1


class CoefficientField:
    """Evaluable coefficient tensor with declared ellipticity bounds."""

    def __init__(self, spec, m, lam, bound, eval_fn):
        self.spec = spec
        self.m = int(m)
        self.lam = float(lam)
        self.bound = float(bound)
        self._eval = eval_fn
        if self.lam > self.bound + 1e-12:
            raise NonEllipticSpecError(f"declared lambda={lam} exceeds bound M={bound}")

    def evaluate(self, points):
        """points (n, 3) -> tensors (n, 3, 3, m, m)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = self._eval(pts)
        if out.shape != (len(pts), D, D, self.m, self.m):
            raise InterfaceError(
                f"coefficient evaluation returned shape {out.shape}, "
                f"expected {(len(pts), D, D, self.m, self.m)}"
            )
        if not np.all(np.isfinite(out)):
            raise NumericFailureError("coefficient evaluation returned non-finite values")
        return out

    def matrices(self, points):
        """Flattened (md x md) view: rows (alpha, i), columns (beta, j)."""
        a = self.evaluate(points)
        md = D * self.m
        return a.transpose(0, 1, 3, 2, 4).reshape(len(a), md, md)


def make_coefficient(spec):
    if isinstance(spec, Identity):
        return _identity_field(spec)
    if isinstance(spec, ScalarCheckerboard):
        return _checkerboard_field(spec)
    if isinstance(spec, CellwiseRandom):
        return _cellwise_random_field(spec)
    if isinstance(spec, SkewPerturbed):
        return _skew_field(spec)
    if isinstance(spec, SmoothVMO):
        return _smooth_field(spec)
    raise TypeError(f"unknown coefficient spec: {spec!r}")


def _identity_tensor(m):
    a = np.zeros((D, D, m, m))
    for al in range(D):
        a[al, al] = np.eye(m)
    return a


def _identity_field(spec):
    a = _identity_tensor(spec.m)

    def ev(pts):
        return np.broadcast_to(a, (len(pts),) + a.shape).copy()

    return CoefficientField(spec, spec.m, 1.0, 1.0, ev)


def _scalar_times_identity(vals, m):
    a = _identity_tensor(m)
    return vals[:, None, None, None, None] * a[None]


def _cell_index(pts, cell):
    """Lattice cell indices (n, 3) of the points, exact while every |x / cell| < 2^53."""
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        scaled = pts / cell
    if not np.all(np.abs(scaled) < 2.0**53):
        raise NumericFailureError(f"cell size {cell} puts points past 2^53 cells: inexact indices")
    return np.floor(scaled + 1e-12).astype(np.int64)


def _checkerboard_field(spec):
    if spec.contrast < 1:
        raise NonEllipticSpecError(f"checkerboard contrast must be >= 1, got {spec.contrast}")
    if not np.isfinite([spec.contrast, spec.cell]).all() or spec.cell <= 0:
        raise NonEllipticSpecError("checkerboard parameters must be finite and positive")

    def ev(pts):
        idx = _cell_index(pts, spec.cell)
        parity = (idx.sum(axis=1) + spec.seed) % 2
        vals = np.where(parity == 0, 1.0, float(spec.contrast))
        return _scalar_times_identity(vals, spec.m)

    return CoefficientField(spec, spec.m, 1.0, float(spec.contrast), ev)


def _cell_seed(seed, tag, key):
    """Seed entropy of one lattice cell.

    Negative lattice indices enter as their 64-bit two's complement: an
    injective code that leaves the entropy of every non-negative cell as it was.
    """
    return (seed, tag) + tuple(int(v) % 2**64 for v in key)


def _cellwise_random_field(spec):
    if not np.isfinite([spec.lam_target, spec.m_target, spec.cell]).all():
        raise NonEllipticSpecError("cellwise-random parameters must be finite")
    if spec.lam_target <= 0:
        raise NonEllipticSpecError(f"lam_target must be positive, got {spec.lam_target}")
    if spec.m_target < spec.lam_target or spec.cell <= 0:
        raise NonEllipticSpecError("need m_target >= lam_target > 0 and cell > 0")
    md = D * spec.m
    cache = {}

    def cell_matrix(key):
        mat = cache.get(key)
        if mat is None:
            rng = np.random.default_rng(_cell_seed(spec.seed, 0x5EED, key))
            q, _ = np.linalg.qr(rng.standard_normal((md, md)))
            eigs = rng.uniform(spec.lam_target, spec.m_target, size=md)
            mat = (q * eigs) @ q.T
            mat = 0.5 * (mat + mat.T)
            cache[key] = mat
        return mat

    def ev(pts):
        idx = _cell_index(pts, spec.cell)
        uniq, inv = np.unique(idx, axis=0, return_inverse=True)
        mats = np.stack([cell_matrix(tuple(int(v) for v in k)) for k in uniq])
        out = mats[inv.reshape(-1)]
        return out.reshape(len(pts), D, spec.m, D, spec.m).transpose(0, 1, 3, 2, 4)

    return CoefficientField(spec, spec.m, float(spec.lam_target), float(spec.m_target), ev)


def _skew_field(spec):
    if not np.isfinite(spec.amplitude) or spec.amplitude < 0:
        raise NonEllipticSpecError(f"skew amplitude must be finite and >= 0, got {spec.amplitude}")
    if not np.isfinite(spec.cell) or spec.cell <= 0:
        raise NonEllipticSpecError("skew cell size must be finite and positive")
    base = make_coefficient(spec.base)
    md = D * base.m
    cache = {}

    def cell_skew(key):
        mat = cache.get(key)
        if mat is None:
            rng = np.random.default_rng(_cell_seed(spec.seed, 0xA5CE, key))
            g = rng.standard_normal((md, md))
            s = g - g.T
            mat = s / np.linalg.norm(s, 2)
            cache[key] = mat
        return mat

    def ev(pts):
        idx = _cell_index(pts, spec.cell)
        uniq, inv = np.unique(idx, axis=0, return_inverse=True)
        mats = np.stack([cell_skew(tuple(int(v) for v in k)) for k in uniq])
        skew = spec.amplitude * mats[inv.reshape(-1)]
        skew_t = skew.reshape(len(pts), D, base.m, D, base.m).transpose(0, 1, 3, 2, 4)
        return base.evaluate(pts) + skew_t

    return CoefficientField(spec, base.m, base.lam, base.bound + spec.amplitude, ev)


def _smooth_field(spec):
    if not np.isfinite(spec.amplitude) or abs(spec.amplitude) >= 1:
        raise NonEllipticSpecError(f"smooth amplitude must be finite with |a| < 1, got {spec.amplitude}")

    def ev(pts):
        vals = 1.0 + spec.amplitude * np.prod(np.sin(2 * np.pi * spec.frequency * pts), axis=1)
        return _scalar_times_identity(vals, spec.m)

    lam = 1.0 - abs(spec.amplitude)
    return CoefficientField(spec, spec.m, lam, 1.0 + abs(spec.amplitude), ev)


def verify_ellipticity_bounds(fld, sample_points, seed=0):
    """Estimate (lambda, M) over samples and assert the declared bounds.

    lambda_est is the smallest eigenvalue of the symmetric part over samples,
    M_est the largest spectral norm.  ``_ELLIPTICITY_PROBES`` random (xi, eta)
    pairs per sample additionally exercise the two quadratic-form inequalities.
    """
    mats = fld.matrices(sample_points)
    sym = 0.5 * (mats + mats.transpose(0, 2, 1))
    lam_est = float(np.linalg.eigvalsh(sym)[:, 0].min())
    m_est = float(max(np.linalg.norm(m, 2) for m in mats))
    if lam_est <= 0:
        raise NonEllipticFieldError(f"field is not elliptic: lambda_est={lam_est}")
    if lam_est < fld.lam - 1e-12:
        raise NonEllipticFieldError(
            f"measured lambda {lam_est} violates declared lambda {fld.lam}"
        )
    if m_est > fld.bound + 1e-12:
        raise NonEllipticFieldError(f"measured bound {m_est} exceeds declared M {fld.bound}")

    rng = np.random.default_rng(seed)
    md = mats.shape[1]
    xi = rng.standard_normal((_ELLIPTICITY_PROBES, md))
    eta = rng.standard_normal((_ELLIPTICITY_PROBES, md))
    for mat in mats:
        quad = np.einsum("pa,ab,pb->p", xi, mat, xi)
        norms2 = (xi**2).sum(axis=1)
        if np.any(quad < fld.lam * norms2 - 1e-10 * norms2):
            raise NonEllipticFieldError("quadratic-form probe violates the coercivity bound")
        cross = np.abs(np.einsum("pa,ab,pb->p", eta, mat, xi))
        if np.any(cross > fld.bound * np.linalg.norm(xi, axis=1) * np.linalg.norm(eta, axis=1) + 1e-10):
            raise NonEllipticFieldError("quadratic-form probe violates the boundedness bound")
    return lam_est, m_est
