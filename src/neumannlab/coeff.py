"""Coefficient tensors A[alpha, beta, i, j] for m x m systems in d = 3.

A field evaluates batches of points to arrays of shape (n, 3, 3, m, m); the
(md) x (md) matrix view used for ellipticity checks flattens row index
(alpha, i) against column index (beta, j).  All generators are deterministic
given their spec (and seed).  A random field's tensor on a lattice cell is a
pure function of (seed, tag, cell index), drawn from a counter-based hash
(SplitMix64's finalizer), so evaluation is order- and batch-independent and
assembled operators are bit-reproducible.
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
    # a SkewPerturbed spec has no m of its own: its base is checked in turn
    if getattr(spec, "m", 1) < 1:
        raise NonEllipticSpecError(f"component count m must be >= 1, got {spec.m}")
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
    """vals[n] times the identity tensor: the values on the diagonal of zeros."""
    out = np.zeros((len(vals), D, D, m, m))
    np.einsum("naaii->nai", out)[...] = vals[:, None, None]  # a writable view of the diagonal
    return out


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
        parity = (idx[:, 0] + idx[:, 1] + idx[:, 2] + (spec.seed & 1)) & 1  # floor mod 2, any sign
        vals = np.where(parity == 0, 1.0, float(spec.contrast))
        return _scalar_times_identity(vals, spec.m)

    return CoefficientField(spec, spec.m, 1.0, float(spec.contrast), ev)


#: SplitMix64's increment, the golden ratio in 64 bits
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix(z):
    """SplitMix64's finalizer, a bijection of uint64 arrays (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _cell_draws(idx, seed, tag, n_normal, n_uniform=0):
    """Counter-based draws of the lattice cells idx (n, 3): each point's cell
    among the distinct cells, and their (cells, n_normal) standard normals and
    (cells, n_uniform) uniforms.

    A cell's key chains ``h <- mix((h ^ v) + gamma)`` over the seed's 64-bit
    words (least significant first, so a seed of 2^64 or more folds into
    several words), the tag and the indices i, j, k (negative ones as their
    64-bit two's complement).  Slot s of a cell is ``mix(key + (s + 1) gamma)``,
    SplitMix64's stream from the key; its top 53 bits with the last set to 1
    give an odd multiple of 2^-53, strictly inside (0, 1).  Pairs of slots give
    Box-Muller normals.  So a cell's draws are a pure function of (seed, tag,
    cell), whatever batch it comes in, and grouping points by key is exact.
    """
    seed = int(seed)
    words = [(seed >> s) & (2**64 - 1) for s in range(0, max(seed.bit_length(), 1), 64)]
    h = np.zeros(1, dtype=np.uint64)
    for v in [*np.array(words + [tag], dtype=np.uint64), *idx.astype(np.uint64).T]:
        h = _mix((h ^ v) + _GAMMA)
    keys, inv = np.unique(h, return_inverse=True)
    pairs = (n_normal + 1) // 2
    slots = np.arange(1, 2 * pairs + n_uniform + 1, dtype=np.uint64) * _GAMMA
    u = ((_mix(keys[:, None] + slots) >> np.uint64(11)) | np.uint64(1)) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[:, :pairs]))
    angle = 2.0 * np.pi * u[:, pairs : 2 * pairs]
    normals = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    return inv.reshape(-1), normals.reshape(len(keys), -1)[:, :n_normal], u[:, 2 * pairs :]


def _cellwise_random_field(spec):
    if not np.isfinite([spec.lam_target, spec.m_target, spec.cell]).all():
        raise NonEllipticSpecError("cellwise-random parameters must be finite")
    if spec.lam_target <= 0:
        raise NonEllipticSpecError(f"lam_target must be positive, got {spec.lam_target}")
    if spec.m_target < spec.lam_target or spec.cell <= 0:
        raise NonEllipticSpecError("need m_target >= lam_target > 0 and cell > 0")
    md = D * spec.m

    def ev(pts):
        # each cell: an (md, md) normal draw for the eigenvectors, then md eigenvalues
        inv, g, u = _cell_draws(_cell_index(pts, spec.cell), spec.seed, 0x5EED, md * md, md)
        q, _ = np.linalg.qr(g.reshape(-1, md, md))
        eigs = spec.lam_target + (spec.m_target - spec.lam_target) * u
        mats = (q * eigs[:, None, :]) @ q.transpose(0, 2, 1)
        mats = 0.5 * (mats + mats.transpose(0, 2, 1))
        return mats[inv].reshape(len(pts), D, spec.m, D, spec.m).transpose(0, 1, 3, 2, 4)

    return CoefficientField(spec, spec.m, float(spec.lam_target), float(spec.m_target), ev)


def _skew_field(spec):
    if not np.isfinite(spec.amplitude) or spec.amplitude < 0:
        raise NonEllipticSpecError(f"skew amplitude must be finite and >= 0, got {spec.amplitude}")
    if not np.isfinite(spec.cell) or spec.cell <= 0:
        raise NonEllipticSpecError("skew cell size must be finite and positive")
    base = make_coefficient(spec.base)
    md = D * base.m

    def ev(pts):
        inv, g, _ = _cell_draws(_cell_index(pts, spec.cell), spec.seed, 0xA5CE, md * md)
        g = g.reshape(-1, md, md)
        s = g - g.transpose(0, 2, 1)
        skew = spec.amplitude * (s / np.linalg.norm(s, 2, axis=(1, 2))[:, None, None])[inv]
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


def verify_ellipticity_bounds(fld, sample_points):
    """Estimate (lambda, M) over samples and assert the declared bounds.

    lambda_est is the smallest eigenvalue of the symmetric part over samples,
    M_est the largest spectral norm.  They bound both quadratic forms at every
    sample: xi.A xi >= lambda_est |xi|^2 and |eta.A xi| <= M_est |xi||eta|.
    """
    mats = fld.matrices(sample_points)
    sym = 0.5 * (mats + mats.transpose(0, 2, 1))
    lam_est = float(np.linalg.eigvalsh(sym)[:, 0].min())
    m_est = float(np.linalg.norm(mats, 2, axis=(1, 2)).max())
    if lam_est <= 0:
        raise NonEllipticFieldError(f"field is not elliptic: lambda_est={lam_est}")
    if lam_est < fld.lam - 1e-12:
        raise NonEllipticFieldError(
            f"measured lambda {lam_est} violates declared lambda {fld.lam}"
        )
    if m_est > fld.bound + 1e-12:
        raise NonEllipticFieldError(f"measured bound {m_est} exceeds declared M {fld.bound}")
    return lam_est, m_est
