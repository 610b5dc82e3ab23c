"""Closed-form singles/coincidence rate models and SBR curve fitting."""

import math
from dataclasses import dataclass

import numpy as np


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class RateModelParams:
    """Parameters of SBR = 1 / (dt * (a * R + b))."""

    a: float
    b: float
    dt_s: float

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or self.dt_s <= 0:
            raise ModelError("RateModelParams: need a, b >= 0 and dt > 0")


# Fit parameters reported for the two measurement runs, 1.5 ns bins.  Which
# run belongs to which detection wavelength is left open deliberately.
RATE_MODEL_PRESETS = {
    "run_a": RateModelParams(a=6.78, b=1.67e6, dt_s=1.5e-9),
    "run_b": RateModelParams(a=19.1, b=0.0, dt_s=1.5e-9),
}


@dataclass(frozen=True)
class SbrFitResult:
    a: float
    b: float
    covariance: np.ndarray
    b_at_boundary: bool


def singles_rate(pair_rate, eta, q, dark) -> float:
    """Detector singles rate eta*P*(1+q) + W."""
    return float(eta * pair_rate * (1.0 + q) + dark)


def accidental_rate_per_bin(s1, s2, dt_s) -> float:
    """Accidental coincidence rate per histogram bin, S1*S2*dt."""
    return float(s1 * s2 * dt_s)


def true_coincidence_rate(pair_rate, eta1, eta2) -> float:
    """True pair coincidence rate P*eta1*eta2."""
    return float(pair_rate * eta1 * eta2)


def ab_from_physics(q1, q2, eta1, eta2, dark2) -> tuple[float, float]:
    """Rate-model parameters from source physics, herald dark counts neglected."""
    if eta1 <= 0 or eta2 <= 0:
        raise ModelError("ab_from_physics: transmittances must be positive")
    return (1.0 + q2) / eta1, (1.0 + q1) / eta2 * dark2


def sbr_model(r_her, p: RateModelParams) -> float:
    """SBR = 1 / (dt * (a * R_Her + b))."""
    denom = p.dt_s * (p.a * r_her + p.b)
    if denom <= 0:
        raise ModelError("sbr_model: a*R + b must be positive")
    return 1.0 / denom


def g2_from_sbr(sbr) -> float:
    """Heralded g2(0) implied by the SBR: 1 - (SBR/(SBR+1))^2."""
    sbr = float(sbr)
    if sbr < 0:
        raise ModelError("g2_from_sbr: SBR must be nonnegative")
    return 1.0 - (sbr / (sbr + 1.0)) ** 2


def _poisson_cdf(n: int, mu: float) -> float:
    """P(X <= n) for X ~ Poisson(mu), summed from k = n down until the terms stop counting."""
    term = math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))
    total = 0.0
    for k in range(n, -1, -1):
        total += term
        if k < mu and term <= 1e-17 * total:
            break
        term *= k / mu
    return total


def poisson_interval(n: int) -> tuple[float, float]:
    """Central 68.27 % exact (Garwood) confidence interval on a Poisson mean from n counts.

    Each end leaves the one-sigma Gaussian tail, 15.87 %, on its side:
    P(X >= n | lo) = P(X <= n | hi) = tail, with lo = 0 at n = 0.  The ends are
    bisected on the Poisson CDF; at this level they lie within 5*sqrt(n) + 5 of n.
    """
    n = int(n)
    if n < 0:
        raise ModelError("poisson_interval: need n >= 0")
    tail = 0.5 * math.erfc(1 / math.sqrt(2))
    span = 5.0 * math.sqrt(n) + 5.0

    def bisect(lo, hi, above):  # the root of above(mu) in (lo, hi); only midpoints are tried
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if above(mid) else (mid, hi)
        return 0.5 * (lo + hi)

    lower = 0.0 if n == 0 else bisect(max(n - span, 0.0), n,
                                      lambda mu: 1.0 - _poisson_cdf(n - 1, mu) >= tail)
    upper = bisect(n, n + span, lambda mu: _poisson_cdf(n, mu) <= tail)
    return lower, upper


def fit_sbr(points, dt_s) -> SbrFitResult:
    """Weighted least squares of SBR data against 1/(dt*(a*R + b)).

    points: sequence of (herald_rate, sbr[, sigma]), no wider, with rates >= 0
    and SBR values > 0.  Sigmas all > 0 give a weighted fit, a missing or
    all-zero sigma column an unweighted one; any other sigmas (one negative,
    or zero beside nonzero) are an error.  The model is exactly linear in
    (a, b) after inversion: 1/(sbr*dt) = a*R + b.
    A negative unconstrained b is clamped to zero and flagged.
    """
    if not (math.isfinite(dt_s) and dt_s > 0):
        raise ModelError(f"fit_sbr: dt must be positive and finite, got {dt_s}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 2:
        raise ModelError("fit_sbr: need at least 2 (rate, sbr) points")
    if pts.shape[1] > 3:
        raise ModelError(f"fit_sbr: {pts.shape[1]} columns; a point is (rate, sbr[, sigma])")
    r = pts[:, 0]
    sbr = pts[:, 1]
    if np.any(r < 0):
        raise ModelError("fit_sbr: herald rates must be nonnegative")
    if np.any(sbr <= 0):
        raise ModelError("fit_sbr: SBR values must be positive")
    if np.ptp(r) == 0:
        raise ModelError("fit_sbr: all herald rates equal, design is rank deficient")
    y = 1.0 / (sbr * dt_s)
    absolute = pts.shape[1] > 2 and np.any(pts[:, 2] != 0)
    if absolute and not np.all(pts[:, 2] > 0):
        raise ModelError("fit_sbr: sigmas must be all positive, or all zero for an unweighted fit")
    w = 1.0 / (pts[:, 2] / (sbr**2 * dt_s))**2 if absolute else np.ones_like(y)

    def solve(design):
        gram = design.T @ (design * w[:, None])
        coef = np.linalg.solve(gram, design.T @ (w * y))
        cov = np.linalg.inv(gram)
        if not absolute:
            dof = max(len(y) - design.shape[1], 1)
            resid = y - design @ coef
            cov = cov * float(w @ resid**2) / dof
        return coef, cov

    coef, cov = solve(np.column_stack([r, np.ones_like(r)]))
    a, b = coef
    if b < 0:
        (a,), cov_a = solve(r[:, None])
        cov = np.array([[cov_a[0, 0], 0.0], [0.0, 0.0]])
        return SbrFitResult(float(a), 0.0, cov, True)
    return SbrFitResult(float(a), float(b), cov, False)
