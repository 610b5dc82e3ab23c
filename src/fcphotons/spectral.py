"""Optical spectra, first-order coherence envelopes and derived metrics.

Frequencies are offsets from the optical carrier in GHz, delays are in ps.
The GHz*ps product carries a factor 1e-3, applied wherever the two units
meet (Fourier kernels and the time-bandwidth product).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft
from scipy.optimize import curve_fit

# sinc(x)^2 = 0.5 at x = SINC_HALF_X; fixed to 7 digits so tests are bit-stable
SINC_HALF_X = 1.3915574

GHZ_PS = 1e-3  # 1 GHz * 1 ps


class SpectralError(ValueError):
    pass


class FitError(RuntimeError):
    pass


class EnvelopeTailWarning(UserWarning):
    """Coherence envelope has not decayed below 1e-3 at the grid edge."""


def _check_uniform_grid(grid, what):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise SpectralError(f"{what}: need a 1-d grid with at least 2 points")
    steps = np.diff(grid)
    if np.any(steps <= 0):
        raise SpectralError(f"{what}: grid must be strictly increasing")
    step = steps.mean()
    if np.max(np.abs(steps - step)) > 1e-9 * abs(step):
        raise SpectralError(f"{what}: grid step not uniform to 1e-9")
    return grid, step


@dataclass(frozen=True)
class Spectrum:
    """Tabulated relative power density on a uniform frequency grid (GHz)."""

    nu_grid: np.ndarray
    intensity: np.ndarray
    step: float = field(init=False)

    def __post_init__(self):
        grid, step = _check_uniform_grid(self.nu_grid, "Spectrum.nu_grid")
        inten = np.asarray(self.intensity, dtype=float)
        if inten.shape != grid.shape:
            raise SpectralError("Spectrum: intensity/grid length mismatch")
        if np.any(inten < 0):
            raise SpectralError("Spectrum: negative intensity")
        if not np.any(inten > 0):
            raise SpectralError("Spectrum: all-zero intensity")
        object.__setattr__(self, "nu_grid", grid)
        object.__setattr__(self, "intensity", inten)
        object.__setattr__(self, "step", step)


@dataclass(frozen=True)
class PhaseMatching:
    """sinc^2 spectral acceptance of the frequency converter."""

    center_offset_ghz: float = 0.0
    fwhm_ghz: float = 118.0

    def __post_init__(self):
        if self.fwhm_ghz <= 0:
            raise SpectralError("PhaseMatching: fwhm must be positive")


@dataclass(frozen=True)
class CoherenceEnvelope:
    """|g1(tau)| on a symmetric uniform delay grid (ps)."""

    tau_grid: np.ndarray
    magnitude: np.ndarray
    step: float = field(init=False)

    def __post_init__(self):
        grid, step = _check_uniform_grid(self.tau_grid, "CoherenceEnvelope.tau_grid")
        mag = np.asarray(self.magnitude, dtype=float)
        if mag.shape != grid.shape:
            raise SpectralError("CoherenceEnvelope: magnitude/grid length mismatch")
        if np.any(mag < 0) or np.any(mag > 1 + 1e-9):
            raise SpectralError("CoherenceEnvelope: magnitude outside [0, 1]")
        object.__setattr__(self, "tau_grid", grid)
        object.__setattr__(self, "magnitude", mag)
        object.__setattr__(self, "step", step)


def integral_bandwidth(s: Spectrum) -> float:
    """Bandwidth (GHz) as the integral of I(nu)/max(I), midpoint rule."""
    return float(s.intensity.sum() / s.intensity.max() * s.step)


def _chirp(half_theta: float, m: np.ndarray) -> np.ndarray:
    """exp(i half_theta m^2), with the phase split so its large part is exact.

    half_theta is cut into a 26-bit head and a tail; head * m^2 is exact while
    m^2 < 2^27, so the only rounding left is in the small tail product.
    """
    split = 134217729.0 * half_theta  # Veltkamp split, 2^27 + 1
    head = split - (split - half_theta)
    m2 = (m * m).astype(float)
    return np.exp(1j * (head * m2)) * np.exp(1j * ((half_theta - head) * m2))


def coherence_envelope(s: Spectrum, tau_max: float, n_points: int) -> CoherenceEnvelope:
    """|g1(tau)| from the power spectrum: chirp-z (Bluestein) on the uniform grids.

    The normalized Fourier sum over tau_j = j' dtau and nu_k = nu_K + k' dnu,
    with j', k' counted from the grid centres and c = GHZ_PS: the factor
    exp(-2 pi i c tau_j nu_K) depends on j alone and has unit modulus, which
    leaves |sum_k I_k exp(-i theta j' k')| with theta = 2 pi c dtau dnu, and
    j'k' = (j'^2 + k'^2 - (j' - k')^2) / 2 makes that one FFT convolution
    (Rabiner, Schafer & Rader, IEEE Trans. Audio Electroacoust. 17, 86
    (1969)).  The output chirp exp(-i theta j'^2 / 2) has unit modulus too
    and is not applied.

    n_points must be odd so tau = 0 lies on the grid.
    """
    if tau_max <= 0:
        raise SpectralError("tau_max must be positive")
    if n_points < 3 or n_points % 2 == 0:
        raise SpectralError("n_points must be odd and >= 3")
    tau = np.linspace(-tau_max, tau_max, n_points)
    n_nu = s.nu_grid.size
    half_theta = np.pi * GHZ_PS * (2.0 * tau_max / (n_points - 1)) * s.step
    j_mid, k_mid = (n_points - 1) // 2, (n_nu - 1) // 2
    x = s.intensity * np.conj(_chirp(half_theta, np.arange(n_nu) - k_mid))
    # lags j - k from -(n_nu - 1) to n_points - 1, negative ones wrapped to the end
    size = sp_fft.next_fast_len(n_nu + n_points - 1)
    lag = np.arange(size)
    lag = np.where(lag < n_points, lag, lag - size)
    h = _chirp(half_theta, lag - (j_mid - k_mid))
    conv = sp_fft.ifft(sp_fft.fft(x, size) * sp_fft.fft(h))[:n_points]
    mag = np.abs(conv) / s.intensity.sum()
    return CoherenceEnvelope(tau, np.minimum(mag, 1.0))


def coherence_time(e: CoherenceEnvelope) -> float:
    """Coherence time (ps) as the integral of |g1| over the grid."""
    if max(e.magnitude[0], e.magnitude[-1]) > 1e-3:
        warnings.warn(
            "envelope above 1e-3 at the grid edge; coherence time is truncated",
            EnvelopeTailWarning,
        )
    return float(e.magnitude.sum() * e.step)


def time_bandwidth_product(s: Spectrum, e: CoherenceEnvelope) -> float:
    """tau_c * delta_nu, dimensionless (GHz*ps carries 1e-3)."""
    return coherence_time(e) * integral_bandwidth(s) * GHZ_PS


def _sinc2(x):
    # np.sinc is sin(pi x)/(pi x)
    return np.sinc(x / np.pi) ** 2


def apply_phase_matching(s: Spectrum, pm: PhaseMatching) -> Spectrum:
    """Pointwise product of the spectrum with the sinc^2 acceptance curve."""
    k = 2.0 * SINC_HALF_X / pm.fwhm_ghz
    factor = _sinc2(k * (s.nu_grid - pm.center_offset_ghz))
    return Spectrum(s.nu_grid, s.intensity * factor)


def sinc2_spectrum(center: float, fwhm: float, grid) -> Spectrum:
    """Tabulate a unit-peak sinc^2 line on the given frequency grid."""
    if fwhm <= 0:
        raise SpectralError("sinc2_spectrum: fwhm must be positive")
    grid = np.asarray(grid, dtype=float)
    k = 2.0 * SINC_HALF_X / fwhm
    return Spectrum(grid, _sinc2(k * (grid - center)))


def gaussian_spectrum(fwhm: float, center: float = 0.0, grid=None,
                      span_sigmas: float = 8.0, n_points: int = 2049) -> Spectrum:
    """Gaussian line of the given FWHM (GHz); default grid spans +-8 sigma."""
    if fwhm <= 0:
        raise SpectralError("gaussian_spectrum: fwhm must be positive")
    sigma = fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    if grid is None:
        grid = np.linspace(center - span_sigmas * sigma,
                           center + span_sigmas * sigma, n_points)
    grid = np.asarray(grid, dtype=float)
    return Spectrum(grid, np.exp(-0.5 * ((grid - center) / sigma) ** 2))


def default_source_spectrum() -> Spectrum:
    """Synthetic stand-in for the measured source line: Gaussian, 173 GHz FWHM."""
    return gaussian_spectrum(173.0)


def _fringe_model(x, c, v, omega, phi):
    return c * (1.0 + v * np.sin(omega * x + phi))


def fringe_fit(samples, sigma=None):
    """Fit counts vs phase proxy with c*(1 + v sin(omega x + phi)).

    samples: sequence of (x, count) pairs, at least 8, spanning >= 1 period.
    sigma: optional per-point 1-sigma count errors (absolute).
    Returns (visibility, visibility_sigma) with visibility clamped to [0, 1].
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 8:
        raise SpectralError("fringe_fit: need at least 8 (x, count) samples")
    x, y = samples[:, 0], samples[:, 1]
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma <= 0):
            raise SpectralError("fringe_fit: sigmas must be positive")
    w = np.ones_like(y) if sigma is None else 1.0 / sigma**2

    # coarse frequency scan; the sine model is linear in (c, A, B) at fixed omega
    span = x.max() - x.min()
    if span <= 0:
        raise SpectralError("fringe_fit: degenerate x values")
    n = len(x)
    omegas = 2.0 * np.pi * np.linspace(0.5 / span, 0.6 * n / span, 512)
    best = None
    for om in omegas:
        design = np.column_stack([np.ones_like(x), np.sin(om * x), np.cos(om * x)])
        wd = design * w[:, None]
        try:
            coef = np.linalg.solve(design.T @ wd, design.T @ (w * y))
        except np.linalg.LinAlgError:
            continue
        ssr = float(w @ (y - design @ coef) ** 2)
        if best is None or ssr < best[0]:
            best = (ssr, om, coef)
    if best is None:
        raise FitError("fringe_fit: frequency scan failed")
    _, om0, (c0, a0, b0) = best

    amp = np.hypot(a0, b0)
    if c0 <= 0 or amp / max(abs(c0), 1e-300) < 1e-9:
        # no discernible modulation; report v = 0 with the linear-fit error scale
        resid = y - c0
        scale = np.sqrt(np.mean(w * resid**2) / max(np.mean(w), 1e-300))
        return 0.0, float(scale / max(abs(c0), 1e-300) / np.sqrt(n / 2.0))

    p0 = [c0, min(amp / c0, 1.0), om0, np.arctan2(b0, a0)]
    try:
        popt, pcov = curve_fit(
            _fringe_model, x, y, p0=p0, sigma=sigma,
            absolute_sigma=sigma is not None, maxfev=10000)
    except RuntimeError as exc:
        resid = y - _fringe_model(x, *p0)
        raise FitError(
            f"fringe_fit: no convergence ({exc}); rms residual at start "
            f"{np.sqrt(np.mean(resid**2)):.3g}") from exc
    v = abs(popt[1])
    v_sigma = float(np.sqrt(max(pcov[1, 1], 0.0)))
    return float(min(v, 1.0)), v_sigma
