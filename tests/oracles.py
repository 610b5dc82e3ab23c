"""Slow, obviously correct reference implementations the fast code is tested against."""

import numpy as np

from fcphotons.simkit import TagStream
from fcphotons.spectral import GHZ_PS, CoherenceEnvelope, SpectralError, Spectrum
from fcphotons.tagcorr import CorrelationHistogram


def cross_correlate_bruteforce(a: TagStream, b: TagStream, bin_width_ps: int,
                               delay_range_ps: int) -> CorrelationHistogram:
    """All-pairs reference correlator; O(n^2), for validation only."""
    n_half = int(delay_range_ps // bin_width_ps)
    nbins = 2 * n_half + 1
    bins = np.zeros(nbins, dtype=np.int64)
    for t in a.tags:
        d = b.tags.astype(float) - float(t)
        idx = np.floor(d / bin_width_ps + 0.5).astype(int) + n_half
        ok = (idx >= 0) & (idx < nbins)
        np.add.at(bins, idx[ok], 1)
    return CorrelationHistogram(bin_width_ps, bins)


def separation_histogram_loop(f1: np.ndarray, f2: np.ndarray, max_separation: int) -> np.ndarray:
    """Flagged (f1[i], f2[i + m]) herald pairs for each m in [-max, max], one mask AND per m."""
    n = f1.size
    m_values = np.arange(-max_separation, max_separation + 1)
    hist = np.empty(m_values.size, dtype=np.int64)
    for j, m in enumerate(m_values):
        if m >= 0:
            hist[j] = np.count_nonzero(f1[: n - m] & f2[m:])
        else:
            hist[j] = np.count_nonzero(f1[-m:] & f2[: n + m])
    return hist


def dead_time_loop(tags: np.ndarray, dead_time_ps: int) -> np.ndarray:
    """Keep a tag iff it comes at least the dead time after the last kept one, tag by tag."""
    keep = [0]
    last = tags[0]
    for i in range(1, tags.size):
        if tags[i] - last >= dead_time_ps:
            keep.append(i)
            last = tags[i]
    return tags[np.asarray(keep)]


def coherence_envelope_direct(s: Spectrum, tau_max: float, n_points: int) -> CoherenceEnvelope:
    """|g1(tau)| via direct Fourier sum of the power spectrum.

    n_points must be odd so tau = 0 lies on the grid.
    """
    if tau_max <= 0:
        raise SpectralError("tau_max must be positive")
    if n_points < 3 or n_points % 2 == 0:
        raise SpectralError("n_points must be odd and >= 3")
    tau = np.linspace(-tau_max, tau_max, n_points)
    phase = -2j * np.pi * GHZ_PS * np.outer(tau, s.nu_grid)
    mag = np.abs(np.exp(phase) @ s.intensity) / s.intensity.sum()
    return CoherenceEnvelope(tau, np.minimum(mag, 1.0))
