"""Slow, obviously correct reference implementations the fast code is tested against."""

import numpy as np

from fcphotons.simkit import SourceParams, TagStream, _poisson_times
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


def pair_tags_oneshot(p: SourceParams, start_ps: int, stop_ps: int, rng):
    """simkit._pair_tags with the eta2 marks drawn in one rng.random(n) call."""
    rate = p.pair_rate_per_s
    heralded = _poisson_times(rng, rate * p.eta1, start_ps, stop_ps)
    both = heralded[rng.random(heralded.size) < p.eta2]
    signal_only = _poisson_times(rng, rate * (1.0 - p.eta1) * p.eta2, start_ps, stop_ps)
    bg1 = _poisson_times(rng, p.q1 * rate * p.eta1, start_ps, stop_ps)
    bg2 = _poisson_times(rng, p.q2 * rate * p.eta2, start_ps, stop_ps)
    dark1 = _poisson_times(rng, p.dark1_per_s, start_ps, stop_ps)
    dark2 = _poisson_times(rng, p.dark2_per_s, start_ps, stop_ps)
    return (np.sort(np.concatenate([heralded, bg1, dark1])),
            np.sort(np.concatenate([both, signal_only, bg2, dark2])))


def hbt_split_oneshot(tags: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """hbt_split with the split marks drawn in one rng.random(n) call."""
    mask = rng.random(tags.size) < 0.5
    return tags[mask], tags[~mask]


def window_flags_mask(herald: np.ndarray, stream: TagStream, half_window: float) -> np.ndarray:
    """Per-herald flag: does this detector fire within +-window/2 of the herald?

    Each tag is attributed to its nearest herald only, an equidistant tag to
    the earlier one; the whole stream is handled at once.
    """
    flags = np.zeros(herald.size, dtype=bool)
    tags = stream.tags
    if tags.size == 0:
        return flags
    idx = np.searchsorted(herald, tags)
    left = np.clip(idx - 1, 0, herald.size - 1)
    right = np.clip(idx, 0, herald.size - 1)
    d_left = np.abs(tags - herald[left])
    d_right = np.abs(tags - herald[right])
    nearest = np.where(d_left <= d_right, left, right)
    dist = np.minimum(d_left, d_right)
    flags[nearest[dist <= half_window]] = True
    return flags


def separation_histogram_loop(f1: np.ndarray, f2: np.ndarray, max_separation: int) -> np.ndarray:
    """Flagged (f1[i], f2[i + m]) herald pairs for each m in [-max, max], one mask AND per m."""
    n = f1.size
    m_values = np.arange(-max_separation, max_separation + 1)
    hist = np.empty(m_values.size, dtype=np.int64)
    for j, m in enumerate(m_values):
        if abs(m) >= n:  # no herald pair that far apart
            hist[j] = 0
        elif m >= 0:
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
