"""Time-tag analysis: coincidence histograms, SBR extraction, heralded g2(0)."""

import math
from dataclasses import dataclass

import numpy as np

from .models import poisson_interval
from .simkit import TagStream
from .spectral import fringe_fit


# heralded_g2's herald-separation range and the |m| where its plateau starts
G2_MAX_SEPARATION = 50
G2_PLATEAU_FROM = 10

# tags of the walked stream per block in _delay_histogram and _window_flags; bounds
# their scratch arrays (the expanded pairs near 1 MB on the bundled g2_chain)
_CHUNK = 1 << 14


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class CorrelationHistogram:
    """Counts of tag-pair delays (t_b - t_a), odd bin count, center bin at 0."""

    bin_width_ps: int
    bins: np.ndarray

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.int64)
        if bins.size % 2 == 0:
            raise AnalysisError("CorrelationHistogram: bin count must be odd")
        if np.any(bins < 0):
            raise AnalysisError("CorrelationHistogram: negative counts")
        object.__setattr__(self, "bins", bins)

    @property
    def delays_ps(self) -> np.ndarray:
        half = self.bins.size // 2
        return (np.arange(self.bins.size) - half) * self.bin_width_ps


@dataclass(frozen=True)
class HeraldedG2Result:
    m_values: np.ndarray
    histogram: np.ndarray
    g2_zero: float
    sigma: float  # large-count approximation; see heralded_g2
    plateau: float
    g2_zero_interval: tuple[float, float]  # central 68.27 % exact Poisson interval


@dataclass(frozen=True)
class SbrResult:
    signal: float
    background_per_bin: float
    sbr: float
    sigma: float


def _window(a: np.ndarray, b: np.ndarray, low: int, high: int):
    """Per tag of a, the index range [lo, hi) of b with low <= b - a <= high."""
    return (np.searchsorted(b, a + low, side="left"),
            np.searchsorted(b, a + high, side="right"))


def _delay_histogram(a: np.ndarray, b: np.ndarray, bin_width: int,
                     n_half: int) -> np.ndarray:
    """Counts of the delays d = b[j] - a[i] in bins k = (2d + w) // (2w), |k| <= n_half.

    Single pass over sorted int64 tags: the window of each tag of the shorter
    stream holds every tag of the other within reach of the outermost bins,
    the pairs in it are expanded into their delays and binned with bincount.
    The shorter stream is taken in blocks of _CHUNK tags so the expanded pair
    arrays stay small.
    """
    w = int(bin_width)
    reach = n_half * w + w // 2  # d = reach lands in bin n_half + 1 when w is even
    nbins = 2 * n_half + 1
    sign = 1
    if b.size < a.size:  # walk the shorter stream: the same pairs from fewer windows
        a, b, sign = b, a, -1
    counts = np.zeros(nbins + 1, dtype=np.int64)
    for start in range(0, a.size, _CHUNK):
        block = a[start:start + _CHUNK]
        lo, hi = _window(block, b, -reach, reach)
        n = hi - lo
        # the p-th pair of tag i sits at b[lo[i] + p]
        first = np.cumsum(n) - n
        j = np.arange(n.sum()) + np.repeat(lo - first, n)
        d = sign * (b[j] - np.repeat(block, n))
        counts += np.bincount((2 * d + w) // (2 * w) + n_half, minlength=nbins + 1)
    return counts[:nbins]


def cross_correlate(a: TagStream, b: TagStream, bin_width_ps: int,
                    delay_range_ps: int) -> CorrelationHistogram:
    """Histogram of (t_b - t_a) for all pairs within +-delay_range.

    Bin k holds the integer delays d with (k - 1/2) w <= d < (k + 1/2) w, found
    in one pass over the tags with int64 arithmetic (see _delay_histogram), so
    it stays exact however late the tags are.
    """
    if bin_width_ps <= 0:
        raise AnalysisError("cross_correlate: bin width must be positive")
    n_half = int(delay_range_ps // bin_width_ps)
    bins = _delay_histogram(a.tags, b.tags, bin_width_ps, n_half)
    return CorrelationHistogram(bin_width_ps, bins)


def extract_sbr(h: CorrelationHistogram, signal_window_ps: int,
                background_exclusion_ps: int) -> SbrResult:
    """Signal-to-background ratio of a coincidence histogram.

    Background is the mean of bins beyond the exclusion delay; signal is the
    background-subtracted sum of the central bins inside the window.  With
    signal_window equal to the bin width this is the per-bin convention
    signal / background.
    """
    delays = h.delays_ps
    if not (delays[-1] > background_exclusion_ps > signal_window_ps / 2):
        raise AnalysisError("extract_sbr: need delay_range > exclusion > window/2")
    bg_mask = np.abs(delays) > background_exclusion_ps
    sig_mask = np.abs(delays) <= signal_window_ps / 2
    bg_counts = h.bins[bg_mask]
    background = bg_counts.mean()
    if background <= 0:
        raise AnalysisError("extract_sbr: zero background, ratio undefined")
    n_sig = int(sig_mask.sum())
    central = float(h.bins[sig_mask].sum())
    signal = central - background * n_sig
    sbr = signal / background
    # Poisson errors: central counts, plus the background-mean uncertainty
    var_bg = background / bg_counts.size
    var_signal = central + n_sig**2 * var_bg
    sigma = abs(sbr) * np.sqrt(
        var_signal / signal**2 + var_bg / background**2) if signal != 0 else np.sqrt(
        var_signal) / background
    return SbrResult(signal, float(background), float(sbr), float(sigma))


def _window_flags(herald: np.ndarray, stream: TagStream, half_window: float) -> np.ndarray:
    """Sorted indices of the heralds this detector fires within +-window/2 of.

    Each tag is attributed to its nearest herald only, so one tag can never
    satisfy two heralds at once.  The tags are walked in blocks of _CHUNK.
    """
    tags = stream.tags
    last = herald.size - 1
    parts = [np.empty(0, dtype=np.int64)]
    for start in range(0, tags.size, _CHUNK):
        block = tags[start:start + _CHUNK]
        idx = np.searchsorted(herald, block)
        left = np.maximum(idx - 1, 0)
        right = np.minimum(idx, last)
        d_left = np.abs(block - herald[left])
        d_right = np.abs(block - herald[right])
        nearest = np.where(d_left <= d_right, left, right)
        parts.append(nearest[np.minimum(d_left, d_right) <= half_window])
    flagged = np.concatenate(parts)
    # the nearest herald never decreases along the sorted tags: drop adjacent repeats
    keep = np.ones(flagged.size, dtype=bool)
    np.not_equal(flagged[1:], flagged[:-1], out=keep[1:])
    return flagged[keep]


def heralded_g2(herald: TagStream, hbt1: TagStream, hbt2: TagStream,
                window_ps: float) -> HeraldedG2Result:
    """Heralded g2(0) from herald-referenced binary detection lists.

    Per herald, each HBT detector contributes a binary flag for an event
    within +-window/2 of the herald.  Every flagged pair (one event on each
    detector) is recorded by the signed number of heralds separating them,
    negative when the second detector fired before the first.  The histogram
    over that separation index, |m| <= G2_MAX_SEPARATION, is normalized by its
    plateau at |m| >= G2_PLATEAU_FROM and g2(0) is the normalized value at m = 0.

    sigma, sqrt(max(h0, 1))/plateau with the plateau's error folded in, is the
    large-count approximation; it collapses when the m = 0 count h0 is 0 or 1.
    g2_zero_interval is the central 68.27 % exact (Garwood) Poisson interval
    on h0 divided by the plateau.  It neglects the plateau's own error, which
    is small beside h0's because the plateau averages 82 bins.
    """
    if window_ps <= 0:
        raise AnalysisError("heralded_g2: window must be positive")
    h = herald.tags
    if h.size == 0:
        raise AnalysisError("heralded_g2: empty herald stream")
    f1 = _window_flags(h, hbt1, window_ps / 2.0)
    f2 = _window_flags(h, hbt2, window_ps / 2.0)

    m_values = np.arange(-G2_MAX_SEPARATION, G2_MAX_SEPARATION + 1)
    # pairs of flagged heralds (i1 on hbt1, i2 on hbt2) by separation m = i2 - i1
    hist = _delay_histogram(f1, f2, 1, G2_MAX_SEPARATION)

    plat_mask = np.abs(m_values) >= G2_PLATEAU_FROM
    plat_counts = hist[plat_mask]
    plateau = plat_counts.mean()
    if plateau <= 0:
        raise AnalysisError("heralded_g2: empty normalization plateau")
    h0 = float(hist[m_values == 0][0])
    g2 = h0 / plateau
    sigma = np.sqrt(max(h0, 1.0)) / plateau * np.sqrt(1.0 + h0 / plat_counts.sum())
    lo, hi = poisson_interval(int(h0))
    return HeraldedG2Result(m_values, hist, float(g2), float(sigma), float(plateau),
                            (lo / plateau, hi / plateau))


def gated_coincidences(a: TagStream, b: TagStream, gate_ps: float,
                       center_ps: float = 0.0) -> int:
    """Count pairs with t_b - t_a within +-gate/2 of the given center."""
    if b.tags.size == 0 or a.tags.size == 0 or gate_ps <= 0:
        return 0
    # integer delays in the closed gate; for integer ps, center -+ gate // 2
    lo, hi = _window(a.tags, b.tags, math.ceil(center_ps - gate_ps / 2),
                     math.floor(center_ps + gate_ps / 2))
    return int((hi - lo).sum())


def franson_visibility_scan(scans) -> tuple[float, float]:
    """Fringe visibility from (phase, gated count) points; counts get Poisson sigmas."""
    scans = np.asarray(scans, dtype=float)
    if scans.ndim != 2 or scans.shape[0] < 8:
        raise AnalysisError("franson_visibility_scan: need >= 8 phase points")
    if not scans[:, 1].sum() > 0:
        raise AnalysisError("franson_visibility_scan: no counts")
    return fringe_fit(scans, sigma=np.sqrt(np.maximum(scans[:, 1], 1.0)))
