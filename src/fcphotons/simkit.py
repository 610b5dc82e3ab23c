"""Monte Carlo time-tag generation for the pair source, converter and detectors.

All timestamps are integer picoseconds.  Every operation takes an explicit
seed (or numpy Generator) and is bit-for-bit reproducible.
"""

from dataclasses import dataclass, field

import numpy as np

from .twophoton import PairCoherence, coincidence_rate

MAX_EXPECTED_COUNTS = 2**31


class SimError(ValueError):
    pass


def _rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class SourceParams:
    """SPDC source plus per-mode loss, proportional background and dark counts."""

    pair_rate_per_s: float
    q1: float = 0.0
    q2: float = 0.0
    eta1: float = 1.0
    eta2: float = 1.0
    dark1_per_s: float = 0.0
    dark2_per_s: float = 0.0

    def __post_init__(self):
        if self.pair_rate_per_s < 0 or self.q1 < 0 or self.q2 < 0:
            raise SimError("SourceParams: rates must be nonnegative")
        if not (0 <= self.eta1 <= 1 and 0 <= self.eta2 <= 1):
            raise SimError("SourceParams: transmittances must lie in [0, 1]")
        if self.dark1_per_s < 0 or self.dark2_per_s < 0:
            raise SimError("SourceParams: dark rates must be nonnegative")


@dataclass(frozen=True)
class DetectorModel:
    jitter_sigma_ps: float = 0.0
    dead_time_ps: int = 0

    def __post_init__(self):
        if self.jitter_sigma_ps < 0 or self.dead_time_ps < 0:
            raise SimError("DetectorModel: negative jitter or dead time")


@dataclass(frozen=True)
class TagStream:
    """Sorted detection timestamps (integer ps) on one channel."""

    channel: int
    tags: np.ndarray
    duration_ps: int

    def __post_init__(self):
        tags = np.asarray(self.tags, dtype=np.int64)
        if self.duration_ps < 0:
            raise SimError("TagStream: negative duration")
        if tags.size:
            if np.any(tags[1:] < tags[:-1]):
                raise SimError("TagStream: tags not sorted")
            if tags[0] < 0 or tags[-1] > self.duration_ps:
                raise SimError("TagStream: tags outside [0, duration]")
        object.__setattr__(self, "tags", tags)

    @property
    def rate_per_s(self) -> float:
        if self.duration_ps == 0:
            return 0.0
        return self.tags.size / (self.duration_ps * 1e-12)


@dataclass(frozen=True)
class FransonMcConfig:
    """One Franson run: imbalance, interferometer delay, phase, pair coherence."""

    pc: PairCoherence
    delay_imbalance_ps: int = 0
    delay_ps: int = 1140
    phase_rad: float = 0.0
    v_app: float = 1.0  # apparatus visibility ceiling (v_mi * v_mzi)
    detector_a: DetectorModel = field(default_factory=DetectorModel)
    detector_b: DetectorModel = field(default_factory=DetectorModel)

    def __post_init__(self):
        if self.delay_ps <= 0:
            raise SimError("FransonMcConfig: delay must be positive")
        if not 0 <= self.v_app <= 1:
            raise SimError("FransonMcConfig: v_app outside [0, 1]")

    @property
    def visibility(self) -> float:
        """Fringe visibility V = v_app * F(delay imbalance)."""
        return self.v_app * self.pc.at(float(self.delay_imbalance_ps))


def _poisson_times(rng, rate_per_s, duration_ps):
    """Homogeneous Poisson arrivals as sorted integer-ps timestamps."""
    mean = rate_per_s * duration_ps * 1e-12
    if mean > MAX_EXPECTED_COUNTS:
        raise SimError(f"expected count {mean:.3g} exceeds 2^31; shorten the run")
    n = rng.poisson(mean)
    if n == 0 or duration_ps == 0:
        return np.empty(0, dtype=np.int64)
    t = rng.integers(0, duration_ps, size=n, dtype=np.int64)
    t.sort()
    return t


def _merge(*arrays):
    """One sorted array from already sorted parts."""
    parts = [a for a in arrays if a.size]
    if len(parts) <= 1:
        return parts[0] if parts else np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(parts), kind="stable")  # timsort merges the sorted runs


def generate_pair_streams(p: SourceParams, duration_ps: int, seed) -> tuple[TagStream, TagStream]:
    """Herald and signal tag streams for the pair source model.

    Pairs are a Poisson process at the pair rate; each pair survives to a
    herald tag with probability eta1 and to a signal tag with probability
    eta2, independently.  Only surviving tags are drawn (colouring theorem):
    heralded pairs at P*eta1, each also a signal tag with probability eta2,
    and signal-only pairs at P*(1 - eta1)*eta2.  Background is injected after
    transmittance at rates q*P*eta so the analytic singles formulas hold
    exactly; dark counts come at the detector rates.  A converter in the
    signal arm is a factor on eta2 plus a background on dark2_per_s.
    """
    if duration_ps < 0:
        raise SimError("duration must be nonnegative")
    rng = _rng(seed)
    rate = p.pair_rate_per_s
    heralded = _poisson_times(rng, rate * p.eta1, duration_ps)
    both = heralded[rng.random(heralded.size) < p.eta2]
    signal_only = _poisson_times(rng, rate * (1.0 - p.eta1) * p.eta2, duration_ps)
    bg1 = _poisson_times(rng, p.q1 * rate * p.eta1, duration_ps)
    bg2 = _poisson_times(rng, p.q2 * rate * p.eta2, duration_ps)
    dark1 = _poisson_times(rng, p.dark1_per_s, duration_ps)
    dark2 = _poisson_times(rng, p.dark2_per_s, duration_ps)
    herald = TagStream(0, _merge(heralded, bg1, dark1), duration_ps)
    signal = TagStream(1, _merge(both, signal_only, bg2, dark2), duration_ps)
    return herald, signal


def apply_detector(s: TagStream, d: DetectorModel, seed) -> TagStream:
    """Gaussian timing jitter (rounded to integer ps) plus dead-time removal."""
    tags = s.tags
    if d.jitter_sigma_ps > 0 and tags.size:
        rng = _rng(seed)
        shift = np.rint(rng.normal(0.0, d.jitter_sigma_ps, tags.size)).astype(np.int64)
        tags = np.clip(tags + shift, 0, s.duration_ps)
        tags.sort()
    if d.dead_time_ps > 0 and tags.size:
        tags = tags[_dead_time_keep(tags, d.dead_time_ps)]
    return TagStream(s.channel, tags, s.duration_ps)


def _dead_time_keep(tags: np.ndarray, dead_time_ps: int) -> np.ndarray:
    """Mask of the sorted tags that come at least the dead time after the last kept one.

    A tag at least the dead time after its predecessor is kept whatever came
    before, so the sequential rule only runs inside clusters of closer tags,
    each starting from its kept first tag.
    """
    keep = np.ones(tags.size, dtype=bool)
    close = np.flatnonzero(np.diff(tags) < dead_time_ps) + 1
    last = prev = -1
    for i, t, t_before in zip(close.tolist(), tags[close].tolist(),
                              tags[close - 1].tolist()):
        if i != prev + 1:  # tag i - 1 opens a cluster
            last = t_before
        if t - last >= dead_time_ps:
            last = t
        else:
            keep[i] = False
        prev = i
    return keep


def hbt_split(s: TagStream, seed, channels=None) -> tuple[TagStream, TagStream]:
    """Route each tag to one of two outputs with probability 1/2."""
    rng = _rng(seed)
    ch1, ch2 = channels if channels is not None else (s.channel, s.channel)
    mask = rng.random(s.tags.size) < 0.5
    return (TagStream(ch1, s.tags[mask], s.duration_ps),
            TagStream(ch2, s.tags[~mask], s.duration_ps))


def franson_sample(pair_times, cfg: FransonMcConfig, seed) -> tuple[TagStream, TagStream]:
    """Sample interferometer paths for each pair and emit both output streams.

    Photon A is delayed by 0 or D, photon B by 0 or D + delay_imbalance.  The
    indistinguishable short-short / long-long combinations share probability
    0.5 * coincidence_rate(v_app * F(dtau), phase); the distinguishable combinations
    absorb the complement so the per-pair total is exactly 1 and the overall
    flux is phase independent.
    """
    rng = _rng(seed)
    pair_times = np.asarray(pair_times, dtype=np.int64)
    d_a = cfg.delay_ps
    d_b = cfg.delay_ps + cfg.delay_imbalance_ps
    if d_b <= 0:
        raise SimError("franson_sample: B-arm long path is nonpositive")
    p_central = 0.5 * coincidence_rate(cfg.visibility, cfg.phase_rad)

    # u in [0, 1) falls in short-short, long-long, short-long, long-short in turn
    u = rng.random(pair_times.size)
    long_b = (u >= p_central / 2.0) & (u < p_central + (1.0 - p_central) / 2.0)
    long_a = long_b ^ (u >= p_central)

    margin = int(6 * max(cfg.detector_a.jitter_sigma_ps, cfg.detector_b.jitter_sigma_ps))
    duration = int(pair_times.max() if pair_times.size else 0) + d_a + d_b + margin + 1
    t_a = pair_times + np.where(long_a, d_a, 0)
    t_b = pair_times + np.where(long_b, d_b, 0)
    t_a.sort()
    t_b.sort()
    return (apply_detector(TagStream(0, t_a, duration), cfg.detector_a, rng),
            apply_detector(TagStream(1, t_b, duration), cfg.detector_b, rng))
