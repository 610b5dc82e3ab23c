"""Monte Carlo time-tag generation for the pair source, converter and detectors.

All timestamps are integer picoseconds.  Every operation takes an explicit
seed (or numpy Generator) and is bit-for-bit reproducible.
"""

from dataclasses import dataclass, field

import numpy as np

from .models import singles_rate
from .twophoton import PairCoherence, coincidence_rate

MAX_EXPECTED_COUNTS = 2**31

# tags per block of every streamed stage; bounds their scratch arrays.  _blocks
# cuts the mark and jitter draws, the dead time, PTAG writes (io) and the herald
# blocks of the correlators (tagcorr); PTAG reads (io), the source's time blocks
# and _unsorted count their own blocks of the same size
_BLOCK = 1 << 16


def _blocks(a: np.ndarray):
    """Consecutive slices of _BLOCK elements of a."""
    return (a[start:start + _BLOCK] for start in range(0, a.size, _BLOCK))


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
            if _unsorted(tags):
                raise SimError("TagStream: tags not sorted")
            if tags[0] < 0 or tags[-1] > self.duration_ps:
                raise SimError("TagStream: tags outside [0, duration]")
        object.__setattr__(self, "tags", tags)

    @property
    def rate_per_s(self) -> float:
        if self.duration_ps == 0:
            return 0.0
        return self.tags.size / (self.duration_ps * 1e-12)


def _unsorted(tags: np.ndarray) -> bool:
    """Does some tag come before its predecessor?  Compared in blocks of _BLOCK."""
    for start in range(1, tags.size, _BLOCK):
        stop = min(start + _BLOCK, tags.size)
        if np.any(tags[start:stop] < tags[start - 1:stop - 1]):
            return True
    return False


@dataclass(frozen=True)
class FransonMcConfig:
    """One Franson run: imbalance, interferometer delay, phase, pair coherence."""

    pc: PairCoherence
    delay_ps: int
    delay_imbalance_ps: int = 0
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


def _poisson_times(rng, rate_per_s, start_ps, stop_ps):
    """Homogeneous Poisson arrivals in [start, stop) as sorted integer-ps timestamps."""
    mean = rate_per_s * (stop_ps - start_ps) * 1e-12
    if mean > MAX_EXPECTED_COUNTS:
        raise SimError(f"expected count {mean:.3g} exceeds 2^31; shorten the run")
    n = rng.poisson(mean)
    if n == 0 or stop_ps <= start_ps:
        return np.empty(0, dtype=np.int64)
    t = rng.integers(start_ps, stop_ps, size=n, dtype=np.int64)
    t.sort()
    return t


def _merge(*arrays):
    """One sorted array from already sorted parts."""
    parts = [a for a in arrays if a.size]
    if len(parts) <= 1:
        return parts[0] if parts else np.empty(0, dtype=np.int64)
    merged = np.concatenate(parts)
    merged.sort(kind="stable")  # timsort merges the sorted runs
    return merged


def _marks(rng, p, n):
    """rng.random(n) < p, the same draws as one call, made in blocks of _BLOCK."""
    mask = np.empty(n, dtype=bool)
    for part in _blocks(mask):
        np.less(rng.random(part.size), p, out=part)
    return mask


def _pair_tags(rng, p: SourceParams, start_ps: int, stop_ps: int):
    """Herald and signal tags of the pair source in [start, stop); see pair_blocks."""
    rate = p.pair_rate_per_s
    heralded = _poisson_times(rng, rate * p.eta1, start_ps, stop_ps)
    both = heralded[_marks(rng, p.eta2, heralded.size)]
    signal_only = _poisson_times(rng, rate * (1.0 - p.eta1) * p.eta2, start_ps, stop_ps)
    bg1 = _poisson_times(rng, p.q1 * rate * p.eta1, start_ps, stop_ps)
    bg2 = _poisson_times(rng, p.q2 * rate * p.eta2, start_ps, stop_ps)
    dark1 = _poisson_times(rng, p.dark1_per_s, start_ps, stop_ps)
    dark2 = _poisson_times(rng, p.dark2_per_s, start_ps, stop_ps)
    return _merge(heralded, bg1, dark1), _merge(both, signal_only, bg2, dark2)


def pair_blocks(p: SourceParams, duration_ps: int, seed):
    """Herald and signal tags of the pair source model, in time blocks.

    Yields the herald and signal tags of each block in turn; a block spans
    about _BLOCK tags of the busier stream.  Poisson processes on disjoint
    intervals are independent, so each block is drawn on its own.

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
    busiest = max(singles_rate(p.pair_rate_per_s, p.eta1, p.q1, p.dark1_per_s),
                  singles_rate(p.pair_rate_per_s, p.eta2, p.q2, p.dark2_per_s))
    span = max(int(_BLOCK / busiest * 1e12), 1) if busiest > 0 else max(duration_ps, 1)
    rng = _rng(seed)
    for start in range(0, duration_ps, span):
        yield _pair_tags(rng, p, start, min(start + span, duration_ps))


class Detector:
    """A detector model run over one stream that comes in sorted blocks.

    feed takes the next block and returns the tags that are final, sorted;
    close returns the rest.  Jitter draws one Gaussian per tag in stream
    order, so the draws do not depend on where the blocks end.  The jittered
    tags are held back until the next block's smallest jittered tag is known,
    and only those below it go out, as a slice of the held block: no tags
    given out share a buffer with the tags still held.  Dead time carries the
    last kept tag across the seams.
    """

    def __init__(self, model: DetectorModel, duration_ps: int, seed):
        self.model = model
        self.duration_ps = duration_ps
        self._rng = _rng(seed)
        self._held = np.empty(0, dtype=np.int64)  # jittered tags not yet final
        self._floor = None  # the largest jittered tag already given out
        self._last = None  # the last tag kept by the dead time

    def feed(self, tags: np.ndarray) -> np.ndarray:
        if self.model.jitter_sigma_ps <= 0:
            return self._dead_time(tags, owned=False)
        if not tags.size:
            return tags
        jittered = self._jitter(tags)
        if self._floor is not None and jittered[0] < self._floor:
            raise SimError("Detector: a jittered tag lands before one already given out; "
                           "the jitter exceeds a whole block")
        held = self._held  # only the tags from cut on can be overtaken by the new block
        cut = int(np.searchsorted(held, jittered[0]))
        self._held = _merge(held[cut:], jittered)
        if cut:
            self._floor = held[cut - 1]
        return self._dead_time(held[:cut], owned=True)

    def close(self) -> np.ndarray:
        held, self._held = self._held, self._held[:0]
        return self._dead_time(held, owned=True)

    def _jitter(self, tags):
        """Sorted tags + rint(N(0, sigma)), clipped to [0, duration], built block by block."""
        out = np.empty(tags.size, dtype=np.int64)
        for part, block in zip(_blocks(out), _blocks(tags)):
            shift = self._rng.standard_normal(part.size)
            shift *= self.model.jitter_sigma_ps
            part[...] = np.rint(shift, out=shift)
            part += block
            np.clip(part, 0, self.duration_ps, out=part)
        out.sort(kind="stable")  # timsort: the tags were sorted before the shifts
        return out

    def _dead_time(self, tags, owned):
        """The sorted tags at least the dead time after the last kept one.

        A tag at least the dead time after its predecessor is kept whatever
        came before, so the sequential rule only runs on the closer tags.
        Each block of _BLOCK tags runs against the last tag kept so far; kept
        tags are packed at the front of tags itself when the detector owns
        it, else of a new array.
        """
        dead = self.model.dead_time_ps
        if dead <= 0 or not tags.size:
            return tags
        out = tags if owned else np.empty_like(tags)
        n = 0
        for part in _blocks(tags):
            last, prev = self._last, -1  # prev: the last close tag's index
            close = np.flatnonzero(part[1:] - part[:-1] < dead) + 1
            if last is not None and part[0] - last < dead:
                close = np.concatenate(([0], close))  # tag 0 joins the last kept tag's cluster
            keep = np.ones(part.size, dtype=bool)
            # part[close - 1] reads part[-1] for i = 0, which the last kept tag replaces
            for i, t, t_before in zip(close.tolist(), part[close].tolist(),
                                      part[close - 1].tolist()):
                if i != prev + 1:  # tag i - 1 opens a cluster
                    last = t_before
                if t - last >= dead:
                    last = t
                else:
                    keep[i] = False
                prev = i
            kept = part[keep]
            out[n:n + kept.size] = kept
            n += kept.size
            if kept.size:
                self._last = int(kept[-1])
        return out[:n]


def apply_detector(s: TagStream, d: DetectorModel, seed) -> TagStream:
    """Gaussian timing jitter (rounded to integer ps) plus dead-time removal.

    The Detector fed the whole stream at once.
    """
    det = Detector(d, s.duration_ps, seed)
    return TagStream(s.channel, _merge(det.feed(s.tags), det.close()), s.duration_ps)


def hbt_split(tags: np.ndarray, seed) -> tuple[np.ndarray, np.ndarray]:
    """Route each tag to the first or the second output with probability 1/2."""
    mask = _marks(_rng(seed), 0.5, tags.size)
    return tags[mask], tags[~mask]


def g2_chain_blocks(source: SourceParams, herald_model: DetectorModel,
                    signal_model: DetectorModel, duration_ps: int, seed):
    """The heralded-g2 chain: pair_blocks, hbt_split of the signal and three Detectors.

    Yields the final (herald, hbt1, hbt2) tags of each time block, then the
    tags the detectors still held.  Each stage draws from its own generator
    spawned from the seed, so a detector fed block by block draws what
    apply_detector draws on the whole stream.
    """
    source_rng, split_rng, *detector_rngs = np.random.default_rng(seed).spawn(5)
    detectors = [Detector(model, duration_ps, rng) for model, rng in zip(
        (herald_model, signal_model, signal_model), detector_rngs)]
    for herald, signal in pair_blocks(source, duration_ps, source_rng):
        streams = (herald, *hbt_split(signal, split_rng))
        yield tuple(det.feed(tags) for det, tags in zip(detectors, streams))
    yield tuple(det.close() for det in detectors)


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
