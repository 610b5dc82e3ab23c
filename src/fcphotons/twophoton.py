"""Two-photon (Franson) coherence: F(dtau), the fringe model 1 + V cos(phase), Bell bounds."""

from dataclasses import dataclass, field

import numpy as np

from .spectral import (CoherenceEnvelope, PhaseMatching, SpectralError, Spectrum,
                       _check_uniform_grid, apply_phase_matching, coherence_envelope)

BELL_BOUND = 1.0 / np.sqrt(2.0)
CLASSICAL_BOUND = 0.5


@dataclass(frozen=True)
class PairCoherence:
    """F(dtau): pair coherence vs interferometer delay imbalance (ps)."""

    dtau_grid: np.ndarray
    f_value: np.ndarray
    step: float = field(init=False)

    def __post_init__(self):
        grid, step = _check_uniform_grid(self.dtau_grid, "PairCoherence.dtau_grid")
        f = np.asarray(self.f_value, dtype=float)
        if f.shape != grid.shape:
            raise SpectralError("PairCoherence: value/grid length mismatch")
        if np.any(f < 0) or np.any(f > 1 + 1e-9):
            raise SpectralError("PairCoherence: F outside [0, 1]")
        object.__setattr__(self, "dtau_grid", grid)
        object.__setattr__(self, "f_value", f)
        object.__setattr__(self, "step", step)

    def at(self, dtau: float) -> float:
        """F at an arbitrary imbalance, by linear interpolation."""
        if dtau < self.dtau_grid[0] or dtau > self.dtau_grid[-1]:
            raise SpectralError("PairCoherence: dtau outside tabulated grid")
        return float(np.interp(dtau, self.dtau_grid, self.f_value))


@dataclass(frozen=True)
class VisibilityCurve:
    """Expected fringe visibility vs delay imbalance (ps)."""

    tau: np.ndarray
    visibility: np.ndarray


@dataclass(frozen=True)
class BellResult:
    visibility: float
    sigma: float
    violation_sigmas: float
    classical_sigmas: float
    bound: float = BELL_BOUND

    @property
    def violates_bell(self) -> bool:
        return self.violation_sigmas > 0


def pair_coherence(a: CoherenceEnvelope, b: CoherenceEnvelope) -> PairCoherence:
    """Normalized overlap of two coherence envelopes vs relative shift.

    F(dtau) = sum_t gA(t) gB(t + dtau), normalized so F(0) = 1.  Mismatched
    grids are resampled onto a common grid at the finer of the two steps.
    """
    h = min(a.step, b.step)
    half = max(abs(a.tau_grid[-1]), abs(b.tau_grid[-1]))
    m = int(round(half / h))
    t = (np.arange(2 * m + 1) - m) * h
    ga = np.interp(t, a.tau_grid, a.magnitude, left=0.0, right=0.0)
    gb = np.interp(t, b.tau_grid, b.magnitude, left=0.0, right=0.0)

    # cross-correlation: conv(reverse(ga), gb)[m'] has lag m' - (n - 1)
    overlap = np.convolve(ga[::-1], gb)
    n = t.size
    center = n - 1
    norm = overlap[center]
    if norm <= 0:
        raise SpectralError("pair_coherence: zero envelope overlap")
    dtau = (np.arange(overlap.size) - center) * h
    return PairCoherence(dtau, np.minimum(overlap / norm, 1.0))


def converted_pair_coherence(s: Spectrum, pm: PhaseMatching) -> PairCoherence:
    """F(dtau) of the envelopes of a line and of that line after the converter, +-40 ps."""
    env_a = coherence_envelope(s, tau_max=40.0, n_points=2001)
    env_b = coherence_envelope(apply_phase_matching(s, pm), tau_max=40.0, n_points=2001)
    return pair_coherence(env_a, env_b)


def coincidence_rate(visibility, phase):
    """Relative Franson coincidence rate 1 + V cos(phase), V = v_mi * v_mzi * F(dtau).

    Franson, Phys. Rev. Lett. 62, 2205 (1989); phase may be an array.
    """
    return 1.0 + visibility * np.cos(phase)


def expected_visibility_curve(pc: PairCoherence, v_mi: float, v_mzi: float) -> VisibilityCurve:
    """Expected fringe visibility vs imbalance, V(dtau) = v_mi * v_mzi * F(dtau)."""
    if not (0.0 <= v_mi <= 1.0 and 0.0 <= v_mzi <= 1.0):
        raise SpectralError("expected_visibility_curve: v_mi and v_mzi must lie in [0, 1]")
    return VisibilityCurve(pc.dtau_grid, v_mi * v_mzi * pc.f_value)


def entanglement_fidelity(v_max: float, sigma: float = 0.0) -> tuple[float, float]:
    """Entanglement transfer fidelity (1 + v)/2 with propagated error."""
    if not 0.0 <= v_max <= 1.0:
        raise SpectralError("entanglement_fidelity: v_max outside [0, 1]")
    return (1.0 + v_max) / 2.0, sigma / 2.0


def bell_check(visibility: float, sigma: float) -> BellResult:
    """Compare a measured visibility against the Bell and classical bounds."""
    if sigma <= 0:
        raise SpectralError("bell_check: sigma must be positive")
    return BellResult(
        visibility=visibility,
        sigma=sigma,
        violation_sigmas=(visibility - BELL_BOUND) / sigma,
        classical_sigmas=(visibility - CLASSICAL_BOUND) / sigma,
    )
