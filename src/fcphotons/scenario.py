"""Scenario files: INI-style key-value configs with units in the key names."""

import configparser
import dataclasses
import math
import os
import typing
from dataclasses import dataclass

import numpy as np

from . import spectral
from .simkit import DetectorModel, SourceParams
from .spectral import PhaseMatching, Spectrum

BUNDLED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "scenarios")


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class FransonScanSettings:
    delay_ps: int = 1140
    delay_imbalance_ps: int = 0
    v_mi: float = 0.88
    v_mzi: float = 0.95
    phase_points: int = 12
    pairs_per_point: int = 5000


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str  # "g2_chain" or "franson"
    seed: int
    duration_ps: int
    source: SourceParams | None  # g2_chain only; franson reads no [source]
    detector_herald: DetectorModel
    detector_signal: DetectorModel
    qfc_efficiency: float | None
    qfc_background_per_s: float
    spectrum_fwhm_ghz: float
    spectrum_file: str | None
    phase_matching: PhaseMatching
    franson: FransonScanSettings
    gate_ps: int

    def source_spectrum(self) -> Spectrum:
        if self.spectrum_file is not None:
            from .io import load_spectrum
            return load_spectrum(self.spectrum_file)
        return spectral.gaussian_spectrum(self.spectrum_fwhm_ghz)


def _to_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


def _to_int(raw: str) -> int:
    return int(_to_float(raw))


# converter for each field type of the dataclasses read section by section
_CONVERTERS = {int: _to_int, float: _to_float}


def _resolve(path) -> str:
    """The path as given, or the bundled file for a bare name such as "franson"."""
    path = str(path)
    bundled = os.path.join(BUNDLED_DIR, f"{path}.ini")
    if not os.path.exists(path) and os.path.basename(path) == path and os.path.exists(bundled):
        return bundled
    return path


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; every number carries its unit in its key.

    path is a scenario file or the name of a bundled one ("g2_chain",
    "franson").  Sections [source] (g2_chain only), [detector_herald],
    [detector_signal], [phase_matching] and [franson] take the field names of
    SourceParams, DetectorModel, PhaseMatching and FransonScanSettings as
    keys, with the fields' defaults.  A key that nothing reads is an error.
    """
    path = _resolve(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not parser.read(path, encoding="utf-8"):
        raise ScenarioError(f"{path}: cannot read scenario file")
    read_keys = set()

    def get(section, key, conv, default=dataclasses.MISSING):
        if not parser.has_option(section, key):
            if default is dataclasses.MISSING:
                raise ScenarioError(f"{path}: missing key {section}.{key}")
            return default
        read_keys.add((section, key))
        raw = parser.get(section, key)
        try:
            return conv(raw)
        except ValueError as exc:
            raise ScenarioError(f"{path}: bad value for {section}.{key}: {raw!r}") from exc

    def build(cls, section):
        types = typing.get_type_hints(cls)
        values = {f.name: get(section, f.name, _CONVERTERS[types[f.name]], f.default)
                  for f in dataclasses.fields(cls)}
        try:
            return cls(**values)
        except ValueError as exc:
            raise ScenarioError(f"{path}: [{section}] {exc}") from exc

    kind = get("run", "kind", str)
    if kind not in ("g2_chain", "franson"):
        raise ScenarioError(f"{path}: unknown run.kind {kind!r}")
    duration_ps = get("run", "duration_ps", _to_int)
    if duration_ps < 0:
        raise ScenarioError(f"{path}: run.duration_ps must be nonnegative")

    qfc_eff = None
    if parser.has_section("qfc"):
        qfc_eff = get("qfc", "efficiency", _to_float)
        if not 0 <= qfc_eff <= 1:
            raise ScenarioError(f"{path}: qfc.efficiency outside [0, 1]")
    qfc_background = get("qfc", "background_rate_per_s", _to_float, 0.0)
    if qfc_background < 0:
        raise ScenarioError(f"{path}: qfc.background_rate_per_s must be nonnegative")

    gate_ps = get("analysis", "gate_ps", _to_int, 512)
    if gate_ps <= 0:
        raise ScenarioError(f"{path}: analysis.gate_ps must be positive")

    spectrum_file = get("spectrum", "file", str, "") or None
    if spectrum_file is not None:
        spectrum_file = os.path.join(os.path.dirname(os.path.abspath(path)), spectrum_file)
        if not os.path.exists(spectrum_file):
            raise ScenarioError(f"{path}: spectrum.file {spectrum_file!r} does not exist")

    scenario = Scenario(
        name=get("run", "name", str, os.path.basename(path)),
        kind=kind,
        seed=get("run", "seed", lambda v: int(v, 0), 0),
        duration_ps=duration_ps,
        source=build(SourceParams, "source") if kind == "g2_chain" else None,
        detector_herald=build(DetectorModel, "detector_herald"),
        detector_signal=build(DetectorModel, "detector_signal"),
        qfc_efficiency=qfc_eff,
        qfc_background_per_s=qfc_background,
        spectrum_fwhm_ghz=get("spectrum", "gaussian_fwhm_ghz", _to_float, 173.0),
        spectrum_file=spectrum_file,
        phase_matching=build(PhaseMatching, "phase_matching"),
        franson=build(FransonScanSettings, "franson"),
        gate_ps=gate_ps,
    )
    for section in parser.sections():
        for key in parser.options(section):
            if (section, key) not in read_keys:
                raise ScenarioError(f"{path}: unknown key {section}.{key}")
    return scenario


def franson_phases(n_points: int) -> np.ndarray:
    """Uniform phase scan over [0, 2*pi), endpoint excluded."""
    return np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
