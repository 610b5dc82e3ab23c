"""Scenario files: INI-style key-value configs with units in the key names."""

import configparser
import dataclasses
import math
import os
import typing
from dataclasses import dataclass

from . import spectral
from .simkit import DetectorModel, SourceParams
from .spectral import PhaseMatching, Spectrum

BUNDLED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "scenarios")


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class FransonScanSettings:
    delay_ps: int
    delay_imbalance_ps: int
    v_mi: float
    v_mzi: float
    phase_points: int
    pairs_per_point: int

    def __post_init__(self):
        if self.delay_ps <= 0:
            raise ValueError("delay_ps must be positive")
        if not (0 <= self.v_mi <= 1 and 0 <= self.v_mzi <= 1):
            raise ValueError("v_mi and v_mzi must lie in [0, 1]")
        if self.phase_points < 0 or self.pairs_per_point < 0:
            raise ValueError("phase_points and pairs_per_point must be nonnegative")


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario; the fields of the sections its kind does not read are None."""

    name: str
    kind: str  # "g2_chain" or "franson"
    seed: int
    duration_ps: int
    detector_herald: DetectorModel
    detector_signal: DetectorModel
    # g2_chain only; qfc_efficiency is None too when there is no [qfc]
    source: SourceParams | None = None
    qfc_efficiency: float | None = None
    qfc_background_per_s: float | None = None
    # franson only; exactly one of the two spectrum fields is set
    spectrum_fwhm_ghz: float | None = None
    spectrum_file: str | None = None
    phase_matching: PhaseMatching | None = None
    franson: FransonScanSettings | None = None

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
    try:
        return int(raw)  # exact beyond 2^53, where the float path rounds
    except ValueError:
        value = _to_float(raw)  # "1e6", "16.0"
    if not value.is_integer():
        raise ValueError(f"{raw!r} is not an integer")
    return int(value)


# converter for each field type of the dataclasses read section by section
_CONVERTERS = {int: _to_int, float: _to_float}


def _resolve(path) -> str:
    """The path as given, or the bundled file for a bare name such as "franson"."""
    path = str(path)
    bundled = os.path.join(BUNDLED_DIR, f"{path}.ini")
    if not os.path.isfile(path) and os.path.basename(path) == path and os.path.isfile(bundled):
        return bundled
    return path


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; every number carries its unit in its key.

    path is a scenario file or the name of a bundled one ("g2_chain",
    "franson").  Sections [source], [detector_herald], [detector_signal],
    [phase_matching] and [franson] take the field names of SourceParams,
    DetectorModel, PhaseMatching and FransonScanSettings as keys; a field
    with no default is a required key.  A g2_chain scenario reads [run],
    [source], an optional [qfc] and the detectors.  A franson scenario reads
    [run], the detectors, [spectrum] (exactly one of file and
    gaussian_fwhm_ghz), [phase_matching] (fwhm_ghz required) and every key
    of [franson].  A key that nothing reads, in any section, is an error, as
    is a *_ps value of magnitude 2^63 or more.
    """
    path = _resolve(path)
    # no key interpolates, so a % in a value is literal
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        found = parser.read(path, encoding="utf-8-sig")
    except configparser.Error as exc:  # a repeated section or key, a key before any section
        raise ScenarioError(f"{path}: malformed scenario file: {exc}") from exc
    if not found:
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
            value = conv(raw)
        except ValueError as exc:
            raise ScenarioError(f"{path}: bad value for {section}.{key}: {raw!r}") from exc
        if key.endswith("_ps") and not abs(value) < 2**63:  # timestamps are int64
            raise ScenarioError(f"{path}: {section}.{key} = {raw!r} is not below 2^63 ps")
        return value

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
    seed = get("run", "seed", _to_int, 0)
    for key, value in (("duration_ps", duration_ps), ("seed", seed)):
        if value < 0:
            raise ScenarioError(f"{path}: run.{key} must be nonnegative")
    common = dict(
        name=get("run", "name", str, os.path.basename(path)),
        kind=kind,
        seed=seed,
        duration_ps=duration_ps,
        detector_herald=build(DetectorModel, "detector_herald"),
        detector_signal=build(DetectorModel, "detector_signal"),
    )

    if kind == "g2_chain":
        qfc_eff = None
        if parser.has_section("qfc"):
            qfc_eff = get("qfc", "efficiency", _to_float)
            if not 0 <= qfc_eff <= 1:
                raise ScenarioError(f"{path}: qfc.efficiency outside [0, 1]")
        qfc_background = get("qfc", "background_rate_per_s", _to_float, 0.0)
        if qfc_background < 0:
            raise ScenarioError(f"{path}: qfc.background_rate_per_s must be nonnegative")
        scenario = Scenario(**common, source=build(SourceParams, "source"),
                            qfc_efficiency=qfc_eff, qfc_background_per_s=qfc_background)
    else:
        spectrum_file = get("spectrum", "file", str, "") or None
        fwhm = get("spectrum", "gaussian_fwhm_ghz", _to_float, None)
        if (spectrum_file is None) == (fwhm is None):
            raise ScenarioError(
                f"{path}: [spectrum] must set exactly one of file and gaussian_fwhm_ghz")
        if spectrum_file is not None:
            spectrum_file = os.path.join(os.path.dirname(os.path.abspath(path)), spectrum_file)
            if not os.path.exists(spectrum_file):
                raise ScenarioError(f"{path}: spectrum.file {spectrum_file!r} does not exist")
        scenario = Scenario(**common, spectrum_fwhm_ghz=fwhm, spectrum_file=spectrum_file,
                            phase_matching=build(PhaseMatching, "phase_matching"),
                            franson=build(FransonScanSettings, "franson"))

    for section in parser.sections():
        for key in parser.options(section):
            if (section, key) not in read_keys:
                raise ScenarioError(f"{path}: unknown key {section}.{key}")
    return scenario
