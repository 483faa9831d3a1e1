"""Toolkit configuration: one object tying all stages together.

Defaults reproduce the reference deployment: 5 V supply, equal-arm
bridges matched to each sensor's rest resistance, the 41.36x gain
variant with 1% amplifier noise, an 8-bit 9.6 Hz ADC, a 4-sample
moving-average window, and 5-fold cross-validation repeated 20 times.

Configs load from a flat ``key = value`` text file; every key has a
default, unknown keys are rejected.
"""

import math
import sys
from dataclasses import dataclass, replace

from .bridge import AdcConfig, BridgeConfig, Chain, amplify, bridge_output, dequantize
from .calibration import PolynomialModel
from .errors import ConfigError
from .estimator import EstimatorConfig, range_for_gain
from .sensor import ElementModel, FabricModel, default_elements
from .streams import open_input

SIGNAL_UNITS = ("volts", "counts")


@dataclass(frozen=True)
class ToolkitConfig:
    """Full simulator + estimator configuration."""

    fabric: FabricModel
    elements: tuple
    bridge: BridgeConfig
    adc: AdcConfig
    filter_window: int = 4
    kfold: int = 5
    repeats: int = 20
    seed: int = 0
    signal_units: str = "volts"

    def __post_init__(self):
        if len(self.elements) != 4:
            raise ConfigError("exactly four position elements are required")
        if self.filter_window < 1:
            raise ConfigError("filter_window must be at least 1")
        if self.filter_window > sys.maxsize:
            raise ConfigError(f"filter_window must be at most {sys.maxsize}")
        if self.kfold < 2:
            raise ConfigError("kfold must be at least 2")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.signal_units not in SIGNAL_UNITS:
            raise ConfigError(f"signal_units must be one of {SIGNAL_UNITS}")

    def element_bridge(self, index: int) -> BridgeConfig:
        """Bridge for element ``index`` (0-3): equal arms at its rest value."""
        rest = self.elements[index].rest_resistance
        return replace(self.bridge, r1=rest, r2=rest, r3=rest, rx_rest=rest)

    def sensing_chain(self) -> Chain:
        """Conversion chain of the five channels: the fabric, then elements 1-4."""
        elements = (self.element_bridge(i) for i in range(len(self.elements)))
        return Chain((self.bridge, *elements), self.adc)


def default_config(**overrides) -> ToolkitConfig:
    cfg = ToolkitConfig(
        fabric=FabricModel(),
        elements=default_elements(),
        bridge=BridgeConfig(),
        adc=AdcConfig(),
    )
    return replace(cfg, **overrides) if overrides else cfg


def channel_signal(cfg: ToolkitConfig, code: int) -> float:
    """Signal value the estimator sees for one ADC code."""
    if cfg.signal_units == "volts":
        return dequantize(cfg.adc, code)
    return float(code)


def element_signal_thresholds(cfg: ToolkitConfig) -> tuple:
    """Detection thresholds in signal units, one per element.

    The element models state their thresholds as forces. Any force at
    or above an element's trigger makes its chain output jump from zero
    to the triggered level, so detection needs a signal level somewhere
    in between; half the noise-free triggered level gives the largest
    margin against amplifier noise on both sides.
    """
    thresholds = []
    for index, element in enumerate(cfg.elements):
        bridge_cfg = cfg.element_bridge(index)
        delta = element.rest_resistance * element.active_signal_delta
        level = amplify(bridge_cfg, bridge_output(bridge_cfg, delta), 0.0)
        if level <= 0:
            raise ConfigError(f"element {index + 1} produces no usable signal")
        threshold = level / 2.0
        if cfg.signal_units == "counts":
            threshold = threshold * cfg.adc.max_code / cfg.adc.full_scale
        thresholds.append(threshold)
    return tuple(thresholds)


def make_estimator_config(cfg: ToolkitConfig, model: PolynomialModel) -> EstimatorConfig:
    """Estimator settings derived from the toolkit config and a model."""
    if model.signal_units != cfg.signal_units:
        raise ConfigError(
            f"model is calibrated for {model.signal_units!r} signals but the "
            f"configuration expects {cfg.signal_units!r}"
        )
    sensing_range, resolution = range_for_gain(cfg.bridge.amplifier_gain)
    try:
        return EstimatorConfig(
            model=model,
            element_thresholds=element_signal_thresholds(cfg),
            sensing_range=sensing_range,
            resolution=resolution,
            filter_window=cfg.filter_window,
        )
    except ValueError as exc:  # values whose chain overflows, or a gain past the range table
        raise ConfigError(str(exc)) from exc


def _four_floats(text: str) -> tuple:
    """One comma-separated value per element."""
    return tuple(float(item.strip()) for item in text.split(","))


#: Each key of the flat config file: the part of the config it sets, the
#: field there, and how to parse its value. A scalar ``elements`` key
#: sets every element alike.
_KEYS = {
    "supply_voltage": ("bridge", "supply_voltage", float),
    "gain": ("bridge", "amplifier_gain", float),
    "noise_fraction": ("bridge", "noise_fraction", float),
    "rail_low": ("bridge", "rail_low", float),
    "rail_high": ("bridge", "rail_high", float),
    "adc_bits": ("adc", "bits", int),
    "adc_full_scale": ("adc", "full_scale", float),
    "sample_rate": ("adc", "sample_rate", float),
    "fabric_rest": ("fabric", "rest_resistance", float),
    "fabric_max_delta": ("fabric", "max_fractional_delta", float),
    "fabric_full_scale_force": ("fabric", "full_scale_force", float),
    "element_rest": ("elements", "rest_resistance", _four_floats),
    "element_threshold_force": ("elements", "trigger_threshold", _four_floats),
    "element_signal_delta": ("elements", "active_signal_delta", float),
    "element_saturation_force": ("elements", "saturation_force", float),
    "filter_window": ("toolkit", "filter_window", int),
    "kfold": ("toolkit", "kfold", int),
    "repeats": ("toolkit", "repeats", int),
    "seed": ("toolkit", "seed", int),
    "signal_units": ("toolkit", "signal_units", str),
}


def parse_config_text(text: str, source: str = "<config>") -> ToolkitConfig:
    parts = {"fabric": {}, "elements": {}, "bridge": {}, "adc": {}, "toolkit": {}}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source} line {line_number}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        part, name, parse = _KEYS[key]
        try:
            parsed = parse(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        numbers = parsed if parse is _four_floats else (parsed,)
        if parse is _four_floats and len(parsed) != 4:
            raise ConfigError(f"{where}: {key} needs 4 comma-separated values")
        if parse is not str and not all(math.isfinite(v) for v in numbers):
            raise ConfigError(f"{where}: {key} must be finite")
        parts[part][name] = parsed
    return _build_config(parts, source)


def _build_config(parts: dict, source: str) -> ToolkitConfig:
    """Build each part once, in a fixed order, so the first error is stable."""
    try:
        fabric = FabricModel(**parts["fabric"])
        elements = tuple(
            replace(base, **{name: value[index] if isinstance(value, tuple) else value
                             for name, value in parts["elements"].items()})
            for index, base in enumerate(default_elements())
        )
        rest = fabric.rest_resistance
        bridge = BridgeConfig(r1=rest, r2=rest, r3=rest, rx_rest=rest, **parts["bridge"])
        adc = AdcConfig(**parts["adc"])
        return ToolkitConfig(fabric, elements, bridge, adc, **parts["toolkit"])
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path) -> ToolkitConfig:
    with open_input(path) as handle:
        return parse_config_text(handle.read(), source=str(path))
