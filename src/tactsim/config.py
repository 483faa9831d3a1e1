"""Toolkit configuration: one object tying all stages together.

Defaults reproduce the reference deployment: 5 V supply, equal-arm
bridges matched to each sensor's rest resistance, the 41.36x gain
variant with 1% amplifier noise, an 8-bit 9.6 Hz ADC, a 4-sample
moving-average window, and 5-fold cross-validation repeated 20 times.

Configs load from a flat ``key = value`` text file; every key has a
default, unknown keys are rejected.
"""

from dataclasses import dataclass, replace

from .bridge import AdcConfig, BridgeConfig, Chain, amplify, bridge_output, dequantize
from .calibration import PolynomialModel
from .errors import ConfigError
from .estimator import EstimatorConfig, range_for_gain
from .sensor import ElementModel, FabricModel, default_elements

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
    return EstimatorConfig(
        model=model,
        element_thresholds=element_signal_thresholds(cfg),
        sensing_range=sensing_range,
        resolution=resolution,
        filter_window=cfg.filter_window,
    )


# Keys of the flat config file and how to parse each value.
_SCALARS = {
    "supply_voltage": float,
    "gain": float,
    "noise_fraction": float,
    "rail_low": float,
    "rail_high": float,
    "adc_bits": int,
    "adc_full_scale": float,
    "sample_rate": float,
    "fabric_rest": float,
    "fabric_max_delta": float,
    "fabric_full_scale_force": float,
    "element_signal_delta": float,
    "element_saturation_force": float,
    "filter_window": int,
    "kfold": int,
    "repeats": int,
    "seed": int,
    "signal_units": str,
}
_LISTS = {
    "element_rest": float,
    "element_threshold_force": float,
}


def parse_config_text(text: str, source: str = "<config>") -> ToolkitConfig:
    values = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {line_number}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in _SCALARS:
            caster = _SCALARS[key]
            try:
                values[key] = caster(value)
            except ValueError as exc:
                raise ConfigError(f"{source} line {line_number}: {exc}") from exc
        elif key in _LISTS:
            caster = _LISTS[key]
            try:
                parsed = tuple(caster(item.strip()) for item in value.split(","))
            except ValueError as exc:
                raise ConfigError(f"{source} line {line_number}: {exc}") from exc
            if len(parsed) != 4:
                raise ConfigError(
                    f"{source} line {line_number}: {key} needs 4 comma-separated values"
                )
            values[key] = parsed
        else:
            raise ConfigError(f"{source} line {line_number}: unknown key {key!r}")
    return _build_config(values, source)


def _build_config(values: dict, source: str) -> ToolkitConfig:
    base = default_config()
    try:
        fabric = FabricModel(
            rest_resistance=values.get("fabric_rest", base.fabric.rest_resistance),
            max_fractional_delta=values.get(
                "fabric_max_delta", base.fabric.max_fractional_delta
            ),
            full_scale_force=values.get(
                "fabric_full_scale_force", base.fabric.full_scale_force
            ),
        )
        rests = values.get(
            "element_rest", tuple(e.rest_resistance for e in base.elements)
        )
        thresholds = values.get(
            "element_threshold_force", tuple(e.trigger_threshold for e in base.elements)
        )
        delta = values.get("element_signal_delta", base.elements[0].active_signal_delta)
        saturation = values.get(
            "element_saturation_force", base.elements[0].saturation_force
        )
        elements = tuple(
            ElementModel(
                rest_resistance=r,
                trigger_threshold=t,
                active_signal_delta=delta,
                saturation_force=saturation,
            )
            for r, t in zip(rests, thresholds)
        )
        fabric_rest = fabric.rest_resistance
        bridge = BridgeConfig(
            supply_voltage=values.get("supply_voltage", base.bridge.supply_voltage),
            r1=fabric_rest,
            r2=fabric_rest,
            r3=fabric_rest,
            rx_rest=fabric_rest,
            amplifier_gain=values.get("gain", base.bridge.amplifier_gain),
            noise_fraction=values.get("noise_fraction", base.bridge.noise_fraction),
            rail_low=values.get("rail_low", base.bridge.rail_low),
            rail_high=values.get("rail_high", base.bridge.rail_high),
        )
        adc = AdcConfig(
            bits=values.get("adc_bits", base.adc.bits),
            sample_rate=values.get("sample_rate", base.adc.sample_rate),
            full_scale=values.get("adc_full_scale", base.adc.full_scale),
        )
        return ToolkitConfig(
            fabric=fabric,
            elements=elements,
            bridge=bridge,
            adc=adc,
            filter_window=values.get("filter_window", base.filter_window),
            kfold=values.get("kfold", base.kfold),
            repeats=values.get("repeats", base.repeats),
            seed=values.get("seed", base.seed),
            signal_units=values.get("signal_units", base.signal_units),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path) -> ToolkitConfig:
    with open(path, "r") as handle:
        return parse_config_text(handle.read(), source=str(path))
