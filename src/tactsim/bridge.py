"""Electrical model of the sensing chain.

Each resistive layer feeds a quarter Wheatstone bridge: a reference
divider (r1 over r2) and a sensing divider (r3 over the sensor rx). The
differential output is the sensing node minus the reference node, so a
resistance rise in the sensor raises the output from an exact zero at
rest. An instrumentation amplifier scales that signal (with about 1%
multiplicative error in the reference build) and clips at its supply
rails, and an 8-bit ADC turns the railed voltage into a code.

The Thevenin resistance seen from the bridge output is computed for
analysis but does not load the divider: instrumentation-amplifier
inputs draw negligible current.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, UsageError

#: Amplifier gains of the two published board variants.
GAIN_PRESETS = (22.0, 41.36)


@dataclass(frozen=True)
class BridgeConfig:
    """One bridge-plus-amplifier channel.

    The defaults describe the fabric channel: equal 100 kOhm arms
    matched to the fabric's rest resistance, the 41.36x gain variant,
    and 1% amplifier noise. ``rail_low``/``rail_high`` are the amplifier
    supply rails.
    """

    supply_voltage: float = 5.0
    r1: float = 100e3
    r2: float = 100e3
    r3: float = 100e3
    rx_rest: float = 100e3
    amplifier_gain: float = 41.36
    noise_fraction: float = 0.01
    rail_low: float = 0.0
    rail_high: float = 5.0

    def __post_init__(self):
        # Written so that NaN fails each check.
        if not self.supply_voltage > 0:
            raise ValueError("supply voltage must be positive")
        for name in ("r1", "r2", "r3", "rx_rest"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.amplifier_gain > 0:
            raise ValueError("amplifier gain must be positive")
        if not 0 <= self.noise_fraction < 1:
            raise ValueError("noise_fraction must be in [0, 1)")
        if not self.rail_low < self.rail_high:
            raise ValueError("rail_low must be below rail_high")


@dataclass(frozen=True)
class AdcConfig:
    """Sampling front end: 8 bits at 9.6 Hz on a 5 V scale by default."""

    bits: int = 8
    sample_rate: float = 9.6
    full_scale: float = 5.0

    def __post_init__(self):
        # As in BridgeConfig, NaN fails the float checks.
        if self.bits < 1:
            raise ValueError("ADC needs at least 1 bit")
        if self.bits > 53:  # beyond, codes are not all exact floats
            raise ValueError("ADC has at most 53 bits")
        if not self.sample_rate > 0:
            raise ValueError("sample rate must be positive")
        if not self.full_scale > 0:
            raise ValueError("full scale must be positive")

    @property
    def max_code(self) -> int:
        return (1 << self.bits) - 1


def is_balanced(cfg: BridgeConfig) -> bool:
    """True when r1/r2 matches r3/rx at rest, i.e. zero output at no load."""
    return math.isclose(cfg.r1 / cfg.r2, cfg.r3 / cfg.rx_rest, rel_tol=1e-9)


def thevenin_resistance(rx: float, delta_rx: float) -> float:
    """Equivalent resistance seen from the output of an equal-arm bridge.

    Two dividers in parallel from the output's point of view: rx/2 for
    the fixed side and rx*(rx + delta)/(2rx + delta) for the sensing
    side.
    """
    if rx <= 0:
        raise ValueError("rx must be positive")
    if delta_rx < 0:
        raise ValueError("delta_rx must be non-negative")
    return rx / 2.0 + rx * (rx + delta_rx) / (2.0 * rx + delta_rx)


def thevenin_slope(rx: float, delta_rx: float) -> float:
    """d(thevenin_resistance)/d(delta_rx), closed form.

    Starts at exactly 0.25 at no deformation and decays to about 0.181
    when the sensing arm has risen by the fabric's full 35%.
    """
    if rx <= 0:
        raise ValueError("rx must be positive")
    if delta_rx < 0:
        raise ValueError("delta_rx must be non-negative")
    ratio = rx / (2.0 * rx + delta_rx)
    return ratio * ratio


def _check_balanced(cfg: BridgeConfig) -> None:
    """Raise ConfigError unless the bridge reads an exact zero at rest."""
    # An arm sum past the largest float would put its divider node at 0.
    if not (math.isfinite(cfg.r1 + cfg.r2) and math.isfinite(cfg.r3 + cfg.rx_rest)):
        raise ConfigError("bridge arm resistances overflow")
    if not is_balanced(cfg):
        raise ConfigError(
            "bridge is not balanced at rest: r1/r2 = "
            f"{cfg.r1 / cfg.r2:.9g} but r3/rx = {cfg.r3 / cfg.rx_rest:.9g}"
        )


# The stage arithmetic below is shared by the scalar stages and the
# block kernel, so both give bit-identical results. Every operation is
# elementwise, so the same code runs on floats and on numpy arrays; the
# block kernel passes numpy's clip and floor, the scalar stages use these.

def _clip(v, low, high):
    """``np.minimum(np.maximum(v, low), high)`` for floats: NaN propagates
    and a tie returns the bound, so ``-0.0`` clips to a ``0.0`` bound."""
    v = v if v != v or v > low else low
    return v if v != v or v < high else high


def _array_clip(v, low, high):
    import numpy as np
    return np.minimum(np.maximum(v, low), high)


def _divider_volts(supply, r3, rx_rest, reference, delta_rx):
    rx = rx_rest + delta_rx
    sense = rx / (r3 + rx)
    return supply * (sense - reference)


def _railed_gain(gain, noise_fraction, rail_low, rail_high, v_in, noise, clip=_clip):
    v = gain * v_in * (1.0 + noise_fraction * noise)
    return clip(v, rail_low, rail_high)


def _rounded_code(max_code, full_scale, v, clip=_clip, floor=math.floor):
    # Past 51 bits the top voltage can round up to max_code + 1.
    return clip(floor(clip(v, 0.0, full_scale) * max_code / full_scale + 0.5), 0, max_code)


def bridge_output(cfg: BridgeConfig, delta_rx: float) -> float:
    """Differential bridge voltage for a sensing-arm rise of ``delta_rx``.

    Sensing divider node minus reference divider node:

        supply * ((rx + delta)/(r3 + rx + delta) - r2/(r1 + r2))

    Zero at rest for any balanced bridge and strictly increasing in the
    delta. With equal arms this reduces to supply*delta/(2*(2rx+delta)).
    """
    if delta_rx < 0:
        raise ValueError("delta_rx must be non-negative")
    _check_balanced(cfg)
    reference = cfg.r2 / (cfg.r1 + cfg.r2)
    return _divider_volts(cfg.supply_voltage, cfg.r3, cfg.rx_rest, reference, delta_rx)


def amplify(cfg: BridgeConfig, v_in: float, noise_sample: float = 0.0) -> float:
    """Instrumentation-amplifier output for a bridge voltage.

    ``noise_sample`` in [-1, 1] scales the multiplicative error term;
    passing an explicit sample keeps simulations reproducible. The
    result is clipped to the amplifier rails.
    """
    if not math.isfinite(v_in):
        raise ValueError("amplifier input must be finite")
    return float(_railed_gain(cfg.amplifier_gain, cfg.noise_fraction, cfg.rail_low,
                              cfg.rail_high, v_in, noise_sample))


def adc_sample(adc: AdcConfig, v: float) -> int:
    """Quantize a voltage to an ADC code, rounding ties up.

    Out-of-range voltages clamp to the conversion range first.
    """
    if not math.isfinite(v):
        raise ValueError("ADC input must be finite")
    try:
        return _rounded_code(adc.max_code, adc.full_scale, v)
    except OverflowError as exc:  # as in Chain.codes
        raise ValueError("ADC input times the largest code overflows") from exc


def dequantize(adc: AdcConfig, code: int) -> float:
    """Voltage at the center of an ADC code."""
    if not 0 <= code <= adc.max_code:
        raise UsageError(f"code {code} outside [0, {adc.max_code}]")
    return code * adc.full_scale / adc.max_code


class Chain:
    """Bridge -> amplifier -> ADC for several channels, compiled once.

    ``bridges`` holds one bridge per channel. Their balance is checked
    here, once; ``codes`` then converts whole blocks of samples with the
    arithmetic of ``bridge_output``, ``amplify`` and ``adc_sample``, so
    a block gives the same codes as those stages called per sample.
    """

    def __init__(self, bridges, adc: AdcConfig):
        import numpy as np
        for bridge in bridges:
            _check_balanced(bridge)
        self.adc = adc
        self.channels = len(bridges)
        # One row per parameter, one column per channel.
        params = np.array([
            (b.supply_voltage, b.r3, b.rx_rest, b.r2 / (b.r1 + b.r2),
             b.amplifier_gain, b.noise_fraction, b.rail_low, b.rail_high)
            for b in bridges
        ]).T
        self._divider, self._amplifier = params[:4], params[4:]

    def codes(self, delta_rx, noise) -> np.ndarray:
        """ADC codes for arrays of sensing-arm rises and noise samples.

        Both arrays have one column per channel and one row per sample.
        """
        import numpy as np
        delta_rx = np.asarray(delta_rx, dtype=float)
        if (delta_rx < 0).any():
            raise ValueError("delta_rx must be non-negative")
        try:  # arms past the float range would read as a zero divider
            with np.errstate(over="raise", invalid="ignore"):
                v_in = _divider_volts(*self._divider, delta_rx)
        except FloatingPointError as exc:
            raise ValueError("bridge arm resistances overflow") from exc
        if not np.isfinite(v_in).all():
            raise ValueError("amplifier input must be finite")
        with np.errstate(over="ignore"):  # an output past the rails clips to them
            v = _railed_gain(*self._amplifier, v_in, np.asarray(noise, dtype=float), _array_clip)
        if not np.isfinite(v).all():
            raise ValueError("ADC input must be finite")
        try:  # a full scale so large that an input times the top code overflows
            with np.errstate(over="raise"):
                codes = _rounded_code(self.adc.max_code, self.adc.full_scale, v, _array_clip,
                                      np.floor)
        except FloatingPointError as exc:
            raise ValueError("ADC input times the largest code overflows") from exc
        return codes.astype(np.int64)


def sample_chain(bridge: BridgeConfig, adc: AdcConfig, delta_rx: float,
                 noise_sample: float = 0.0) -> int:
    """One full conversion: bridge -> amplifier -> ADC code."""
    return int(Chain((bridge,), adc).codes([[delta_rx]], [[noise_sample]])[0, 0])
