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

import itertools
import math
from dataclasses import dataclass
from functools import partial
from math import floor

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


# The stage arithmetic below is the one spelling of each stage on Python
# floats: bridge_output, amplify and adc_sample call it per value, and
# Chain and the simulate loop per channel and tick, so all give the same
# bits. Python's float * and + overflow to inf without raising, so the
# callers check finiteness where an overflow has its own message.

def _divider_volts(supply, r3, rx_rest, reference, delta_rx):
    rx = rx_rest + delta_rx
    sense = rx / (r3 + rx)
    return supply * (sense - reference)


def _railed_gain(gain, noise_fraction, rail_low, rail_high, v_in, noise):
    """Clipped to the rails as ``np.minimum(np.maximum(v, low), high)``
    clips: NaN propagates and a tie returns the rail, so ``-0.0`` clips
    to a ``0.0`` rail."""
    v = gain * v_in * (1.0 + noise_fraction * noise)
    v = v if v != v or v > rail_low else rail_low
    return v if v != v or v < rail_high else rail_high


def _rounded_code(max_code, full_scale, v):
    """The code of a finite voltage; math.floor's OverflowError if ``v * max_code`` overflows."""
    v = v if v < full_scale else full_scale
    code = floor((v if v > 0.0 else 0.0) * max_code / full_scale + 0.5)
    return code if code < max_code else max_code  # past 51 bits the top can round up


def stage_code(gain, noise_fraction, rail_low, rail_high, max_code, full_scale, v_in, noise):
    """The ADC code of amplifier input ``v_in`` at ``noise``: the amplifier
    stage, then the ADC stage. ``Chain.stages`` holds the parameters."""
    return _rounded_code(max_code, full_scale,
                         _railed_gain(gain, noise_fraction, rail_low, rail_high, v_in, noise))


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
    except OverflowError as exc:  # as in Chain.channel_convert
        raise ValueError("ADC input times the largest code overflows") from exc


def dequantize(adc: AdcConfig, code: int) -> float:
    """Voltage at the center of an ADC code."""
    if not 0 <= code <= adc.max_code:
        raise UsageError(f"code {code} outside [0, {adc.max_code}]")
    return code * adc.full_scale / adc.max_code


class Chain:
    """Bridge -> amplifier -> ADC for several channels, compiled once.

    ``bridges`` holds one bridge per channel. Their balance is checked
    here, once. ``channel_inputs`` and ``channel_convert``, the one entry
    to the conversion, then take one list of floats per channel, of any
    length, with the arithmetic of ``bridge_output`` and of ``amplify``
    and ``adc_sample``, so a value gives the same code as those stages
    called on it. Each runs its checks one at a time over every channel,
    so the first check that fails on any channel is the one raised.
    ``stages[c]`` holds channel ``c``'s amplifier and ADC parameters, so
    that ``stage_code(*stages[c], v_in, noise)`` is one code of that channel.
    """

    def __init__(self, bridges, adc: AdcConfig):
        for bridge in bridges:
            _check_balanced(bridge)
        self.adc = adc
        self.channels = len(bridges)
        self._dividers = [(b.supply_voltage, b.r3, b.rx_rest, b.r2 / (b.r1 + b.r2))
                          for b in bridges]
        self.stages = [(b.amplifier_gain, b.noise_fraction, b.rail_low, b.rail_high,
                        adc.max_code, adc.full_scale) for b in bridges]

    def channel_inputs(self, delta_rx) -> list:
        """Amplifier input voltages for each channel's list of sensing-arm rises."""
        delta_rx = [list(map(float, column)) for column in delta_rx]
        if any(delta < 0 for column in delta_rx for delta in column):
            raise ValueError("delta_rx must be non-negative")
        for (_, r3, rx_rest, _), column in zip(self._dividers, delta_rx):
            for delta in column:  # arms past the float range would read as a zero divider
                if r3 + (rx_rest + delta) == math.inf > delta:
                    raise ValueError("bridge arm resistances overflow")
        v_in = [list(map(partial(_divider_volts, *divider), column))
                for divider, column in zip(self._dividers, delta_rx)]
        if not all(map(math.isfinite, itertools.chain.from_iterable(v_in))):
            raise ValueError("amplifier input must be finite")
        return v_in

    def channel_convert(self, v_in, noise) -> list:
        """Int ADC codes for each channel's ``channel_inputs`` voltages and noise samples."""
        # An output past the rails clips to them.
        volts = [list(map(partial(_railed_gain, *stage[:4]), column, noises))
                 for stage, column, noises in zip(self.stages, v_in, noise)]
        if not all(map(math.isfinite, itertools.chain.from_iterable(volts))):
            raise ValueError("ADC input must be finite")
        code = partial(_rounded_code, self.adc.max_code, self.adc.full_scale)
        try:  # a full scale so large that an input times the top code overflows
            return [list(map(code, column)) for column in volts]
        except OverflowError as exc:
            raise ValueError("ADC input times the largest code overflows") from exc


def sample_chain(bridge: BridgeConfig, adc: AdcConfig, delta_rx: float,
                 noise_sample: float = 0.0) -> int:
    """One full conversion: bridge -> amplifier -> ADC code."""
    chain = Chain((bridge,), adc)
    [[code]] = chain.channel_convert(chain.channel_inputs([[delta_rx]]), [[noise_sample]])
    return code
