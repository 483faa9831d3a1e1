import math

import numpy as np
import pytest

from tactsim import (
    AdcConfig,
    BridgeConfig,
    ConfigError,
    ElementModel,
    FabricModel,
    UsageError,
    adc_sample,
    amplify,
    bridge_output,
    dequantize,
    is_balanced,
    sample_chain,
    thevenin_resistance,
    thevenin_slope,
)
from tactsim.bridge import Chain


class TestIsBalanced:
    def test_all_equal_arms(self):
        assert is_balanced(BridgeConfig())

    def test_matched_ratios(self):
        cfg = BridgeConfig(r1=200e3, r2=100e3, r3=200e3, rx_rest=100e3)
        assert is_balanced(cfg)

    def test_mismatched_ratios(self):
        cfg = BridgeConfig(r1=100e3, r2=100e3, r3=200e3, rx_rest=100e3)
        assert not is_balanced(cfg)


class TestThevenin:
    def test_at_rest_equals_rx(self):
        # rx/2 + rx/2 at zero delta
        assert thevenin_resistance(100e3, 0.0) == pytest.approx(100e3, rel=1e-12)

    def test_full_fabric_swing(self):
        expected = 50e3 + 100e3 * 135e3 / 235e3
        assert thevenin_resistance(100e3, 35e3) == pytest.approx(expected, rel=1e-12)

    def test_slope_endpoints(self):
        assert thevenin_slope(100e3, 0.0) == 0.25
        assert thevenin_slope(100e3, 35e3) == pytest.approx(1.0 / 2.35**2, rel=1e-12)

    def test_slope_matches_central_difference(self):
        # independent oracle: central finite differences of the resistance
        rx = 100e3
        h = 1.0
        for delta in np.linspace(h, 0.35 * rx - h, 97):
            numeric = (
                thevenin_resistance(rx, delta + h) - thevenin_resistance(rx, delta - h)
            ) / (2 * h)
            assert thevenin_slope(rx, delta) == pytest.approx(numeric, rel=1e-6)

    def test_slope_monotone_decreasing(self):
        rx = 100e3
        slopes = [thevenin_slope(rx, d) for d in np.linspace(0.0, 0.35 * rx, 200)]
        assert all(b < a for a, b in zip(slopes, slopes[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            thevenin_resistance(0.0, 1.0)
        with pytest.raises(ValueError):
            thevenin_resistance(100e3, -1.0)

    def test_slope_domain(self):
        with pytest.raises(ValueError, match="^rx must be positive$"):
            thevenin_slope(0.0, 1.0)
        with pytest.raises(ValueError, match="^delta_rx must be non-negative$"):
            thevenin_slope(100e3, -1.0)


class TestBridgeOutput:
    def test_balanced_null(self):
        assert bridge_output(BridgeConfig(), 0.0) == 0.0

    def test_full_fabric_swing(self):
        # equal arms: supply * delta / (2 * (2 rx + delta))
        expected = 5.0 * 35e3 / (2.0 * 235e3)
        assert bridge_output(BridgeConfig(), 35e3) == pytest.approx(expected, rel=1e-12)

    def test_small_delta(self):
        expected = 5.0 / 402.0
        assert bridge_output(BridgeConfig(), 1e3) == pytest.approx(expected, rel=1e-12)

    def test_strictly_increasing(self):
        cfg = BridgeConfig()
        outs = [bridge_output(cfg, d) for d in np.linspace(0.0, 35e3, 300)]
        assert all(b > a for a, b in zip(outs, outs[1:]))

    def test_null_for_random_balanced_configs(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            r1, r2, rx = 10.0 ** rng.uniform(3, 6, size=3)
            cfg = BridgeConfig(r1=r1, r2=r2, r3=r1 * rx / r2, rx_rest=rx)
            assert abs(bridge_output(cfg, 0.0)) < 1e-12 * cfg.supply_voltage

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError, match="^delta_rx must be non-negative$"):
            bridge_output(BridgeConfig(), -1.0)

    def test_unbalanced_rejected(self):
        cfg = BridgeConfig(r1=100e3, r2=100e3, r3=200e3, rx_rest=100e3)
        with pytest.raises(ConfigError):
            bridge_output(cfg, 0.0)

    @pytest.mark.parametrize("arms", (
        dict(r1=1e308, r2=1e308, r3=1.0, rx_rest=1.0),
        dict(r1=1.0, r2=1.0, r3=1e308, rx_rest=1e308),
        dict(r1=1e308, r2=1e308, r3=1e308, rx_rest=1e308),
    ))
    def test_arm_sum_past_the_float_range_is_rejected(self, arms):
        # Balanced ratios, but r1 + r2 (or r3 + rx) is inf: a node would read 0.
        cfg = BridgeConfig(**arms)
        assert is_balanced(cfg)
        with pytest.raises(ConfigError, match="^bridge arm resistances overflow$"):
            bridge_output(cfg, 0.0)
        with pytest.raises(ConfigError, match="^bridge arm resistances overflow$"):
            sample_chain(cfg, AdcConfig(), 0.0)

    def test_small_signal_linearity(self):
        # within 5% of rx the ideal quarter-bridge line is good to 2.6%
        cfg = BridgeConfig()
        rx = cfg.rx_rest
        for delta in np.linspace(1.0, 0.05 * rx, 500):
            exact = bridge_output(cfg, delta)
            ideal = cfg.supply_voltage * delta / (4.0 * rx)
            assert abs(exact - ideal) / exact <= 0.026


class TestAmplify:
    def test_zero_in_zero_out(self):
        cfg = BridgeConfig(amplifier_gain=41.36)
        for noise in (-1.0, 0.0, 0.5):
            assert amplify(cfg, 0.0, noise) == 0.0

    def test_plain_product(self):
        cfg = BridgeConfig(amplifier_gain=22.0, noise_fraction=0.0)
        assert amplify(cfg, 0.1) == pytest.approx(2.2, rel=1e-12)

    def test_clips_at_rail(self):
        cfg = BridgeConfig(amplifier_gain=41.36)
        assert amplify(cfg, 0.2) == 5.0

    def test_noise_scales_input(self):
        cfg = BridgeConfig(amplifier_gain=10.0, noise_fraction=0.01)
        assert amplify(cfg, 0.1, 1.0) == pytest.approx(1.01, rel=1e-12)
        assert amplify(cfg, 0.1, -1.0) == pytest.approx(0.99, rel=1e-12)

    def test_linear_below_rails_without_noise(self):
        cfg = BridgeConfig(amplifier_gain=7.0, noise_fraction=0.0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = rng.uniform(0.0, 0.3, size=2)
            assert amplify(cfg, a + b) == pytest.approx(
                amplify(cfg, a) + amplify(cfg, b), rel=1e-12
            )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            amplify(BridgeConfig(), math.inf)

    def test_negative_zero_clips_to_the_rail(self):
        # A tie with the rail returns the rail, as numpy's maximum does.
        assert repr(amplify(BridgeConfig(), -0.0)) == "0.0"

    def test_nan_noise_passes_through_to_the_adc_check(self):
        v = amplify(BridgeConfig(), 0.1, math.nan)
        assert math.isnan(v)
        with pytest.raises(ValueError, match="ADC input must be finite"):
            adc_sample(AdcConfig(), v)


class TestAdc:
    adc = AdcConfig()

    def test_full_scale(self):
        assert adc_sample(self.adc, 5.0) == 255

    def test_zero(self):
        assert adc_sample(self.adc, 0.0) == 0

    def test_midpoint_rounds_half_up(self):
        assert adc_sample(self.adc, 2.5) == 128

    def test_out_of_range_clamps(self):
        assert adc_sample(self.adc, -1.0) == 0
        assert adc_sample(self.adc, 7.3) == 255

    def test_dequantize_endpoints(self):
        assert dequantize(self.adc, 255) == 5.0
        assert dequantize(self.adc, 0) == 0.0

    def test_dequantize_interior(self):
        assert dequantize(self.adc, 51) == 1.0

    def test_dequantize_range_check(self):
        with pytest.raises(UsageError):
            dequantize(self.adc, 256)
        with pytest.raises(UsageError):
            dequantize(self.adc, -1)

    def test_quantization_error_bounded(self):
        # |round trip - clamp| <= half an LSB across the whole span
        half_lsb = self.adc.full_scale / (2 * self.adc.max_code)
        for v in np.linspace(-1.0, 6.0, 20001):
            clamped = min(max(v, 0.0), self.adc.full_scale)
            err = abs(dequantize(self.adc, adc_sample(self.adc, v)) - clamped)
            assert err <= half_lsb

    def test_validation(self):
        with pytest.raises(ValueError):
            AdcConfig(bits=0)
        with pytest.raises(ValueError):
            AdcConfig(sample_rate=0.0)

    def test_input_times_top_code_past_the_float_range_is_a_value_error(self):
        # The message Chain.codes gives for the same input.
        adc = AdcConfig(full_scale=1e307)
        with pytest.raises(ValueError, match="^ADC input times the largest code overflows$"):
            adc_sample(adc, 1e307)
        assert adc_sample(adc, 1e304) == 0

    @pytest.mark.parametrize("bits", (54, 64, 2000, 10**30))
    def test_codes_wider_than_a_float_mantissa_are_rejected(self, bits):
        with pytest.raises(ValueError, match="^ADC has at most 53 bits$"):
            AdcConfig(bits=bits)

    @pytest.mark.parametrize("full_scale", (0.1, 1.0, 1.7, 3.3, 7.0, 12.0))
    def test_top_code_of_a_53_bit_adc_stays_in_range(self, full_scale):
        # At 53 bits, max_code + 0.5 rounds up to 2**53.
        adc = AdcConfig(bits=53, full_scale=full_scale)
        assert adc_sample(adc, full_scale) <= adc.max_code
        bridge = BridgeConfig(amplifier_gain=1e6, noise_fraction=0.0, rail_high=full_scale)
        assert sample_chain(bridge, adc, 1e5) <= adc.max_code


#: Config class, field -> the message its NaN check raises.
NAN_FIELDS = {
    (BridgeConfig, "supply_voltage"): "supply voltage must be positive",
    (BridgeConfig, "r1"): "r1 must be positive",
    (BridgeConfig, "r2"): "r2 must be positive",
    (BridgeConfig, "r3"): "r3 must be positive",
    (BridgeConfig, "rx_rest"): "rx_rest must be positive",
    (BridgeConfig, "amplifier_gain"): "amplifier gain must be positive",
    (BridgeConfig, "rail_low"): "rail_low must be below rail_high",
    (BridgeConfig, "rail_high"): "rail_low must be below rail_high",
    (AdcConfig, "sample_rate"): "sample rate must be positive",
    (AdcConfig, "full_scale"): "full scale must be positive",
    (FabricModel, "rest_resistance"): "fabric rest resistance must be positive",
    (FabricModel, "full_scale_force"): "full_scale_force must be positive",
    (ElementModel, "trigger_threshold"): "trigger threshold must be positive",
    (ElementModel, "active_signal_delta"): "active_signal_delta must be positive",
    (ElementModel, "saturation_force"): "saturation force must exceed the trigger threshold",
}


@pytest.mark.parametrize("kind, field", list(NAN_FIELDS))
def test_nan_field_is_rejected(kind, field):
    with pytest.raises(ValueError, match=f"^{NAN_FIELDS[kind, field]}$"):
        kind(**{field: math.nan})


class TestSampleChain:
    def test_composes_stages(self):
        cfg = BridgeConfig(noise_fraction=0.0)
        adc = AdcConfig()
        delta = 4.9e3
        expected = adc_sample(adc, amplify(cfg, bridge_output(cfg, delta)))
        assert sample_chain(cfg, adc, delta) == expected

    def test_negative_delta_rejected(self):
        chain = Chain((BridgeConfig(),), AdcConfig())
        with pytest.raises(ValueError, match="^delta_rx must be non-negative$"):
            chain.codes([[-1.0]], [[0.0]])

    def test_non_finite_noise_rejected(self):
        with pytest.raises(ValueError, match="^ADC input must be finite$"):
            sample_chain(BridgeConfig(), AdcConfig(), 1000.0, math.nan)
