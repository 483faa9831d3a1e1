import re
from dataclasses import replace
from pathlib import Path

import pytest

from tactsim import (
    ArityError,
    ConfigError,
    ParseError,
    PolynomialModel,
    SampleLine,
    default_config,
    element_signal_thresholds,
    format_sample_line,
    load_config,
    make_estimator_config,
    parse_sample_line,
    read_samples,
)
from tactsim.bridge import amplify, bridge_output
from tactsim.config import _KEYS, channel_signal, parse_config_text
from tactsim.streams import format_sample_block


class TestSampleLines:
    def test_all_zero(self):
        sample = parse_sample_line("0.000,0,0,0,0,0")
        assert sample.time == 0.0
        assert sample.channels == (0.0,) * 5

    def test_field_mapping(self):
        sample = parse_sample_line("1.25,2.5,0.1,0,0,0")
        assert sample.time == 1.25
        assert sample.channels[0] == 2.5
        assert sample.channels[1] == 0.1

    def test_wrong_arity(self):
        with pytest.raises(ArityError):
            parse_sample_line("1.0,2.5,0.1,0")
        with pytest.raises(ArityError):
            parse_sample_line("1.0,1,2,3,4,5,6")

    def test_four_channels_rejected(self):
        with pytest.raises(ValueError, match="^expected 5 channels$"):
            SampleLine(0.0, (1, 2, 3, 4))

    def test_bad_field(self):
        with pytest.raises(ParseError):
            parse_sample_line("1.0,a,0,0,0,0")
        with pytest.raises(ParseError):
            parse_sample_line("1.0,inf,0,0,0,0")

    def test_whitespace_tolerated(self):
        sample = parse_sample_line("  1.25 , 2.5 ,0.1, 0 ,0 , 0  ")
        assert sample.time == 1.25
        assert sample.channels == (2.5, 0.1, 0.0, 0.0, 0.0)

    def test_finite_fields_whose_sum_overflows_still_parse(self):
        sample = parse_sample_line("1e308,1e308,1e308,0,0,-0.0")
        assert sample.time == 1e308
        assert sample.channels == (1e308, 1e308, 0.0, 0.0, 0.0)

    def test_round_trip_produces_canonical_form(self):
        cases = {
            "0.000,0,0,0,0,0": "0.0,0,0,0,0,0",
            "1.25,2.5,0.1,0,0,0": "1.25,2.5,0.1,0,0,0",
            " 3 , 51 , 0 , 255 , 1 , 2 ": "3.0,51,0,255,1,2",
        }
        for raw, canonical in cases.items():
            assert format_sample_line(parse_sample_line(raw)) == canonical
            # formatting is idempotent on canonical lines
            assert format_sample_line(parse_sample_line(canonical)) == canonical

    def test_read_samples_skips_comments_and_blanks(self):
        text = "# header comment\n\n0.0,0,0,0,0,0\n  \n0.5,1,2,3,4,5\n"
        samples = list(read_samples(text.splitlines()))
        assert len(samples) == 2
        assert samples[1].line_number == 5

    def test_parse_error_carries_line_number(self):
        lines = ["0.0,0,0,0,0,0", "bad line"]
        with pytest.raises(ParseError, match="line 2"):
            list(read_samples(lines))

    def test_negative_time_rejected(self):
        with pytest.raises(ParseError):
            parse_sample_line("-1.0,0,0,0,0,0")

    def test_line_number_does_not_affect_equality(self):
        a = SampleLine(0.0, (0.0,) * 5, line_number=3)
        b = SampleLine(0.0, (0.0,) * 5)
        assert a == b


#: Rows of ADC codes that ``format_sample_block`` spells once each: codes
#: up to the widest 53-bit ADC, and rows that differ only in high bytes.
WIDE_ROWS = {
    "wide": [[2**53 - 1 - i, i, 2**52 + i, 2**32 + 7 * i, 2**53 - 1] for i in range(40)],
    "high_bytes": [[5 + (i << 48), 5, 5 + (i % 3 << 40), 5, 5] for i in range(40)],
}


@pytest.mark.parametrize("distinct", (True, False), ids=("distinct", "repeated"))
@pytest.mark.parametrize("case", sorted(WIDE_ROWS))
def test_block_spells_wide_rows_as_format_sample_line(case, distinct):
    rows = [tuple(WIDE_ROWS[case][i if distinct else i % 3]) for i in range(40)]
    times = [k / 9.6 for k in range(len(rows))]
    expected = "".join(format_sample_line(SampleLine(t, codes)) + "\n"
                       for t, codes in zip(times, rows))
    assert format_sample_block(times, rows) == expected


class TestConfigFile:
    def test_defaults_match_reference_deployment(self):
        cfg = default_config()
        assert cfg.bridge.amplifier_gain == 41.36
        assert cfg.bridge.noise_fraction == 0.01
        assert cfg.adc.bits == 8
        assert cfg.adc.sample_rate == 9.6
        assert cfg.filter_window == 4
        assert cfg.kfold == 5
        assert cfg.repeats == 20
        assert cfg.fabric.rest_resistance == 100e3
        assert cfg.fabric.max_fractional_delta == 0.35

    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == default_config()

    def test_overrides(self):
        cfg = parse_config_text(
            "gain = 22\n"
            "noise_fraction = 0.0\n"
            "seed = 9\n"
            "element_threshold_force = 0.1,0.1,0.1,0.1\n"
            "# comment line\n"
            "filter_window = 8\n"
        )
        assert cfg.bridge.amplifier_gain == 22.0
        assert cfg.bridge.noise_fraction == 0.0
        assert cfg.seed == 9
        assert cfg.filter_window == 8
        assert all(e.trigger_threshold == 0.1 for e in cfg.elements)

    def test_bridge_arms_follow_fabric_rest(self):
        cfg = parse_config_text("fabric_rest = 120000\n")
        assert cfg.bridge.rx_rest == 120e3
        assert (cfg.bridge.r1, cfg.bridge.r2, cfg.bridge.r3) == (120e3,) * 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("gian = 22\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("gain = fast\n")

    def test_bad_list_length_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("element_rest = 1e6,1e6\n")

    def test_invalid_physics_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("fabric_max_delta = 2.0\n")

    def test_three_elements_rejected(self):
        elements = default_config().elements[:3]
        with pytest.raises(ConfigError, match="^exactly four position elements are required$"):
            replace(default_config(), elements=elements)

    def test_readme_block_lists_every_key_at_its_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("### Configuration", 1)[1].split("```")[1]
        pairs = re.findall(r"(\w+) = (\S+)", block)
        assert sorted(key for key, _ in pairs) == sorted(_KEYS)
        cfg = parse_config_text("".join(f"{key} = {value}\n" for key, value in pairs))
        assert repr(cfg) == repr(default_config())

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "toolkit.cfg"
        path.write_text("gain = 22\nseed = 3\n")
        cfg = load_config(path)
        assert cfg.bridge.amplifier_gain == 22.0
        assert cfg.seed == 3


class TestDerivedSettings:
    def test_element_bridges_are_balanced_at_each_rest(self):
        cfg = default_config()
        for index, element in enumerate(cfg.elements):
            bridge_cfg = cfg.element_bridge(index)
            assert bridge_cfg.rx_rest == element.rest_resistance
            assert bridge_output(bridge_cfg, 0.0) == 0.0

    def test_element_thresholds_are_half_triggered_level(self):
        cfg = default_config()
        thresholds = element_signal_thresholds(cfg)
        for index, element in enumerate(cfg.elements):
            bridge_cfg = cfg.element_bridge(index)
            delta = element.rest_resistance * element.active_signal_delta
            level = amplify(bridge_cfg, bridge_output(bridge_cfg, delta), 0.0)
            assert thresholds[index] == pytest.approx(level / 2.0, rel=1e-12)
            assert 0.0 < thresholds[index] < level

    def test_estimator_config_assembly(self):
        cfg = default_config()
        model = PolynomialModel((0.0, 0.2), "volts")
        est = make_estimator_config(cfg, model)
        assert est.sensing_range == 1.0
        assert est.resolution == 0.05
        assert est.filter_window == cfg.filter_window

    def test_units_mismatch_rejected(self):
        cfg = default_config()
        legacy = PolynomialModel((0.0, 0.2), "legacy")
        with pytest.raises(ConfigError):
            make_estimator_config(cfg, legacy)

    def test_counts_mode_scales_signals(self):
        cfg = default_config(signal_units="counts")
        assert channel_signal(cfg, 51) == 51.0
        volts_cfg = default_config()
        assert channel_signal(volts_cfg, 51) == 1.0
        # thresholds follow the units
        counts_thr = element_signal_thresholds(cfg)
        volts_thr = element_signal_thresholds(volts_cfg)
        scale = cfg.adc.max_code / cfg.adc.full_scale
        for c, v in zip(counts_thr, volts_thr):
            assert c == pytest.approx(v * scale, rel=1e-12)
