import itertools
import random
import sys

import pytest

from tactsim import (
    EstimatorConfig,
    ParseError,
    PRESET_MODELS,
    StreamError,
    StreamState,
    UsageError,
    classify_pattern,
    detect_contacts,
    estimate_force,
    format_frame,
    moving_average,
    parse_frame,
    process_frame,
    range_for_gain,
)


def make_cfg(**overrides):
    defaults = dict(
        model=PRESET_MODELS[1],
        element_thresholds=(1.0, 1.0, 1.0, 1.0),
        sensing_range=1.0,
        resolution=0.05,
        filter_window=4,
    )
    defaults.update(overrides)
    return EstimatorConfig(**defaults)


class TestRangeForGain:
    def test_published_gains_are_exact(self):
        from tactsim import GAIN_PRESETS

        assert GAIN_PRESETS == (22.0, 41.36)
        assert range_for_gain(22.0) == (1.5, 0.1)
        assert range_for_gain(41.36) == (1.0, 0.05)

    def test_intermediate_gain_interpolates(self):
        sensing_range, resolution = range_for_gain(30.0)
        assert 1.0 < sensing_range < 1.5
        assert 0.05 < resolution < 0.1

    def test_monotone_in_gain(self):
        gains = [20.0, 25.0, 30.0, 35.0, 41.36, 50.0]
        ranges = [range_for_gain(g)[0] for g in gains]
        assert all(b < a for a, b in zip(ranges, ranges[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            range_for_gain(0.0)
        with pytest.raises(ValueError):
            range_for_gain(-5.0)


class TestMovingAverage:
    def test_mean_of_constants_is_exact(self):
        assert moving_average([0.5, 0.5, 0.5, 0.5]) == 0.5
        assert moving_average([0.1, 0.1, 0.1]) == 0.1

    def test_four_sample_window(self):
        assert moving_average([0.0, 0.0, 0.0, 1.0]) == 0.25

    def test_warm_up_single_sample(self):
        assert moving_average([0.8]) == 0.8

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            moving_average([])

    def test_bounded_by_window_extremes(self):
        rng = random.Random(9)
        for _ in range(2000):
            window = [rng.uniform(0.0, 1.5) for _ in range(rng.randint(1, 4))]
            value = moving_average(window)
            assert min(window) <= value <= max(window)

    def test_linearity(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 4)
            a = [rng.uniform(0.0, 1.0) for _ in range(n)]
            b = [rng.uniform(0.0, 1.0) for _ in range(n)]
            lhs = moving_average([x + y for x, y in zip(a, b)])
            rhs = moving_average(a) + moving_average(b)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_step_settles_in_exactly_window_frames(self):
        from collections import deque

        window = deque(maxlen=4)
        for _ in range(6):
            window.append(0.25)
        outputs = []
        for _ in range(6):
            window.append(1.0)
            outputs.append(moving_average(window))
        assert outputs[2] != 1.0
        assert all(value == 1.0 for value in outputs[3:])


class TestEstimateForce:
    def test_negative_prediction_clamps_to_zero(self):
        # the linear preset predicts -0.065 N at zero signal
        assert estimate_force(make_cfg(), 0.0) == 0.0

    def test_ceiling_clamp(self):
        assert estimate_force(make_cfg(), 11.98) == 1.0

    def test_in_range_prediction(self):
        assert estimate_force(make_cfg(), 5.0) == pytest.approx(0.3795, rel=1e-12)

    def test_respects_configured_range(self):
        cfg = make_cfg(sensing_range=1.5)
        assert estimate_force(cfg, 20.0) == 1.5


class TestDetectContacts:
    thresholds = (1.0, 1.0, 1.5, 2.0)

    def test_all_quiet(self):
        assert detect_contacts((0.0, 0.0, 0.0, 0.0), self.thresholds) == (
            False, False, False, False,
        )

    def test_single_element(self):
        assert detect_contacts((1.2, 0.0, 0.0, 0.0), self.thresholds) == (
            True, False, False, False,
        )

    def test_boundary_is_inclusive(self):
        assert detect_contacts((1.0, 0.99, 1.5, 1.99), self.thresholds) == (
            True, False, True, False,
        )

    def test_monotone_in_signal(self):
        rng = random.Random(2)
        for _ in range(500):
            signals = [rng.uniform(0.0, 3.0) for _ in range(4)]
            before = detect_contacts(signals, self.thresholds)
            bumped = list(signals)
            index = rng.randrange(4)
            bumped[index] += rng.uniform(0.0, 2.0)
            after = detect_contacts(bumped, self.thresholds)
            for was_on, is_on in zip(before, after):
                assert is_on or not was_on

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="^one signal per threshold required$"):
            detect_contacts([1.0], (1.0, 1.0))


class TestClassifyPattern:
    def test_labels(self):
        assert classify_pattern((False,) * 4) == "none"
        assert classify_pattern((True, False, False, False)) == "point"
        assert classify_pattern((True, True, False, False)) == "line"
        assert classify_pattern((True, True, True, False)) == "area"
        assert classify_pattern((True,) * 4) == "area"

    def test_depends_only_on_count(self):
        by_count = {}
        for states in itertools.product((False, True), repeat=4):
            label = classify_pattern(states)
            count = sum(states)
            assert by_count.setdefault(count, label) == label

    def test_three_states_rejected(self):
        with pytest.raises(ValueError, match="^pattern classification needs 4 element states$"):
            classify_pattern((True, False, True))


class TestProcessFrame:
    def test_all_zero_channels(self):
        cfg = make_cfg()
        state = StreamState(cfg.filter_window)
        frame = process_frame(cfg, state, (0.0,) * 5, 0.0)
        assert frame.raw_force == 0.0
        assert frame.filtered_force == 0.0
        assert frame.element_state == (False,) * 4
        assert frame.pattern == "none"

    def test_filter_advances_one_sample_per_frame(self):
        cfg = make_cfg()
        state = StreamState(cfg.filter_window)
        # constant signal worth ~0.3795 N; the filter output must equal
        # the running mean of the raw forces seen so far
        raws = []
        for k in range(6):
            frame = process_frame(cfg, state, (5.0, 0.0, 0.0, 0.0, 0.0), float(k))
            raws.append(frame.raw_force)
            expected = sum(raws[-4:]) / len(raws[-4:])
            assert frame.filtered_force == pytest.approx(expected, abs=1e-12)

    def test_contact_states_and_pattern(self):
        cfg = make_cfg()
        state = StreamState(cfg.filter_window)
        frame = process_frame(cfg, state, (0.0, 2.0, 2.0, 0.0, 0.0), 0.0)
        assert frame.element_state == (True, True, False, False)
        assert frame.pattern == "line"

    def test_non_monotonic_time_rejected(self):
        cfg = make_cfg()
        state = StreamState(cfg.filter_window)
        process_frame(cfg, state, (0.0,) * 5, 1.0)
        with pytest.raises(StreamError):
            process_frame(cfg, state, (0.0,) * 5, 1.0)
        with pytest.raises(StreamError):
            process_frame(cfg, state, (0.0,) * 5, 0.5)

    def test_wrong_channel_count_rejected(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            process_frame(cfg, StreamState(4), (0.0,) * 4, 0.0)

    def test_filtered_force_always_in_range(self):
        cfg = make_cfg()
        state = StreamState(cfg.filter_window)
        rng = random.Random(4)
        for k in range(200):
            signal = rng.uniform(0.0, 20.0)
            frame = process_frame(cfg, state, (signal, 0, 0, 0, 0), float(k))
            assert 0.0 <= frame.filtered_force <= cfg.sensing_range
            assert 0.0 <= frame.raw_force <= cfg.sensing_range

    def test_dip_below_threshold_switches_off_next_frame(self):
        cfg = make_cfg()
        state = StreamState(cfg.filter_window)
        on = process_frame(cfg, state, (0.0, 1.1, 0.0, 0.0, 0.0), 0.0)
        assert on.element_state[0]
        # contacts are plain on/off: no memory of the previous frame
        dipped = process_frame(cfg, state, (0.0, 0.9, 0.0, 0.0, 0.0), 1.0)
        assert not dipped.element_state[0]
        assert dipped.pattern == "none"


class TestFrameRecords:
    def test_format_shape(self):
        cfg = make_cfg()
        state = StreamState(cfg.filter_window)
        frame = process_frame(cfg, state, (5.0, 2.0, 0.0, 0.0, 0.0), 0.0)
        line = format_frame(frame)
        fields = line.split(",")
        assert len(fields) == 8
        assert fields[0] == "0.0"
        assert fields[3:7] == ["1", "0", "0", "0"]
        assert fields[7] == "point"

    def test_round_trip(self):
        cfg = make_cfg()
        state = StreamState(cfg.filter_window)
        frames = [
            process_frame(cfg, state, (5.0, 2.0, 0.0, 0.0, 2.0), float(k))
            for k in range(3)
        ]
        for frame in frames:
            assert parse_frame(format_frame(frame)) == frame

    def test_parse_rejects_bad_pattern(self):
        with pytest.raises(ParseError):
            parse_frame("0.0,0.0,0.0,0,0,0,0,blob")

    def test_parse_rejects_bad_state(self):
        with pytest.raises(ParseError):
            parse_frame("0.0,0.0,0.0,2,0,0,0,point")

    def test_parse_rejects_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_frame("0.0,0.0,0.0,0,0,0,none")

    @pytest.mark.parametrize("line", (
        "0.5,nan,0.0,0,0,0,0,none",
        "0.5,0.0,inf,0,0,0,0,none",
        "0.5,-inf,0.0,0,0,0,0,none",
        "nan,0.0,0.0,0,0,0,0,none",
        "inf,0.0,0.0,0,0,0,0,none",
    ))
    def test_parse_rejects_non_finite_fields(self, line):
        with pytest.raises(ParseError, match="^line 7: frame fields must be finite$"):
            parse_frame(line, 7)

    def test_parse_rejects_negative_time(self):
        with pytest.raises(ParseError, match="^line 3: frame time must be non-negative$"):
            parse_frame("-1.0,0.5,0.5,1,0,0,0,point", 3)

    def test_parse_accepts_negative_zero_time_and_forces(self):
        frame = parse_frame("-0.0,-0.0,-0.0,0,0,0,0,none")
        assert repr((frame.time, frame.raw_force, frame.filtered_force)) == "(-0.0, -0.0, -0.0)"


class TestConfigValidation:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            make_cfg(filter_window=0)

    def test_threshold_count(self):
        with pytest.raises(ValueError):
            make_cfg(element_thresholds=(1.0, 1.0))

    def test_range_positive(self):
        with pytest.raises(ValueError):
            make_cfg(sensing_range=0.0)

    def test_window_at_most_maxsize(self):
        with pytest.raises(ValueError, match=f"^filter window must be at most {sys.maxsize}$"):
            make_cfg(filter_window=sys.maxsize + 1)

    def test_thresholds_positive(self):
        with pytest.raises(ValueError, match="^element thresholds must be positive$"):
            make_cfg(element_thresholds=(1.0, 0.0, 1.0, 1.0))
