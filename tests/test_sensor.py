import itertools

import pytest

from tactsim import (
    ElementModel,
    FabricModel,
    LoadScenario,
    LoadStep,
    ParseError,
    apply_load,
    default_elements,
    element_resistance,
    fabric_delta_r,
    load_scenario,
    save_scenario,
    stretched_resistance,
)
from tactsim.sensor import SATURATION_RESISTANCE_FACTOR


class TestStretchedResistance:
    def test_no_deformation(self):
        assert stretched_resistance(100e3, 1.0) == 100e3

    def test_ten_percent_stretch(self):
        # lambda^2 = 1.21
        assert stretched_resistance(100e3, 1.1) == pytest.approx(121e3, rel=1e-12)

    def test_twenty_percent_stretch(self):
        assert stretched_resistance(50e3, 1.2) == pytest.approx(72e3, rel=1e-12)

    def test_compression_rejected(self):
        with pytest.raises(ValueError):
            stretched_resistance(100e3, 0.99)

    def test_zero_rest_rejected(self):
        with pytest.raises(ValueError, match="^rest resistance must be positive$"):
            stretched_resistance(0.0, 1.5)

    def test_quadratic_and_monotone(self):
        rest = 80e3
        ratios = [1.0 + 0.01 * i for i in range(60)]
        values = [stretched_resistance(rest, r) for r in ratios]
        for r, v in zip(ratios, values):
            assert v / rest == pytest.approx(r * r, rel=1e-12)
        assert all(b > a for a, b in zip(values, values[1:]))


class TestFabricDeltaR:
    def test_no_load(self):
        assert fabric_delta_r(FabricModel(), 0.0) == 0.0

    def test_full_scale(self):
        model = FabricModel(full_scale_force=1.0)
        assert fabric_delta_r(model, 1.0) == pytest.approx(35e3, rel=1e-12)

    def test_linear_midpoint(self):
        model = FabricModel(full_scale_force=1.0)
        assert fabric_delta_r(model, 0.5) == pytest.approx(17.5e3, rel=1e-12)

    def test_saturates_beyond_full_scale(self):
        model = FabricModel(full_scale_force=1.0)
        top = model.rest_resistance * model.max_fractional_delta
        for force in (1.0, 1.5, 10.0):
            assert fabric_delta_r(model, force) == top

    def test_monotone_nondecreasing_from_zero(self):
        model = FabricModel()
        forces = [0.05 * i for i in range(100)]
        deltas = [fabric_delta_r(model, f) for f in forces]
        assert deltas[0] == 0.0
        assert all(b >= a for a, b in zip(deltas, deltas[1:]))

    def test_negative_force_rejected(self):
        with pytest.raises(ValueError):
            fabric_delta_r(FabricModel(), -0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FabricModel(rest_resistance=0.0)
        with pytest.raises(ValueError):
            FabricModel(max_fractional_delta=1.5)
        with pytest.raises(ValueError):
            FabricModel(full_scale_force=0.0)


class TestElementResistance:
    model = ElementModel(
        rest_resistance=1e6, trigger_threshold=0.1,
        active_signal_delta=0.2, saturation_force=0.3,
    )

    def test_at_rest(self):
        assert element_resistance(self.model, 0.0) == 1e6

    def test_negative_force_rejected(self):
        with pytest.raises(ValueError, match="^force must be non-negative$"):
            element_resistance(ElementModel(), -0.1)

    def test_triggered(self):
        assert element_resistance(self.model, 0.15) == pytest.approx(1.2e6, rel=1e-12)

    def test_threshold_is_inclusive(self):
        assert element_resistance(self.model, 0.1) == pytest.approx(1.2e6, rel=1e-12)

    def test_saturated_reads_near_open(self):
        assert element_resistance(self.model, 0.5) == pytest.approx(100e6, rel=1e-12)
        assert SATURATION_RESISTANCE_FACTOR == 100.0

    def test_never_below_rest(self):
        forces = [0.001 * i for i in range(1200)]
        assert all(
            element_resistance(self.model, f) >= self.model.rest_resistance
            for f in forces
        )

    def test_rest_resistance_bounds(self):
        with pytest.raises(ValueError):
            ElementModel(rest_resistance=0.5e6)
        with pytest.raises(ValueError):
            ElementModel(rest_resistance=3e6)

    def test_default_quartet(self):
        elements = default_elements()
        assert len(elements) == 4
        assert [e.trigger_threshold for e in elements] == [0.10, 0.10, 0.15, 0.20]
        assert all(1e6 <= e.rest_resistance <= 2e6 for e in elements)


def make_scenario():
    return LoadScenario((
        LoadStep(0.0, 0.0, frozenset()),
        LoadStep(1.0, 0.196, frozenset({1})),
        LoadStep(2.0, 0.2, frozenset({1, 2})),
        LoadStep(3.0, 0.0, frozenset()),
    ))


class TestLoadScenario:
    def test_zero_order_hold(self):
        scenario = make_scenario()
        assert scenario.at(0.5) == (0.0, frozenset())
        assert scenario.at(1.0) == (0.196, frozenset({1}))
        assert scenario.at(1.999) == (0.196, frozenset({1}))
        assert scenario.at(2.5) == (0.2, frozenset({1, 2}))
        assert scenario.at(99.0) == (0.0, frozenset())

    def test_before_start_rejected(self):
        with pytest.raises(ValueError):
            make_scenario().at(-0.1)

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            LoadScenario((
                LoadStep(0.0, 0.0, frozenset()),
                LoadStep(0.0, 0.1, frozenset({1})),
            ))

    def test_force_needs_quadrant(self):
        with pytest.raises(ValueError):
            LoadStep(0.0, 0.5, frozenset())

    def test_bad_quadrant_rejected(self):
        with pytest.raises(ValueError):
            LoadStep(0.0, 0.5, frozenset({5}))


class TestApplyLoad:
    fabric = FabricModel(full_scale_force=1.0)
    elements = default_elements()

    def test_no_load_everywhere(self):
        scenario = LoadScenario((LoadStep(0.0, 0.0, frozenset()),))
        delta, resistances = apply_load(scenario, self.fabric, self.elements, 0.0)
        assert delta == 0.0
        assert resistances == tuple(e.rest_resistance for e in self.elements)

    def test_single_quadrant_press(self):
        scenario = LoadScenario((LoadStep(0.0, 0.196, frozenset({1})),))
        delta, resistances = apply_load(scenario, self.fabric, self.elements, 0.0)
        assert delta == fabric_delta_r(self.fabric, 0.196)
        assert resistances[0] > self.elements[0].rest_resistance
        for idx in (1, 2, 3):
            assert resistances[idx] == self.elements[idx].rest_resistance

    def test_line_press_triggers_both(self):
        scenario = LoadScenario((LoadStep(0.0, 0.2, frozenset({1, 2})),))
        _, resistances = apply_load(scenario, self.fabric, self.elements, 0.0)
        assert resistances[0] > self.elements[0].rest_resistance
        assert resistances[1] > self.elements[1].rest_resistance
        assert resistances[2] == self.elements[2].rest_resistance
        assert resistances[3] == self.elements[3].rest_resistance

    def test_wrong_element_count_rejected(self):
        scenario = LoadScenario((LoadStep(0.0, 0.0, frozenset()),))
        with pytest.raises(ValueError):
            apply_load(scenario, self.fabric, self.elements[:3], 0.0)

    def test_disjoint_quadrants_trigger_disjoint_elements(self):
        # exhaustive: every one of the 16 quadrant subsets
        force = 0.5  # above every element threshold
        for subset in itertools.chain.from_iterable(
            itertools.combinations((1, 2, 3, 4), n) for n in range(5)
        ):
            quadrants = frozenset(subset)
            scenario = LoadScenario((
                LoadStep(0.0, force if quadrants else 0.0, quadrants),
            ))
            _, resistances = apply_load(scenario, self.fabric, self.elements, 0.0)
            triggered = {
                q for q, r, e in zip((1, 2, 3, 4), resistances, self.elements)
                if r > e.rest_resistance
            }
            assert triggered == set(quadrants)


class TestScenarioCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenario.csv"
        scenario = make_scenario()
        save_scenario(path, scenario)
        assert load_scenario(path) == scenario

    def test_quadrant_list_syntax(self, tmp_path):
        path = tmp_path / "scenario.csv"
        path.write_text("t,force_n,quadrants\n0.0,0.0,\n1.0,0.3,1+3\n")
        scenario = load_scenario(path)
        assert scenario.at(1.5) == (0.3, frozenset({1, 3}))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "scenario.csv"
        path.write_text("time,force,quads\n0.0,0.0,\n")
        with pytest.raises(ParseError):
            load_scenario(path)

    def test_bad_quadrant_token_names_line(self, tmp_path):
        path = tmp_path / "scenario.csv"
        path.write_text("t,force_n,quadrants\n0.0,0.0,\n1.0,0.3,9\n")
        with pytest.raises(ParseError, match="line 3"):
            load_scenario(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "scenario.csv"
        path.write_text("t,force_n,quadrants\n0.0,abc,\n")
        with pytest.raises(ParseError, match="line 2"):
            load_scenario(path)

    def test_each_force_and_quadrant_spelling_is_read_once(self, tmp_path):
        # steps share one float per force spelling and one set per quadrant
        # spelling; -0.0 keeps its sign
        path = tmp_path / "scenario.csv"
        path.write_text("t,force_n,quadrants\n0,0.0,\n1,0.5,1+2\n2,0.0,\n3,0.5,1+2\n"
                        "4,-0.0,\n5,0,\n")
        steps = load_scenario(path).steps
        assert steps[0].force is steps[2].force and steps[1].force is steps[3].force
        assert steps[0].quadrants is steps[2].quadrants is steps[4].quadrants
        assert steps[1].quadrants is steps[3].quadrants
        assert [repr(step.force) for step in steps[4:]] == ["-0.0", "0.0"]
