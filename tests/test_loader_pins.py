"""Results and messages of the config, scenario and dataset loaders.

Each case is an input text and what loading it gives: either a result
or the error class and message. Config results are the leaves that
differ from ``default_config()``, each as its ``repr`` (so ``8`` and
``8.0`` differ); scenario and dataset results are their rows. The
expectations were recorded from the loaders as they stood before they
were moved onto one key table and one CSV table reader, and must hold
unedited after it.
"""

import dataclasses

import pytest

from tactsim import ToolkitError, default_config, load_dataset, load_scenario
from tactsim.config import parse_config_text
from tactsim.sensor import format_quadrants


def _leaves(obj, prefix=""):
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name), f"{prefix}{f.name}.")
    elif isinstance(obj, tuple) and obj and dataclasses.is_dataclass(obj[0]):
        for index, item in enumerate(obj):
            yield from _leaves(item, f"{prefix}{index}.")
    else:
        yield prefix[:-1], repr(obj)


def _failure(exc, path=None):
    message = str(exc)
    if path is not None:
        message = message.replace(str(path), "{path}")
    return type(exc).__name__, message


def config_outcome(text):
    try:
        cfg = parse_config_text(text, source="x.cfg")
    except ToolkitError as exc:
        return _failure(exc)
    base = dict(_leaves(default_config()))
    leaves = dict(_leaves(cfg))
    assert leaves.keys() == base.keys()
    return {key: value for key, value in leaves.items() if base[key] != value}


def scenario_outcome(tmp_path, text):
    path = tmp_path / "scenario.csv"
    path.write_text(text)
    try:
        scenario = load_scenario(path)
    except ToolkitError as exc:
        return _failure(exc, path)
    return [(s.time, s.force, format_quadrants(s.quadrants)) for s in scenario.steps]


def dataset_outcome(tmp_path, text):
    path = tmp_path / "dataset.csv"
    path.write_text(text)
    try:
        dataset = load_dataset(path)
    except ToolkitError as exc:
        return _failure(exc, path)
    weights = None if dataset.weights_gw is None else dataset.weights_gw.tolist()
    return dataset.signals.tolist(), dataset.forces.tolist(), weights


CONFIG_CASES = [
    ('',
     {}),
    ('# only a comment\n\n   \n',
     {}),
    ('gain = 22\n',
     {'bridge.amplifier_gain': '22.0'}),
    ('gain=22 # the low-gain board\n',
     {'bridge.amplifier_gain': '22.0'}),
    ('  supply_voltage =  3.3  \nrail_high = 3.3\nadc_full_scale = 3.3\n',
     {'bridge.supply_voltage': '3.3', 'bridge.rail_high': '3.3', 'adc.full_scale': '3.3'}),
    ('adc_bits = 10\nsample_rate = 20\n',
     {'adc.bits': '10', 'adc.sample_rate': '20.0'}),
    ('fabric_rest = 120000\n',
     {'fabric.rest_resistance': '120000.0', 'bridge.r1': '120000.0', 'bridge.r2': '120000.0', 'bridge.r3': '120000.0', 'bridge.rx_rest': '120000.0'}),
    ('fabric_max_delta = 0.5\nfabric_full_scale_force = 2\n',
     {'fabric.max_fractional_delta': '0.5', 'fabric.full_scale_force': '2.0'}),
    ('element_rest = 1e6, 1.1e6 ,1.2e6,2e6\nelement_threshold_force = 0.2,0.2,0.2,0.2\n',
     {'elements.0.trigger_threshold': '0.2', 'elements.1.rest_resistance': '1100000.0', 'elements.1.trigger_threshold': '0.2', 'elements.2.rest_resistance': '1200000.0', 'elements.2.trigger_threshold': '0.2'}),
    ('element_signal_delta = 0.5\nelement_saturation_force = 2\n',
     {'elements.0.active_signal_delta': '0.5', 'elements.0.saturation_force': '2.0', 'elements.1.active_signal_delta': '0.5', 'elements.1.saturation_force': '2.0', 'elements.2.active_signal_delta': '0.5', 'elements.2.saturation_force': '2.0', 'elements.3.active_signal_delta': '0.5', 'elements.3.saturation_force': '2.0'}),
    ('filter_window = 8\nkfold = 10\nrepeats = 3\nseed = 42\nsignal_units = counts\n',
     {'filter_window': '8', 'kfold': '10', 'repeats': '3', 'seed': '42', 'signal_units': "'counts'"}),
    ('gain = 30\ngain = 22\n',
     {'bridge.amplifier_gain': '22.0'}),
    ('noise_fraction = 0\nrail_low = -5\n',
     {'bridge.noise_fraction': '0.0', 'bridge.rail_low': '-5.0'}),
    ('signal_units = volts\nseed = 0\n',
     {}),
    ('gian = 22\n',
     ('ConfigError', "x.cfg line 1: unknown key 'gian'")),
    ('= 5\n',
     ('ConfigError', "x.cfg line 1: unknown key ''")),
    ('gain 22\n',
     ('ConfigError', 'x.cfg line 1: expected key = value')),
    ('gain = fast\n',
     ('ConfigError', "x.cfg line 1: could not convert string to float: 'fast'")),
    ('gain = \n',
     ('ConfigError', "x.cfg line 1: could not convert string to float: ''")),
    ('gain = 22 = 3\n',
     ('ConfigError', "x.cfg line 1: could not convert string to float: '22 = 3'")),
    ('adc_bits = 8.5\n',
     ('ConfigError', "x.cfg line 1: invalid literal for int() with base 10: '8.5'")),
    ('seed = 1.5\n',
     ('ConfigError', "x.cfg line 1: invalid literal for int() with base 10: '1.5'")),
    ('element_rest = 1e6,1e6\n',
     ('ConfigError', 'x.cfg line 1: element_rest needs 4 comma-separated values')),
    ('element_rest = 1e6,1e6,1e6,1e6,1e6\n',
     ('ConfigError', 'x.cfg line 1: element_rest needs 4 comma-separated values')),
    ('element_rest = 1e6,,1e6,1e6\n',
     ('ConfigError', "x.cfg line 1: could not convert string to float: ''")),
    ('element_threshold_force = a,b,c,d\n',
     ('ConfigError', "x.cfg line 1: could not convert string to float: 'a'")),
    ('gain = 22\nunknown = 1\ngain = fast\n',
     ('ConfigError', "x.cfg line 2: unknown key 'unknown'")),
    ('gain = fast\nunknown = 1\n',
     ('ConfigError', "x.cfg line 1: could not convert string to float: 'fast'")),
    ('fabric_max_delta = 2.0\n',
     ('ConfigError', 'x.cfg: max_fractional_delta must be in (0, 1]')),
    ('fabric_rest = 0\n',
     ('ConfigError', 'x.cfg: fabric rest resistance must be positive')),
    ('fabric_full_scale_force = -1\n',
     ('ConfigError', 'x.cfg: full_scale_force must be positive')),
    ('element_rest = 5e5,1e6,1e6,1e6\n',
     ('ConfigError', 'x.cfg: element rest resistance must be within [1 MOhm, 2 MOhm]')),
    ('element_threshold_force = 0.1,0.1,0,0.1\n',
     ('ConfigError', 'x.cfg: trigger threshold must be positive')),
    ('element_signal_delta = 0\n',
     ('ConfigError', 'x.cfg: active_signal_delta must be positive')),
    ('element_saturation_force = 0.15\n',
     ('ConfigError', 'x.cfg: saturation force must exceed the trigger threshold')),
    ('gain = 0\n',
     ('ConfigError', 'x.cfg: amplifier gain must be positive')),
    ('noise_fraction = 1\n',
     ('ConfigError', 'x.cfg: noise_fraction must be in [0, 1)')),
    ('rail_low = 5\n',
     ('ConfigError', 'x.cfg: rail_low must be below rail_high')),
    ('adc_bits = 0\n',
     ('ConfigError', 'x.cfg: ADC needs at least 1 bit')),
    ('sample_rate = 0\n',
     ('ConfigError', 'x.cfg: sample rate must be positive')),
    ('adc_full_scale = -5\n',
     ('ConfigError', 'x.cfg: full scale must be positive')),
    ('adc_bits = 0\ngain = 0\nelement_signal_delta = 0\nfabric_rest = 0\n',
     ('ConfigError', 'x.cfg: fabric rest resistance must be positive')),
    ('adc_bits = 0\ngain = 0\nelement_signal_delta = 0\n',
     ('ConfigError', 'x.cfg: active_signal_delta must be positive')),
    ('sample_rate = 0\ngain = -1\n',
     ('ConfigError', 'x.cfg: amplifier gain must be positive')),
    ('sample_rate = 0\nkfold = 1\n',
     ('ConfigError', 'x.cfg: sample rate must be positive')),
]

SCENARIO_CASES = [
    ('t,force_n,quadrants\n0,0,\n1,0.5,1+2\n2,1.2,1+2+3+4\n',
     [(0.0, 0.0, ''), (1.0, 0.5, '1+2'), (2.0, 1.2, '1+2+3+4')]),
    (' T , Force_N ,QUADRANTS\n0,0,\n',
     [(0.0, 0.0, '')]),
    ('t,force_n,quadrants\n\n0,0,\n   \n1,0.3, 4 \n',
     [(0.0, 0.0, ''), (1.0, 0.3, '4')]),
    ('t,force_n,quadrants\n0,0,""\n1,0.5,"2+1"\n',
     [(0.0, 0.0, ''), (1.0, 0.5, '1+2')]),
    ('t,force_n,quadrants\n0,0,\n1,0.5,1+1\n',
     [(0.0, 0.0, ''), (1.0, 0.5, '1')]),
    ('t,force_n,quadrants\n-1,0,\n0,0.5,3\n',
     [(-1.0, 0.0, ''), (0.0, 0.5, '3')]),
    ('\n0,0,\n1,0.5,1\n',
     [(0.0, 0.0, ''), (1.0, 0.5, '1')]),
    ('   \n0,0,\n',
     [(0.0, 0.0, '')]),
    ('\nt,force_n,quadrants\n0,0,\n',
     ('ParseError', "line 2: could not convert string to float: 't'")),
    ('time,force,quadrants\n0,0,\n',
     ('ParseError', "line 1: expected header 't,force_n,quadrants'")),
    ('t,force_n\n0,0\n',
     ('ParseError', "line 1: expected header 't,force_n,quadrants'")),
    ('t,force_n,quadrants\n0,0\n',
     ('ParseError', 'line 2: expected 3 fields, got 2')),
    ('t,force_n,quadrants\n0,0,,x\n',
     ('ParseError', 'line 2: expected 3 fields, got 4')),
    ('t,force_n,quadrants\n0,0,\n1,0.2,1\n2,0.2\n',
     ('ParseError', 'line 4: expected 3 fields, got 2')),
    ('t,force_n,quadrants\n0,0.5,5\n',
     ('ParseError', "line 2: bad quadrant '5'")),
    ('t,force_n,quadrants\n0,0.5,1+\n',
     ('ParseError', "line 2: bad quadrant ''")),
    ('t,force_n,quadrants\n0,0.5,1+x\n',
     ('ParseError', "line 2: bad quadrant 'x'")),
    ('t,force_n,quadrants\nzero,0,\n',
     ('ParseError', "line 2: could not convert string to float: 'zero'")),
    ('t,force_n,quadrants\n0,heavy,1\n',
     ('ParseError', "line 2: could not convert string to float: 'heavy'")),
    ('t,force_n,quadrants\n0,0,\n,,\n',
     ('ParseError', "line 3: could not convert string to float: ''")),
    ('t,force_n,quadrants\nzero,0,9\n',
     ('ParseError', "line 2: could not convert string to float: 'zero'")),
    ('t,force_n,quadrants\n0,-1,1\n',
     ('ParseError', 'line 2: applied force must be non-negative')),
    ('t,force_n,quadrants\n0,0.5,\n',
     ('ParseError', 'line 2: a non-zero force needs at least one quadrant')),
    ('t,force_n,quadrants\n',
     ('ParseError', 'scenario needs at least one step')),
    ('',
     ('ParseError', 'scenario needs at least one step')),
    ('t,force_n,quadrants\n1,0,\n0,0,\n',
     ('ParseError', 'scenario times must be strictly increasing')),
    ('t,force_n,quadrants\n0,0,\n0,0.5,1\n',
     ('ParseError', 'scenario times must be strictly increasing')),
]

DATASET_CASES = [
    ('v,force_n\n0.1,0.0\n0.5,0.25\n',
     ([0.1, 0.5], [0.0, 0.25], None)),
    ('v,force_n,weight_gw\n0.1,0.0,0\n0.5,0.25,25.5\n',
     ([0.1, 0.5], [0.0, 0.25], [0.0, 25.5])),
    (' V ,FORCE_N\n 0.1 , 0.2 \n',
     ([0.1], [0.2], None)),
    ('v,force_n\n\n0.1,0\n  \n-0.2,-1\n',
     ([0.1, -0.2], [0.0, -1.0], None)),
    ('\n0.1,0\n0.2,0.1\n',
     ([0.1, 0.2], [0.0, 0.1], None)),
    ('\n0.1,0,5\n',
     ('ParseError', 'line 2: expected 2 fields, got 3')),
    ('volts,force\n0.1,0\n',
     ('ParseError', "line 1: expected header 'v,force_n' or 'v,force_n,weight_gw'")),
    ('v,force_n,weight\n0.1,0,5\n',
     ('ParseError', "line 1: expected header 'v,force_n' or 'v,force_n,weight_gw'")),
    ('v,force_n\n0.1\n',
     ('ParseError', 'line 2: expected 2 fields, got 1')),
    ('v,force_n,weight_gw\n0.1,0\n',
     ('ParseError', 'line 2: expected 3 fields, got 2')),
    ('v,force_n\n0.1,0\n0.2,0.1,3\n',
     ('ParseError', 'line 3: expected 2 fields, got 3')),
    ('v,force_n\n0.1,heavy\n',
     ('ParseError', "line 2: could not convert string to float: 'heavy'")),
    ('v,force_n,weight_gw\n0.1,0.5,x\n',
     ('ParseError', "line 2: could not convert string to float: 'x'")),
    ('v,force_n\n',
     ('ParseError', 'dataset {path} has no samples')),
    ('',
     ('ParseError', 'dataset {path} has no samples')),
]


@pytest.mark.parametrize("text, expected", CONFIG_CASES)
def test_config_text(text, expected):
    assert config_outcome(text) == expected


@pytest.mark.parametrize("text, expected", SCENARIO_CASES)
def test_scenario_file(tmp_path, text, expected):
    assert scenario_outcome(tmp_path, text) == expected


@pytest.mark.parametrize("text, expected", DATASET_CASES)
def test_dataset_file(tmp_path, text, expected):
    assert dataset_outcome(tmp_path, text) == expected
