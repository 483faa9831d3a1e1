from itertools import tee

import pytest

from tactsim import (
    LoadScenario,
    LoadStep,
    capture_protocol_dataset,
    cross_validate,
    default_config,
    estimate_frames,
    fit_polynomial,
    format_frame,
    format_sample_line,
    gw_to_newtons,
    make_estimator_config,
    read_samples,
)

import reference

CHAIN_SEED = 7


@pytest.fixture(scope="session")
def cfg():
    """Reference deployment: gain 41.36, 1% noise, 8-bit 9.6 Hz ADC."""
    return default_config()


@pytest.fixture(scope="session")
def chain_dataset(cfg):
    """Bench-protocol calibration data captured through the simulated chain."""
    return capture_protocol_dataset(cfg, seed=CHAIN_SEED)


@pytest.fixture(scope="session")
def chain_fit(chain_dataset):
    report = cross_validate(chain_dataset, seed=CHAIN_SEED)
    model = fit_polynomial(
        chain_dataset.signals, chain_dataset.forces, report.selected_order
    )
    return report, model


@pytest.fixture(scope="session")
def chain_model(chain_fit):
    return chain_fit[1]


@pytest.fixture(scope="session")
def est_cfg(cfg, chain_model):
    return make_estimator_config(cfg, chain_model)


def accuracy_scenario():
    """20, 50, then 100 gw pressed on quadrant 1, five seconds each."""
    return LoadScenario((
        LoadStep(0.0, 0.0, frozenset()),
        LoadStep(1.0, gw_to_newtons(20), frozenset({1})),
        LoadStep(6.0, gw_to_newtons(50), frozenset({1})),
        LoadStep(11.0, gw_to_newtons(100), frozenset({1})),
        LoadStep(16.0, 0.0, frozenset()),
    ))


def replay_scenario():
    """Presses on quadrants 1 through 4 with an overload on quadrant 2."""
    return LoadScenario((
        LoadStep(0.0, 0.0, frozenset()),
        LoadStep(1.0, 0.4, frozenset({1})),
        LoadStep(3.0, 0.0, frozenset()),
        LoadStep(4.0, 2.0, frozenset({2})),
        LoadStep(6.0, 0.0, frozenset()),
        LoadStep(7.0, 0.4, frozenset({3})),
        LoadStep(9.0, 0.0, frozenset()),
        LoadStep(10.0, 0.4, frozenset({4})),
        LoadStep(12.0, 0.0, frozenset()),
    ))


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap method ``name`` of ``owner``; return the list its calls' arguments go to."""
    calls, method = [], getattr(owner, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def reference_replay(cfg, est_cfg, lines, out) -> None:
    """Write each frame of ``estimate_frames`` over ``read_samples(lines)``,
    asserting first that it is ``reference.frames``' line of its sample;
    then raise its error, if any."""
    samples, checked = tee(read_samples(lines))
    expected = reference.frames(cfg, est_cfg, (format_sample_line(s) + "\n" for s in samples))
    for frame in estimate_frames(cfg, est_cfg, checked):
        line = format_frame(frame) + "\n"
        assert line == next(expected)
        out.write(line)
