"""Regression gate: the simulated sample stream keeps its exact bytes.

Each case runs the ``tactsim simulate`` command on a seeded scenario and
compares the sha256 of the stream it writes with a digest recorded from
the original per-tick implementation. The cases
cover several seeds, the two published gains and one off-table gain,
volts and counts, 8- and 10-bit ADCs, an unequal-arm fabric bridge, and
scenarios whose tick counts sit at, just below and just above the
simulator's block size.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from tactsim import AdcConfig, LoadScenario, LoadStep, default_config, save_scenario
from tactsim.cli import cmd_simulate

RATE = 9.6

#: Forces that land on every branch of the chain: below every element
#: threshold, on and between thresholds, on and past the element
#: saturation force, and past the fabric's full-scale force.
FORCES = (0.0, 0.0, 0.05, 0.1, 0.12, 0.15, 0.3, 0.6, 1.0, 1.5, 2.2, 4.0)


def random_scenario(seed: int, ticks: int, steps: int) -> LoadScenario:
    """Scenario lasting exactly ``ticks`` ticks, with about ``steps`` steps.

    Half of the interior steps sit exactly on a tick time and half
    between ticks, so the zero-order hold is exercised on both sides.
    """
    rnd = random.Random(seed)
    last = ticks - 1
    on_grid = sorted(rnd.sample(range(1, last), min(steps // 2, last - 1)))
    times = {k / RATE for k in on_grid}
    times |= {rnd.uniform(0.0, last / RATE) for _ in range(steps - len(times))}
    times = sorted(t for t in times if 0.0 < t < last / RATE)
    timeline = [0.0, *times, last / RATE]
    result = []
    for t in timeline:
        force = rnd.choice(FORCES)
        quadrants = frozenset(q for q in (1, 2, 3, 4) if rnd.random() < 0.5)
        if force > 0 and not quadrants:
            quadrants = frozenset({rnd.randint(1, 4)})
        result.append(LoadStep(t, force, quadrants))
    return LoadScenario(tuple(result))


def _config(gain=41.36, bits=8, units="volts", **bridge):
    base = default_config(signal_units=units)
    return replace(
        base,
        bridge=replace(base.bridge, amplifier_gain=gain, **bridge),
        adc=AdcConfig(bits=bits),
    )


# name -> (config, seed, ticks, steps)
CASES = {
    "gain41_volts_8bit_seed0": (_config(), 0, 300, 40),
    "gain22_counts_8bit_seed7": (_config(gain=22.0, units="counts"), 7, 500, 60),
    "gain120_10bit_low_rail_seed11": (
        _config(gain=120.0, bits=10, supply_voltage=3.3, rail_high=4.5), 11, 400, 50),
    "gain22_unequal_arms_10bit_seed5": (
        _config(gain=22.0, bits=10, r1=200e3, r2=100e3, r3=200e3, rx_rest=100e3),
        5, 350, 30),
    "gain5_noise5pct_counts_seed9": (
        _config(gain=5.0, units="counts", noise_fraction=0.05), 9, 300, 40),
    "block_minus_one_seed1": (_config(), 1, 1023, 80),
    "block_exact_seed2": (_config(gain=22.0), 2, 1024, 80),
    "block_plus_one_counts_seed3": (_config(units="counts"), 3, 1025, 80),
}

DIGESTS = {
    # Recorded from the per-tick implementation this kernel replaced.
    "block_exact_seed2": "4167b4105915139173f5b60e8a207ac3499c4d676562f0b946b172cc8c3d5db1",
    "block_minus_one_seed1": "900ad39c4489d44145e90cbb806b9d86d1c63e747e1e0e7016a790d6455636af",
    "block_plus_one_counts_seed3": "221c24b25cc5ee2020b71733799eddb62972ba305fce6e2fa4dea3674a8c774d",
    "gain120_10bit_low_rail_seed11": "f39eb9b8ec052e35ba3a77ef67690450b6e868f91043bb7458274fb8a0ec37d4",
    "gain22_counts_8bit_seed7": "27b0807227bfb9a5a39e9372cbde8bd93da40756e44e67122b84bd0145325670",
    "gain5_noise5pct_counts_seed9": "ea82f6c458c7b2d62d4b421f6898ad43318258e5330ec7cdc16269d1af11d1c4",
    "gain22_unequal_arms_10bit_seed5": "f773151f2eb014165f27763c8c7de7be2dbc6994fe54e5a41ca78f1875dfa156",
    "gain41_volts_8bit_seed0": "ede513b9b8bd419a022c8d5bce55af489d2571b237c8c46c63fc61807999a520",
}


def stream_text(name: str, tmp_path) -> str:
    """The stream ``tactsim simulate`` writes for one case."""
    cfg, seed, ticks, steps = CASES[name]
    scenario_path, stream_path = tmp_path / "scenario.csv", tmp_path / "stream.csv"
    save_scenario(scenario_path, random_scenario(seed, ticks, steps))
    cmd_simulate(replace(cfg, seed=seed), scenario_path, stream_path)
    return stream_path.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_digest(name, tmp_path):
    text = stream_text(name, tmp_path)
    assert text.count("\n") == CASES[name][2]
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]

