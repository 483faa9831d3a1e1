"""Seeded workload generator for the tactsim benchmark.

Every input file a workload feeds the ``tactsim`` CLI is made here from
the workload seed alone: load scenarios and the config file are written
by this module, and calibration datasets are captured through the
library's simulated chain with capture seeds drawn from the same seed.
The program only ever sees the generated files.

Scenario sizes do not depend on the seed. Step spacings are a shuffled,
evenly spaced grid with a fixed total, so every seed gives the same
number of steps and ticks; the seed changes the order of the spacings,
the forces, the contact mix and every noise seed. That keeps one run
comparable with the next.
"""

import math
import random
from dataclasses import dataclass

#: The seed goldens, tests and examples use.
CANONICAL_SEED = 1
#: Held out: never used while tuning the benchmark or a change. A claim
#: of a gain is repeated on this seed before it is accepted.
HELD_OUT_SEED = 7411

GAIN_LOW = 22.0
GAIN_DEFAULT = 41.36
SAMPLE_RATE = 9.6
ADC_MAX_CODE = 255

#: Sensing range (N) per published gain; ``report`` counts a frame as
#: saturated when its raw force reaches the range.
SENSING_RANGE = {GAIN_LOW: 1.5, GAIN_DEFAULT: 1.0}

#: Quadrant sets by contact type on the 2x2 element grid (1 2 / 3 4).
CONTACTS = {
    "point": ((1,), (2,), (3,), (4,)),
    "line": ((1, 2), (3, 4), (1, 3), (2, 4)),
    "area": ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 3, 4)),
}

#: The bench weight protocol (gram-weight), as in the calibration module.
PROTOCOL_WEIGHTS_GW = (5, 10, 20, 25, 35, 45, 50, 55, 65, 75, 85, 100)

CONFIG_22 = "gain22.cfg"


@dataclass(frozen=True)
class Step:
    time: float
    force: float
    quadrants: tuple
    contact: str


@dataclass(frozen=True)
class Command:
    """One ``tactsim`` invocation, with paths relative to its work dir."""

    label: str
    args: tuple
    stdin: str = None
    stdout: str = None
    outputs: tuple = ()


@dataclass(frozen=True)
class Plan:
    """Files to write and commands to run for one pass of a workload."""

    scenario: tuple
    datasets: tuple  # (file name, gain, capture seed, weights)
    commands: tuple
    gain: float

    @property
    def simulated_s(self) -> float:
        return self.scenario[-1].time

    @property
    def ticks(self) -> int:
        return int(math.floor(self.simulated_s * SAMPLE_RATE + 1e-9)) + 1

    def record(self) -> dict:
        """Workload shape recorded beside every result."""
        mix = {label: 0 for label in ("none", "point", "line", "area")}
        for step in self.scenario:
            mix[step.contact] += 1
        return {
            "steps": len(self.scenario),
            "ticks": self.ticks,
            "simulated_s": self.simulated_s,
            "contact_mix": mix,
            "calibrate_sessions": sum(c.label == "calibrate" for c in self.commands),
        }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (rng, minimal) -> Plan


def _spacings(rng, count, low, total):
    """``count`` spacings >= ``low`` summing to ``total``, shuffled.

    An evenly spaced grid from ``low`` to ``2*total/count - low`` keeps
    the total exact for every seed.
    """
    high = 2.0 * total / count - low
    grid = [low + (high - low) * (j + 0.5) / count for j in range(count)]
    rng.shuffle(grid)
    return grid


def _timeline(spacings, total):
    times, t = [0.0], 0.0
    for d in spacings[:-1]:
        t += d
        times.append(round(t, 6))
    times.append(float(total))
    return times


def _contact(rng, mix):
    """A contact type and its quadrants, or ``("none", ())`` for rest."""
    roll = rng.random()
    for label, share in mix:
        if roll < share:
            return label, rng.choice(CONTACTS[label])
        roll -= share
    return "none", ()


def _press(rng, time, low, high, mix):
    contact, quadrants = _contact(rng, mix)
    if contact == "none":
        return Step(time, 0.0, (), "none")
    force = round(low + (high - low) * rng.random(), 4)
    return Step(time, force, quadrants, contact)


def _one_tick(rng):
    return (_press(rng, 0.0, 0.05, 1.0, (("point", 1.0),)),)


def _seeds(rng, count):
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _dataset(name, gain, capture_seed, minimal):
    # The set-up dataset: one sample at each of ten distinct weights, so
    # every 5-fold training split still fits an order-5 polynomial.
    weights = (
        tuple((w, 1) for w in PROTOCOL_WEIGHTS_GW[:10]) if minimal else None
    )
    return (name, gain, capture_seed, weights)


def _gain_args(gain):
    return ("--config", CONFIG_22) if gain == GAIN_LOW else ()


def _calibrate(dataset, model, table, seed, gain):
    return Command(
        "calibrate",
        ("calibrate", dataset, "-o", model, "--seed", str(seed), *_gain_args(gain)),
        stdout=table,
        outputs=(model, table),
    )


def _hold_hour(rng, minimal):
    mix = (("point", 0.35), ("line", 0.3), ("area", 0.2))  # rest otherwise
    if minimal:
        scenario = _one_tick(rng)
    else:
        times = _timeline(_spacings(rng, 124, 20.0, 3600.0), 3600.0)
        scenario = tuple(_press(rng, t, 0.05, 2.0, mix) for t in times[:-1])
        scenario += (Step(times[-1], 0.0, (), "none"),)
    capture_seed, cal_seed, sim_seed = _seeds(rng, 3)
    gain = _gain_args(GAIN_LOW)
    return Plan(
        scenario=scenario,
        datasets=(_dataset("dataset.csv", GAIN_LOW, capture_seed, minimal),),
        commands=(
            _calibrate("dataset.csv", "model.json", "cv_table.txt", cal_seed, GAIN_LOW),
            Command("simulate", ("simulate", "scenario.csv", "--seed", str(sim_seed), *gain),
                    stdout="stream.csv", outputs=("stream.csv",)),
            Command("estimate", ("estimate", "-", "-m", "model.json", *gain),
                    stdin="stream.csv", stdout="frames.csv", outputs=("frames.csv",)),
            Command("report", ("report", "frames.csv", "--truth", "scenario.csv",
                               "--rmse", *gain),
                    stdout="report.txt", outputs=("report.txt",)),
        ),
        gain=GAIN_LOW,
    )


def _file_replay(sim_seed, model):
    return (
        Command("simulate", ("simulate", "scenario.csv", "-o", "stream.csv",
                             "--seed", str(sim_seed)),
                outputs=("stream.csv",)),
        Command("estimate", ("estimate", "stream.csv", "-m", model, "-o", "frames.csv"),
                outputs=("frames.csv",)),
        Command("report", ("report", "frames.csv", "--truth", "scenario.csv", "--rmse"),
                stdout="report.txt", outputs=("report.txt",)),
    )


def _tap_storm(rng, minimal):
    mix = (("point", 0.5), ("line", 0.3), ("area", 0.2))
    if minimal:
        scenario = _one_tick(rng)
    else:
        times = _timeline(_spacings(rng, 1999, 0.3, 1999.0), 1999.0)
        scenario = tuple(
            _press(rng, t, 0.05, 1.5, mix) if i % 2 else Step(t, 0.0, (), "none")
            for i, t in enumerate(times)
        )
    capture_seed, cal_seed, sim_seed = _seeds(rng, 3)
    return Plan(
        scenario=scenario,
        datasets=(_dataset("dataset.csv", GAIN_DEFAULT, capture_seed, minimal),),
        commands=(
            _calibrate("dataset.csv", "model.json", "cv_table.txt", cal_seed, GAIN_DEFAULT),
            *_file_replay(sim_seed, "model.json"),
        ),
        gain=GAIN_DEFAULT,
    )


def _calibrate_campaign(rng, minimal):
    datasets, commands = [], []
    for gain in (GAIN_LOW, GAIN_DEFAULT):
        for capture in ("a", "b"):
            tag = f"{int(gain)}{capture}"
            capture_seed, cal_seed = _seeds(rng, 2)
            datasets.append(_dataset(f"dataset_{tag}.csv", gain, capture_seed, minimal))
            commands.append(_calibrate(f"dataset_{tag}.csv", f"model_{tag}.json",
                                       f"cv_table_{tag}.txt", cal_seed, gain))
    # A short validation replay of the protocol weights with the last
    # model, so the session ends the way a bench calibration does.
    mix = (("point", 0.5), ("line", 0.3), ("area", 0.2))
    if minimal:
        scenario = _one_tick(rng)
    else:
        scenario = []
        for index, weight in enumerate(PROTOCOL_WEIGHTS_GW):
            contact, quadrants = _contact(rng, mix)
            scenario.append(Step(10.0 * index, round(weight * 0.0098, 6),
                                 quadrants, contact))
            scenario.append(Step(10.0 * index + 5.0, 0.0, (), "none"))
        scenario.append(Step(120.0, 0.0, (), "none"))
        scenario = tuple(scenario)
    (sim_seed,) = _seeds(rng, 1)
    commands.extend(_file_replay(sim_seed, commands[-1].outputs[0]))
    return Plan(scenario=scenario, datasets=tuple(datasets), commands=tuple(commands),
                gain=GAIN_DEFAULT)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hold_hour",
            "one hour of 20-40 s presses up to 2 N at gain 22 via --config and stdin: "
            "the per-tick chain, stream I/O and estimator dominate",
            _hold_hour,
        ),
        Workload(
            "tap_storm",
            "2,000 steps 0.3-1.7 s apart at gain 41.36 with -o files: the linear "
            "scenario lookup dominates simulate and report --truth",
            _tap_storm,
        ),
        Workload(
            "calibrate_campaign",
            "four calibrate sessions (gains 22 and 41.36, two capture seeds) and a "
            "short validation replay: cross-validation and least squares dominate",
            _calibrate_campaign,
        ),
    )
}


def make_plan(workload: str, seed: int, minimal: bool = False) -> Plan:
    """The inputs and commands of ``workload`` for ``seed``.

    ``minimal`` gives the smallest valid inputs of the same shape (one
    tick per replay, ten samples per dataset), used to time set-up.
    """
    rng = random.Random(f"{workload}:{seed}:{'minimal' if minimal else 'full'}")
    return WORKLOADS[workload].build(rng, minimal)


def scenario_csv(scenario) -> str:
    lines = ["t,force_n,quadrants"]
    for step in scenario:
        quadrants = "+".join(str(q) for q in sorted(step.quadrants))
        lines.append(f"{step.time!r},{step.force!r},{quadrants}")
    return "\n".join(lines) + "\n"


def write_inputs(plan: Plan, workdir, tactsim) -> dict:
    """Write every input file of ``plan`` into ``workdir``.

    ``tactsim`` is the imported package, used to capture calibration
    datasets through the simulated chain. Returns the written paths by
    file name.
    """
    paths = {}

    def put(name, text):
        path = workdir / name
        path.write_text(text)
        paths[name] = path

    put("scenario.csv", scenario_csv(plan.scenario))
    put(CONFIG_22, f"gain = {GAIN_LOW!r}\n")
    base = tactsim.default_config()
    for name, gain, capture_seed, weights in plan.datasets:
        cfg = tactsim.load_config(workdir / CONFIG_22) if gain == GAIN_LOW else base
        data = tactsim.pipeline.capture_protocol_dataset(cfg, seed=capture_seed,
                                                         weights=weights)
        tactsim.save_dataset(workdir / name, data)
        paths[name] = workdir / name
    return paths
