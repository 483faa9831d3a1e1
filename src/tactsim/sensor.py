"""Forward model from applied load to layer resistances.

The sensor has two resistive layers. A conductive-fabric sheet spans the
whole pad and carries the force signal: its resistance rises with load
because stretching lengthens the conductive path while thinning its
cross-section. Four small conductive-rubber elements sit in a 2x2 grid
underneath and carry the location signal: each behaves as a force-
triggered switch whose coating resistance jumps when pressed and surges
toward open circuit under heavy load.

Everything here is pure and the model dataclasses are frozen, so they
can be shared freely between threads.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .errors import ParseError
from .streams import read_float, read_table, write_table

#: Multiple of the rest resistance used for the near-open regime of an
#: overloaded rubber element (stands in for "almost open circuit").
SATURATION_RESISTANCE_FACTOR = 100.0

#: Quadrant labels of the four position elements.
QUADRANTS = (1, 2, 3, 4)

#: The quadrants a step may press, as one set.
_ALL_QUADRANTS = frozenset(QUADRANTS)


@dataclass(frozen=True)
class FabricModel:
    """Force-measurement layer: conductive fabric, ~100 kOhm at rest.

    ``max_fractional_delta`` is the largest fractional resistance rise
    the fabric can produce (0.35 for the reference build), reached at
    ``full_scale_force`` and held there for any larger load. The default
    full-scale force is chosen so that the default 41.36x amplifier
    spans its 5 V rail right around the rated 1 N sensing range.
    """

    rest_resistance: float = 100e3
    max_fractional_delta: float = 0.35
    full_scale_force: float = 3.5

    def __post_init__(self):
        if not self.rest_resistance > 0:
            raise ValueError("fabric rest resistance must be positive")
        if not 0 < self.max_fractional_delta <= 1:
            raise ValueError("max_fractional_delta must be in (0, 1]")
        if not self.full_scale_force > 0:
            raise ValueError("full_scale_force must be positive")


@dataclass(frozen=True)
class ElementModel:
    """One position-detection element: conductive rubber, 1-2 MOhm at rest.

    The element is a threshold device, not a proportional sensor. Below
    ``trigger_threshold`` it sits at rest; between the threshold and
    ``saturation_force`` its resistance rises by ``active_signal_delta``
    (fractional); above the saturation force the ink coating is squeezed
    so thin that the element reads as near-open.
    """

    rest_resistance: float = 1.0e6
    trigger_threshold: float = 0.10
    active_signal_delta: float = 0.2
    saturation_force: float = 1.0

    def __post_init__(self):
        if not 1e6 <= self.rest_resistance <= 2e6:
            raise ValueError("element rest resistance must be within [1 MOhm, 2 MOhm]")
        if not self.trigger_threshold > 0:
            raise ValueError("trigger threshold must be positive")
        if not self.active_signal_delta > 0:
            raise ValueError("active_signal_delta must be positive")
        if not self.saturation_force > self.trigger_threshold:
            raise ValueError("saturation force must exceed the trigger threshold")


def default_elements() -> tuple:
    """Four elements with the spread of thresholds seen on real pads.

    Ink never coats the rubber perfectly evenly, so two elements trip
    near 0.1 N and the other two need 0.15 to 0.2 N.
    """
    rests = (1.0e6, 1.2e6, 1.5e6, 2.0e6)
    thresholds = (0.10, 0.10, 0.15, 0.20)
    return tuple(
        ElementModel(rest_resistance=r, trigger_threshold=t)
        for r, t in zip(rests, thresholds)
    )


@dataclass(frozen=True, slots=True)
class LoadStep:
    """One timeline point: from ``time`` onward, ``force`` newtons are
    applied to every quadrant in ``quadrants`` (zero-order hold).

    Slotted, so that a step holds its three fields and no ``__dict__``:
    a long scenario costs a small constant per step.
    """

    time: float
    force: float
    quadrants: frozenset

    def __post_init__(self):
        if not (math.isfinite(self.time) and math.isfinite(self.force)):
            raise ValueError("scenario time and force must be finite")
        if self.force < 0:
            raise ValueError("applied force must be non-negative")
        if self.force > 0 and not self.quadrants:
            raise ValueError("a non-zero force needs at least one quadrant")
        if not self.quadrants <= _ALL_QUADRANTS:
            raise ValueError(f"quadrants must be a subset of {set(QUADRANTS)}")


@dataclass(frozen=True)
class LoadScenario:
    """Ground-truth load timeline used to drive the simulator.

    ``step_times`` holds the step times in order, derived from ``steps``.
    """

    steps: tuple
    step_times: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.steps:
            raise ValueError("scenario needs at least one step")
        times = tuple(s.time for s in self.steps)
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("scenario times must be strictly increasing")
        object.__setattr__(self, "step_times", times)

    @property
    def start_time(self) -> float:
        return self.steps[0].time

    @property
    def end_time(self) -> float:
        return self.steps[-1].time

    def at(self, time: float):
        """Load at ``time``: ``(force, quadrants)`` with zero-order hold.

        Times past the last step hold the last step's value; times
        before the first step are outside the scenario.
        """
        if time < self.start_time:
            raise ValueError(
                f"time {time} s is before the scenario start ({self.start_time} s)"
            )
        step = self.steps[bisect_right(self.step_times, time) - 1]
        return step.force, step.quadrants

    def runs(self, times):
        """``(step, start, end)`` for each run of ``times`` on one step, in order.

        ``times`` ascend, none before the start: ``times[start:end]`` are
        the times that ``at`` finds on ``steps[step]``, and two adjacent
        runs are never on the same step. Each run costs two bisections.
        """
        step_times, last = self.step_times, len(self.steps) - 1
        start = step = 0
        while start < len(times):
            step = bisect_right(step_times, times[start], step) - 1
            end = bisect_left(times, step_times[step + 1], start) if step < last else len(times)
            yield step, start, end
            start = end


def stretched_resistance(rest: float, stretch_ratio: float) -> float:
    """Resistance of a conductor stretched by ``stretch_ratio``.

    The conductive path keeps constant volume, so length scales by the
    ratio and cross-section by its inverse: resistance goes as the
    square of the stretch. Compression is outside the model.
    """
    if rest <= 0:
        raise ValueError("rest resistance must be positive")
    if stretch_ratio < 1:
        raise ValueError(f"stretch ratio must be >= 1, got {stretch_ratio}")
    return rest * stretch_ratio * stretch_ratio


def fabric_delta_r(model: FabricModel, force: float) -> float:
    """Fabric resistance rise for an applied force, in ohms.

    Linear up to the full-scale force, flat beyond it (the fabric's
    fractional rise tops out at ``max_fractional_delta``).
    """
    if force < 0:
        raise ValueError("force must be non-negative")
    scale = min(force / model.full_scale_force, 1.0)
    return model.rest_resistance * model.max_fractional_delta * scale


def element_resistance(model: ElementModel, force: float) -> float:
    """Resistance of one rubber element under an applied force.

    Piecewise: rest below the trigger threshold, a fixed fractional rise
    while triggered, and a near-open sentinel above the saturation
    force. Never falls below the rest resistance.
    """
    if force < 0:
        raise ValueError("force must be non-negative")
    if force < model.trigger_threshold:
        return model.rest_resistance
    if force <= model.saturation_force:
        return model.rest_resistance * (1.0 + model.active_signal_delta)
    return model.rest_resistance * SATURATION_RESISTANCE_FACTOR


def layer_resistances(fabric: FabricModel, elements, force: float, quadrants):
    """Resistance state of both layers under ``force`` newtons on ``quadrants``.

    Returns ``(fabric_delta_r_ohms, element_resistances)`` where the
    second item has one entry per quadrant element. The fabric sees the
    force; each listed quadrant element sees the full force (contact
    presses straight down on it), the others see none and so sit at
    rest, every trigger threshold being positive. ``-0.0`` gives the
    fabric a ``-0.0`` rise and leaves every element at rest.
    """
    if len(elements) != len(QUADRANTS):
        raise ValueError(f"expected {len(QUADRANTS)} elements, got {len(elements)}")
    delta = fabric_delta_r(fabric, force)
    per_element = tuple([
        element_resistance(elem, force) if q in quadrants else elem.rest_resistance
        for q, elem in zip(QUADRANTS, elements)
    ])
    return delta, per_element


def apply_load(scenario: LoadScenario, fabric: FabricModel, elements, time: float):
    """Resistance state of both layers at ``time``: ``layer_resistances`` at
    the scenario's load ``scenario.at(time)``."""
    return layer_resistances(fabric, elements, *scenario.at(time))


def parse_quadrants(field: str, line_number=None) -> frozenset:
    """Parse a ``+``-joined quadrant list such as ``1+2`` ('' means none)."""
    tokens = [token.strip() for token in field.split("+")] if field.strip() else []
    for token in tokens:
        if token not in {"1", "2", "3", "4"}:
            raise ParseError(f"bad quadrant {token!r}", line_number)
    return frozenset(map(int, tokens))


def format_quadrants(quadrants) -> str:
    return "+".join(str(q) for q in sorted(quadrants))


SCENARIO_HEADER = ("t", "force_n", "quadrants")


def load_scenario(path) -> LoadScenario:
    """Read a scenario CSV with header ``t,force_n,quadrants``.

    Each distinct ``force_n`` and ``quadrants`` spelling is read once,
    and its float or set is shared by every step that spells it, so a
    step costs its slotted ``LoadStep`` and its time. A row's time and
    force are read before its quadrants, so a row with several bad
    fields names the first.
    """
    steps, forces, spelled = [], {}, {}
    for line_number, (time, force, quadrants) in read_table(path, (SCENARIO_HEADER,)):
        try:
            time = read_float(time)
            if (newtons := forces.get(force)) is None:
                newtons = forces[force] = read_float(force)
            if (pressed := spelled.get(quadrants)) is None:
                pressed = spelled[quadrants] = parse_quadrants(quadrants, line_number)
            steps.append(LoadStep(time, newtons, pressed))
        except ValueError as exc:
            raise ParseError(str(exc), line_number) from exc
    try:
        return LoadScenario(tuple(steps))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def save_scenario(path, scenario: LoadScenario) -> None:
    rows = ([repr(s.time), repr(s.force), format_quadrants(s.quadrants)] for s in scenario.steps)
    write_table(path, SCENARIO_HEADER, rows)
