"""Serial-style sample stream: ``t,v0,v1,v2,v3,v4`` lines.

Channel 0 carries the force-layer reading and channels 1-4 the four
position elements, mimicking the five analog pins of the reference
firmware. The canonical form prints times as shortest round-trip floats
and integral channel values (ADC codes) as integers. Blank lines and
``#`` comments are skipped on input.
"""

import math
from dataclasses import dataclass, field

from .errors import ArityError, ParseError

CHANNEL_COUNT = 5


@dataclass(frozen=True)
class SampleLine:
    """One sampled tick: a timestamp plus five channel readings.

    ``line_number`` records where the sample came from when it was read
    from a file; it does not take part in equality.
    """

    time: float
    channels: tuple
    line_number: int = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.channels) != CHANNEL_COUNT:
            raise ValueError(f"expected {CHANNEL_COUNT} channels")
        if self.time < 0:
            raise ValueError("sample time must be non-negative")


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def parse_sample_line(text: str, line_number=None) -> SampleLine:
    """Parse one stream line, tolerating whitespace around each field."""
    fields = [f.strip() for f in text.strip().split(",")]
    if len(fields) != CHANNEL_COUNT + 1:
        raise ArityError(
            f"expected time plus {CHANNEL_COUNT} channels, got {len(fields)} fields",
            line_number,
        )
    try:
        values = [float(f) for f in fields]
    except ValueError as exc:
        raise ParseError(str(exc), line_number) from exc
    if not all(math.isfinite(v) for v in values):
        raise ParseError("sample fields must be finite", line_number)
    try:
        return SampleLine(values[0], tuple(values[1:]), line_number=line_number)
    except ValueError as exc:
        raise ParseError(str(exc), line_number) from exc


def format_sample_line(sample: SampleLine) -> str:
    """Canonical form of a sample: float time, integer codes kept integral."""
    channels = ",".join(_format_number(c) for c in sample.channels)
    return f"{float(sample.time)!r},{channels}"


def read_samples(lines):
    """Yield SampleLine objects from an iterable of text lines.

    Accepts any line iterable (an open file included); parsing is lazy
    so arbitrarily long streams can be replayed in constant memory.
    """
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield parse_sample_line(stripped, line_number)


def format_sample_block(times, codes) -> str:
    """Canonical lines, newline-terminated, for a block of simulated ticks.

    ``times`` are float tick times and ``codes`` the five int ADC codes
    of each tick; each line is what ``format_sample_line`` gives for
    that tick.
    """
    return "".join([f"{t!r},{a},{b},{c},{d},{e}\n" for t, (a, b, c, d, e) in zip(times, codes)])


def write_samples(handle, samples) -> None:
    for sample in samples:
        handle.write(format_sample_line(sample) + "\n")
