"""Serial-style sample stream: ``t,v0,v1,v2,v3,v4`` lines.

Channel 0 carries the force-layer reading and channels 1-4 the four
position elements, mimicking the five analog pins of the reference
firmware. The canonical form prints times as shortest round-trip floats
and integral channel values (ADC codes) as integers. Blank lines and
``#`` comments are skipped on input.

``read_float`` and ``read_int`` read every number of the stream, frame,
CSV and config files, in ``plain_ascii`` spellings only. ``open_input``
opens every input file. ``read_table`` is the one reader of the headed
CSV files (scenarios and calibration datasets), and ``write_table``
their one writer.
"""

import csv
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

from .errors import ArityError, DataError, ParseError

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
        if not math.isfinite(self.time):
            raise ValueError("sample time must be finite")
        if self.time < 0:
            raise ValueError("sample time must be non-negative")


def plain_ascii(text: str) -> bool:
    """Whether ``text`` has no digit-group ``_`` and no non-ASCII character
    (another script's digits, say), which ``float`` and ``int`` would read."""
    return "_" not in text and text.isascii()


def read_float(text: str) -> float:
    """``float(text)`` of ``plain_ascii`` text, else the ValueError ``float`` gives for garbage."""
    if not plain_ascii(text):
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def read_int(text: str) -> int:
    """``int(text)`` of ``plain_ascii`` text, else the ValueError ``int`` gives for garbage."""
    if not plain_ascii(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


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
        values = [read_float(f) for f in fields]
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


def format_sample_block(times, rows) -> str:
    """Canonical lines, newline-terminated, for a block of simulated ticks.

    ``times`` holds the float tick times and ``rows`` a tuple of five
    int ADC codes per tick, as ``simulate_plan``'s blocks give them;
    each line is what ``format_sample_line`` gives for that tick. Rows
    repeat within a block while the load is held, so each distinct row's
    ``,c0,c1,c2,c3,c4`` tail is spelled once per block, and the memo
    holds at most one block's rows whatever the ADC width.
    """
    spelled = {row: ",%d,%d,%d,%d,%d\n" % row for row in set(rows)}
    lines = [None] * (2 * len(rows))  # each tick's time spelling, then its tail
    lines[::2] = map(repr, times)
    lines[1::2] = map(spelled.__getitem__, rows)
    return "".join(lines)


def write_samples(handle, samples) -> None:
    for sample in samples:
        handle.write(format_sample_line(sample) + "\n")


@contextmanager
def open_input(path):
    """The file at ``path``, or stdin for ``-``, to read as UTF-8 text.

    Either ends lines at LF, CRLF and CR alike and keeps each line's end,
    as the csv module needs. A decode error in the block is a DataError naming the file.
    """
    try:
        if path == "-":
            if hasattr(sys.stdin, "reconfigure"):  # a text file, not an in-memory one
                sys.stdin.reconfigure(encoding="utf-8", newline="")
            yield sys.stdin
        else:
            with open(path, encoding="utf-8", newline="") as handle:
                yield handle
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_table(path, headers):
    """Yield ``(line_number, row)`` for each data row of a headed CSV file.

    Line 1 must be one of ``headers`` (case and surrounding spaces
    ignored); when line 1 is blank the rows are read as ``headers[0]``.
    Blank rows are skipped, and every row must have as many fields as
    its header, so the header a file uses is told by its rows' length.
    Rows are numbered by the file line they start on.
    """
    header = headers[0]
    with open_input(path) as handle:
        reader, start = csv.reader(handle), 1
        try:
            for row in reader:
                line_number, start = start, reader.line_num + 1
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if line_number == 1:
                    header = tuple(col.strip().lower() for col in row)
                    if header not in headers:
                        names = " or ".join(repr(",".join(h)) for h in headers)
                        raise ParseError(f"expected header {names}", line_number)
                    continue
                if len(row) != len(header):
                    raise ParseError(f"expected {len(header)} fields, got {len(row)}", line_number)
                yield line_number, row
        except csv.Error as exc:  # such as a field over the csv module's size limit
            raise ParseError(str(exc), reader.line_num) from exc


def write_table(path, header, rows) -> None:
    """Write a headed CSV file, as ``read_table`` reads it: ``header``, then ``rows``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
