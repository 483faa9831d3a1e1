"""In-process span tracing around the calls into each tactsim layer.

The tracer patches the module attributes through which one layer calls
another (``cli.simulate_samples``, ``pipeline.sample_chain``, ...) with
wrappers that record a span per call: name, start, end and the span that
was open when it began. Generators get one span per item they produce,
so a stream stage is timed apart from the stage that consumes it. The
program's own files are not changed; the patches are undone on exit.

Spans are kept in flat arrays in memory and written out once at the end.
"""

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: Layers, one per tactsim module, in the order their self time is listed.
LAYERS = ("cli", "config", "sensor", "bridge", "pipeline", "streams", "estimator",
          "calibration", "units")


class Tracer:
    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = {}
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def call(self, name, fn):
        nid = self.name_id(name)
        spans, parents, starts, ends, stack = (self.name, self.parent, self.start,
                                               self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def generator(self, name, fn):
        step = self.call(name, next)
        self.items[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = step(inner)
                except StopIteration:
                    return
                self.items[name] += 1
                yield item

        return traced

    def arrays(self):
        """(name id, parent index, duration) arrays of every span so far."""
        durations = np.array(self.end) - np.array(self.start)
        return (np.array(self.name, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                durations)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.array(self.name),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end))


def _patch_points(tactsim):
    """(span name, owner, attribute, kind) for every traced call site."""
    cli, pipeline, calibration = tactsim.cli, tactsim.pipeline, tactsim.calibration
    return (
        ("cli.main", cli, "main", "call"),
        ("cli.cmd_simulate", cli, "cmd_simulate", "call"),
        ("cli.cmd_calibrate", cli, "cmd_calibrate", "call"),
        ("cli.cmd_estimate", cli, "cmd_estimate", "call"),
        ("cli.cmd_report", cli, "cmd_report", "call"),
        ("config.load_config", cli, "load_config", "call"),
        ("config.make_estimator_config", cli, "make_estimator_config", "call"),
        ("config.element_bridge", tactsim.config.ToolkitConfig, "element_bridge", "call"),
        ("sensor.load_scenario", cli, "load_scenario", "call"),
        ("sensor.scenario_at", tactsim.sensor.LoadScenario, "at", "call"),
        ("bridge.sample_chain", pipeline, "sample_chain", "call"),
        ("pipeline.simulate_samples", cli, "simulate_samples", "generator"),
        ("pipeline.estimate_frames", cli, "estimate_frames", "generator"),
        ("pipeline.summarize_frames", cli, "summarize_frames", "summary"),
        ("pipeline.capture_protocol_dataset", pipeline, "capture_protocol_dataset", "call"),
        ("streams.write_samples", cli, "write_samples", "call"),
        ("streams.read_samples", cli, "read_samples", "generator"),
        ("estimator.process_frame", pipeline, "process_frame", "call"),
        ("estimator.format_frame", cli, "format_frame", "call"),
        ("estimator.parse_frame", cli, "parse_frame", "call"),
        ("calibration.load_dataset", cli, "load_dataset", "call"),
        ("calibration.cross_validate", cli, "cross_validate", "call"),
        ("calibration.fit_polynomial", cli, "fit_polynomial", "call"),
        ("calibration.fit_polynomial", calibration, "fit_polynomial", "call"),
        ("calibration.save_model", cli, "save_model", "call"),
        ("calibration.load_model", cli, "load_model", "call"),
        ("calibration.invert_model", calibration, "invert_model", "call"),
        ("calibration.synthetic_protocol_dataset", calibration,
         "synthetic_protocol_dataset", "call"),
        ("units.rmse", calibration, "rmse", "call"),
        ("units.rmse", pipeline, "rmse", "call"),
    )


def _summary(tracer, name, fn):
    """``summarize_frames`` gets its own span name when scored against truth."""
    plain = tracer.call(name, fn)
    scored = tracer.call(name + "_truth", fn)

    @functools.wraps(fn)
    def traced(frames, sensing_range, truth=None):
        return (plain if truth is None else scored)(frames, sensing_range, truth=truth)

    return traced


@contextmanager
def traced(tracer, tactsim):
    """Patch every call site for the duration of the block."""
    saved = []
    wrap = {"call": tracer.call, "generator": tracer.generator,
            "summary": functools.partial(_summary, tracer)}
    try:
        for name, owner, attribute, kind in _patch_points(tactsim):
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, wrap[kind](name, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


# metric name -> (span, unit, divided by, input-stream span excluded).
# A per-tick time excludes the time spent producing its input stream,
# which is a generator consumed inside the span and timed on its own.
# Divided by: "call" the span's calls, "tick" the ticks simulated,
# "frame" the frames estimated, "read" the samples read, "child" the
# excluded input spans (the frames parsed for that summary).
LAYER_METRICS = {
    "sensor.scenario_at.us_per_call": ("sensor.scenario_at", "us", "call", None),
    "sensor.load_scenario.ms": ("sensor.load_scenario", "ms", "call", None),
    "config.element_bridge.us_per_tick": ("config.element_bridge", "us", "tick", None),
    "config.make_estimator_config.ms": ("config.make_estimator_config", "ms", "call", None),
    "bridge.sample_chain.us_per_call": ("bridge.sample_chain", "us", "call", None),
    "pipeline.simulate_samples.us_per_tick": ("pipeline.simulate_samples", "us", "tick", None),
    "pipeline.estimate_frames.us_per_tick": (
        "pipeline.estimate_frames", "us", "frame", "streams.read_samples"),
    "pipeline.summarize_frames.us_per_tick": (
        "pipeline.summarize_frames", "us", "child", "estimator.parse_frame"),
    "pipeline.summarize_frames_truth.us_per_tick": (
        "pipeline.summarize_frames_truth", "us", "child", "estimator.parse_frame"),
    "streams.write_samples.us_per_tick": (
        "streams.write_samples", "us", "tick", "pipeline.simulate_samples"),
    "streams.read_samples.us_per_tick": ("streams.read_samples", "us", "read", None),
    "estimator.process_frame.us_per_tick": ("estimator.process_frame", "us", "call", None),
    "estimator.format_frame.us_per_frame": ("estimator.format_frame", "us", "call", None),
    "estimator.parse_frame.us_per_frame": ("estimator.parse_frame", "us", "call", None),
    "calibration.cross_validate.ms": ("calibration.cross_validate", "ms", "call", None),
    "calibration.fit_polynomial.us": ("calibration.fit_polynomial", "us", "call", None),
    "calibration.load_dataset.ms": ("calibration.load_dataset", "ms", "call", None),
    "units.rmse.us_per_call": ("units.rmse", "us", "call", None),
    "calibration.invert_model.us": ("calibration.invert_model", "us", "call", None),
    "calibration.synthetic_protocol_dataset.ms": (
        "calibration.synthetic_protocol_dataset", "ms", "call", None),
    "pipeline.capture_protocol_dataset.ms": (
        "pipeline.capture_protocol_dataset", "ms", "call", None),
}

_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def layer_metrics(tracer, session_spans, session_s) -> dict:
    """Per-layer metric values from the spans recorded so far.

    ``session_spans`` is the number of spans recorded by the CLI-order
    session, which came first; the layers' self times and the remainder
    no layer accounts for cover that session only (``session_s`` of wall
    time). Calls made outside the session, such as the unreachable
    calibration helpers, only feed the per-call metrics.
    """
    names, parents, durations = tracer.arrays()
    k = len(tracer.names)
    has_parent = parents >= 0
    parent_name = np.full(names.size, -1)
    parent_name[has_parent] = names[parents[has_parent]]
    total = np.bincount(names, weights=durations, minlength=k)
    calls = np.bincount(names, minlength=k)

    def index(name):
        return tracer.names.index(name) if name in tracer.names else -1

    def child_of(child, parent):
        mask = (names == index(child)) & (parent_name == index(parent))
        return durations[mask].sum(), int(mask.sum())

    ticks = tracer.items.get("pipeline.simulate_samples", 0)
    frames = tracer.items.get("pipeline.estimate_frames", 0)
    metrics = {}
    for metric, (span, unit, per, excluded) in LAYER_METRICS.items():
        i = index(span)
        busy, children = total[i] if i >= 0 else 0.0, 0
        if excluded is not None:
            excluded_s, children = child_of(excluded, span)
            busy -= excluded_s
        denominator = {
            "call": calls[i] if i >= 0 else 0,
            "tick": ticks,
            "frame": frames,
            "read": tracer.items.get(span, 0),
            "child": children,
        }[per]
        metrics[metric] = (busy / denominator * _SCALE[unit] if denominator else 0.0, unit)

    session = slice(0, session_spans)
    child_total = np.bincount(parents[session][has_parent[session]],
                              weights=durations[session][has_parent[session]],
                              minlength=session_spans)
    self_time = durations[session] - child_total[:session_spans]
    for layer in LAYERS:
        ids = [i for i, n in enumerate(tracer.names) if n.split(".")[0] == layer]
        mask = np.isin(names[session], ids)
        metrics[f"{layer}.self_ms"] = (float(self_time[mask].sum()) * 1e3, "ms")
    top_level = durations[session][~has_parent[session]].sum()
    metrics["trace.unattributed_ms"] = ((session_s - top_level) * 1e3, "ms")
    metrics["count.ticks"] = (ticks, "count")
    metrics["count.frames"] = (frames, "count")
    metrics["count.cv_fits"] = (
        child_of("calibration.fit_polynomial", "calibration.cross_validate")[1], "count")
    return metrics
