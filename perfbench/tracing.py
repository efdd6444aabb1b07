"""Spans recorded by the benchmark's own wrappers around skipdet's public
functions at each module's layer boundary.

A span has a name, start, end, parent span and run id, plus optional
counts (candidate boxes, kept boxes, batches). Spans stay in memory and
are written out once, when the traced run ends. Nothing under ``src/``
knows about tracing: :func:`traced` swaps module attributes for wrappers
and puts the originals back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), parent=parent, run=self.run)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def of_run(self, run: str) -> list[Span]:
        return [s for s in self.spans if s.run == run]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "run": s.run,
                                     **({"counts": s.counts} if s.counts else {})}) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer: each span's duration minus the part
    of it covered by its child spans."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += s.duration - child_time[s.id]
    return dict(out)


def total(spans: list[Span], name: str) -> tuple[float, int]:
    """(seconds, calls) summed over spans with this name."""
    picked = [s.duration for s in spans if s.name == name]
    return math.fsum(picked), len(picked)


def _wrap(tracer: Tracer, name: str, fn, on_result=None, on_args=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            if on_args is not None:
                args, kwargs = on_args(s, args, kwargs)
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(s, args, result)
            return result
    return wrapper


def _count_candidates(span, args, result):
    span.counts["candidates"] = len(result)


def _count_kept(span, args, result):
    span.counts["in"] = len(args[0])
    span.counts["kept"] = len(result)


def _count_batches(span, args, result):
    dataset, cfg = args[2], args[3]
    span.counts["batches"] = cfg.epochs * math.ceil(len(dataset) / cfg.batch_size)


def _metric_wrapper(tracer: Tracer):
    """Wrap the metric callback ``evolve_generations`` receives, so each
    holdout evaluation gets its own span."""
    def on_args(span, args, kwargs):
        args = list(args)
        args[3] = _wrap(tracer, "evolve.metric", args[3])
        return tuple(args), kwargs
    return on_args


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Replace skipdet's layer-boundary functions by span-recording wrappers.

    Each entry names the module attribute a caller looks up at call time,
    so both the CLI and the streaming pipeline go through the wrappers.
    """
    from skipdet import detector, evolve, netdef, network, pipeline, ppm, synth

    targets = [
        (ppm, "read_ppm", "ppm.read_ppm", None, None),
        (ppm, "frame_from_image", "ppm.frame_from_image", None, None),
        (netdef, "load_network", "netdef.load_network", None, None),
        (netdef, "save_network", "netdef.save_network", None, None),
        (evolve, "save_network", "netdef.save_network", None, None),
        (pipeline, "process_frame", "pipeline.process_frame", None, None),
        (pipeline, "stack_frames", "motion.stack_frames", None, None),
        (pipeline, "motion_map", "motion.motion_map", None, None),
        (pipeline, "decide", "motion.decide", None, None),
        (pipeline, "forward", "network.forward", None, None),
        (network, "forward", "network.forward", None, None),
        (pipeline, "map_from_output", "detector.map_from_output", None, None),
        (detector, "map_from_output", "detector.map_from_output", None, None),
        (pipeline, "decode", "detector.decode", _count_candidates, None),
        (detector, "decode", "detector.decode", _count_candidates, None),
        (pipeline, "nms", "detector.nms", _count_kept, None),
        (detector, "nms", "detector.nms", _count_kept, None),
        (detector, "write_detections", "detector.write_detections", None, None),
        (detector, "build_target_map", "detector.build_target_map", None, None),
        (synth, "random_detection_scenes", "synth.random_detection_scenes", None, None),
        (network, "train_sgd", "network.train_sgd", _count_batches, None),
        (evolve, "train_sgd", "network.train_sgd", _count_batches, None),
        (evolve, "encode_genome", "evolve.encode_genome", None, None),
        (evolve, "synthesize_offspring", "evolve.synthesize_offspring", None, None),
        (evolve, "evolve_generations", "evolve.evolve_generations", None,
         _metric_wrapper(tracer)),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, *_ in targets]
    try:
        for module, attr, name, on_result, on_args in targets:
            setattr(module, attr, _wrap(tracer, name, getattr(module, attr), on_result, on_args))
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
