"""Command-line front end.

Every subcommand reads a flat key=value configuration assembled from its
defaults, an optional ``--config <file>`` (one key=value per line, ``#``
comments), and repeated ``--set key=value`` overrides, which win. Unknown
keys are rejected. All randomness flows from the ``seed`` key, so a
subcommand's outputs are deterministic given its effective config (timing
fields aside).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from . import detector, evolve, netdef, network, pipeline, ppm, synth, zoo
from .motion import GatingPolicy
__all__ = ["ConfigError", "main", "run_cli"]

# The decoding keys of every subcommand that runs the detector.
_DECODE_KEYS = {"anchors": "0.9,0.9;1.8,1.8", "obj_threshold": "0.4", "nms_threshold": "0.5"}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config plumbing.
# ---------------------------------------------------------------------------

def _parse_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start}: cannot decode utf-8: {exc.reason}") from None
    out = {}
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{n}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _effective_config(defaults: dict[str, str | None], config_path: str | None,
                      sets: list[str]) -> dict[str, str]:
    merged: dict[str, str] = {k: v for k, v in defaults.items() if v is not None}
    sources = []
    if config_path:
        sources.append(_parse_config_file(config_path))
    overrides = {}
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    sources.append(overrides)
    for source in sources:
        for key, value in source.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r} "
                                  f"(known: {', '.join(sorted(defaults))})")
            merged[key] = value
    missing = [k for k, v in defaults.items() if v is None and k not in merged]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(sorted(missing))}")
    return merged


def _get_int(cfg, key) -> int:
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key}={cfg[key]!r} is not an integer") from None


def _get_count(cfg, key) -> int:
    """A non-negative integer: a frame count or a seed."""
    value = _get_int(cfg, key)
    if value < 0:
        raise ConfigError(f"config key {key}={cfg[key]!r} is negative")
    return value


def _get_positive(cfg, key) -> int:
    value = _get_int(cfg, key)
    if value < 1:
        raise ConfigError(f"config key {key}={cfg[key]!r} is not a positive integer")
    return value


def _get_float(cfg, key) -> float:
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key}={cfg[key]!r} is not a number") from None


def _get_fraction(cfg, key) -> float:
    value = _get_float(cfg, key)
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise ConfigError(f"config key {key}={cfg[key]!r} is not in [0, 1]")
    return value


def _parse_anchors(text: str) -> list[detector.AnchorPrior]:
    try:
        pairs = [tuple(float(v) for v in part.split(",")) for part in text.split(";")]
        return [detector.AnchorPrior(w, h) for w, h in pairs]
    except (ValueError, TypeError):
        raise ConfigError(f"anchors must look like 'w,h;w,h', got {text!r}") from None


def _parse_velocities(text: str) -> tuple[tuple[float, float], ...]:
    try:
        velocities = tuple(tuple(float(v) for v in part.split(",")) for part in text.split(";"))
        for v in velocities:
            synth.check_velocity(v)
    except ValueError:
        raise ConfigError(f"velocity must look like 'vx,vy;vx,vy' with finite "
                          f"numbers, got {text!r}") from None
    return velocities


def _parse_size(text: str) -> tuple[int, int]:
    """'96' or 'WIDTHxHEIGHT' -> (width, height)."""
    try:
        if "x" in text:
            w, h = (int(p) for p in text.split("x"))
        else:
            w = h = int(text)
        return w, h
    except ValueError:
        raise ConfigError(f"size must be an integer or WxH, got {text!r}") from None


def _decode_config(cfg, net, source: str):
    """The ``_DECODE_KEYS``, read at load: the anchors, one prior per anchor
    slot of the detect head, then the objectness and NMS thresholds in [0, 1]."""
    head = net.detect_head()
    if head is None:
        raise ConfigError(f"{source}: this command needs a detect-head network")
    anchors = _parse_anchors(cfg["anchors"])
    if len(anchors) != head.anchors:
        raise ConfigError(f"anchors: {len(anchors)} priors given, but {source} has "
                          f"{head.anchors} anchor slots")
    return anchors, _get_fraction(cfg, "obj_threshold"), _get_fraction(cfg, "nms_threshold")


def _load_weighted_network(path: str):
    net, store = netdef.load_network(path)
    if store is None:
        raise ConfigError(f"{path} is descriptor-only; this command needs weights")
    return net, store


def _resolve_network_arg(text: str):
    """A bundled name or a path to an FNET file; returns (net, store|None)."""
    if text in zoo.BUNDLED_NAMES:
        return zoo.load_bundled(text), None
    return netdef.load_network(text)


def _gate_from_config(cfg, channels: int) -> Optional[GatingPolicy]:
    """The ``run`` gate, built and so validated in both modes; ``None`` when always."""
    mode = cfg["mode"]
    if mode not in ("gated", "always"):
        raise ConfigError(f"mode must be one of ('gated', 'always'), got {mode!r}")
    settings = {"pixel_threshold": _get_float(cfg, "gate.p0"),
                "area_threshold": _get_float(cfg, "gate.tau"),
                "force_every": _get_int(cfg, "gate.force_every")}
    weights_file = cfg.get("gate.weights_file", "")
    if weights_file:
        gate_net, gate_store = _load_weighted_network(weights_file)
        # The gate runs only the kernel and bias, so the file must hold nothing else.
        layers = [(layer.kind, layer.activation, layer.in_channels, layer.out_channels,
                   layer.kernel_size, layer.stride, layer.pad) for layer in gate_net.layers]
        if layers != [("conv", "linear", 2 * channels, 1, 1, 1, 0)]:
            raise ConfigError(f"{weights_file}: a gate for {channels}-channel frames must be "
                              f"exactly one linear 1x1 conv from {2 * channels} channels to "
                              f"one output, stride 1 and no padding")
        lw = gate_store[0]
        policy = GatingPolicy(kernel=lw.kernel, bias=lw.bias, **settings)
    else:
        policy = GatingPolicy.default(channels, **settings)
    return policy if mode == "gated" else None


def _training_counts(cfg) -> tuple[int, ...]:
    """``seed``, ``frames`` and ``holdout``, read before any file is read."""
    return tuple(_get_count(cfg, key) for key in ("seed", "frames", "holdout"))


def _training_data(cfg, net, anchors, counts: tuple[int, ...]):
    """Train and holdout scenes at the network's input shape, the train
    targets and the ``TrainConfig``; shared by ``train-tiny`` and ``evolve``.
    The config is checked first, so a bad value fails before any scene is made."""
    seed, frames, holdout_frames = counts
    train_cfg = network.TrainConfig(
        learning_rate=_get_float(cfg, "lr"), epochs=_get_int(cfg, "epochs"),
        batch_size=_get_int(cfg, "batch"), seed=seed, loss="detector-composite")
    channels, height, width = net.input_shape
    train = synth.random_detection_scenes(
        frames, width=width, height=height, channels=channels, seed=seed)
    holdout = synth.random_detection_scenes(
        holdout_frames, width=width, height=height, channels=channels, seed=seed + 7919)
    head = net.detect_head()
    dataset = [(f.pixels, detector.build_target_map(boxes, head.grid, anchors, head.classes))
               for f, boxes in zip(*train)]
    return train, holdout, dataset, train_cfg


def _eval_detector(net, store, anchors, frames, truth, obj_thr, nms_thr) -> float:
    if not frames:
        return 0.0
    _, preds = pipeline.run(frames, net, store, anchors, None, obj_thr, nms_thr)
    return detector.evaluate_mean_best_iou(preds, truth)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _cmd_synth(cfg) -> int:
    frames = _get_count(cfg, "frames")
    if frames == 0:
        raise ConfigError(f"config key frames={cfg['frames']!r} is not a positive integer")
    width, height = _parse_size(cfg["size"])
    spec = synth.SyntheticSceneSpec(
        frames=frames, width=width, height=height,
        channels=_get_int(cfg, "channels"), objects=_get_int(cfg, "objects"),
        velocities=_parse_velocities(cfg["velocity"]),
        schedule=synth.parse_schedule(cfg["schedule"], frames) if cfg["schedule"] else (),
        noise=_get_float(cfg, "noise"), seed=_get_count(cfg, "seed"))
    truth_path = synth.write_scene(spec, cfg["out"])
    print(f"wrote {frames} frames and {truth_path}")
    return 0


def _cmd_train_tiny(cfg) -> int:
    counts = _training_counts(cfg)
    net = zoo.load_bundled("tiny")
    anchors, obj_thr, nms_thr = _decode_config(cfg, net, "tiny")
    train, holdout, dataset, train_cfg = _training_data(cfg, net, anchors, counts)
    store = network.train_sgd(net, network.init_weights(net, train_cfg.seed), dataset, train_cfg)
    iou_train = _eval_detector(net, store, anchors, *train, obj_thr, nms_thr)
    iou_hold = _eval_detector(net, store, anchors, *holdout, obj_thr, nms_thr)
    netdef.save_network(cfg["out"], net, store)
    print(f"trained tiny detector: train-iou={iou_train:.4f} holdout-iou={iou_hold:.4f} "
          f"params={netdef.count_params(net, store)} -> {cfg['out']}")
    if cfg.get("report"):
        doc = {"train-iou": iou_train, "holdout-iou": iou_hold,
               "params": netdef.count_params(net, store), "config": dict(cfg)}
        Path(cfg["report"]).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _detect(cfg, policy_for):
    """One load, ``pipeline.run``, one write; shared by ``detect`` and ``run``.
    ``policy_for(channels)`` gives the gate (``None``: infer every frame).

    The frame files are listed up front, so an empty directory or a repeated
    index fails before any frame is read; ``ppm.read_frames`` then reads
    each frame when the run reaches it, so memory does not grow with the
    clip's length.
    """
    net, store = _load_weighted_network(cfg["network"])
    anchors, obj_thr, nms_thr = _decode_config(cfg, net, cfg["network"])
    policy = policy_for(net.input_shape[0])
    files = ppm.list_frame_files(cfg["input"])
    report, detections = pipeline.run(ppm.read_frames(files), net, store, anchors, policy,
                                      obj_thr, nms_thr)
    detector.write_detections(
        cfg["out"], {index: boxes for (index, _), boxes in zip(files, detections)})
    return report, detections


def _cmd_detect(cfg) -> int:
    """``run mode=always`` with the six detect keys and no gate."""
    report, detections = _detect(cfg, lambda channels: None)
    total = sum(len(b) for b in detections)
    print(f"detect: {report.frames} frames, {total} boxes -> {cfg['out']}")
    return 0


def _cmd_run(cfg) -> int:
    report, _ = _detect(cfg, lambda channels: _gate_from_config(cfg, channels))
    report.config = dict(cfg)
    if cfg.get("report"):
        Path(cfg["report"]).write_text(report.to_json())
    print(f"run[{cfg['mode']}]: {report.frames} frames, {report.inferences} inferences "
          f"({report.inference_frequency:.2f}%), {report.frames_per_second:.1f} fps "
          f"-> {cfg['out']}")
    return 0


def _cmd_profile(cfg) -> int:
    net, store = _resolve_network_arg(cfg["network"])
    if cfg.get("resolution"):
        width, height = _parse_size(cfg["resolution"])
        input_shape = (net.input_shape[0], height, width)
    else:
        input_shape = net.input_shape
    params = netdef.count_params(net)
    flops = netdef.count_flops(net, input_shape)
    line = f"network={net.name} input={input_shape} params={params} flops={flops}"
    if store is not None:
        line += f" stored-params={netdef.count_params(net, store)}"
        if store.has_masks():
            line += f" effective-flops={netdef.effective_flops(net, input_shape, store):.0f}"
    print(line)
    return 0


def _cmd_anchors(cfg) -> int:
    grid, k, seed = _get_positive(cfg, "grid"), _get_int(cfg, "k"), _get_count(cfg, "seed")
    per_frame = detector.parse_detection_file(cfg["truth"])
    sizes = [(box.w * grid, box.h * grid)
             for boxes in per_frame.values() for box in boxes]
    priors = detector.kmeans_anchors(sizes, k, seed=seed)
    text = ";".join(f"{a.w:.4f},{a.h:.4f}" for a in priors)
    print(f"anchors={text}")
    if cfg.get("out"):
        Path(cfg["out"]).write_text(text + "\n")
    return 0


def _cmd_evolve(cfg) -> int:
    counts = _training_counts(cfg)
    generations = _get_positive(cfg, "generations")
    env = evolve.EnvironmentalFactor(_get_float(cfg, "gamma"))
    net, store = _load_weighted_network(cfg["network"])
    anchors, obj_thr, nms_thr = _decode_config(cfg, net, cfg["network"])
    _, (hold_frames, hold_truth), dataset, retrain = _training_data(cfg, net, anchors, counts)

    def metric(m_net, m_store) -> float:
        return _eval_detector(m_net, m_store, anchors, hold_frames, hold_truth,
                              obj_thr, nms_thr)

    lineage = evolve.evolve_generations(
        net, store, dataset, metric, generations=generations, env=env,
        retrain=retrain, seed=retrain.seed)
    evolve.save_lineage(lineage, cfg["out"])
    for entry in lineage.entries:
        print(f"generation {entry.generation}: params={entry.param_count} "
              f"metric={entry.metric:.4f}")
    if lineage.error:
        print(f"error: {lineage.error}", file=sys.stderr)
        return 1
    return 0


_DETECT_KEYS = {"input": None, "network": None, **_DECODE_KEYS, "out": None}

SUBCOMMANDS = {
    "synth": (_cmd_synth, {
        "out": None, "frames": "50", "size": "96", "channels": "3",
        "objects": "1", "velocity": "2,1", "schedule": "",
        "noise": "0", "seed": "0",
    }),
    "train-tiny": (_cmd_train_tiny, {
        "out": None, "frames": "500", "holdout": "100", "epochs": "32",
        "lr": "0.003", "batch": "8", "seed": "0", **_DECODE_KEYS, "report": "",
    }),
    "detect": (_cmd_detect, dict(_DETECT_KEYS)),
    "run": (_cmd_run, {
        **_DETECT_KEYS, "mode": "gated", "report": "",
        "gate.p0": str(GatingPolicy.pixel_threshold), "gate.tau": str(GatingPolicy.area_threshold),
        "gate.force_every": str(GatingPolicy.force_every), "gate.weights_file": "",
    }),
    "profile": (_cmd_profile, {"network": None, "resolution": ""}),
    "anchors": (_cmd_anchors, {
        "truth": None, "k": "2", "grid": "6", "seed": "0", "out": "",
    }),
    "evolve": (_cmd_evolve, {
        "network": None, "out": None, "gamma": None, "generations": None,
        "frames": "400", "holdout": "100", "epochs": "16", "lr": "0.01",
        "batch": "8", "seed": "0", **_DECODE_KEYS,
    }),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process.

    Building it costs several times what parsing does. Each parse fills a
    fresh namespace, and ``append`` copies its default before appending,
    so no call sees another's values.
    """
    parser = argparse.ArgumentParser(
        prog="skipdet",
        description="Motion-gated video object detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (wins over --config)")
    return parser


@functools.cache
def _pin_heap() -> None:
    """Fix glibc's mmap and trim thresholds for the process, once.

    By default glibc raises both as large blocks are freed and gives the
    heap's free top back past the trim threshold, so a command's frames and
    training steps mapped or faulted in the same memory again on every
    call. Fixed, freed memory stays in the heap for the next call. Where
    libc has no ``mallopt`` nothing changes.
    """
    import ctypes  # numpy has already loaded it

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def run_cli(argv=None) -> int:
    _pin_heap()
    args = _parser().parse_args(argv)
    handler, defaults = SUBCOMMANDS[args.command]
    try:
        cfg = _effective_config(defaults, args.config, args.set)
        return handler(cfg)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"skipdet {args.command}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
