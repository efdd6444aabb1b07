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
import json
import sys
from pathlib import Path

from . import detector, evolve, netdef, network, pipeline, ppm, synth, zoo
from .motion import GatingPolicy
__all__ = ["ConfigError", "main", "run_cli"]

DEFAULT_ANCHORS = "0.9,0.9;1.8,1.8"


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


def _get_float(cfg, key) -> float:
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key}={cfg[key]!r} is not a number") from None


def _parse_anchors(text: str) -> list[detector.AnchorPrior]:
    try:
        pairs = [tuple(float(v) for v in part.split(",")) for part in text.split(";")]
        return [detector.AnchorPrior(w, h) for w, h in pairs]
    except (ValueError, TypeError):
        raise ConfigError(f"anchors must look like 'w,h;w,h', got {text!r}") from None


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


def _policy_from_config(cfg, channels: int) -> GatingPolicy:
    p0 = _get_float(cfg, "gate.p0")
    tau = _get_float(cfg, "gate.tau")
    force = _get_int(cfg, "gate.force_every")
    weights_file = cfg.get("gate.weights_file", "")
    if weights_file:
        gate_net, gate_store = _load_weighted_network(weights_file)
        conv_layers = gate_net.conv_indices()
        if len(conv_layers) != 1:
            raise ConfigError(f"{weights_file}: gate network must have exactly one conv layer")
        lw = gate_store[conv_layers[0]]
        return GatingPolicy(kernel=lw.kernel, bias=lw.bias, pixel_threshold=p0,
                            area_threshold=tau, force_every=force)
    return GatingPolicy.default(channels, pixel_threshold=p0, area_threshold=tau,
                                force_every=force)


def _detection_scene(cfg, count: int, seed: int):
    width, height = _parse_size(cfg["size"])
    return synth.random_detection_scenes(count, width=width, height=height, seed=seed)


def _eval_detector(net, store, anchors, frames, truth, obj_thr, nms_thr) -> float:
    if not frames:
        return 0.0
    _, preds = pipeline.run(frames, net, store, anchors, GatingPolicy.default(net.input_shape[0]),
                            obj_thr, nms_thr, mode="always")
    return detector.evaluate_mean_best_iou(preds, truth)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _cmd_synth(cfg) -> int:
    frames = _get_int(cfg, "frames")
    width, height = _parse_size(cfg["size"])
    velocities = tuple(tuple(float(v) for v in part.split(","))
                       for part in cfg["velocity"].split(";"))
    spec = synth.SyntheticSceneSpec(
        frames=frames, width=width, height=height,
        channels=_get_int(cfg, "channels"), objects=_get_int(cfg, "objects"),
        velocities=velocities, schedule=synth.parse_schedule(cfg["schedule"], frames),
        noise=_get_float(cfg, "noise"), seed=_get_int(cfg, "seed"))
    truth_path = synth.write_scene(spec, cfg["out"])
    print(f"wrote {frames} frames and {truth_path}")
    return 0


def _cmd_train_tiny(cfg) -> int:
    seed = _get_int(cfg, "seed")
    anchors = _parse_anchors(cfg["anchors"])
    net = zoo.load_bundled("tiny")
    train_frames, train_truth = _detection_scene(cfg, _get_int(cfg, "frames"), seed)
    hold_frames, hold_truth = _detection_scene(cfg, _get_int(cfg, "holdout"), seed + 7919)
    head = net.detect_head()
    dataset = [(f.pixels, detector.build_target_map(boxes, head.grid, anchors, head.classes))
               for f, boxes in zip(train_frames, train_truth)]
    train_cfg = network.TrainConfig(
        learning_rate=_get_float(cfg, "lr"), epochs=_get_int(cfg, "epochs"),
        batch_size=_get_int(cfg, "batch"), seed=seed, loss="detector-composite")
    store = network.train_sgd(net, network.init_weights(net, seed), dataset, train_cfg)
    obj_thr, nms_thr = _get_float(cfg, "obj_threshold"), _get_float(cfg, "nms_threshold")
    iou_train = _eval_detector(net, store, anchors, train_frames, train_truth, obj_thr, nms_thr)
    iou_hold = _eval_detector(net, store, anchors, hold_frames, hold_truth, obj_thr, nms_thr)
    netdef.save_network(cfg["out"], net, store)
    print(f"trained tiny detector: train-iou={iou_train:.4f} holdout-iou={iou_hold:.4f} "
          f"params={netdef.count_params(net, store)} -> {cfg['out']}")
    if cfg.get("report"):
        doc = {"train-iou": iou_train, "holdout-iou": iou_hold,
               "params": netdef.count_params(net, store), "config": dict(cfg)}
        Path(cfg["report"]).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _detect(cfg, mode: str, policy_from_config: bool):
    """One load, ``pipeline.run``, one write; shared by ``detect`` and ``run``."""
    net, store = _load_weighted_network(cfg["network"])
    frames = ppm.load_frames(cfg["input"])
    anchors = _parse_anchors(cfg["anchors"])
    if mode not in pipeline.MODES:
        raise ConfigError(f"mode must be one of {pipeline.MODES}, got {mode!r}")
    channels = net.input_shape[0]
    policy = (_policy_from_config(cfg, channels) if policy_from_config
              else GatingPolicy.default(channels))
    report, detections = pipeline.run(
        frames, net, store, anchors, policy,
        obj_threshold=_get_float(cfg, "obj_threshold"),
        nms_threshold=_get_float(cfg, "nms_threshold"), mode=mode)
    detector.write_detections(
        cfg["out"], {f.index: boxes for f, boxes in zip(frames, detections)})
    return report, detections


def _cmd_detect(cfg) -> int:
    """``run mode=always`` with the six detect keys; the gate is never read."""
    report, detections = _detect(cfg, "always", policy_from_config=False)
    total = sum(len(b) for b in detections)
    print(f"detect: {report.frames} frames, {total} boxes -> {cfg['out']}")
    return 0


def _cmd_run(cfg) -> int:
    mode = cfg["mode"]
    report, _ = _detect(cfg, mode, policy_from_config=True)
    report.config = dict(cfg)
    if cfg.get("report"):
        Path(cfg["report"]).write_text(report.to_json())
    print(f"run[{mode}]: {report.frames} frames, {report.inferences} inferences "
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
    grid = _get_int(cfg, "grid")
    per_frame = detector.parse_detection_file(cfg["truth"])
    sizes = [(box.w * grid, box.h * grid)
             for boxes in per_frame.values() for box in boxes]
    priors = detector.kmeans_anchors(sizes, _get_int(cfg, "k"), seed=_get_int(cfg, "seed"))
    text = ";".join(f"{a.w:.4f},{a.h:.4f}" for a in priors)
    print(f"anchors={text}")
    if cfg.get("out"):
        Path(cfg["out"]).write_text(text + "\n")
    return 0


def _cmd_evolve(cfg) -> int:
    seed = _get_int(cfg, "seed")
    net, store = _load_weighted_network(cfg["network"])
    anchors = _parse_anchors(cfg["anchors"])
    head = net.detect_head()
    if head is None:
        raise ConfigError(f"{cfg['network']}: evolution needs a detect-head network")
    train_frames, train_truth = _detection_scene(cfg, _get_int(cfg, "frames"), seed)
    hold_frames, hold_truth = _detection_scene(cfg, _get_int(cfg, "holdout"), seed + 7919)
    dataset = [(f.pixels, detector.build_target_map(boxes, head.grid, anchors, head.classes))
               for f, boxes in zip(train_frames, train_truth)]
    obj_thr, nms_thr = _get_float(cfg, "obj_threshold"), _get_float(cfg, "nms_threshold")

    def metric(m_net, m_store) -> float:
        return _eval_detector(m_net, m_store, anchors, hold_frames, hold_truth,
                              obj_thr, nms_thr)

    retrain = network.TrainConfig(
        learning_rate=_get_float(cfg, "lr"), epochs=_get_int(cfg, "epochs"),
        batch_size=_get_int(cfg, "batch"), seed=seed, loss="detector-composite")
    lineage = evolve.evolve_generations(
        net, store, dataset, metric, generations=_get_int(cfg, "generations"),
        env=evolve.EnvironmentalFactor(_get_float(cfg, "gamma")),
        retrain=retrain, seed=seed)
    evolve.save_lineage(lineage, cfg["out"])
    for entry in lineage.entries:
        print(f"generation {entry.generation}: params={entry.param_count} "
              f"metric={entry.metric:.4f}")
    if lineage.error:
        print(f"error: {lineage.error}", file=sys.stderr)
        return 1
    return 0


_COMMON_DETECT_KEYS = {
    "input": None, "network": None, "anchors": DEFAULT_ANCHORS,
    "obj_threshold": "0.4", "nms_threshold": "0.5", "out": None,
}

SUBCOMMANDS = {
    "synth": (_cmd_synth, {
        "out": None, "frames": "50", "size": "96", "channels": "3",
        "objects": "1", "velocity": "2,1", "schedule": "1-50:moving",
        "noise": "0", "seed": "0",
    }),
    "train-tiny": (_cmd_train_tiny, {
        "out": None, "frames": "500", "holdout": "100", "size": "96",
        "epochs": "32", "lr": "0.003", "batch": "8", "seed": "0",
        "anchors": DEFAULT_ANCHORS, "obj_threshold": "0.4",
        "nms_threshold": "0.5", "report": "",
    }),
    "detect": (_cmd_detect, dict(_COMMON_DETECT_KEYS)),
    "run": (_cmd_run, {
        **_COMMON_DETECT_KEYS, "mode": "gated", "report": "",
        "gate.p0": "0.1", "gate.tau": "0.002", "gate.force_every": "0",
        "gate.weights_file": "",
    }),
    "profile": (_cmd_profile, {"network": None, "resolution": ""}),
    "anchors": (_cmd_anchors, {
        "truth": None, "k": "2", "grid": "6", "seed": "0", "out": "",
    }),
    "evolve": (_cmd_evolve, {
        "network": None, "out": None, "gamma": None, "generations": None,
        "frames": "400", "holdout": "100", "size": "96", "epochs": "16",
        "lr": "0.01", "batch": "8", "seed": "0", "anchors": DEFAULT_ANCHORS,
        "obj_threshold": "0.4", "nms_threshold": "0.5",
    }),
}


def run_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="skipdet",
        description="Motion-gated video object detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (wins over --config)")
    args = parser.parse_args(argv)
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
