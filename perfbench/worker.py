"""One fresh process per measurement, started by run.py.

    python3 worker.py setup <network.fnet>
    python3 worker.py measure <job.json> <result.json>
    python3 worker.py trace <job.json> <result.json>

``setup`` imports skipdet, loads the network and prints the monotonic
clock, so its parent can time a fresh process up to that point. ``measure``
runs one workload's closed loop (one client, the next call starts when the
previous one returns) for the requested seconds and records raw
observations; run.py turns them into metrics and checks. ``trace`` makes
one traced pass of every workload plus the tensor and network probes.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

if str(wl.SRC) not in sys.path:
    sys.path.insert(0, str(wl.SRC))


def _anchors():
    from skipdet.detector import AnchorPrior

    return [AnchorPrior(*(float(v) for v in pair.split(","))) for pair in wl.ANCHORS.split(";")]


class Stream:
    """A live-camera stream: frames already decoded, fed one at a time to
    ``pipeline.process_frame`` with the CLI's default gate."""

    def __init__(self, video: wl.Video, clip: str, network: str):
        from skipdet import netdef, ppm
        from skipdet.motion import GatingPolicy

        self.net, self.store = netdef.load_network(network)
        self.frames = ppm.load_frames(clip)
        self.policy = GatingPolicy.default(self.net.input_shape[0])
        self.anchors = _anchors()
        self.obj = float(video.obj_threshold)
        self.nms = float(wl.NMS_THRESHOLD)

    def run(self, out: Path, latencies: list | None = None, candidates: list | None = None):
        """One pass; returns (decision bits, failed frames, first error).

        The boxes are written with ``write_detections``, so the file can be
        compared byte for byte with the CLI's.
        """
        from skipdet import detector, pipeline

        state = pipeline.PipelineState()
        per_frame, bits, failed, error = {}, [], 0, None
        clock = time.perf_counter
        for frame in self.frames:
            t0 = clock()
            try:
                boxes, did, state, _ = pipeline.process_frame(
                    state, frame, self.policy, self.net, self.store, self.anchors,
                    self.obj, self.nms)
            except Exception as exc:  # counted as a failed frame, reported by run.py
                failed += 1
                error = error or f"frame {frame.index}: {exc!r}"
                bits.append("x")
                continue
            t1 = clock()
            if latencies is not None:
                latencies.append((t1 - t0) * 1e3)
            if candidates is not None:
                candidates.append(len(detector.decode(state.reference_map, self.anchors, self.obj)))
            per_frame[frame.index] = boxes
            bits.append("1" if did else "0")
        detector.write_detections(out, per_frame)
        return "".join(bits), failed, error


class CpuRotation:
    """Pins each round to the next CPU this process may run on.

    On the 2-core VM this was built on, slow episodes from host contention
    often hit one vCPU while the other runs at full speed. Alternating the
    CPU per round lets the best round (see run.py) come from whichever CPU
    was quiet; the code is single-threaded, so pinning changes nothing else.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.rounds = 0

    def next_round(self) -> None:
        os.sched_setaffinity(0, {self.cpus[self.rounds % len(self.cpus)]})
        self.rounds += 1


def _cli(args: list[str]) -> tuple[int, float]:
    from skipdet import cli

    t0 = time.perf_counter()
    rc = cli.run_cli(args)
    return rc, time.perf_counter() - t0


def setup_probe(network: str) -> float:
    """Seconds from starting a fresh ``worker.py setup`` process until it
    has skipdet imported and ``network`` loaded.

    One probe runs per measuring round, so the probes spread over the whole
    run like the other timings, instead of sharing one moment of it.
    """
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, __file__, "setup", network],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _holdout_loss(network: str, training: wl.Training, seed: int) -> float:
    """Holdout loss of a saved FNET, computed with ``evaluate_loss``."""
    from skipdet import detector, netdef, network as nw, synth

    net, store = netdef.load_network(network)
    head = net.detect_head()
    # The holdout scenes `train-tiny` itself evaluates on.
    frames, truth = synth.random_detection_scenes(training.holdout, seed=seed + 7919)
    data = [(f.pixels, detector.build_target_map(b, head.grid, _anchors(), head.classes))
            for f, b in zip(frames, truth)]
    return nw.evaluate_loss(net, store, data, "detector-composite")


def _lineage(directory: Path) -> dict:
    doc = json.loads((directory / "lineage.json").read_text())
    return {"params": [e["param-count"] for e in doc["entries"]], "error": doc["error"]}


# ---------------------------------------------------------------------------
# Reference checks at the fixed reference seed; they double as warm-up.
# ---------------------------------------------------------------------------

def reference_video(inp: dict, work: Path) -> dict:
    out, report = work / "ref.txt", work / "ref-report.json"
    rc, _ = _cli(wl.run_args(wl.reference_video(), Path(inp["ref_clip"]), Path(inp["network"]),
                             out, report=report))
    if rc:
        return {"rc": rc, "summary": [], "decisions": ""}
    decisions = "".join(str(b) for b in json.loads(report.read_text())["decisions"])
    return {"rc": rc, "summary": wl.detection_summary(out), "decisions": decisions}


def reference_training(work: Path) -> dict:
    t = wl.REFERENCE_TRAINING
    fnet, lineage = work / "ref-tiny.fnet", work / "ref-lineage"
    rc_train, _ = _cli(t.train_args(fnet, wl.REFERENCE_SEED))
    rc_evolve, _ = _cli(t.evolve_args(fnet, lineage, wl.REFERENCE_SEED))
    ok = rc_train == 0 and rc_evolve == 0
    return {"rc": [rc_train, rc_evolve],
            "loss": _holdout_loss(str(fnet), t, wl.REFERENCE_SEED) if ok else None,
            **(_lineage(lineage) if ok else {"params": [], "error": "cli failed"})}


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def measure_video(workload: str, inp: dict, work: Path, seconds: float) -> dict:
    """Rounds of: one gated `skipdet run` over the clip, one streaming pass
    over it, one ungated `skipdet detect` over its first CHECK_FRAMES frames."""
    video = wl.video_of(workload)
    clip, check, network = Path(inp["clip"]), Path(inp["check"]), Path(inp["network"])
    obs = {"frames": video.frames, "reference": reference_video(inp, work)}
    stream = Stream(video, str(clip), str(network))
    candidates: list[int] = []
    obs["decisions"], failed, error = stream.run(work / "warm.txt", candidates=candidates)
    obs["candidates"] = candidates
    obs["stream_failed"], obs["errors"] = [failed], [error] if error else []

    run_s, run_rc, run_digests = [], [], []
    job_s, job_rc, job_digests = [], [], []
    latencies: list[list[float]] = []
    stream_digests = [wl.digest(work / "warm.txt")]
    setup_probe(str(network))  # warms the file cache
    setup_s = []
    cpus = CpuRotation()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(latencies) < wl.MIN_ROUNDS:
        cpus.next_round()
        setup_s.append(setup_probe(str(network)))
        rc, dt = _cli(wl.run_args(video, clip, network, work / "run.txt"))
        run_s.append(dt), run_rc.append(rc)
        run_digests.append(wl.digest(work / "run.txt") if rc == 0 else "")
        latencies.append([])
        _, failed, error = stream.run(work / "stream.txt", latencies=latencies[-1])
        obs["stream_failed"].append(failed)
        obs["errors"] += [error] if error else []
        stream_digests.append(wl.digest(work / "stream.txt"))
        rc, dt = _cli(wl.detect_args(video, check, network, work / "detect.txt"))
        job_s.append(dt), job_rc.append(rc)
        job_digests.append(wl.digest(work / "detect.txt") if rc == 0 else "")
    obs["peak_rss_mb"] = _peak_rss_mb()
    rc, _ = _cli(wl.run_args(video, check, network, work / "always.txt", mode="always"))
    obs.update(setup_s=setup_s, run_s=run_s, run_rc=run_rc, run_digests=run_digests, job_s=job_s,
               job_rc=job_rc, job_digests=job_digests, latencies_ms=latencies,
               stream_digests=stream_digests, always_rc=rc,
               always_digest=wl.digest(work / "always.txt") if rc == 0 else "")
    return obs


def measure_training(inp: dict, work: Path, seconds: float, seed: int) -> dict:
    """Rounds of: `train-tiny`, one `evolve` generation on its output, then
    one gated `skipdet run` and one streaming pass with the offspring."""
    t, video = wl.TRAINING, wl.video_of("train-evolve")
    clip = Path(inp["clip"])
    fnet, lineage = work / "tiny.fnet", work / "lineage"
    offspring = lineage / "gen_1.fnet"
    obs = {"frames": video.frames, "sample_steps": t.sample_steps,
           "reference": reference_training(work), "errors": [], "stream_failed": []}
    # The gate does not depend on the network, so the warm pass can use the
    # initial weights and still be checked against the clip's schedule.
    obs["decisions"], failed, error = Stream(video, str(clip), inp["network"]).run(work / "warm.txt")
    obs["stream_failed"].append(failed)
    obs["errors"] += [error] if error else []

    train_s, evolve_s, cli_rc = [], [], []
    run_s, run_digests, stream_digests, fnet_digests, offspring_digests = [], [], [], [], []
    lineages, latencies = [], []
    setup_probe(inp["network"])  # warms the file cache
    setup_s = []
    cpus = CpuRotation()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(latencies) < wl.MIN_ROUNDS:
        cpus.next_round()
        setup_s.append(setup_probe(inp["network"]))
        rc_t, dt = _cli(t.train_args(fnet, seed))
        train_s.append(dt)
        rc_e, dt = _cli(t.evolve_args(fnet, lineage, seed))
        evolve_s.append(dt)
        cli_rc += [rc_t, rc_e]
        if rc_t or rc_e:
            break
        fnet_digests.append(wl.digest(fnet))
        offspring_digests.append(wl.digest(offspring))
        lineages.append(_lineage(lineage))
        rc, dt = _cli(wl.run_args(video, clip, offspring, work / "run.txt"))
        run_s.append(dt), cli_rc.append(rc)
        run_digests.append(wl.digest(work / "run.txt") if rc == 0 else "")
        latencies.append([])
        _, failed, error = Stream(video, str(clip), str(offspring)).run(
            work / "stream.txt", latencies=latencies[-1])
        obs["stream_failed"].append(failed)
        obs["errors"] += [error] if error else []
        stream_digests.append(wl.digest(work / "stream.txt"))
    obs["peak_rss_mb"] = _peak_rss_mb()
    ok = not any(cli_rc)
    obs.update(setup_s=setup_s, train_s=train_s, evolve_s=evolve_s, cli_rc=cli_rc, run_s=run_s,
               run_digests=run_digests, stream_digests=stream_digests,
               fnet_digests=fnet_digests, offspring_digests=offspring_digests,
               lineages=lineages, latencies_ms=latencies,
               holdout_loss=_holdout_loss(str(fnet), t, seed) if ok else None,
               init_holdout_loss=_holdout_loss(inp["network"], t, seed))
    return obs


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

TRACE_REPEATS = 3  # traced and untraced `run` calls per video workload, alternating


def trace_suite(job: dict, work: Path) -> dict:
    import tracing

    tracer = tracing.Tracer()
    obs: dict = {"overhead": {}, "lineage": None, "errors": [], "cli_rc": [], "stream_failed": [],
                 "streamed": 0, "references": []}
    for workload in wl.ALL:
        inp, sub = job["inputs"][workload], work / workload
        video = wl.video_of(workload)
        if workload == "train-evolve":
            reference_training(sub)  # warm-up
            t = wl.TRAINING
            fnet, lineage = sub / "tiny.fnet", sub / "lineage"
            tracer.run = workload
            with tracing.traced(tracer):
                for name, args in (("cli.train-tiny", t.train_args(fnet, job["seed"])),
                                   ("cli.evolve", t.evolve_args(fnet, lineage, job["seed"]))):
                    with tracer.span(name):
                        obs["cli_rc"].append(_cli(args)[0])
            if not any(obs["cli_rc"]):
                obs["lineage"] = _lineage(lineage)
            continue
        obs["references"].append(reference_video(inp, sub))  # doubles as warm-up
        clip, network = Path(inp["clip"]), inp["network"]
        args = wl.run_args(video, clip, Path(network), sub / "run.txt")
        fps = {"untraced": [], "traced": []}
        for _ in range(TRACE_REPEATS):
            tracer.run = ""
            rc, dt = _cli(args)
            fps["untraced"].append(video.frames / dt)
            tracer.run = workload
            with tracing.traced(tracer), tracer.span("cli.run"):
                rc2, dt = _cli(args)
            fps["traced"].append(video.frames / dt)
            obs["cli_rc"] += [rc, rc2]
        obs["overhead"][workload] = fps
        stream = Stream(video, str(clip), network)
        with tracing.traced(tracer):
            _, failed, error = stream.run(sub / "stream.txt")
        obs["stream_failed"].append(failed)
        obs["streamed"] += len(stream.frames)
        obs["errors"] += [error] if error else []
    tracer.write(Path(job["spans_out"]))
    obs["layers"] = layer_metrics(tracer)
    obs["probes"] = probes(job["inputs"]["motion-gated"], job["seed"])
    return obs


def layer_metrics(tracer) -> dict:
    """Per-layer figures, each read on the workload that loads that layer."""
    from statistics import fmean

    import tracing

    def per_call_ms(spans, name):
        seconds, calls = tracing.total(spans, name)
        return 1e3 * seconds / calls if calls else 0.0

    out: dict = {}
    mg, sg, lt, te = (tracer.of_run(w) for w in wl.ALL)
    everywhere = [s for w in wl.ALL for s in tracer.of_run(w)]

    out["ppm.read_ms"] = per_call_ms(sg, "ppm.read_ppm")
    out["ppm.frame_ms"] = per_call_ms(sg, "ppm.frame_from_image")
    out["netdef.load_ms"] = per_call_ms(everywhere, "netdef.load_network")
    out["netdef.save_ms"] = per_call_ms(te, "netdef.save_network")
    out["motion.stack_ms"] = per_call_ms(sg, "motion.stack_frames")
    out["motion.map_ms"] = per_call_ms(sg, "motion.motion_map")
    out["motion.decide_ms"] = per_call_ms(sg, "motion.decide")
    frames = [s for s in sg if s.name == "pipeline.process_frame"]
    inferred = {s.parent for s in sg if s.name == "network.forward"}
    out["motion.skip_ratio"] = 1.0 - sum(1 for s in frames if s.id in inferred) / len(frames)
    children: dict[int, float] = {}
    for s in sg:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration
    out["pipeline.frame_self_ms"] = 1e3 * fmean(s.duration - children.get(s.id, 0.0) for s in frames)
    out["network.forward_ms"] = per_call_ms(mg, "network.forward")
    # A diverged training raises inside its span, which then has no batch
    # count; the layer figures then read 0 and run.py reports the failure.
    trains = [s for s in te if s.name == "network.train_sgd" and "batches" in s.counts]
    out["network.train_step_ms"] = 1e3 * sum(s.duration for s in trains) / max(
        1, sum(s.counts["batches"] for s in trains))
    out["detector.decode_ms"] = per_call_ms(lt, "detector.decode")
    out["detector.nms_ms"] = per_call_ms(lt, "detector.nms")
    decodes = [s.counts["candidates"] for s in lt if s.name == "detector.decode"]
    out["detector.candidates"] = fmean(decodes)
    nms = [s for s in lt if s.name == "detector.nms"]
    out["detector.kept_ratio"] = (sum(s.counts["kept"] for s in nms)
                                  / max(1, sum(s.counts["in"] for s in nms)))
    out["detector.write_ms"] = per_call_ms(lt, "detector.write_detections")
    out["evolve.encode_ms"] = per_call_ms(te, "evolve.encode_genome")
    out["evolve.synthesize_ms"] = per_call_ms(te, "evolve.synthesize_offspring")
    evolves = {s.id for s in te if s.name == "evolve.evolve_generations"}
    retrains = [s.duration for s in trains if s.parent in evolves]
    out["evolve.retrain_s"] = fmean(retrains) if retrains else 0.0
    out["evolve.metric_s"] = per_call_ms(te, "evolve.metric") / 1e3
    dataset = (tracing.total(te, "synth.random_detection_scenes")[0]
               + tracing.total(te, "detector.build_target_map")[0])
    cli_calls = sum(1 for s in te if s.name in ("cli.train-tiny", "cli.evolve"))
    out["cli.dataset_s"] = dataset / cli_calls

    # Self time per layer: per frame on the video workloads, per
    # train-tiny + evolve iteration on train-evolve.
    for workload, spans in zip(wl.ALL, (mg, sg, lt, te)):
        own = tracing.self_times(spans)
        if workload == "train-evolve":
            for layer in SELF_LAYERS_TRAINING:
                out[f"self.{workload}.{layer}_s"] = own.get(layer, 0.0)
        else:
            n = sum(1 for s in spans if s.name == "pipeline.process_frame")
            for layer in SELF_LAYERS_VIDEO:
                out[f"self.{workload}.{layer}_ms"] = 1e3 * own.get(layer, 0.0) / n
    return out


SELF_LAYERS_VIDEO = ("cli", "ppm", "motion", "pipeline", "network", "detector")
SELF_LAYERS_TRAINING = ("cli", "synth", "network", "evolve", "detector", "netdef")


def probes(inp: dict, seed: int) -> dict:
    """Batch-1 tensor ops at the tiny net's shapes, and batch-8 forward and
    backward through ``evaluate_loss`` / ``loss_gradients``."""
    from statistics import median

    import numpy as np
    from skipdet import detector, netdef, network as nw, ppm, synth, zoo
    from skipdet.tensor import conv2d, maxpool2, pointwise

    net = zoo.load_bundled("tiny")
    store = nw.init_weights(net, seed)
    x = ppm.load_frames(inp["check"])[0].pixels
    first = x

    def timed(fn, *args, repeats):
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = fn(*args)
            samples.append(time.perf_counter() - t0)
        return result, 1e3 * median(samples)

    out: dict = {}
    flops_total = 0
    for i, layer in enumerate(net.layers):
        c, h, w = x.shape
        if layer.kind == "conv":
            lw = store[i]
            x, out[f"tensor.L{i}.conv2d_ms"] = timed(
                conv2d, x, lw.kernel, lw.bias, layer.stride, layer.pad, repeats=PROBE_REPEATS)
            f, ho, wo = x.shape
            k = layer.kernel_size
            flops = 2 * k * k * c * f * ho * wo
            params = lw.kernel.size + lw.bias.size
            if layer.activation != "linear":
                fn = "leaky-relu" if layer.activation == "leaky" else layer.activation
                x, out[f"tensor.L{i}.pointwise_ms"] = timed(
                    pointwise, x, fn, layer.alpha, repeats=PROBE_REPEATS)
        elif layer.kind == "maxpool2":
            x, out[f"tensor.L{i}.maxpool2_ms"] = timed(maxpool2, x, repeats=PROBE_REPEATS)
            flops, params = x.size, 0
        else:
            continue
        flops_total += flops
        out[f"tensor.L{i}.flops"] = float(flops)
        out[f"tensor.L{i}.bytes"] = float(4 * (c * h * w + params + x.size))
    # The probe chain must reproduce the network's forward pass exactly.
    ref = nw.forward(net, store, first)
    probe_ok = (bool(np.array_equal(ref.data, x.data))
                and flops_total == netdef.count_flops(net, net.input_shape))
    frames, truth = synth.random_detection_scenes(BATCH, seed=seed)
    head = net.detect_head()
    data = [(f.pixels, detector.build_target_map(b, head.grid, _anchors(), head.classes))
            for f, b in zip(frames, truth)]
    _, fwd = timed(nw.evaluate_loss, net, store, data, "detector-composite", repeats=BATCH_REPEATS)
    _, both = timed(nw.loss_gradients, net, store, data, "detector-composite", repeats=BATCH_REPEATS)
    out["network.batch_forward_ms"] = fwd
    out["network.batch_backward_ms"] = both - fwd
    return {"metrics": out, "probe_matches_forward": probe_ok}


PROBE_REPEATS = 25
BATCH = 8
BATCH_REPEATS = 9


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        from skipdet import cli, netdef  # noqa: F401  (the import is what is timed)

        netdef.load_network(argv[1])
        print(json.dumps({"ready": time.monotonic(), "peak_rss_mb": _peak_rss_mb()}))
        return 0
    job = json.loads(Path(argv[1]).read_text())
    work = Path(job["work"])
    if mode == "measure":
        workload, inp = job["workload"], job["inputs"][job["workload"]]
        if workload == "train-evolve":
            obs = measure_training(inp, work / workload, job["seconds"], job["seed"])
        else:
            obs = measure_video(workload, inp, work / workload, job["seconds"])
    elif mode == "trace":
        obs = trace_suite(job, work)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(argv[2]).write_text(json.dumps(obs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
