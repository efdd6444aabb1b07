#!/usr/bin/env python3
"""Compare skipdet's outputs, byte for byte, between this tree and another.

    python3 tools/identity.py REV            # REV checked out in a temporary git worktree
    python3 tools/identity.py --tree DIR     # another checkout, used as it is
    python3 tools/identity.py --quick ...    # a small output set, for a smoke test

Each tree makes the standard output set in its own fresh process, with its
own ``src/`` first on ``PYTHONPATH`` and one BLAS thread:

- the c01 scene (``seed=11``, 60 frames, velocity 3,2, moving for frames
  1-37 and frozen after), with an ``init_weights(tiny, 0)`` FNET and with a
  ``train-tiny frames=48 holdout=24 epochs=3`` FNET;
- for each FNET, ``run`` gated, ``run mode=always`` and ``detect`` at
  ``obj_threshold`` 0.4, 0.1 and 0 (detection files and reports);
- the ``train-tiny`` FNET and report, and a one-generation ``evolve``
  lineage at gamma 0.74 from that FNET, both scored at ``obj_threshold``
  0.1 (at 0.4 this brief training finds no box, and both scores read 0);
- a SHA-256 digest of each frame's ``network.forward`` output per FNET;
- per FNET, each frame's inference bit and SHA-256 digests of its raw map
  and of its boxes' ``repr`` (every digit) from a gated
  ``pipeline.process_frame`` stream (the CLI's default gate), whose
  inferred frames reuse the reference's activations; the forward digests
  cover only full forwards, and detection files print rounded values. One
  stream runs over the c01 clip and one over the same scene made with
  ``noise=0.015``, where every row of an inferred frame changes. A third
  runs over the c01 clip with a policy that changes every 5 frames, from
  the default gate to ``None`` to a gate with another kernel and back, so
  that each change of the state's key drops what the state keeps (the
  boxes, the forward record and the gate's half), and gated frames under
  one key reuse it. A fourth runs over a two-object clip (``seed=16``,
  velocities 4,0.5 and -3,0.5, the c01 schedule) whose objects share rows,
  so that a run of changed rows spans both, and one of which reaches the
  right edge. A fifth runs over the c01 scene at velocity 0.5,0.25, under
  a pixel per frame, with the default gate at ``tau`` 0.01: the object
  shifts by one pixel every few frames, so skipped frames differ from the
  gate's kept pixels, and the gate maps them in full and stops comparing
  until the next inference. A sixth runs over the c01 clip with the
  default gate and changes one part of the key every 5 frames, then puts
  it back: ``obj_threshold`` 0.4 to 0.1, ``nms_threshold`` 0.5 to 0.3, the
  store (the same FNET loaded again), and the gate bias 0 to 0.03. A
  seventh runs over a flicker clip (the c01 scene, frozen on every fourth
  frame and moving on the others), where each frozen frame repeats the
  raster before it, so the reader shares that frame's pixels: a shared
  frame follows an inferred frame and comes before a moving one. The
  flicker clip also goes through ``run`` gated at ``obj_threshold`` 0;
- each command's exit code and printed output.

``--quick`` keeps 6-frame clips, the init FNET and ``obj_threshold`` 0.

One verdict per file follows: ``same``, ``DIFFERS`` (with the first
differing line), ``only here`` or ``only there``. Files are compared as
bytes, after the timing values are masked in place: the numbers under the
reports' ``wall-time`` and ``frames-per-second``, and the fps that ``run``
prints. The exit status is 0 when every file is the same and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FPS = re.compile(rb"[0-9.]+ fps")
PER_SECOND = re.compile(rb'("frames-per-second": )[-+0-9.eE]+')
WALL_TIME = re.compile(rb'"wall-time": \{[^{}]*\}')
WALL_VALUE = re.compile(rb'(": )[-+0-9.eE]+')


# ---------------------------------------------------------------------------
# Making the output set, inside one tree's process.
# ---------------------------------------------------------------------------

def produce(quick: bool) -> None:
    """Write the output set into the working directory, with relative paths,
    so that the echoed configs are the same in both trees."""
    import numpy as np
    from skipdet import cli, detector, netdef, network, pipeline, ppm, zoo
    from skipdet.motion import GatingPolicy
    from skipdet.tensor import Tensor

    Path("stdout").mkdir()

    def call(name: str, command: str, **settings) -> None:
        argv = [command]
        for key, value in settings.items():
            argv += ["--set", f"{key}={value}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_cli(argv)
        Path("stdout", f"{name}.txt").write_text(
            f"exit {code}\n{out.getvalue()}{err.getvalue()}")

    frames, schedule = (6, "1-3:moving,4-6:frozen") if quick else (60, "1-37:moving,38-60:frozen")
    call("synth", "synth", out="clip", frames=frames, velocity="3,2", schedule=schedule, seed=11)
    call("synth-noisy", "synth", out="noisy-clip", frames=frames, velocity="3,2",
         schedule=schedule, seed=11, noise=0.015)
    call("synth-two", "synth", out="two-clip", frames=frames, objects=2,
         velocity="4,0.5;-3,0.5", schedule=schedule, seed=16)
    call("synth-slow", "synth", out="slow-clip", frames=frames, velocity="0.5,0.25",
         schedule=schedule, seed=11)
    flicker = ",".join(f"{n}-{n}:{'frozen' if n % 4 == 0 else 'moving'}"
                       for n in range(1, frames + 1))
    call("synth-flicker", "synth", out="flicker-clip", frames=frames, velocity="3,2",
         schedule=flicker, seed=11)
    tiny = zoo.load_bundled("tiny")
    netdef.save_network("init.fnet", tiny, network.init_weights(tiny, 0))
    fnets = {"init": "init.fnet"}
    if not quick:
        call("train-tiny", "train-tiny", out="trained.fnet", frames=48, holdout=24, epochs=3,
             obj_threshold=0.1, report="train-tiny.json")
        fnets["trained"] = "trained.fnet"
    for tag, fnet in fnets.items():
        for obj in ((0,) if quick else (0.4, 0.1, 0)):
            common = {"input": "clip", "network": fnet, "obj_threshold": obj}
            for mode in ("gated", "always"):
                name = f"run-{mode}-{tag}-{obj}"
                call(name, "run", **common, mode=mode, out=f"{name}.txt", report=f"{name}.json")
            call(f"detect-{tag}-{obj}", "detect", **common, out=f"detect-{tag}-{obj}.txt")
        call(f"run-flicker-{tag}", "run", input="flicker-clip", network=fnet, obj_threshold=0,
             out=f"run-flicker-{tag}.txt", report=f"run-flicker-{tag}.json")
        net, store = netdef.load_network(fnet)
        with Path(f"forward-{tag}.txt").open("w") as digests:
            for frame in ppm.load_frames("clip"):
                out = np.ascontiguousarray(network.forward(net, store, frame.pixels).data)
                digests.write(f"{frame.index} {hashlib.sha256(out).hexdigest()}\n")
        anchors = [detector.AnchorPrior(0.9, 0.9), detector.AnchorPrior(1.8, 1.8)]
        gate = GatingPolicy.default(net.input_shape[0])
        k = np.float32([0.7, 0.2, 0.45])
        other_gate = GatingPolicy(kernel=Tensor(np.concatenate([k, -k]).reshape(1, 6, 1, 1)),
                                  bias=Tensor.zeros((1,)))
        slow_gate = GatingPolicy.default(net.input_shape[0], area_threshold=0.01)
        biased_gate = GatingPolicy(kernel=gate.kernel, bias=Tensor(np.float32([0.03])))
        reloaded = netdef.load_network(fnet)[1]
        # each window of 5 frames runs under the next (policy, store, obj, nms)
        base = (gate, store, 0.4, 0.5)
        streams = (("clip", "gated-map", (base,)),
                   ("noisy-clip", "gated-noisy-map", (base,)),
                   ("clip", "gated-rotating-map",
                    (base, (None, store, 0.4, 0.5), (other_gate, store, 0.4, 0.5))),
                   ("two-clip", "gated-two-map", (base,)),
                   ("slow-clip", "gated-slow-map", ((slow_gate, store, 0.4, 0.5),)),
                   ("clip", "gated-keyed-map",
                    (base, (gate, store, 0.1, 0.5), base, (gate, store, 0.4, 0.3), base,
                     (gate, reloaded, 0.4, 0.5), base, (biased_gate, store, 0.4, 0.5))),
                   ("flicker-clip", "gated-flicker-map", (base,)))
        for clip, name, windows in streams:
            state = pipeline.PipelineState()
            with Path(f"{name}-{tag}.txt").open("w") as digests:
                for n, frame in enumerate(ppm.load_frames(clip)):
                    policy, weights, obj, nms = windows[n // 5 % len(windows)]
                    boxes, inferred, state, _ = pipeline.process_frame(
                        state, frame, policy, net, weights, anchors, obj, nms)
                    out = np.ascontiguousarray(state.reference_map.values.data)
                    digests.write(f"{frame.index} {int(inferred)} "
                                  f"{hashlib.sha256(out).hexdigest()} "
                                  f"{hashlib.sha256(repr(boxes).encode()).hexdigest()}\n")
    if not quick:
        call("evolve", "evolve", network="trained.fnet", out="lineage", gamma=0.74,
             generations=1, frames=48, holdout=24, epochs=3, obj_threshold=0.1)


# ---------------------------------------------------------------------------
# Comparing two output sets.
# ---------------------------------------------------------------------------

def masked(path: Path) -> bytes:
    """The file's bytes with its timing values replaced by a placeholder;
    nothing else is changed."""
    data = path.read_bytes()
    if path.suffix == ".json":
        data = PER_SECOND.sub(rb"\1<timing>", data)
        return WALL_TIME.sub(lambda m: WALL_VALUE.sub(rb"\1<timing>", m[0]), data)
    if path.parent.name == "stdout":
        return FPS.sub(b"<timing> fps", data)
    return data


def compare(here: Path, there: Path) -> list[tuple[str, str]]:
    """(verdict, relative path) for every file under either directory."""
    files = {p.relative_to(root) for root in (here, there) for p in root.rglob("*") if p.is_file()}
    verdicts = []
    for rel in sorted(files, key=str):
        a, b = here / rel, there / rel
        if not b.exists():
            verdicts.append(("only here", str(rel)))
        elif not a.exists():
            verdicts.append(("only there", str(rel)))
        else:
            ma, mb = masked(a), masked(b)
            if ma == mb:
                verdicts.append(("same", str(rel)))
            else:
                line = next((n for n, (x, y) in enumerate(
                    zip(ma.splitlines(), mb.splitlines()), start=1) if x != y),
                    min(ma.count(b"\n"), mb.count(b"\n")) + 1)
                verdicts.append(("DIFFERS", f"{rel} (first at line {line})"))
    return verdicts


# ---------------------------------------------------------------------------
# Running both trees and printing the verdicts.
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def worktree(rev: str):
    """``rev`` checked out in a temporary git worktree, removed afterwards."""
    tmp = Path(tempfile.mkdtemp(prefix="skipdet-identity-"))
    path = tmp / "tree"
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                    str(path), rev], check=True)
    try:
        yield path
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(path)],
                       check=False)
        shutil.rmtree(tmp, ignore_errors=True)


def start_producer(tree: Path, out: Path, quick: bool) -> subprocess.Popen:
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0",
           "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    argv = [sys.executable, str(Path(__file__).resolve()), "--produce", str(tree / "src")]
    return subprocess.Popen(argv + (["--quick"] if quick else []), cwd=out, env=env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("rev", nargs="?", help="git revision to compare this tree with")
    which.add_argument("--tree", type=Path, help="another checkout to compare this tree with")
    which.add_argument("--produce", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true", help="a small output set")
    args = parser.parse_args(argv)

    if args.produce:
        import skipdet
        if Path(skipdet.__file__).resolve().parents[1] != args.produce.resolve():
            raise SystemExit(f"imported {skipdet.__file__}, not the tree's {args.produce}")
        produce(args.quick)
        return 0

    with contextlib.ExitStack() as stack:
        other = args.tree.resolve() if args.tree else stack.enter_context(worktree(args.rev))
        work = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        here, there = work / "here", work / "there"
        procs = [start_producer(ROOT, here, args.quick), start_producer(other, there, args.quick)]
        if any(p.wait() for p in procs):
            print("an output set could not be made", file=sys.stderr)
            return 2
        verdicts = compare(here, there)
    width = max(len(v) for v, _ in verdicts)
    for verdict, rel in verdicts:
        print(f"{verdict:<{width}}  {rel}")
    same = sum(v == "same" for v, _ in verdicts)
    print(f"{same} of {len(verdicts)} files the same; this tree {ROOT} vs "
          f"{args.tree or args.rev}")
    return 0 if same == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
