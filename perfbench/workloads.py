"""Workload definitions, input generation and small shared helpers.

Every input a run uses is generated here from the run's seed: PPM scene
directories via ``skipdet.synth`` and a weighted tiny FNET from
``init_weights``. The program under test only ever receives these files.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The seed whose outputs are recorded in expected.json; every run also
# re-checks a small clip generated from it, whatever --seed says.
REFERENCE_SEED = 0
REFERENCE_FRAMES = 100
# Each number of the recorded reference output may drift by this much on
# average per box: ten times the detection file's print resolution, room
# for a kernel that sums in another order, far below what a changed
# forward pass moves.
REFERENCE_TOL_PER_BOX = 1e-5

# One network, init_weights(tiny, 0), for every run seed; the seed varies the
# scenes. At obj_threshold=0 the weights decide how many of the 72 boxes NMS
# suppresses: init seeds 0-5 keep between 45 and 72, and NMS time follows,
# so a seed-dependent network would let the seed, not the code, set
# static-lowthr's cost.
NETWORK_SEED = 0

ALL = ("motion-gated", "static-gated", "static-lowthr", "train-evolve")

# A run measures in rounds, at least MIN_ROUNDS of them, and reports each
# timing from its best round (see run._timing).
MIN_ROUNDS = 6

ANCHORS = "0.9,0.9;1.8,1.8"
NMS_THRESHOLD = "0.5"
VELOCITY = ((3.0, 2.0),)
CHECK_FRAMES = 50  # prefix of each clip on which `detect` and `run mode=always` are compared


@dataclass(frozen=True)
class Video:
    """A repeating moving/frozen clip and the thresholds it is run with."""

    moving: int          # moving frames per 100-frame cycle
    frames: int          # clip length
    obj_threshold: str

    def schedule(self, frames: int) -> str:
        parts, start = [], 1
        while start <= frames:
            end = min(start + self.moving - 1, frames)
            parts.append(f"{start}-{end}:moving")
            if end < frames:
                frozen_end = min(start + 99, frames)
                parts.append(f"{end + 1}-{frozen_end}:frozen")
                end = frozen_end
            start = end + 1
        return ",".join(parts)

    def expected_decisions(self, frames: int) -> str:
        """One bit per frame: inference runs on frame 1 and on every moving frame.

        The object moves by (3, 2) pixels on a moving frame, which changes far
        more than tau of the pixels by more than p0, and a frozen frame equals
        the last inferred reference exactly.
        """
        bits = []
        for n in range(frames):
            bits.append("1" if n == 0 or n % 100 < self.moving else "0")
        return "".join(bits)


GAMMA = "0.74"   # evolve's synapse-survival factor
BATCH = 8


@dataclass(frozen=True)
class Training:
    """Reduced-size quick-start steps 2 and 6: train-tiny, then one evolve generation."""

    frames: int
    holdout: int
    epochs: int

    def train_args(self, out: Path, seed: int) -> list[str]:
        return ["train-tiny", "--set", f"out={out}", "--set", f"frames={self.frames}",
                "--set", f"holdout={self.holdout}", "--set", f"epochs={self.epochs}",
                "--set", f"batch={BATCH}", "--set", f"seed={seed}"]

    def evolve_args(self, network: Path, out: Path, seed: int) -> list[str]:
        return ["evolve", "--set", f"network={network}", "--set", f"out={out}",
                "--set", f"gamma={GAMMA}", "--set", "generations=1",
                "--set", f"frames={self.frames}", "--set", f"holdout={self.holdout}",
                "--set", f"epochs={self.epochs}", "--set", f"batch={BATCH}",
                "--set", f"seed={seed}"]

    @property
    def sample_steps(self) -> int:
        return self.frames * self.epochs


VIDEOS = {
    "motion-gated": Video(moving=62, frames=100, obj_threshold="0.4"),
    "static-gated": Video(moving=5, frames=400, obj_threshold="0.4"),
    "static-lowthr": Video(moving=5, frames=300, obj_threshold="0"),
}
TRAINING = Training(frames=32, holdout=8, epochs=2)
REFERENCE_TRAINING = Training(frames=16, holdout=8, epochs=1)


def video_of(workload: str) -> Video:
    """The clip a workload streams. train-evolve deploys its offspring on a
    motion-gated clip, so the video metrics mean the same thing on every
    workload."""
    return VIDEOS["motion-gated" if workload == "train-evolve" else workload]


def reference_video() -> Video:
    """The seed-0 check every video run repeats: the motion-gated schedule at
    obj_threshold=0, so every inferred frame writes all of its NMS survivors
    and the file pins the values network.forward returns."""
    return Video(VIDEOS["motion-gated"].moving, REFERENCE_FRAMES, "0")


def run_args(video: Video, clip: Path, network: Path, out: Path, mode: str = "gated",
             report: Path | None = None) -> list[str]:
    args = ["run", "--set", f"input={clip}", "--set", f"network={network}",
            "--set", f"out={out}", "--set", f"mode={mode}", "--set", f"anchors={ANCHORS}",
            "--set", f"obj_threshold={video.obj_threshold}",
            "--set", f"nms_threshold={NMS_THRESHOLD}"]
    if report is not None:
        args += ["--set", f"report={report}"]
    return args


def detect_args(video: Video, clip: Path, network: Path, out: Path) -> list[str]:
    return ["detect", "--set", f"input={clip}", "--set", f"network={network}",
            "--set", f"out={out}", "--set", f"anchors={ANCHORS}",
            "--set", f"obj_threshold={video.obj_threshold}",
            "--set", f"nms_threshold={NMS_THRESHOLD}"]


def write_clip(video: Video, frames: int, seed: int, out: Path) -> Path:
    from skipdet import synth

    spec = synth.SyntheticSceneSpec(
        frames=frames, velocities=VELOCITY,
        schedule=synth.parse_schedule(video.schedule(frames), frames), seed=seed)
    synth.write_scene(spec, out)
    return out


def write_init_network(seed: int, out: Path) -> Path:
    from skipdet import netdef, network, zoo

    net = zoo.load_bundled("tiny")
    netdef.save_network(out, net, network.init_weights(net, seed))
    return out


def prepare(workload: str, seed: int, work: Path) -> dict[str, str]:
    """Generate one workload's inputs under ``work``; returns their paths."""
    video = video_of(workload)
    work.mkdir(parents=True, exist_ok=True)
    clip = write_clip(video, video.frames, seed, work / "clip")
    check = work / "check"
    check.mkdir()
    for path in sorted(clip.glob("*.ppm"))[:CHECK_FRAMES]:
        shutil.copyfile(path, check / path.name)
    ref_clip = write_clip(reference_video(), REFERENCE_FRAMES, REFERENCE_SEED, work / "ref-clip")
    return {
        "clip": str(clip), "check": str(check), "ref_clip": str(ref_clip),
        "network": str(write_init_network(NETWORK_SEED, work / "net.fnet")),
    }


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def detection_summary(path) -> list[list[float]]:
    """Per frame of a detection file: [frame, boxes, then the sum of each of
    cx, cy, w, h, objectness, class id and class score over its boxes]."""
    from skipdet import detector

    rows = []
    for frame, boxes in sorted(detector.parse_detection_file(path).items()):
        columns = zip(*((b.cx, b.cy, b.w, b.h, b.objectness, b.class_id, b.class_score)
                        for b in boxes))
        rows.append([frame, len(boxes), *(round(sum(c), 6) for c in columns)])
    return rows


def summary_mismatch(got: list[list[float]], want: list[list[float]]) -> str:
    """First difference beyond REFERENCE_TOL_PER_BOX, or "" when they agree."""
    if [r[:2] for r in got] != [r[:2] for r in want]:
        return "frames or box counts differ"
    for g, w in zip(got, want):
        tol = REFERENCE_TOL_PER_BOX * w[1]
        for n, (a, b) in enumerate(zip(g[2:], w[2:])):
            if abs(a - b) > tol:
                return f"frame {w[0]}, column {n}: {a} vs recorded {b}, tol {tol:.2g}"
    return ""


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, q in [0, 1]."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile that leaves at least
    TAIL_BEYOND samples beyond it.

    A streaming pass has 100 to 400 frames, so this is p90 to p97.5. Every
    clip infers on more than TAIL_BEYOND frames, so the tail always falls
    inside the inferred frames, never on the edge between them and the
    skipped ones.
    """
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return 50.0, quantile(values, 0.5)
    q = 1.0 - TAIL_BEYOND / n
    return 100.0 * q, quantile(values, q)
