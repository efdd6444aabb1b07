import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipdet import ppm
from skipdet.motion import Frame
from skipdet.ppm import (frame_from_image, list_frame_files, load_frames, read_frames,
                         read_ppm, save_frames, write_ppm)
from skipdet.synth import (MotionInterval, SyntheticSceneSpec, frames_from_scene,
                           generate_scene, parse_schedule, random_detection_scenes,
                           write_scene)
from skipdet.tensor import Tensor

import oracles


def spec_with(frames, schedule, **kw):
    defaults = dict(frames=frames, width=48, height=48, objects=1,
                    velocities=((2.0, 1.0),), schedule=schedule, noise=0.0, seed=0)
    defaults.update(kw)
    return SyntheticSceneSpec(**defaults)


def changed_transitions(images):
    return [n for n in range(1, len(images))
            if not np.array_equal(images[n - 1], images[n])]


class TestSchedule:
    def test_parse(self):
        intervals = parse_schedule("1-31:moving,32-50:frozen", 50)
        assert intervals == (MotionInterval(1, 31, True), MotionInterval(32, 50, False))

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="gaps"):
            parse_schedule("1-10:moving,12-50:frozen", 50)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="gaps or overlap"):
            parse_schedule("1-10:moving,10-50:frozen", 50)

    def test_wrong_total_rejected(self):
        with pytest.raises(ValueError, match="need 1..50"):
            parse_schedule("1-49:moving", 50)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            parse_schedule("1-50:jittering", 50)


class TestSpecValidation:
    def test_noise_bounds(self):
        with pytest.raises(ValueError, match="noise"):
            spec_with(10, (MotionInterval(1, 10, True),), noise=0.2)

    def test_channels(self):
        with pytest.raises(ValueError, match="channels"):
            spec_with(10, (MotionInterval(1, 10, True),), channels=4)

    @pytest.mark.parametrize("velocity", [(1.0,), (float("inf"), 0.0),
                                          (float("nan"), 0.0), (1.0, 2.0, 3.0)])
    def test_velocity_is_a_finite_pair(self, velocity):
        with pytest.raises(ValueError, match="velocity must be a pair of finite numbers"):
            spec_with(10, (MotionInterval(1, 10, True),), velocities=(velocity,))

    def test_velocity_count(self):
        with pytest.raises(ValueError, match="velocities"):
            spec_with(10, (MotionInterval(1, 10, True),), objects=3,
                      velocities=((1.0, 0.0), (0.0, 1.0)))


class TestGeneration:
    def test_all_frozen_frames_bit_identical(self):
        images, truth = generate_scene(spec_with(50, (MotionInterval(1, 50, False),)))
        assert len(images) == 50
        for img in images[1:]:
            assert np.array_equal(images[0], img)
        assert all(t == truth[0] for t in truth)

    def test_changed_transitions_match_schedule(self):
        # moving frames 1..31 of 50: positions update entering frames 2..31,
        # so exactly 30 of the 49 transitions show pixel change
        schedule = (MotionInterval(1, 31, True), MotionInterval(32, 50, False))
        images, _ = generate_scene(spec_with(50, schedule))
        assert changed_transitions(images) == list(range(1, 31))

    def test_acceptance_schedule_arithmetic(self):
        schedule = (MotionInterval(1, 124, True), MotionInterval(125, 200, False))
        images, _ = generate_scene(spec_with(200, schedule, width=96, height=96,
                                             velocities=((3.0, 2.0),)))
        changed = changed_transitions(images)
        assert len(changed) == 123
        assert len(images) - 1 - len(changed) == 76  # motionless transitions

    def test_unit_velocity_moves_truth_center_one_pixel(self):
        schedule = (MotionInterval(1, 12, True),)
        spec = spec_with(12, schedule, velocities=((1.0, 0.0),), width=64, height=64)
        _, truth = generate_scene(spec)
        cx = [t[0].cx for t in truth]
        deltas = np.diff(cx)
        # no bounce expected over 12 frames from a seeded interior start
        np.testing.assert_allclose(deltas, 1.0 / 64, atol=1e-9)
        cy = [t[0].cy for t in truth]
        assert all(a == cy[0] for a in cy)

    def test_objects_stay_inside_frame(self):
        schedule = (MotionInterval(1, 200, True),)
        spec = spec_with(200, schedule, velocities=((5.0, 4.0),))
        _, truth = generate_scene(spec)
        for boxes in truth:
            b = boxes[0]
            assert 0.0 <= b.cx - b.w / 2 and b.cx + b.w / 2 <= 1.0
            assert 0.0 <= b.cy - b.h / 2 and b.cy + b.h / 2 <= 1.0

    def test_deterministic_per_seed(self):
        schedule = (MotionInterval(1, 10, True),)
        a, _ = generate_scene(spec_with(10, schedule, noise=0.02, seed=9))
        b, _ = generate_scene(spec_with(10, schedule, noise=0.02, seed=9))
        c, _ = generate_scene(spec_with(10, schedule, noise=0.02, seed=10))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_default_schedule_moves_every_frame(self):
        # an empty schedule, the default, is 1-T:moving at any frame count
        spec = SyntheticSceneSpec(frames=10, width=48, height=48)
        images, truth = generate_scene(spec)
        assert changed_transitions(images) == list(range(1, 10))
        want, want_truth = generate_scene(spec_with(10, (MotionInterval(1, 10, True),)))
        assert all(np.array_equal(x, y) for x, y in zip(images, want)) and truth == want_truth

    def test_noise_breaks_frozen_identity(self):
        images, _ = generate_scene(spec_with(5, (MotionInterval(1, 5, False),),
                                             noise=0.03))
        assert not np.array_equal(images[0], images[1])

    def test_multiple_objects_render_and_report(self):
        schedule = (MotionInterval(1, 5, True),)
        spec = spec_with(5, schedule, objects=3,
                         velocities=((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
        images, truth = generate_scene(spec)
        assert all(len(t) == 3 for t in truth)

    @pytest.mark.parametrize("velocity,axis", [((5.0, 0.0), "cx"), ((0.0, 5.0), "cy")])
    def test_objects_reflect_off_the_borders(self, velocity, axis):
        # 5 px a frame for 40 frames crosses the 48-px frame: each step is
        # 5 px, and the direction turns at the borders
        _, truth = generate_scene(spec_with(40, (), velocities=(velocity,)))
        steps = np.diff([getattr(t[0], axis) for t in truth]) * 48
        np.testing.assert_allclose(np.abs(steps), 5.0, atol=1e-9)
        assert (steps > 0).any() and (steps < 0).any()

    def test_each_object_keeps_its_own_size(self):
        _, truth = generate_scene(spec_with(5, (), objects=2,
                                            velocities=((1.0, 0.0), (0.0, 1.0))))
        sizes = [[(b.w, b.h) for b in boxes] for boxes in truth]
        assert len(set(sizes[0])) == 2 and all(s == sizes[0] for s in sizes)

    def test_grayscale_channel(self):
        images, _ = generate_scene(spec_with(3, (MotionInterval(1, 3, False),),
                                             channels=1))
        assert images[0].shape == (48, 48, 1)

    def test_random_detection_scenes(self):
        frames, truth = random_detection_scenes(10, width=48, height=48, seed=3)
        assert len(frames) == len(truth) == 10
        assert frames[0].pixels.shape == (3, 48, 48)
        # scenes differ from each other
        assert not np.array_equal(frames[0].pixels.data, frames[1].pixels.data)


class TestPpm:
    def test_color_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(17, 23, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_grayscale_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(9, 11, 1), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_two_axis_image_is_one_channel(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        write_ppm(tmp_path / "img.pgm", img)
        assert np.array_equal(read_ppm(tmp_path / "img.pgm"), img[:, :, None])

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        raster = bytes(range(12))
        path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + raster)
        img = read_ppm(path)
        assert img.shape == (2, 2, 3)
        assert img.tobytes() == raster

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(ValueError, match="maxval"):
            read_ppm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(ValueError, match="truncated"):
            read_ppm(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "b.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ValueError, match="magic"):
            read_ppm(path)

    def test_frame_from_image_maps_to_unit_range(self):
        img = np.array([[[0, 128, 255]]], np.uint8)
        f = frame_from_image(1, img)
        assert f.pixels.shape == (3, 1, 1)
        np.testing.assert_allclose(f.pixels.data.ravel(),
                                   [0.0, 128 / 255, 1.0], rtol=1e-6)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_frame_from_image_bits_equal_float32_division(self, channels):
        # every byte value, against the checked constructors over a float32
        # cast then a float32 division
        img = np.random.default_rng(channels).permutation(
            np.arange(256 * channels) % 256).astype(np.uint8).reshape(16, 16, channels)
        want = Frame(7, Tensor(img.astype(np.float32).transpose(2, 0, 1) / 255))
        got = frame_from_image(7, img)
        assert got.index == want.index and got.pixels.data.flags.c_contiguous
        assert got.pixels.shape == want.pixels.shape == (channels, 16, 16)
        assert np.array_equal(got.pixels.data.view(np.uint32), want.pixels.data.view(np.uint32))

    @pytest.mark.parametrize("index, image", [
        (1, np.zeros((2, 2, 3), np.float32)),
        (1, np.zeros((2, 2, 2), np.uint8)),
        (1, np.zeros((2, 2), np.uint8)),
        (1, np.zeros((0, 2, 3), np.uint8)),
        (-1, np.zeros((2, 2, 3), np.uint8)),
    ], ids=["float", "two-channel", "2-d", "empty", "negative-index"])
    def test_frame_from_image_rejects_what_its_contract_excludes(self, index, image):
        with pytest.raises(ValueError):
            frame_from_image(index, image)

    def test_listing_orders_as_sorted_paths(self, tmp_path):
        names = ["b.ppm", "B.ppm", "a10.ppm", "a9.PPM", "c2x3.pgm", "Frame_0004.Pgm",
                 "..ppm", ".pgm", "notes.txt", "d5.ppm.bak", "e7.ppm."]
        for name in names:
            (tmp_path / name).write_bytes(b"")
        (tmp_path / "f12.ppm").mkdir()
        listed = list_frame_files(tmp_path)
        assert listed == oracles.path_list_frame_files(tmp_path)
        assert [p for _, p in listed] == sorted(
            tmp_path / n for n in names + ["f12.ppm"] if Path(n).suffix.lower() in (".ppm", ".pgm"))
        assert [i for i, _ in listed] == [1, 2, 4, 10, 9, 6, 3, 12]

    def test_save_load_frames_preserve_order_and_index(self, tmp_path):
        rng = np.random.default_rng(2)
        images = [rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8) for _ in range(3)]
        paths = save_frames(str(tmp_path), images)
        listed = list_frame_files(str(tmp_path))
        assert [idx for idx, _ in listed] == [1, 2, 3]
        assert [path for _, path in listed] == paths
        frames = load_frames(tmp_path)
        assert [f.index for f in frames] == [1, 2, 3]
        np.testing.assert_allclose(frames[1].pixels.data,
                                   images[1].astype(np.float32).transpose(2, 0, 1) / 255)

    def test_duplicate_frame_index_rejected(self, tmp_path):
        image = np.zeros((2, 2, 3), np.uint8)
        for name in ("a.ppm", "frame_1.ppm"):
            write_ppm(tmp_path / name, image)
        with pytest.raises(ValueError) as err:
            list_frame_files(tmp_path)
        assert str(err.value) == (f"{tmp_path / 'a.ppm'} and {tmp_path / 'frame_1.ppm'} "
                                  f"both have frame index 1")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list_frame_files(tmp_path)

    @pytest.mark.parametrize("data, offset", [
        (b"P6\n# comment without an end of line", 3),
        (b"P6\nab 2\n255\n" + bytes(12), 3),
        (b"P6 2 x2\n255\n" + bytes(12), 5),
        (b"P5\n4", 4),
        (b"P5\n4 4\n", 7),
        (b"P5 1234567890 1\n255\n", 3),
        (b"P6\n0 2\n255\n", 3),
        (b"P5\n2 0\n255\n", 5),
        (b"P5\n1 1\n65535\n\0\0", 7),
        (b"P5\n2 2\n255\n\0", 11),
        (b"", 0),
    ], ids=["comment-at-eof", "word-width", "word-height", "no-height", "no-maxval",
            "ten-digits", "zero-width", "zero-height", "16-bit", "short-raster", "empty"])
    def test_malformed_file_names_path_and_offset(self, tmp_path, data, offset):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            read_ppm(path)
        assert str(info.value).startswith(f"{path}: byte {offset}: ")

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([1, 3]), st.integers(1, 4), st.integers(1, 4),
           st.sampled_from(["truncate", "replace", "insert"]), st.integers(0, 80),
           st.binary(min_size=1, max_size=4))
    def test_mutated_file_fails_only_with_located_error(self, tmp_path_factory, channels,
                                                        h, w, how, at, junk):
        path = tmp_path_factory.mktemp("fuzz") / "f.ppm"
        write_ppm(path, np.full((h, w, channels), 7, np.uint8))
        data = path.read_bytes()
        at = min(at, len(data))
        if how == "truncate":
            data = data[:at]
        elif how == "replace":
            data = data[:at] + junk + data[at + len(junk):]
        else:
            data = data[:at] + junk + data[at:]
        path.write_bytes(data)
        try:
            img = read_ppm(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: byte ")
        else:
            assert img.dtype == np.uint8 and img.ndim == 3 and min(img.shape) > 0


class TestReadFrames:
    """One reader for ``load_frames`` and the CLI: a raster equal to the
    previous file's shares that frame's pixels; the pixels are read-only."""

    def test_a_repeated_raster_shares_the_last_pixels(self, tmp_path):
        rng = np.random.default_rng(3)
        a, b = (rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8) for _ in range(2))
        save_frames(tmp_path, [a, a, a, b, b, a], start_index=4)
        frames = load_frames(tmp_path)
        assert [f.index for f in frames] == [4, 5, 6, 7, 8, 9]
        pixels = [f.pixels for f in frames]
        assert pixels[1] is pixels[0] and pixels[2] is pixels[0] and pixels[4] is pixels[3]
        # only the previous file is compared: frame 9 repeats frame 4, not 8
        assert len({id(p) for p in pixels}) == 3 and pixels[5] is not pixels[0]
        for frame, image in zip(frames, [a, a, a, b, b, a]):
            want = frame_from_image(frame.index, image).pixels.data
            assert np.array_equal(frame.pixels.data.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("at", [0, 37, -1], ids=["first", "middle", "last"])
    def test_a_raster_one_byte_off_is_decoded_anew(self, tmp_path, at):
        image = np.random.default_rng(4).integers(0, 256, size=(4, 4, 3), dtype=np.uint8)
        other = image.copy()
        other.reshape(-1)[at] ^= 1
        save_frames(tmp_path, [image, other])
        first, second = load_frames(tmp_path)
        assert second.pixels is not first.pixels
        assert np.array_equal(second.pixels.data, frame_from_image(2, other).pixels.data)

    @pytest.mark.parametrize("shapes", [((2, 6, 1), (6, 2, 1)), ((2, 2, 3), (3, 4, 1))],
                             ids=["transposed", "color-then-gray"])
    def test_the_same_bytes_in_another_shape_are_decoded_anew(self, tmp_path, shapes):
        raster = np.arange(12, dtype=np.uint8)
        save_frames(tmp_path, [raster.reshape(shape) for shape in shapes])
        frames = load_frames(tmp_path)
        assert [f.pixels.shape for f in frames] == [(s[2], s[0], s[1]) for s in shapes]
        assert frames[1].pixels is not frames[0].pixels

    def test_pixels_are_read_only(self, tmp_path):
        image = np.full((3, 3, 3), 9, np.uint8)
        save_frames(tmp_path, [image, image])
        for frame in load_frames(tmp_path):
            with pytest.raises(ValueError, match="read-only"):
                frame.pixels.data[0, 0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                frame.pixels.data *= 2

    def test_each_file_is_read_when_its_frame_is_asked_for(self, tmp_path, monkeypatch):
        image = np.full((2, 2, 3), 7, np.uint8)
        paths = save_frames(tmp_path, [image] * 3)
        paths[2].write_bytes(paths[2].read_bytes()[:-1])
        read = []
        monkeypatch.setattr(ppm, "read_ppm", lambda path, fn=ppm.read_ppm: read.append(path)
                            or fn(path))
        frames = read_frames(list_frame_files(tmp_path))
        assert read == []
        assert next(frames).index == 1 and next(frames).index == 2 and read == paths[:2]
        # the truncated third raster fails as read_ppm reports it
        with pytest.raises(ValueError, match=re.escape(
                f"{paths[2]}: byte 11: raster truncated, expected 12 bytes, got 11")):
            next(frames)

    def test_a_repeat_keeps_the_index_check(self, tmp_path):
        image = np.zeros((2, 2, 1), np.uint8)
        path = save_frames(tmp_path, [image])[0]
        frames = read_frames([(1, path), (0, path), (-1, path)])
        first, second = next(frames), next(frames)
        assert (first.index, second.index) == (1, 0) and second.pixels is first.pixels
        with pytest.raises(ValueError, match="non-negative"):
            next(frames)


class TestWriteScene:
    def test_writes_frames_and_truth(self, tmp_path):
        schedule = (MotionInterval(1, 6, True),)
        truth_path = write_scene(spec_with(6, schedule), tmp_path / "scene")
        assert truth_path.exists()
        frames = load_frames(tmp_path / "scene")
        assert len(frames) == 6
        from skipdet.detector import parse_detection_file
        truth = parse_detection_file(truth_path)
        assert set(truth) == {1, 2, 3, 4, 5, 6}
        line = truth_path.read_text().splitlines()[0]
        # truth lines carry unit scores
        assert line.split()[5] == "1.000000" and line.split()[7] == "1.000000"

    def test_disk_and_memory_frames_bit_identical(self, tmp_path):
        schedule = (MotionInterval(1, 4, True),)
        spec = spec_with(4, schedule, noise=0.01)
        write_scene(spec, tmp_path / "s")
        from_disk = load_frames(tmp_path / "s")
        in_memory = frames_from_scene(generate_scene(spec)[0])
        for a, b in zip(from_disk, in_memory):
            assert np.array_equal(a.pixels.data, b.pixels.data)


CHECKS = [
    pytest.param(lambda: spec_with(0, ()), ValueError,
                 "need at least 1 frame and 8x8 pixels", id="frames"),
    pytest.param(lambda: spec_with(1, (), width=7), ValueError,
                 "need at least 1 frame and 8x8 pixels", id="width"),
    pytest.param(lambda: spec_with(1, (), height=7), ValueError,
                 "need at least 1 frame and 8x8 pixels", id="height"),
    pytest.param(lambda: spec_with(1, (), objects=0), ValueError,
                 "need at least one object", id="objects"),
    pytest.param(lambda: spec_with(10, (MotionInterval(1, 4, True), MotionInterval(6, 10, False))),
                 ValueError, "schedule must cover 1..10 without gaps or overlap", id="spec-schedule"),
    pytest.param(lambda: parse_schedule("1-5", 5), ValueError,
                 "bad schedule interval '1-5'", id="interval-label"),
    pytest.param(lambda: parse_schedule("a-5:moving", 5), ValueError,
                 "bad schedule interval 'a-5:moving'", id="interval-start"),
    pytest.param(lambda: write_ppm("unused.ppm", np.zeros((2, 2, 3))), ValueError,
                 "image must be uint8", id="ppm-dtype"),
    pytest.param(lambda: write_ppm("unused.ppm", np.zeros((2, 2, 2), np.uint8)), ValueError,
                 "image must be [H,W] or [H,W,1|3]", id="ppm-channels"),
    pytest.param(lambda: write_ppm("unused.ppm", np.zeros(4, np.uint8)), ValueError,
                 "image must be [H,W] or [H,W,1|3]", id="ppm-rank"),
]


@pytest.mark.parametrize("make,error,prefix", CHECKS)
def test_checks_raise_their_documented_errors(make, error, prefix):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value).startswith(prefix)


def test_schedule_parts_may_carry_spaces():
    assert parse_schedule(" 1-5:moving , 6-10:frozen ", 10) == (
        MotionInterval(1, 5, True), MotionInterval(6, 10, False))
