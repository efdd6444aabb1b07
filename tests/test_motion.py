import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipdet.motion import (Frame, GatingPolicy, decide, motion_map, reference_half,
                            stack_frames)
from skipdet.tensor import ShapeError, Tensor

import oracles


def frame(index, values):
    return Frame(index, Tensor(np.asarray(values, np.float32)))


def const_frame(index, value, channels=3, size=4):
    return frame(index, np.full((channels, size, size), value, np.float32))


def random_frame(seed, channels=3, size=6):
    rng = np.random.default_rng(seed)
    return frame(0, rng.random((channels, size, size)).astype(np.float32))


def stack(cur, ref):
    """The fresh [2C,H,W] stack, current channels first."""
    return np.concatenate([cur.pixels.data, ref.pixels.data], axis=0)


def pair(cur, ref, policy):
    """What the pipeline hands ``motion_map``: the current frame paired with
    the reference's half of the products."""
    return stack_frames(cur, reference_half(ref, policy))


def bits(a):
    return a.view(np.uint32)


class TestFrame:
    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            frame(0, np.full((1, 2, 2), 1.5, np.float32))

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ShapeError, match="channels"):
            frame(0, np.zeros((2, 2, 2), np.float32))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="index"):
            const_frame(-1, 0.5)


class TestStackFrames:
    def test_current_first_reference_second(self):
        cur, ref = const_frame(1, 0.25), const_frame(0, 0.75)
        half = reference_half(ref, GatingPolicy.default(3))
        got = stack_frames(cur, half)
        assert type(got) is tuple and len(got) == 2
        assert got[0] is cur.pixels.data and got[1] is half  # no copy
        assert np.all(got[0] == np.float32(0.25))
        assert np.all(half == np.float32(-1.0 / 3.0) * np.float32(0.75))

    def test_self_stack_mirrors_channels(self):
        f = random_frame(3)
        policy = GatingPolicy.default(3)
        cur, half = pair(f, f, policy)
        w = policy.kernel.data[0, :, 0, 0]
        assert np.array_equal(bits(half), bits(-(w[:3, None, None] * cur)))

    def test_white_current_black_reference(self):
        cur, half = pair(const_frame(1, 1.0), const_frame(0, 0.0), GatingPolicy.default(3))
        assert np.all(cur == 1.0)
        assert np.all(half == 0.0)

    def test_shape_mismatch(self):
        # stack_frames pairs without checking; motion_map checks the pair
        policy = GatingPolicy.default(3)
        half = reference_half(const_frame(0, 0.5, size=6), policy)
        with pytest.raises(ShapeError, match="frame shape mismatch"):
            motion_map(stack_frames(const_frame(0, 0.5, size=4), half), policy)

    def test_reference_half_is_read_only(self):
        half = reference_half(const_frame(0, 0.5), GatingPolicy.default(3))
        with pytest.raises(ValueError, match="read-only"):
            half += 1.0

    def test_reference_half_checks_the_kernel_channels(self):
        with pytest.raises(ShapeError, match="gate kernel input channels 6"):
            reference_half(const_frame(0, 0.5, channels=1), GatingPolicy.default(3))

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_reference_half_is_the_stack_products(self, seed, channels):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(1, 2 * channels, 1, 1)).astype(np.float32)
        policy = GatingPolicy(kernel=Tensor(w), bias=Tensor.zeros((1,)))
        ref = random_frame(seed, channels=channels)
        want = w[0, channels:, 0, 0, None, None] * ref.pixels.data
        assert np.array_equal(bits(reference_half(ref, policy)), bits(want))


class TestMotionMap:
    def test_identical_frames_zero_map(self):
        f = random_frame(0)
        policy = GatingPolicy.default(3)
        assert np.all(motion_map(pair(f, f, policy), policy) == 0.0)

    def test_single_channel_difference(self):
        cur = const_frame(1, 0.8, channels=1)
        ref = const_frame(0, 0.5, channels=1)
        policy = GatingPolicy.default(1)
        m = motion_map(pair(cur, ref, policy), policy)
        expected = np.float32(0.8) - np.float32(0.5)
        assert np.all(m == expected)

    def test_full_swing_saturates(self):
        policy = GatingPolicy.default(3)
        m = motion_map(pair(const_frame(1, 1.0), const_frame(0, 0.0), policy), policy)
        assert np.all(m == 1.0)

    def test_channel_mismatch(self):
        one = GatingPolicy.default(1)
        grey = pair(const_frame(1, 0.5, channels=1), const_frame(0, 0.5, channels=1), one)
        with pytest.raises(ShapeError, match="gate kernel input channels 6"):
            motion_map(grey, GatingPolicy.default(3))

    @pytest.mark.parametrize("shapes, message", [
        (((1, 4, 4), (1, 4, 4)), "do not match"), (((3, 4, 4), (3, 4, 5)), "mismatch"),
        (((3, 16), (3, 16)), "do not match")])
    def test_pair_mismatch(self, shapes, message):
        cur, half = (np.zeros(s, np.float32) for s in shapes)
        with pytest.raises(ShapeError, match=message):
            motion_map((cur, half), GatingPolicy.default(3))

    def test_custom_gate_weights(self):
        w = np.zeros((1, 2, 1, 1), np.float32)
        w[0, 0] = 2.0  # only the current frame, doubled
        policy = GatingPolicy(kernel=Tensor(w), bias=Tensor.zeros((1,)))
        m = motion_map(pair(const_frame(1, 0.4, channels=1),
                            const_frame(0, 0.9, channels=1), policy), policy)
        assert np.all(m == np.float32(0.8))

    def test_raw_arrays_in_and_out(self):
        policy = GatingPolicy.default(3)
        cur, half = pair(random_frame(1), random_frame(2), policy)
        m = motion_map((cur, half), policy)
        assert type(half) is np.ndarray and half.dtype == np.float32
        assert type(m) is np.ndarray and m.dtype == np.float32 and m.shape == (1, 6, 6)
        assert 0.0 <= m.min() and m.max() <= 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_bits_equal_the_one_expression_form(self, seed):
        rng = np.random.default_rng(seed)
        c = 1 + 2 * (seed % 2)
        w = rng.normal(size=(1, 2 * c, 1, 1)).astype(np.float32)
        policy = GatingPolicy(kernel=Tensor(w), bias=Tensor(rng.normal(size=1).astype(np.float32)))
        cur, ref = random_frame(seed, channels=c), random_frame(seed + 9, channels=c)
        full = stack(cur, ref)
        k = w[0, :, 0, 0]
        paired = k[:c, None, None] * full[:c] + k[c:, None, None] * full[c:]
        want = np.clip(np.abs(paired.sum(axis=0, keepdims=True) + policy.bias.data[0]), 0.0, 1.0)
        assert np.array_equal(bits(motion_map(pair(cur, ref, policy), policy)), bits(want))

    def test_non_finite_raw_map_rejected(self):
        # each product is finite, but their sum overflows float32
        w = np.full((1, 2, 1, 1), np.finfo(np.float32).max, np.float32)
        policy = GatingPolicy(kernel=Tensor(w), bias=Tensor.zeros((1,)))
        cur, ref = const_frame(1, 1.0, channels=1), const_frame(0, 1.0, channels=1)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            motion_map(pair(cur, ref, policy), policy)

    @pytest.mark.parametrize("where", [0, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_stack_rejected(self, bad, where):
        # a pair passed in directly, not made from checked frames
        full = np.full((6, 3, 3), 0.5, np.float32)
        full[where, 1, 2] = bad
        halves = (full[:3], full[3:])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            motion_map(halves, GatingPolicy.default(3))

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_bits_equal_the_channel_sum_form(self, seed, channels):
        rng = np.random.default_rng(seed)
        w = (rng.normal(size=(1, 2 * channels, 1, 1)) * 10.0 ** rng.uniform(-2, 1)).astype(np.float32)
        w[0, rng.integers(2 * channels), 0, 0] = (0.0, -0.0)[seed % 2]
        bias = (rng.normal(size=1) * (seed % 3)).astype(np.float32)
        policy = GatingPolicy(kernel=Tensor(w), bias=Tensor(bias))
        full = rng.random((2 * channels, 9, 11)).astype(np.float32)
        zero = rng.random(full.shape) < 0.3
        full[zero] = np.where(rng.random(zero.sum()) < 0.5, np.float32(0.0), np.float32(-0.0))
        want = oracles.channel_sum_motion_map(full, w, bias)
        cur, ref = frame(1, full[:channels]), frame(0, full[channels:])
        got = motion_map(pair(cur, ref, policy), policy)
        assert got.shape == want.shape == (1, 9, 11)
        assert np.array_equal(bits(got), bits(want))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_zero_for_any_self_stack(self, seed):
        f = random_frame(seed)
        policy = GatingPolicy.default(3)
        assert np.all(motion_map(pair(f, f, policy), policy) == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_swap_antisymmetry(self, seed):
        a, b = random_frame(seed), random_frame(seed + 1)
        policy = GatingPolicy.default(3)
        ab = motion_map(pair(a, b, policy), policy)
        ba = motion_map(pair(b, a, policy), policy)
        np.testing.assert_array_equal(ab, ba)


def mmap(values):
    return np.asarray(values, np.float32)[None]


class TestDecide:
    def test_zero_map_never_fires(self):
        policy = GatingPolicy.default(3, pixel_threshold=0.1, area_threshold=0.0)
        assert decide(mmap(np.zeros((10, 10))), policy, 0) is False

    def test_full_map_fires(self):
        policy = GatingPolicy.default(3, pixel_threshold=0.5, area_threshold=0.5)
        assert decide(mmap(np.ones((10, 10))), policy, 0) is True

    def test_area_fraction_thresholding(self):
        values = np.zeros((10, 10), np.float32)
        values[:3] = 0.9  # exactly 30% of pixels
        fired = GatingPolicy.default(3, pixel_threshold=0.5, area_threshold=0.25)
        quiet = GatingPolicy.default(3, pixel_threshold=0.5, area_threshold=0.35)
        assert decide(mmap(values), fired, 0) is True
        assert decide(mmap(values), quiet, 0) is False

    def test_force_every(self):
        policy = GatingPolicy.default(3, pixel_threshold=0.5, area_threshold=0.5,
                                      force_every=3)
        zero = mmap(np.zeros((4, 4)))
        assert decide(zero, policy, 2) is False
        assert decide(zero, policy, 3) is True
        assert decide(zero, policy, 7) is True

    def test_force_disabled_by_default(self):
        policy = GatingPolicy.default(3, pixel_threshold=0.5, area_threshold=0.5)
        assert decide(mmap(np.zeros((4, 4))), policy, 10 ** 6) is False

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31), st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_area_threshold(self, seed, tau_lo, tau_hi):
        tau_lo, tau_hi = sorted((tau_lo, tau_hi))
        rng = np.random.default_rng(seed)
        m = mmap(rng.random((8, 8)).astype(np.float32))
        lo = GatingPolicy.default(3, pixel_threshold=0.3, area_threshold=tau_lo)
        hi = GatingPolicy.default(3, pixel_threshold=0.3, area_threshold=tau_hi)
        if not decide(m, lo, 0):
            assert not decide(m, hi, 0)

    def test_pure_function(self):
        m = mmap(np.random.default_rng(0).random((6, 6)).astype(np.float32))
        policy = GatingPolicy.default(3, pixel_threshold=0.4, area_threshold=0.2)
        first = decide(m, policy, 5)
        assert all(decide(m, policy, 5) == first for _ in range(5))

    def test_negative_counter_rejected(self):
        with pytest.raises(ValueError):
            decide(mmap(np.zeros((2, 2))), GatingPolicy.default(3), -1)


class TestGatingPolicy:
    def test_threshold_range_enforced(self):
        with pytest.raises(ValueError, match="thresholds"):
            GatingPolicy.default(3, area_threshold=-1.0)
        with pytest.raises(ValueError, match="thresholds"):
            GatingPolicy.default(3, pixel_threshold=1.5)

    def test_default_weights_antisymmetric(self):
        policy = GatingPolicy.default(3)
        w = policy.kernel.data[0, :, 0, 0]
        np.testing.assert_allclose(w[:3], 1.0 / 3.0, rtol=1e-6)
        np.testing.assert_allclose(w[3:], -1.0 / 3.0, rtol=1e-6)

    def test_kernel_shape_enforced(self):
        with pytest.raises(ShapeError):
            GatingPolicy(kernel=Tensor.zeros((1, 3, 1, 1)), bias=Tensor.zeros((1,)))



def policy_with(kernel_shape=(1, 6, 1, 1), bias_shape=(1,)):
    return GatingPolicy(kernel=Tensor.zeros(kernel_shape), bias=Tensor.zeros(bias_shape))


CHECKS = [
    pytest.param(lambda: const_frame(-1, 0.5), ValueError,
                 "frame index must be non-negative", id="frame-index"),
    pytest.param(lambda: Frame(0, Tensor.zeros((4, 4))), ShapeError,
                 "frame pixels must be [C,H,W]", id="frame-rank"),
    pytest.param(lambda: const_frame(0, 0.5, channels=2), ShapeError,
                 "frame channels must be 1 or 3", id="frame-channels"),
    pytest.param(lambda: const_frame(0, 1.5), ValueError,
                 "frame pixels must lie in [0,1]", id="frame-range"),
    pytest.param(lambda: GatingPolicy.default(3, pixel_threshold=1.5), ValueError,
                 "thresholds must lie in [0,1]", id="p0"),
    pytest.param(lambda: GatingPolicy.default(3, area_threshold=-0.5), ValueError,
                 "thresholds must lie in [0,1]", id="tau"),
    pytest.param(lambda: GatingPolicy.default(3, force_every=-1), ValueError,
                 "force_every must be non-negative", id="force-every"),
    pytest.param(lambda: policy_with((1, 6, 1)), ShapeError,
                 "gate kernel must be [1,2C,1,1]", id="kernel-rank"),
    pytest.param(lambda: policy_with((2, 6, 1, 1)), ShapeError,
                 "gate kernel must be [1,2C,1,1]", id="kernel-filters"),
    pytest.param(lambda: policy_with((1, 6, 3, 1)), ShapeError,
                 "gate kernel must be [1,2C,1,1]", id="kernel-rows"),
    pytest.param(lambda: policy_with((1, 6, 1, 3)), ShapeError,
                 "gate kernel must be [1,2C,1,1]", id="kernel-columns"),
    pytest.param(lambda: policy_with((1, 3, 1, 1)), ShapeError,
                 "gate kernel needs an even channel count", id="kernel-channels"),
    pytest.param(lambda: policy_with(bias_shape=(2,)), ShapeError,
                 "gate bias must have shape (1,)", id="bias"),
    pytest.param(lambda: GatingPolicy.default(0), ValueError,
                 "channels must be positive", id="default-channels"),
    pytest.param(lambda: decide(mmap(np.zeros((2, 2))), GatingPolicy.default(3), -1),
                 ValueError, "frames_since_inference must be non-negative", id="decide"),
]


@pytest.mark.parametrize("make,error,prefix", CHECKS)
def test_checks_raise_their_documented_errors(make, error, prefix):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value).startswith(prefix)
