import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipdet.netdef import (FnetFormatError, LayerSpec, LayerWeights,
                            NetworkDescriptor, WeightStore, count_flops,
                            count_params, decode_network, effective_flops,
                            encode_network, load_network, save_network)
from skipdet.network import init_weights
from skipdet.tensor import ShapeError, Tensor
from skipdet import zoo


def toy_net(name="toy"):
    return NetworkDescriptor(name, (3, 8, 8), (
        LayerSpec.conv(3, 4, 3, stride=1, pad=1, activation="leaky", alpha=0.1),
        LayerSpec.maxpool2(),
        LayerSpec.pointwise("tanh"),
        LayerSpec.conv(4, 2, 1, activation="linear"),
    ))


class TestDescriptor:
    def test_shape_propagation(self):
        assert toy_net().layer_shapes() == [(4, 8, 8), (4, 4, 4), (4, 4, 4), (2, 4, 4)]

    def test_channel_contradiction_names_layer(self):
        with pytest.raises(ShapeError, match="layer 1"):
            NetworkDescriptor("bad", (3, 8, 8), (
                LayerSpec.conv(3, 4, 3, pad=1),
                LayerSpec.conv(8, 4, 3, pad=1),
            ))

    def test_detect_head_shape_checked(self):
        with pytest.raises(ShapeError, match="detect-head"):
            NetworkDescriptor("bad", (3, 4, 4), (
                LayerSpec.conv(3, 11, 1),
                LayerSpec.detect_head(grid=4, anchors=2, classes=1),
            ))

    def test_head_and_output_shape(self):
        head = LayerSpec.detect_head(grid=4, anchors=1, classes=1)
        net = NetworkDescriptor("h", (6, 4, 4), (LayerSpec.pointwise("abs"), head))
        assert net.detect_head() is head and net.output_shape == (6, 4, 4)
        assert toy_net().detect_head() is None and toy_net().output_shape == (2, 4, 4)
        assert NetworkDescriptor("e", (3, 5, 7), ()).output_shape == (3, 5, 7)

    def test_name_validation(self):
        with pytest.raises(ValueError):
            NetworkDescriptor("has=equals", (1, 2, 2), ())


class TestCountParams:
    def test_single_conv_layer(self):
        net = NetworkDescriptor("one", (3, 8, 8), (LayerSpec.conv(3, 16, 3, pad=1),))
        assert count_params(net) == 3 * 16 * 9 + 16 == 448

    def test_no_conv_layers(self):
        net = NetworkDescriptor("pool", (3, 8, 8), (LayerSpec.maxpool2(),))
        assert count_params(net) == 0

    def test_bundled_yolov2_voc_matches_published_total(self):
        net = zoo.load_bundled("yolov2_voc")
        assert abs(count_params(net) - 48.2e6) <= 0.02 * 48.2e6

    def test_all_ones_mask_equals_no_mask(self):
        net = toy_net()
        store = init_weights(net, 1)
        ones = store.with_masks({i: np.ones(store[i].kernel.shape, np.uint8)
                                 for i in net.conv_indices()})
        assert count_params(net, ones) == count_params(net) == count_params(net, store)

    def test_monotone_under_mask(self):
        net = toy_net()
        store = init_weights(net, 2)
        rng = np.random.default_rng(0)
        mask = (rng.random(store[0].kernel.shape) < 0.6).astype(np.uint8)
        fewer = mask.copy()
        fewer[0] = 0
        a = count_params(net, store.with_masks({0: mask}))
        b = count_params(net, store.with_masks({0: fewer}))
        assert b <= a <= count_params(net)


def test_unknown_bundled_name_lists_the_names():
    with pytest.raises(KeyError) as info:
        zoo.load_bundled("yolov3")
    assert info.value.args == (f"unknown bundled network 'yolov3', have {zoo.BUNDLED_NAMES}",)
    assert zoo.BUNDLED_NAMES == ("tiny", "yolov2_voc", "darknet19", "vgg16")


class TestCountFlops:
    def test_one_by_one_conv(self):
        net = NetworkDescriptor("c", (2, 4, 4), (LayerSpec.conv(2, 1, 1),))
        assert count_flops(net, (2, 4, 4)) == 2 * 1 * 1 * 2 * 1 * 4 * 4 == 64

    def test_zero_layer_network(self):
        net = NetworkDescriptor("empty", (3, 4, 4), ())
        assert count_flops(net, (3, 4, 4)) == 0

    def test_bundled_vgg16_matches_published_total(self):
        net = zoo.load_bundled("vgg16")
        assert abs(count_flops(net, (3, 224, 224)) - 30.69e9) <= 0.02 * 30.69e9

    def test_area_scaling(self):
        net = zoo.load_bundled("vgg16")
        assert count_flops(net, (3, 448, 448)) == 4 * count_flops(net, (3, 224, 224))

    def test_incompatible_shape_rejected(self):
        with pytest.raises(ShapeError):
            count_flops(toy_net(), (4, 8, 8))

    def test_pools_and_pointwise_layers_cost_one_op_per_output(self):
        convs = 2 * 9 * 3 * 4 * 8 * 8 + 2 * 1 * 4 * 2 * 4 * 4
        assert count_flops(toy_net(), (3, 8, 8)) == convs + 2 * 4 * 4 * 4
        store = init_weights(toy_net(), 0)
        half = store.with_masks({3: np.float32([[1, 0, 1, 0], [0, 1, 0, 1]]).reshape(2, 4, 1, 1)})
        assert effective_flops(toy_net(), (3, 8, 8), half) == convs - 2 * 4 * 4 * 4 + 2 * 4 * 4 * 4

    def test_effective_flops_scales_with_density(self):
        net = NetworkDescriptor("c", (2, 4, 4), (LayerSpec.conv(2, 2, 1),))
        store = init_weights(net, 0)
        dense = count_flops(net, (2, 4, 4))
        mask = np.ones((2, 2, 1, 1), np.uint8)
        mask[0, 0] = 0
        sparse = store.with_masks({0: mask})
        assert effective_flops(net, (2, 4, 4), sparse) == pytest.approx(dense * 0.75)
        assert effective_flops(net, (2, 4, 4), store) == pytest.approx(dense)


class TestWeightStore:
    def test_mask_zero_requires_zero_weight(self):
        kernel = Tensor(np.ones((1, 1, 1, 1), np.float32))
        mask = np.zeros((1, 1, 1, 1), np.uint8)
        with pytest.raises(ValueError, match="zero wherever"):
            LayerWeights(kernel, Tensor.zeros((1,)), mask)

    def test_store_keeps_its_own_mask(self):
        # Changing the caller's array after with_masks changes neither the
        # store's mask, nor its kernel's zeros, nor its parameter count.
        net = toy_net()
        store = init_weights(net, 3)
        m = np.ones(store[0].kernel.shape, np.uint8)
        m.ravel()[1] = 0
        masked = store.with_masks({0: m})
        count = count_params(net, masked)
        m.ravel()[0] = 0
        m.ravel()[1] = 1
        assert masked[0].mask is not m
        assert masked[0].mask.ravel()[:2].tolist() == [1, 0]
        assert masked[0].kernel.data.ravel()[0] != 0 and masked[0].kernel.data.ravel()[1] == 0
        assert count_params(net, masked) == count
        with pytest.raises(ValueError, match="read-only"):
            masked[0].mask.ravel()[0] = 0

    def test_mask_values_binary(self):
        kernel = Tensor(np.ones((1, 1, 1, 1), np.float32))
        with pytest.raises(ValueError, match="0 or 1"):
            LayerWeights(kernel, Tensor.zeros((1,)), np.full((1, 1, 1, 1), 2, np.uint8))

    def test_equals_compares_every_field(self):
        mask = np.ones((2, 1, 2, 2), np.uint8)
        mask[0, 0, 0, 1] = 0
        kernel = (np.arange(1, 9, dtype=np.float32).reshape(2, 1, 2, 2)) * mask
        bias = np.float32([0.5, -0.5])

        def store(kernel=kernel, bias=bias, mask=mask, extra=False):
            layers = {0: LayerWeights(Tensor(kernel), Tensor(bias), mask)}
            if extra:
                layers[2] = layers[0]
            return WeightStore(layers)

        assert store().equals(store(kernel.copy(), bias.copy(), mask.copy()))
        # the all-ones mask differs only where the kernel is zero anyway
        for other in (store(extra=True), store(kernel=kernel * 2), store(bias=bias + 1),
                      store(mask=None), store(mask=np.ones_like(mask))):
            assert not store().equals(other) and not other.equals(store())

    def test_validate_for_missing_layer(self):
        net = toy_net()
        store = init_weights(net, 0)
        partial = WeightStore({0: store[0]})
        with pytest.raises(ShapeError, match="layer 3"):
            partial.validate_for(net)


def random_store(net, seed, with_masks):
    rng = np.random.default_rng(seed)
    layers = {}
    for i in net.conv_indices():
        shape = net.layers[i].kernel_shape
        kernel = rng.normal(size=shape).astype(np.float32)
        bias = rng.normal(size=shape[0]).astype(np.float32)
        mask = None
        if with_masks and rng.random() < 0.7:
            mask = (rng.random(shape) < 0.8).astype(np.uint8)
            kernel = kernel * mask
        layers[i] = LayerWeights(Tensor(kernel), Tensor(bias), mask)
    return WeightStore(layers)


class TestSerialization:
    def test_round_trip_every_field(self, tmp_path):
        net = toy_net()
        store = random_store(net, 5, with_masks=True)
        path = tmp_path / "toy.fnet"
        save_network(path, net, store)
        net2, store2 = load_network(path)
        assert net2 == net
        assert store2.equals(store)

    def test_descriptor_only_round_trip(self, tmp_path):
        net = toy_net()
        path = tmp_path / "desc.fnet"
        save_network(path, net)
        net2, store2 = load_network(path)
        assert net2 == net and store2 is None

    def test_masked_round_trip_preserves_sparsity_count(self, tmp_path):
        net = toy_net()
        store = random_store(net, 11, with_masks=True)
        path = tmp_path / "masked.fnet"
        save_network(path, net, store)
        _, store2 = load_network(path)
        assert count_params(net, store2) == count_params(net, store)
        for i in net.conv_indices():
            a, b = store[i].mask, store2[i].mask
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b)

    def test_corrupted_magic(self):
        blob = bytearray(encode_network(toy_net()))
        blob[0:4] = b"XNET"
        with pytest.raises(FnetFormatError, match="magic"):
            decode_network(bytes(blob))
        # no partial result: the exception carries a byte offset instead
        try:
            decode_network(bytes(blob))
        except FnetFormatError as exc:
            assert exc.offset == 0

    def test_truncation_reports_offset(self):
        blob = encode_network(toy_net(), random_store(toy_net(), 0, False))
        for cut in (5, len(blob) // 2, len(blob) - 3):
            with pytest.raises(FnetFormatError, match="byte"):
                decode_network(blob[:cut])

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_rejected_at_its_line(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            LayerSpec.pointwise("leaky-relu", alpha=float(alpha))
        blob = encode_network(zoo.tiny_detector(), init_weights(zoo.tiny_detector(), 0))
        at = blob.index(b"alpha=0.1")
        line_start = blob.rindex(b"\n", 0, at) + 1
        mutated = blob[:at] + f"alpha={alpha}".encode() + blob[at + len(b"alpha=0.1"):]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FnetFormatError, match="alpha must be finite") as info:
                decode_network(mutated)
        assert info.value.offset == line_start

    @pytest.mark.parametrize("layer", [
        "conv;in=3;out=1;k=2147483648;stride=1;pad=1073741824;act=linear;alpha=0.1",
        "conv;in=3;out=4611686018427387904;k=3;stride=1;pad=1;act=linear;alpha=0.1"])
    def test_absurd_kernel_size_is_truncation(self, layer):
        # The kernel's byte count is exact, not wrapped to 64 bits.
        blob = f"FNET v1\nname=x\ninput=3,8,8\nlayers=1\nlayer.0={layer}\nWEIGHTS\n".encode()
        with pytest.raises(FnetFormatError, match="layer 0 kernel needs") as info:
            decode_network(blob)
        assert info.value.offset == len(blob)

    def test_negative_layer_count_rejected(self):
        blob = b"FNET v1\nname=x\ninput=3,8,8\nlayers=-2\n"
        with pytest.raises(FnetFormatError, match="layers=-2 is negative") as info:
            decode_network(blob)
        assert info.value.offset == len(blob)

    @pytest.mark.parametrize("old,new,prefix", [
        (b"name=toy\n", b"nome=toy\n", "expected name=..., got nome=..."),
        (b"name=toy\n", b"name=\xfftoy\n", "non-ASCII bytes in name"),
        (b"layer.1=maxpool2\n", b"layer.2=maxpool2\n", "expected layer.1, got layer.2"),
        (b"layer.1=maxpool2\n", b"layer.1=avgpool2\n", "unknown layer kind 'avgpool2'"),
        (b"WEIGHTS\n", b"WEIGHTZ\n", "expected WEIGHTS sentinel, got 'WEIGHTZ'"),
        (b"MASKS\n", b"MASKZ\n", "expected MASKS sentinel, got 'MASKZ'"),
    ])
    def test_bad_line_names_its_offset(self, old, new, prefix):
        blob = encode_network(toy_net(), random_store(toy_net(), 0, True))
        at = blob.index(old)
        with pytest.raises(FnetFormatError) as info:
            decode_network(blob[:at] + new + blob[at + len(old):])
        assert str(info.value).startswith(prefix) and info.value.offset == at

    def test_inconsistent_descriptor_is_a_format_error(self):
        blob = encode_network(toy_net())
        with pytest.raises(FnetFormatError) as info:
            decode_network(blob.replace(b"input=3,8,8", b"input=3,8,7"))
        assert str(info.value).startswith(
            "inconsistent descriptor: layer 1 (maxpool2): odd spatial extent 8x7")
        assert info.value.offset == len(blob)

    def test_header_cut_mid_line_is_truncation(self):
        blob = encode_network(toy_net())
        at = blob.index(b"name=")
        with pytest.raises(FnetFormatError) as info:
            decode_network(blob[:at + 4])
        assert str(info.value).startswith("truncated file while reading name")
        assert info.value.offset == at

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "bad.fnet"
        path.write_bytes(b"XNET v1\n")
        with pytest.raises(FnetFormatError) as info:
            load_network(path)
        assert str(info.value) == f"{path}: bad magic 'XNET v1', expected 'FNET v1' (byte 0)"

    def test_trailing_bytes_rejected(self):
        blob = encode_network(toy_net(), random_store(toy_net(), 0, False))
        with pytest.raises(FnetFormatError, match="trailing"):
            decode_network(blob + b"xx")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31), st.booleans(), st.integers(1, 3))
    def test_round_trip_randomized_nets(self, seed, with_masks, blocks):
        rng = np.random.default_rng(seed)
        layers = []
        channels, extent = int(rng.integers(1, 4)), 8
        in_c = channels
        for _ in range(blocks):
            out_c = int(rng.integers(1, 6))
            k = int(rng.choice([1, 3]))
            layers.append(LayerSpec.conv(in_c, out_c, k, pad=k // 2,
                                         activation=str(rng.choice(["linear", "leaky", "tanh"])),
                                         alpha=float(rng.choice([0.0, 0.1, 0.2]))))
            if extent % 2 == 0 and rng.random() < 0.5:
                layers.append(LayerSpec.maxpool2())
                extent //= 2
            in_c = out_c
        net = NetworkDescriptor(f"rand{seed}", (channels, 8, 8), tuple(layers))
        store = random_store(net, seed ^ 0x5A5A, with_masks)
        blob = encode_network(net, store)
        net2, store2 = decode_network(blob)
        assert net2 == net
        assert store2.equals(store)
        assert encode_network(net2, store2) == blob


def fuzz_blobs():
    """Tiny FNET bytes: descriptor-only, weighted, and masked."""
    net = NetworkDescriptor("fz", (1, 2, 2), (
        LayerSpec.conv(1, 2, 1, activation="leaky"),
        LayerSpec.maxpool2(),
        LayerSpec.pointwise("tanh"),
        LayerSpec.conv(2, 1, 1),
    ))
    store = init_weights(net, 3)
    masked = store.with_masks({0: np.array([1, 0], np.uint8).reshape(2, 1, 1, 1)})
    return {"descriptor": encode_network(net), "weighted": encode_network(net, store),
            "masked": encode_network(net, masked)}


FUZZ_BLOBS = fuzz_blobs()


class TestMutatedFnet:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(FUZZ_BLOBS)),
           st.sampled_from(["truncate", "replace", "insert"]), st.integers(0, 280),
           st.binary(min_size=1, max_size=4))
    def test_fails_only_with_format_error(self, variant, how, at, junk):
        data = FUZZ_BLOBS[variant]
        at = min(at, len(data))
        if how == "truncate":
            data = data[:at]
        elif how == "replace":
            data = data[:at] + junk + data[at + len(junk):]
        else:
            data = data[:at] + junk + data[at:]
        try:
            net, store = decode_network(data)
        except FnetFormatError as exc:
            assert 0 <= exc.offset <= len(data)
        else:
            assert isinstance(net, NetworkDescriptor)
            if store is not None:
                store.validate_for(net)


def conv_store(kernel_shape):
    return WeightStore({0: LayerWeights(Tensor.zeros(kernel_shape), Tensor.zeros(kernel_shape[:1]))})


ONE_CONV = NetworkDescriptor("one", (1, 4, 4), (LayerSpec.conv(1, 2, 3, pad=1),))

CHECKS = [
    pytest.param(lambda: LayerSpec.conv(1, 1, 1, alpha=float("nan")), ValueError,
                 "alpha must be finite", id="alpha"),
    pytest.param(lambda: LayerSpec.conv(0, 1, 1), ValueError,
                 "conv layer extents must be positive", id="conv-in"),
    pytest.param(lambda: LayerSpec.conv(1, 0, 1), ValueError,
                 "conv layer extents must be positive", id="conv-out"),
    pytest.param(lambda: LayerSpec.conv(1, 1, 0), ValueError,
                 "conv layer extents must be positive", id="conv-kernel"),
    pytest.param(lambda: LayerSpec.conv(1, 1, 1, stride=0), ValueError,
                 "conv layer extents must be positive", id="conv-stride"),
    pytest.param(lambda: LayerSpec.conv(1, 1, 1, pad=-1), ValueError,
                 "conv pad must be non-negative", id="conv-pad"),
    pytest.param(lambda: LayerSpec.conv(1, 1, 1, activation="relu"), ValueError,
                 "conv activation must be one of", id="conv-activation"),
    pytest.param(lambda: LayerSpec.pointwise("relu"), ValueError,
                 "pointwise fn must be one of", id="pointwise-fn"),
    pytest.param(lambda: LayerSpec.detect_head(2, 0, 1), ValueError,
                 "detect-head extents must be positive", id="head-extents"),
    pytest.param(lambda: LayerSpec("dense"), ValueError,
                 "unknown layer kind 'dense'", id="kind"),
    pytest.param(lambda: LayerSpec.maxpool2().kernel_shape, ValueError,
                 "maxpool2 layers have no kernel", id="pool-kernel-shape"),
    pytest.param(lambda: NetworkDescriptor("n", (1, 4, 4), (LayerSpec.conv(2, 1, 1),)),
                 ShapeError, "layer 0 (conv): expects 2 input channels but receives 1",
                 id="conv-channels"),
    pytest.param(lambda: NetworkDescriptor("n", (1, 4, 6), (LayerSpec.pointwise("abs"),
                                                            LayerSpec.conv(1, 1, 5))),
                 ShapeError, "layer 1 (conv): non-positive output extent 0x2", id="conv-rows"),
    pytest.param(lambda: NetworkDescriptor("n", (1, 6, 4), (LayerSpec.conv(1, 1, 5),)),
                 ShapeError, "layer 0 (conv): non-positive output extent 2x0", id="conv-columns"),
    pytest.param(lambda: NetworkDescriptor("n", (1, 3, 4), (LayerSpec.maxpool2(),)),
                 ShapeError, "layer 0 (maxpool2): odd spatial extent 3x4", id="pool-rows"),
    pytest.param(lambda: NetworkDescriptor("n", (1, 4, 3), (LayerSpec.maxpool2(),)),
                 ShapeError, "layer 0 (maxpool2): odd spatial extent 4x3", id="pool-columns"),
    pytest.param(lambda: NetworkDescriptor("n", (12, 2, 2), (LayerSpec.detect_head(2, 2, 2),)),
                 ShapeError, "layer 0 (detect-head): expects input shape (14, 2, 2)", id="head"),
    pytest.param(lambda: NetworkDescriptor("n", (1, 0, 4), ()), ShapeError,
                 "input shape must be 3 positive extents", id="input-extent"),
    pytest.param(lambda: NetworkDescriptor("n", (1, 4), ()), ShapeError,
                 "input shape must be 3 positive extents", id="input-rank"),
    pytest.param(lambda: NetworkDescriptor("a=b", (1, 4, 4), ()), ValueError,
                 "descriptor name must be non-empty without '='", id="name"),
    pytest.param(lambda: LayerWeights(Tensor.zeros((2, 1, 1)), Tensor.zeros((2,))),
                 ShapeError, "kernel must be rank 4", id="kernel-rank"),
    pytest.param(lambda: LayerWeights(Tensor.zeros((2, 1, 1, 1)), Tensor.zeros((1,))),
                 ShapeError, "bias shape (1,) does not match kernel filters 2", id="bias-size"),
    pytest.param(lambda: LayerWeights(Tensor.zeros((2, 1, 1, 1)), Tensor.zeros((2, 1))),
                 ShapeError, "bias shape (2, 1) does not match kernel filters 2", id="bias-rank"),
    pytest.param(lambda: LayerWeights(Tensor.zeros((2, 1, 1, 1)), Tensor.zeros((2,)),
                                      np.ones((2, 1, 1, 2))),
                 ShapeError, "mask shape (2, 1, 1, 2) != kernel shape (2, 1, 1, 1)", id="mask"),
    pytest.param(lambda: LayerWeights(Tensor.zeros((2, 1, 1, 1)), Tensor.zeros((2,)),
                                      np.full((2, 1, 1, 1), 2)),
                 ValueError, "mask values must be 0 or 1", id="mask-values"),
    pytest.param(lambda: LayerWeights(Tensor.full((2, 1, 1, 1), 1.0), Tensor.zeros((2,)),
                                      np.zeros((2, 1, 1, 1))),
                 ValueError, "kernel must be zero wherever the mask is zero", id="masked-kernel"),
    pytest.param(lambda: WeightStore({}).validate_for(ONE_CONV), ShapeError,
                 "layer 0 (conv): no weights in store", id="store-missing"),
    pytest.param(lambda: count_params(ONE_CONV, WeightStore({})), ShapeError,
                 "layer 0 (conv): no weights in store", id="params-store"),
    pytest.param(lambda: effective_flops(ONE_CONV, (1, 4, 4), WeightStore({})), ShapeError,
                 "layer 0 (conv): no weights in store", id="flops-store"),
    pytest.param(lambda: encode_network(ONE_CONV, WeightStore({})), ShapeError,
                 "layer 0 (conv): no weights in store", id="encode-store"),
    pytest.param(lambda: conv_store((2, 1, 1, 1)).validate_for(ONE_CONV), ShapeError,
                 "layer 0 (conv): kernel shape (2, 1, 1, 1) does not match descriptor "
                 "(2, 1, 3, 3)", id="store-shape"),
]


@pytest.mark.parametrize("make,error,prefix", CHECKS)
def test_checks_raise_their_documented_errors(make, error, prefix):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value).startswith(prefix)
