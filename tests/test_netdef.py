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

    def test_mask_values_binary(self):
        kernel = Tensor(np.ones((1, 1, 1, 1), np.float32))
        with pytest.raises(ValueError, match="0 or 1"):
            LayerWeights(kernel, Tensor.zeros((1,)), np.full((1, 1, 1, 1), 2, np.uint8))

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
