import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skipdet import network, zoo
from skipdet.detector import OBJECTNESS_BIAS_INIT, AnchorPrior, DetectionBox, build_target_map
from skipdet.netdef import LayerSpec, LayerWeights, NetworkDescriptor, WeightStore
from skipdet.network import (TrainConfig, TrainingDivergence, _backward_batch, _forward_batch,
                             _infer, evaluate_loss, forward, init_weights, loss_gradients,
                             train_sgd)
from skipdet.tensor import (CALL_COLUMNS, POINTWISE_FNS, ShapeError, Tensor, _conv2d_batch,
                            _conv2d_rows)

import faults
import oracles


def weights_map(store, indices):
    return {i: (store[i].kernel.data, store[i].bias.data) for i in indices}


def gradcheck_net():
    return NetworkDescriptor("gradnet", (2, 8, 8), (
        LayerSpec.conv(2, 4, 3, stride=1, pad=1, activation="leaky", alpha=0.1),
        LayerSpec.maxpool2(),
        LayerSpec.conv(4, 3, 3, stride=1, pad=1, activation="tanh"),
        LayerSpec.pointwise("sigmoid"),
        LayerSpec.maxpool2(),
        LayerSpec.conv(3, 12, 1, activation="linear"),
        LayerSpec.detect_head(grid=2, anchors=2, classes=1),
    ))


def pooled_slots(net):
    """The record slots that hold None: the output of each conv that a 2x2
    max pool reads next, which a forward never keeps."""
    layers = net.layers
    return [i + 1 for i in range(len(layers) - 1)
            if layers[i].kind == "conv" and layers[i + 1].kind == "maxpool2"]


def detector_target(seed=0):
    t = np.zeros((12, 2, 2), np.float32)
    v = t.reshape(2, 6, 2, 2)
    v[0, :, 0, 1] = [0.3, 0.6, 0.1, -0.2, 1.0, 1.0]
    v[1, :, 1, 0] = [0.8, 0.2, -0.1, 0.3, 1.0, 1.0]
    return Tensor(t)


class TestForward:
    def test_identity_network(self):
        net = NetworkDescriptor("id", (1, 4, 4), (LayerSpec.conv(1, 1, 1),))
        store = WeightStore({0: LayerWeights(Tensor(np.ones((1, 1, 1, 1), np.float32)),
                                             Tensor.zeros((1,)))})
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((1, 4, 4)).astype(np.float32))
        out = forward(net, store, x)
        assert np.array_equal(out.data, x.data)

    def test_all_ones_mask_is_neutral(self):
        net = gradcheck_net()
        store = init_weights(net, 4)
        masked = store.with_masks({i: np.ones(store[i].kernel.shape, np.uint8)
                                   for i in net.conv_indices()})
        x = Tensor(np.random.default_rng(1).random((2, 8, 8)).astype(np.float32))
        assert np.array_equal(forward(net, store, x).data, forward(net, masked, x).data)

    def test_two_layer_oracle(self):
        net = NetworkDescriptor("two", (2, 6, 6), (
            LayerSpec.conv(2, 3, 3, pad=1, activation="leaky", alpha=0.1),
            LayerSpec.conv(3, 2, 1, activation="sigmoid"),
        ))
        store = init_weights(net, 9)
        x = Tensor(np.random.default_rng(2).random((2, 6, 6)).astype(np.float32))
        got = forward(net, store, x)
        want = oracles.naive_forward(net, weights_map(store, net.conv_indices()), x.data)
        np.testing.assert_allclose(got.data, want, atol=1e-5)

    def test_deterministic(self):
        net = gradcheck_net()
        store = init_weights(net, 7)
        x = Tensor(np.random.default_rng(3).random((2, 8, 8)).astype(np.float32))
        a = forward(net, store, x)
        b = forward(net, store, x)
        assert np.array_equal(a.data, b.data)

    def test_missing_weights_names_layer(self):
        net = gradcheck_net()
        store = init_weights(net, 0)
        partial = WeightStore({i: store[i] for i in net.conv_indices()[:-1]})
        with pytest.raises(ShapeError, match="layer 5"):
            forward(net, partial, Tensor.zeros((2, 8, 8)))

    def test_non_finite_output_raises(self):
        # each product is finite, but their sum overflows float32
        net = NetworkDescriptor("ovf", (2, 3, 3), (LayerSpec.conv(2, 1, 1),))
        store = WeightStore({0: LayerWeights(Tensor.full((1, 2, 1, 1), 3e38),
                                             Tensor.zeros((1,)))})
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
            forward(net, store, Tensor.full((2, 3, 3), 1.0))

    def test_wrong_input_shape(self):
        net = gradcheck_net()
        with pytest.raises(ShapeError, match="input shape"):
            forward(net, init_weights(net, 0), Tensor.zeros((2, 6, 6)))


CONV_ACTIVATIONS = [("leaky", 0.0), ("leaky", 0.1), ("linear", 0.1),
                    ("sigmoid", 0.1), ("tanh", 0.1)]


def random_net(seed):
    """Five convs, one per activation in random order, one of them 3x3 at
    stride 2 and pad 2; even seeds start with a pointwise layer, and a conv
    whose output extent is even may be followed by a maxpool."""
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 4))
    hw = int(rng.integers(9, 15))
    input_shape = (c, hw, hw)
    layers = []
    if seed % 2 == 0:
        layers.append(LayerSpec.pointwise(POINTWISE_FNS[seed // 2 % len(POINTWISE_FNS)],
                                          alpha=0.1))
    strided = int(rng.integers(5))
    for n, j in enumerate(rng.permutation(len(CONV_ACTIVATIONS))):
        activation, alpha = CONV_ACTIVATIONS[j]
        if n == strided:
            k, stride, pad = 3, 2, 2
        else:
            k = int(rng.integers(1, 4))
            stride, pad = 1, int(rng.integers(k // 2, 3))
        f = int(rng.integers(1, 6))
        layers.append(LayerSpec.conv(c, f, k, stride=stride, pad=pad,
                                     activation=activation, alpha=alpha))
        c, hw = f, (hw + 2 * pad - k) // stride + 1
        if hw % 2 == 0 and hw >= 4 and rng.random() < 0.5:
            layers.append(LayerSpec.maxpool2())
            hw //= 2
    return NetworkDescriptor(f"rand{seed}", input_shape, tuple(layers))


def pointwise_first_net():
    return NetworkDescriptor("pwfirst", (2, 6, 6), (
        LayerSpec.pointwise("leaky-relu", alpha=0.1),
        LayerSpec.conv(2, 3, 3, pad=1, activation="leaky", alpha=0.1),
        LayerSpec.conv(3, 2, 1, activation="linear"),
    ))


class TestInferencePath:
    """The inference loop writes activations in place on its own buffers."""

    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("seed", range(6))
    def test_same_bits_as_training_path(self, seed, batch):
        net = random_net(seed)
        store = init_weights(net, seed)
        weights = weights_map(store, net.conv_indices())
        rng = np.random.default_rng(seed + 100)
        xb = rng.normal(size=(batch,) + net.input_shape).astype(np.float32)
        xb[rng.random(xb.shape) < 0.1] = -0.0
        before = xb.copy()
        caches, record = [], []
        trained = _forward_batch(net, weights, xb, caches)
        for inferred in (_infer(net, weights, xb), _infer(net, weights, xb, record=record)):
            assert inferred.shape == (batch,) + net.output_shape
            assert np.array_equal(inferred.view(np.uint32), trained.view(np.uint32))
        assert len(record) == len(net.layers) + 1
        assert [i for i, r in enumerate(record) if r is None] == pooled_slots(net)
        for got, want in zip(record, [xb] + [post for _, _, _, post in caches]):
            if got is not None:
                assert not got.flags.writeable
                assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        # the record holds a read-only view of the input, which stays writable
        assert np.array_equal(xb.view(np.uint32), before.view(np.uint32)) and xb.flags.writeable

    @pytest.mark.parametrize("make_net", [pointwise_first_net, gradcheck_net,
                                          lambda: random_net(0)])
    def test_inputs_and_weights_untouched(self, make_net):
        net = make_net()
        store = init_weights(net, 3)
        rng = np.random.default_rng(4)
        xs = [Tensor(rng.normal(size=net.input_shape).astype(np.float32)) for _ in range(3)]
        targets = [Tensor(rng.normal(size=net.output_shape).astype(np.float32)) for _ in xs]

        def snapshot():
            return ([x.data.tobytes() for x in xs + targets],
                    [(lw.kernel.data.tobytes(), lw.bias.data.tobytes())
                     for _, lw in store.items()])

        before = snapshot()
        for x in xs:
            forward(net, store, x)
        evaluate_loss(net, store, list(zip(xs, targets)), "squared-error")
        assert snapshot() == before


def oracle_nets():
    """Nets for the tagged-cache oracle: a pointwise or pool first layer,
    leaky convs with alpha 0, 0.1 and 1.5, every other conv activation,
    stride 2 at pad 0 and 1, 1x1 convs (whose columns view their input),
    and a detect head."""
    return {
        "pointwise-first": pointwise_first_net(),
        "pool-first": NetworkDescriptor("poolfirst", (2, 8, 8), (
            LayerSpec.maxpool2(),
            LayerSpec.conv(2, 3, 3, stride=2, pad=1, activation="leaky", alpha=1.5),
            LayerSpec.pointwise("abs"),
            LayerSpec.conv(3, 2, 1, activation="sigmoid"),
        )),
        "activations": NetworkDescriptor("acts", (3, 9, 9), (
            LayerSpec.conv(3, 4, 3, stride=2, pad=0, activation="leaky", alpha=0.0),
            LayerSpec.conv(4, 4, 1, activation="leaky", alpha=0.1),
            LayerSpec.conv(4, 3, 3, pad=1, activation="leaky", alpha=1.5),
            LayerSpec.conv(3, 3, 1, activation="tanh"),
            LayerSpec.pointwise("clamp01"),
            LayerSpec.conv(3, 2, 3, stride=2, pad=1, activation="sigmoid"),
            LayerSpec.conv(2, 2, 1, activation="linear"),
        )),
        "detect-head": gradcheck_net(),
    }


def assert_same_grads(got, want):
    assert list(got) == list(want)
    for i in want:
        for a, b in zip(got[i], want[i]):
            assert a.dtype == b.dtype and np.array_equal(a.view(np.uint32), b.view(np.uint32))


class TestTaggedCacheOracle:
    """One record per layer gives the same bits as the earlier engine's
    kind-tagged caches, in outputs, gradients and training."""

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("name", list(oracle_nets()))
    def test_outputs_and_gradients(self, name, batch):
        net = oracle_nets()[name]
        weights = weights_map(init_weights(net, 2), net.conv_indices())
        rng = np.random.default_rng(batch)
        xb = rng.normal(size=(batch,) + net.input_shape).astype(np.float32)
        xb[rng.random(xb.shape) < 0.1] = -0.0
        grad_out = rng.normal(size=(batch,) + net.output_shape).astype(np.float32)
        records, tagged = [], []
        got = _forward_batch(net, weights, xb, records)
        want = oracles.tagged_forward_batch(net, weights, xb, tagged)
        assert len(records) == len(net.layers)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert np.array_equal(_infer(net, weights, xb).view(np.uint32),
                              oracles.tagged_forward_batch(net, weights, xb).view(np.uint32))
        kept = grad_out.tobytes()
        got = _backward_batch(net, weights, records, grad_out)
        assert grad_out.tobytes() == kept  # the caller's array is never written
        assert_same_grads(got, oracles.tagged_backward_batch(net, weights, tagged, grad_out))
        assert records[1:] == [None] * (len(records) - 1)  # dropped once walked

    @pytest.mark.parametrize("name", list(oracle_nets()))
    def test_layer_0_gets_no_col2im(self, name, monkeypatch):
        net = oracle_nets()[name]
        weights = weights_map(init_weights(net, 0), net.conv_indices())
        xb = np.ones((2,) + net.input_shape, np.float32)
        records = []
        out = _forward_batch(net, weights, xb, records)
        want = [records[i][0].shape[1:] for i in reversed(net.conv_indices()) if i]
        sizes = []
        real_col2im = network._col2im_batch

        def col2im(dcols, *args):
            sizes.append(args[:3])
            return real_col2im(dcols, *args)

        monkeypatch.setattr(network, "_col2im_batch", col2im)
        _backward_batch(net, weights, records, np.ones_like(out))
        assert sizes == want

    def test_masked_train_sgd(self, monkeypatch):
        net = gradcheck_net()
        rng = np.random.default_rng(6)
        base = init_weights(net, 3)
        store = base.with_masks({i: (rng.random(base[i].kernel.shape) < 0.6).astype(np.uint8)
                                 for i in net.conv_indices()})
        dataset = [(Tensor(rng.random((2, 8, 8)).astype(np.float32)), detector_target())
                   for _ in range(6)]
        cfg = TrainConfig(learning_rate=0.01, epochs=3, batch_size=4, seed=2,
                          loss="detector-composite")
        got = train_sgd(net, store, dataset, cfg)
        monkeypatch.setattr(network, "_forward_batch", oracles.tagged_forward_batch)
        monkeypatch.setattr(network, "_backward_batch", oracles.tagged_backward_batch)
        assert got.equals(train_sgd(net, store, dataset, cfg))


FAULTS_PER_FORWARD = textwrap.dedent("""
    import resource
    import sys
    import numpy as np
    from skipdet.network import forward, init_weights
    from skipdet.tensor import Tensor
    from skipdet.zoo import load_bundled

    net = load_bundled("tiny")
    store = init_weights(net, 0)
    x = Tensor(np.random.default_rng(0).random(net.input_shape, dtype=np.float32))
    for _ in range(20):
        forward(net, store, x)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        forward(net, store, x)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50, file=sys.stderr)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts are Linux's")
def test_warm_forward_does_not_refault_its_heap():
    # Fresh processes, since this one's heap history can hide the faults.
    # A forward whose transient peak exceeds the allocator's trim point
    # gives its pages back after every call and faults them in again.
    pytest.importorskip("resource")
    counts = faults.fault_counts(FAULTS_PER_FORWARD, timeout=120)
    assert max(counts.values()) < 20, counts


class TestTrainSgd:
    def test_zero_epochs_is_noop(self):
        net = gradcheck_net()
        store = init_weights(net, 0)
        cfg = TrainConfig(learning_rate=0.5, epochs=0, batch_size=2, seed=0,
                          loss="detector-composite")
        dataset = [(Tensor.zeros((2, 8, 8)), detector_target())]
        out = train_sgd(net, store, dataset, cfg)
        for i in net.conv_indices():
            assert np.array_equal(out[i].kernel.data, store[i].kernel.data)
            assert np.array_equal(out[i].bias.data, store[i].bias.data)

    def test_linear_regression_loss_decreases(self):
        # 2-input 1-output linear layer fit on separable points.
        net = NetworkDescriptor("lin", (2, 1, 1), (LayerSpec.conv(2, 1, 1),))
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(200, 2)).astype(np.float32)
        ys = (1.5 * xs[:, 0] - 0.7 * xs[:, 1] + 0.2).astype(np.float32)
        dataset = [(Tensor(x.reshape(2, 1, 1)), Tensor(np.array([y]).reshape(1, 1, 1)))
                   for x, y in zip(xs, ys)]
        store = init_weights(net, 0)
        before = evaluate_loss(net, store, dataset, "squared-error")
        cfg = TrainConfig(learning_rate=0.05, epochs=100, batch_size=16, seed=1)
        after_store = train_sgd(net, store, dataset, cfg)
        after = evaluate_loss(net, after_store, dataset, "squared-error")
        assert after < before
        assert after < 1e-3

    def test_masked_synapses_stay_exactly_zero(self):
        net = gradcheck_net()
        base = init_weights(net, 3)
        rng = np.random.default_rng(4)
        masks = {i: (rng.random(base[i].kernel.shape) < 0.6).astype(np.uint8)
                 for i in net.conv_indices()}
        store = base.with_masks(masks)
        dataset = [(Tensor(rng.random((2, 8, 8)).astype(np.float32)), detector_target())
                   for _ in range(8)]
        # check after every single epoch, not just at the end
        for epoch_seed in range(3):
            cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=4,
                              seed=epoch_seed, loss="detector-composite")
            store = train_sgd(net, store, dataset, cfg)
            for i in net.conv_indices():
                assert np.all(store[i].kernel.data[masks[i] == 0] == 0.0)
        # training must have changed the unmasked weights
        assert not np.array_equal(store[0].kernel.data, base.with_masks(masks)[0].kernel.data)

    def test_bit_exact_reproducibility(self):
        net = gradcheck_net()
        rng = np.random.default_rng(5)
        dataset = [(Tensor(rng.random((2, 8, 8)).astype(np.float32)), detector_target())
                   for _ in range(6)]
        cfg = TrainConfig(learning_rate=0.01, epochs=5, batch_size=4, seed=11,
                          loss="detector-composite")
        a = train_sgd(net, init_weights(net, 1), dataset, cfg)
        b = train_sgd(net, init_weights(net, 1), dataset, cfg)
        assert a.equals(b)

    def test_divergence_reports_epoch_and_loss(self):
        net = gradcheck_net()
        rng = np.random.default_rng(6)
        dataset = [(Tensor(rng.random((2, 8, 8)).astype(np.float32)), detector_target())
                   for _ in range(4)]
        cfg = TrainConfig(learning_rate=1e6, epochs=10, batch_size=4, seed=0,
                          loss="detector-composite")
        with pytest.raises(TrainingDivergence) as err:
            train_sgd(net, init_weights(net, 0), dataset, cfg)
        assert err.value.epoch >= 0
        assert not np.isfinite(err.value.loss)

    def test_divergence_stops_at_the_diverging_batch(self, monkeypatch):
        # The diverging batch runs its backward pass, whose gradients are
        # never applied, and no batch runs after it.
        calls = []
        forward_batch, backward_batch = network._forward_batch, network._backward_batch
        monkeypatch.setattr(network, "_forward_batch",
                            lambda *a: calls.append("forward") or forward_batch(*a))
        monkeypatch.setattr(network, "_backward_batch",
                            lambda *a: calls.append("backward") or backward_batch(*a))
        net = gradcheck_net()
        rng = np.random.default_rng(6)
        dataset = [(Tensor(rng.random((2, 8, 8)).astype(np.float32)), detector_target())
                   for _ in range(4)]
        cfg = TrainConfig(learning_rate=1e6, epochs=10, batch_size=4, seed=0,
                          loss="detector-composite")
        with pytest.raises(TrainingDivergence):
            train_sgd(net, init_weights(net, 0), dataset, cfg)
        assert calls[-2:] == ["forward", "backward"]
        assert calls.count("forward") == calls.count("backward") > 1

    def test_empty_dataset_rejected(self):
        net = gradcheck_net()
        with pytest.raises(ValueError, match="non-empty"):
            train_sgd(net, init_weights(net, 0), [],
                      TrainConfig(learning_rate=0.1, epochs=1))

    def test_target_shape_checked(self):
        net = gradcheck_net()
        with pytest.raises(ShapeError, match="target shape"):
            train_sgd(net, init_weights(net, 0),
                      [(Tensor.zeros((2, 8, 8)), Tensor.zeros((3, 2, 2)))],
                      TrainConfig(learning_rate=0.1, epochs=1))


class TestConcurrency:
    def test_concurrent_forward_calls_agree(self):
        from concurrent.futures import ThreadPoolExecutor
        net = gradcheck_net()
        store = init_weights(net, 12)
        rng = np.random.default_rng(12)
        xs = [Tensor(rng.random((2, 8, 8)).astype(np.float32)) for _ in range(16)]
        expected = [forward(net, store, x).data for x in xs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda x: forward(net, store, x).data, xs))
        for e, g in zip(expected, got):
            assert np.array_equal(e, g)


@pytest.mark.parametrize("anchors,classes", [(2, 1), (3, 4)])
def test_init_weights_sets_only_the_objectness_biases(anchors, classes):
    net = NetworkDescriptor("head", (1, 4, 4), (
        LayerSpec.conv(1, 3, 3, pad=1, activation="leaky"),
        LayerSpec.conv(3, anchors * (5 + classes), 1),
        LayerSpec.detect_head(grid=4, anchors=anchors, classes=classes),
    ))
    store = init_weights(net, 0)
    assert np.array_equal(store[0].bias.data, np.zeros(3, np.float32))
    want = np.zeros(anchors * (5 + classes), np.float32)
    want[[a * (5 + classes) + 4 for a in range(anchors)]] = OBJECTNESS_BIAS_INIT
    assert np.array_equal(store[1].bias.data, want)


class TestTrainConfig:
    def test_validation(self):
        for lr in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                TrainConfig(learning_rate=lr, epochs=1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, epochs=1, loss="hinge")
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, epochs=1, batch_size=0)


class TestGradients:
    """Analytic gradients against float64 central finite differences."""

    @pytest.mark.parametrize("loss", ["detector-composite", "squared-error"])
    def test_full_net_gradcheck(self, loss):
        net = gradcheck_net()
        store = init_weights(net, 5)
        rng = np.random.default_rng(5)
        x = Tensor(rng.random((2, 8, 8)).astype(np.float32))
        if loss == "detector-composite":
            dataset = [(x, detector_target())]
        else:
            dataset = [(x, Tensor(rng.random((12, 2, 2)).astype(np.float32)))]
        _, analytic = loss_gradients(net, store, dataset, loss)
        wm = weights_map(store, net.conv_indices())
        fd = oracles.fd_loss_gradients(
            net, wm, [(x.data, dataset[0][1].data)], loss, step=1e-3)
        assert oracles.max_relative_error(analytic, fd) < 1e-2

    def test_composite_gradcheck_with_classes_and_a_batch(self):
        # Three classes, so the class softmax varies, and two items with
        # different targets, so the batch mean scales the gradient.
        net = NetworkDescriptor("classes", (2, 4, 4), (
            LayerSpec.conv(2, 3, 3, pad=1, activation="leaky", alpha=0.1),
            LayerSpec.maxpool2(),
            LayerSpec.conv(3, 16, 1, activation="linear"),
            LayerSpec.detect_head(grid=2, anchors=2, classes=3),
        ))
        store = init_weights(net, 9)
        rng = np.random.default_rng(9)
        anchors = [AnchorPrior(0.6, 0.6), AnchorPrior(1.4, 1.4)]
        targets = ([DetectionBox(0.3, 0.7, 0.3, 0.2, 1.0, 2, 1.0)],
                   [DetectionBox(0.8, 0.2, 0.6, 0.7, 1.0, 1, 1.0),
                    DetectionBox(0.2, 0.3, 0.25, 0.3, 1.0, 0, 1.0)])
        dataset = [(Tensor(rng.random((2, 4, 4)).astype(np.float32)),
                    build_target_map(boxes, 2, anchors, 3)) for boxes in targets]
        _, analytic = loss_gradients(net, store, dataset, "detector-composite")
        fd = oracles.fd_loss_gradients(net, weights_map(store, net.conv_indices()),
                                       [(x.data, t.data) for x, t in dataset],
                                       "detector-composite", step=1e-3)
        assert oracles.max_relative_error(analytic, fd) < 1e-2

    def test_oracle_loss_agrees_with_production(self):
        net = gradcheck_net()
        store = init_weights(net, 8)
        rng = np.random.default_rng(8)
        x = Tensor(rng.random((2, 8, 8)).astype(np.float32))
        dataset = [(x, detector_target())]
        prod = evaluate_loss(net, store, dataset, "detector-composite")
        ref = oracles.naive_loss(net, weights_map(store, net.conv_indices()),
                                 [(x.data, dataset[0][1].data)], "detector-composite")
        assert prod == pytest.approx(ref, rel=1e-5)

    @pytest.mark.parametrize("fn", [evaluate_loss, loss_gradients])
    def test_unknown_loss_rejected(self, fn):
        net = gradcheck_net()
        dataset = [(Tensor(np.zeros((2, 8, 8), np.float32)), detector_target())]
        with pytest.raises(ValueError, match="loss must be one of .*squared-error.*"
                                             "detector-composite.*got 'bogus'"):
            fn(net, init_weights(net, 0), dataset, "bogus")

    @pytest.mark.parametrize("fn,alpha", [("leaky-relu", 0.1), ("leaky-relu", 0.0),
                                          ("sigmoid", 0.1), ("tanh", 0.1),
                                          ("abs", 0.1), ("clamp01", 0.1)])
    def test_each_pointwise_fn_gradcheck(self, fn, alpha):
        net = NetworkDescriptor("pw", (2, 4, 4), (
            LayerSpec.conv(2, 3, 3, pad=1, activation="linear"),
            LayerSpec.pointwise(fn, alpha=alpha),
            LayerSpec.conv(3, 1, 1, activation="linear"),
        ))
        store = init_weights(net, 2)
        rng = np.random.default_rng(3)
        # offset inputs away from the kinks of abs/clamp01/leaky at 0 and 1
        x = Tensor((0.2 + 0.6 * rng.random((2, 4, 4))).astype(np.float32))
        t = Tensor(rng.random((1, 4, 4)).astype(np.float32))
        _, analytic = loss_gradients(net, store, [(x, t)], "squared-error")
        fd = oracles.fd_loss_gradients(net, weights_map(store, net.conv_indices()),
                                       [(x.data, t.data)], "squared-error", step=1e-3)
        assert oracles.max_relative_error(analytic, fd) < 1e-2

    def test_strided_conv_gradcheck(self):
        net = NetworkDescriptor("stride", (2, 9, 9), (
            LayerSpec.conv(2, 3, 3, stride=2, pad=1, activation="leaky", alpha=0.1),
            LayerSpec.conv(3, 1, 1, activation="linear"),
        ))
        store = init_weights(net, 6)
        rng = np.random.default_rng(6)
        x = Tensor(rng.random((2, 9, 9)).astype(np.float32))
        t = Tensor(rng.random((1, 5, 5)).astype(np.float32))
        _, analytic = loss_gradients(net, store, [(x, t)], "squared-error")
        fd = oracles.fd_loss_gradients(net, weights_map(store, net.conv_indices()),
                                       [(x.data, t.data)], "squared-error", step=1e-3)
        assert oracles.max_relative_error(analytic, fd) < 1e-2


def banded_nets():
    """Nets whose convs span several BLAS calls: kernels 1, 2, 3 and 5,
    stride 2, pad 0 to 2, odd extents, pools and pointwise layers, and a
    stride-2 1x1 conv that sees only every other row."""
    return {
        "kernels": NetworkDescriptor("kernels", (2, 41, 19), (
            LayerSpec.conv(2, 3, 5, pad=2, activation="leaky", alpha=0.1),
            LayerSpec.conv(3, 4, 2, activation="tanh"),
            LayerSpec.maxpool2(),
            LayerSpec.pointwise("sigmoid"),
            LayerSpec.conv(4, 3, 3, stride=2, pad=1, activation="sigmoid"),
            LayerSpec.conv(3, 2, 1, activation="linear"),
        )),
        "strided": NetworkDescriptor("strided", (3, 130, 9), (
            LayerSpec.pointwise("abs"),
            LayerSpec.conv(3, 4, 3, stride=2, pad=2, activation="leaky", alpha=1.5),
            LayerSpec.conv(4, 3, 1, stride=2, pad=1, activation="leaky", alpha=0.0),
            LayerSpec.conv(3, 2, 3, stride=2, pad=0, activation="linear"),
        )),
        "odd": NetworkDescriptor("odd", (1, 45, 23), (
            LayerSpec.conv(1, 2, 3, pad=1, activation="leaky", alpha=0.1),
            LayerSpec.pointwise("clamp01"),
            LayerSpec.conv(2, 3, 5, activation="tanh"),
            LayerSpec.conv(3, 2, 2, stride=2, pad=1, activation="leaky", alpha=0.1),
        )),
    }


def pool_nets():
    """Nets whose pools no conv feeds directly: a pool after a pointwise
    layer, and a pool after a pool, each on a map wider than one BLAS call."""
    return {
        "pool-after-pointwise": NetworkDescriptor("poolpw", (2, 20, 36), (
            LayerSpec.conv(2, 3, 3, pad=1, activation="linear"),
            LayerSpec.pointwise("abs"),
            LayerSpec.maxpool2(),
            LayerSpec.conv(3, 2, 3, pad=1, activation="leaky", alpha=0.1),
        )),
        "pool-after-pool": NetworkDescriptor("poolpool", (2, 24, 40), (
            LayerSpec.conv(2, 3, 3, pad=1, activation="tanh"),
            LayerSpec.maxpool2(),
            LayerSpec.maxpool2(),
            LayerSpec.conv(3, 2, 1, activation="linear"),
        )),
    }


REUSE_NETS = {"tiny": zoo.load_bundled("tiny"), **oracle_nets(), **banded_nets(), **pool_nets()}
TINY_STORE = init_weights(REUSE_NETS["tiny"], 5)


def first_band_edge(net):
    """The first input row that the output row holding the first conv's
    first BLAS call edge sees, clamped to the input's rows."""
    conv = next(layer for layer in net.layers if layer.kind == "conv")
    row = CALL_COLUMNS // net.layer_shapes()[net.layers.index(conv)][2]
    return min(max(row * conv.stride - conv.pad, 0), net.input_shape[1] - 1)


class TestReferenceReuse:
    """``forward(..., reference=r)`` has the bits of a full forward, and so
    has every array it records, whichever input rows changed."""

    @staticmethod
    def same_bits(a, b):
        return a.shape == b.shape and np.array_equal(np.asarray(a).view(np.uint32),
                                                     np.asarray(b).view(np.uint32))

    def check(self, net, store, before, after):
        reference, got, want = [], [], []
        forward(net, store, Tensor(before), record=reference)
        kept = [None if r is None else r.tobytes() for r in reference]
        out = forward(net, store, Tensor(after), record=got, reference=reference)
        full = forward(net, store, Tensor(after), record=want)
        assert self.same_bits(out.data, full.data)
        # a record, full or reused, holds None exactly where a conv's output
        # is read by a 2x2 pool, and every other array with a full forward's bits
        for record in (got, want):
            assert len(record) == len(net.layers) + 1
            assert [i for i, r in enumerate(record) if r is None] == pooled_slots(net)
        assert all(self.same_bits(g, w) for g, w in zip(got, want) if w is not None)
        assert all(r is None or not r.flags.writeable for r in got)
        assert [None if r is None else r.tobytes() for r in reference] == kept
        return out, reference

    @pytest.mark.parametrize("change", ["none", "all", "first", "last", "middle", "band-edge"])
    @pytest.mark.parametrize("name", list(REUSE_NETS))
    def test_changed_rows(self, name, change):
        net = REUSE_NETS[name]
        store = init_weights(net, 5)
        rng = np.random.default_rng(len(name))
        before = rng.normal(size=net.input_shape).astype(np.float32)
        after = before.copy()
        h = net.input_shape[1]
        rows = {"none": [], "all": range(h), "first": [0], "last": [h - 1],
                "middle": [h // 2], "band-edge": [first_band_edge(net)]}[change]
        for row in rows:
            after[:, row, int(rng.integers(net.input_shape[2]))] += np.float32(0.5)
        out, reference = self.check(net, store, before, after)
        if change == "none":
            assert np.shares_memory(out.data, reference[-1])

    @settings(max_examples=100, deadline=None)
    @example(rects=[(42, 62, 8, 8)], seed=9)  # the first conv's rectangle starts odd
    @given(rects=st.lists(st.tuples(st.integers(0, 95), st.integers(0, 95),
                                    st.integers(1, 96), st.integers(1, 96)),
                          min_size=1, max_size=2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_changed_rectangles_on_tiny(self, rects, seed):
        # One or two rectangles of new pixels, anywhere and of any size,
        # clipped to the frame.
        net = REUSE_NETS["tiny"]
        rng = np.random.default_rng(seed)
        before = rng.random(net.input_shape, dtype=np.float32)
        after = before.copy()
        for top, left, height, width in rects:
            patch = after[:, top:top + height, left:left + width]
            patch[...] = rng.random(patch.shape, dtype=np.float32)
        self.check(net, TINY_STORE, before, after)

    @pytest.mark.parametrize("name", ["pointwise-first", "tiny"])
    def test_a_signed_zero_counts_as_changed(self, name):
        net = REUSE_NETS[name]
        store = init_weights(net, 1)
        before = np.random.default_rng(2).random(net.input_shape, dtype=np.float32)
        before[0, 3, 4] = 0.0
        after = before.copy()
        after[0, 3, 4] = -0.0
        assert network._changed_rows(after[None], before[None]) == [(3, 4, 4, 5)]
        self.check(net, store, before, after)

    def test_rows_seen(self):
        conv = LayerSpec.conv(1, 1, 3, pad=1)
        # rows 49-51 see row 50; the matmul bands they share are not counted
        assert network._rows_seen(conv, [(50, 51, 0, 96)], (1, 1, 96, 96)) == [(49, 52, 0, 96)]
        assert network._rows_seen(conv, [(0, 1, 5, 6), (5, 6, 5, 6)], (1, 1, 96, 96)) == [
            (0, 2, 4, 7), (4, 7, 4, 7)]
        assert network._rows_seen(conv, [(95, 96, 95, 96)], (1, 1, 96, 96)) == [(94, 96, 94, 96)]
        # runs whose rows meet merge, with the columns of both
        assert network._rows_seen(conv, [(0, 1, 0, 2), (3, 4, 40, 41)], (1, 1, 96, 96)) == [
            (0, 5, 0, 42)]
        # a pool halves each run, rows and columns, and halved runs that meet merge
        pool, point = LayerSpec.maxpool2(), LayerSpec.conv(1, 1, 1)
        assert network._rows_seen(pool, [(3, 4, 3, 4), (5, 9, 7, 9)], (1, 1, 6, 6)) == [
            (1, 5, 1, 5)]
        assert network._rows_seen(pool, [(0, 1, 0, 12), (4, 6, 4, 6), (11, 12, 11, 12)],
                                  (1, 1, 6, 6)) == [(0, 1, 0, 6), (2, 3, 2, 3), (5, 6, 5, 6)]
        assert self.walk_rows([(3, 4, 0, 1), (5, 9, 2, 3)], (pool, 6), (point, 6)) == [
            (1, 5, 0, 2)]
        assert self.walk_rows([(3, 4, 8, 9), (6, 10, 8, 9)], (pool, 6), (pool, 3),
                              (point, 3)) == [(0, 3, 2, 3)]
        assert self.walk_rows([(8, 9, 30, 31)], (pool, 48), (pool, 24), (pool, 12),
                              (conv, 12)) == [(0, 3, 2, 5)]
        # a pointwise layer and the head keep their runs
        head = LayerSpec.detect_head(grid=6, anchors=1, classes=1)
        runs = [(3, 4, 0, 2), (5, 9, 7, 12)]
        for layer in (LayerSpec.pointwise("abs"), head):
            assert network._rows_seen(layer, runs, (1, 1, 12, 12)) == runs
        # output pixel (r, c) of a 1x1 conv at stride 2, pad 1 sees input
        # pixel (2r - 1, 2c - 1) only
        skip = LayerSpec.conv(1, 1, 1, stride=2, pad=1)
        assert network._rows_seen(skip, [(4, 5, 5, 6)], (1, 1, 5, 5)) == []
        assert network._rows_seen(skip, [(5, 6, 4, 5)], (1, 1, 5, 5)) == []
        assert network._rows_seen(skip, [(5, 6, 1, 4)], (1, 1, 5, 5)) == [(3, 4, 1, 3)]
        assert self.walk_rows([(10, 12, 10, 12)], (pool, 10), (skip, 5)) == [(3, 4, 3, 4)]

    @staticmethod
    def walk_rows(runs, *steps):
        """``runs`` walked through ``(layer, output height and width)`` steps."""
        for layer, ho in steps:
            runs = network._rows_seen(layer, runs, (1, 1, ho, ho))
        return runs

    @staticmethod
    def walk(net, store, before, after):
        """A forward of ``after`` reusing the record of ``before``: the
        rectangles the walk reaches at each layer, each reached conv's
        blocks as ``(r0, r1, c0, c1, block)`` tuples, one per
        ``_conv2d_rows`` call, every array a pool returned, the record of
        ``before`` and the record of ``after``."""
        reference, got, rows, blocks, pools = [], [], [], [], []
        forward(net, store, Tensor(before), record=reference)
        rows_seen, conv_rows = network._rows_seen, network._conv_rows
        pool = network._maxpool2_batch

        def spy_rows(*args):
            rows.append(rows_seen(*args))
            return rows[-1]

        def spy_conv(*args, **kwargs):
            blocks.append([])
            return conv_rows(*args, **kwargs)

        def spy_block(*args):
            out = _conv2d_rows(*args)
            blocks[-1].append(args[-4:] + (out[0],))
            return out

        def spy_pool(*args):
            pools.append(pool(*args))
            return pools[-1]

        with mock.patch.multiple(network, _rows_seen=spy_rows, _conv_rows=spy_conv,
                                 _conv2d_rows=spy_block, _maxpool2_batch=spy_pool):
            forward(net, store, Tensor(after), record=got, reference=reference)
        return rows, blocks, pools, reference, got

    def test_walk_runs_whole_maps_on_the_plain_kernel(self):
        # tiny with input rows 10-19 changed across the map: each conv
        # computes exactly the rectangles its output's reader needs, however
        # narrow its map (24, 12 and 6 columns too), and copies the rest: a
        # conv that a pool reads computes the pool's rectangles doubled, and
        # pools them, and the head conv its own. No conv's whole map and no
        # pool's plain kernel runs.
        net = REUSE_NETS["tiny"]
        before = Tensor.zeros(net.input_shape).data

        def changed(r0, r1, c0=0, c1=96):
            after = before.copy()
            after[:, r0:r1, c0:c1] = 1
            return self.walk(net, TINY_STORE, before, after)

        rows, blocks, pools, reference, got = changed(10, 20)
        assert [[run[:2] for run in runs] for runs in rows] == [
            [(9, 21)], [(4, 11)], [(3, 12)], [(1, 6)], [(0, 7)], [(0, 4)], [(0, 5)], [(0, 3)],
            [(0, 3)], [(0, 3)]]
        assert [[b[:4] for b in bs] for bs in blocks] == [
            [(8, 22, 0, 96)], [(2, 12, 0, 48)], [(0, 8, 0, 24)], [(0, 6, 0, 12)], [(0, 3, 0, 6)]]
        assert [p.shape[2:] for p in pools] == [(7, 48), (5, 24), (4, 12), (3, 6)]
        # the head conv's rows 3-5 come from the record, in a copy of it
        assert not np.shares_memory(got[9], reference[9])
        assert self.same_bits(got[9][:, :, 3:], reference[9][:, :, 3:])
        # rows 40-49 reach rows 8-14 of the 24x24 conv, and so rows 4-7 of
        # its pool, and rows 3-8 of the 12x12 conv, and so rows 1-4 of its
        # pool, and only those
        rows, blocks, _, _, got = changed(40, 50)
        assert [runs[0][:2] for runs in rows[4:8]] == [(8, 15), (4, 8), (3, 9), (1, 5)]
        assert [[b[:4] for b in bs] for bs in blocks[2:4]] == [[(8, 16, 0, 24)], [(2, 10, 0, 12)]]
        # pixels (40-49, 40-49) reach columns 39-50 of the first conv and
        # 18-26 of the second, which compute columns 38-51 and 18-27, and
        # at columns 85-95 columns 84-95 of the first, each as it is
        rows, blocks, _, _, got = changed(40, 50, 40, 50)
        assert rows[0] == [(39, 51, 39, 51)] and rows[2] == [(18, 27, 18, 27)]
        assert [[b[:4] for b in bs] for bs in blocks[:2]] == [[(38, 52, 38, 52)],
                                                              [(18, 28, 18, 28)]]
        rows, blocks, _, _, got = changed(40, 50, 85, 96)
        assert rows[0] == [(39, 51, 84, 96)] and blocks[0][0][:4] == (38, 52, 84, 96)
        # pixels (42-49, 62-69) reach rows 41-50 and columns 61-70 of the
        # first conv, both from odd ones: the pool windows that see them
        # cover rows 40-51 and columns 60-71, which the conv computes
        rows, blocks, _, _, got = changed(42, 50, 62, 70)
        assert rows[:2] == [[(41, 51, 61, 71)], [(20, 26, 30, 36)]]
        assert blocks[0][0][:4] == (40, 52, 60, 72)
        # no changed row: every layer returns the recorded output
        rows, blocks, pools, reference, got = self.walk(net, TINY_STORE, before, before.copy())
        assert rows == [[]] * 10 and blocks == [] and pools == []
        assert all(g is r for g, r in zip(got[1:], reference[1:]))
        # every row changed: every conv's one block covers the map it
        # computes, and that block, pooled where a pool reads the conv, is
        # the layer's output, not a copy
        rows, blocks, pools, _, got = changed(0, 96)
        assert [[b[:4] for b in bs] for bs in blocks] == [
            [(0, 96, 0, 96)], [(0, 48, 0, 48)], [(0, 24, 0, 24)], [(0, 12, 0, 12)], [(0, 6, 0, 6)]]
        assert [got[i] for i in pooled_slots(net)] == [None] * 4
        assert all(p is got[i + 1] for p, i in zip(pools, pooled_slots(net), strict=True))
        assert blocks[-1][0][4] is got[9]

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(sorted(REUSE_NETS)), data=st.data())
    def test_walk_reaches_the_oracles_rows(self, name, data):
        # The walk's rectangles cover exactly the positions a dense mask
        # reaches, at every layer, and each conv computes exactly those
        # rectangles, one block each: no fewer, which a full forward's bits
        # would also catch, and no more.
        net = REUSE_NETS[name]
        _, h, w = net.input_shape
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        rects = data.draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(0, w - 1),
                                             st.integers(1, h), st.integers(1, w)),
                                   max_size=3), label="rects")
        before = rng.random(net.input_shape, dtype=np.float32)
        after = before.copy()
        mask = np.zeros((h, w), bool)
        for top, left, height, width in rects:
            # one random pixel per row of each rectangle, so its columns vary
            for row in range(top, min(top + height, h)):
                col = int(rng.integers(left, min(left + width, w)))
                after[int(rng.integers(net.input_shape[0])), row, col] += np.float32(0.5)
                mask[row, col] = True
        rows, blocks, _, _, _ = self.walk(net, init_weights(net, 5), before, after)
        want = oracles.reached_mask(net, mask)
        assert len(rows) == len(net.layers)
        for runs, reached in zip(rows, want):
            assert np.array_equal(self.cover(runs, reached.shape), reached)
        computed = oracles.computed_mask(net, want)
        convs = [i for i in net.conv_indices() if computed[i].any()]
        assert len(blocks) == len(convs)
        for i, tuples in zip(convs, blocks):
            assert np.array_equal(self.cover([t[:4] for t in tuples], computed[i].shape),
                                  computed[i])
            assert not (want[i] & ~computed[i]).any()

    @staticmethod
    def cover(runs, shape):
        """The [H, W] mask of rectangles ``runs``, each within ``shape`` and
        in rows no earlier rectangle holds."""
        got = np.zeros(shape, bool)
        for r0, r1, c0, c1 in runs:
            assert 0 <= r0 < r1 <= shape[0] and 0 <= c0 < c1 <= shape[1]
            assert not got[r0:r1].any()
            got[r0:r1, c0:c1] = True
        return got

    def test_a_conv_and_its_pool_run_as_pooled_blocks(self):
        # A conv that a pool reads computes each pool rectangle's block of
        # twice its rows and columns, from the input that block sees,
        # activates and pools it, and copies the rest of the pool's output
        # from the record; one rectangle that covers the pool's map is the
        # output. Filter 0 is the identity at leaky alpha 0, so negative
        # inputs give -0.0 and zeros +0.0: a window of both routes its tie
        # as the plain kernel's.
        rng = np.random.default_rng(4)
        conv = LayerSpec.conv(1, 2, 3, pad=1, activation="leaky", alpha=0.0)
        kernel = rng.normal(size=conv.kernel_shape).astype(np.float32)
        kernel[0] = 0
        kernel[0, 0, 1, 1] = 1
        weights = {3: (kernel, np.zeros(2, np.float32))}
        for runs in [[(2, 5, 3, 9), (10, 12, 0, 20)], [(2, 5, 3, 9)], [(0, 12, 0, 20)],
                     [(11, 12, 19, 20)]]:
            x = rng.normal(size=(1, 1, 24, 40)).astype(np.float32)
            x[0, 0, 4:6, 6:8] = [[-1, 0], [0, -1]]
            x[0, 0, 20:22, 38:40] = [[0, -1], [-1, 0]]
            pre, _ = _conv2d_batch(x, *weights[3], 1, 1)
            whole = network._maxpool2_batch(network._pointwise_raw(pre, "leaky-relu", 0.0))
            assert np.signbit(whole[0, 0, 2, 3]) and not np.signbit(whole[0, 0, 10, 19])
            was = rng.random(whole.shape, dtype=np.float32)
            inside = self.cover(runs, whole.shape[2:])
            seen = np.repeat(np.repeat(inside, 2, axis=0), 2, axis=1)
            seen = np.lib.stride_tricks.sliding_window_view(np.pad(seen, 1), (3, 3)).any(
                axis=(2, 3))
            masked = np.where(seen, x, np.float32(np.nan))
            out = network._conv_rows(conv, weights, 3, masked, was, runs, pooled=True)
            assert self.same_bits(out, np.where(inside, whole, was))
            assert not np.shares_memory(out, was)

    def test_reference_of_another_network_is_rejected(self):
        net, other = REUSE_NETS["tiny"], mini_tiny()
        record = []
        forward(other, init_weights(other, 0), Tensor.zeros(other.input_shape), record=record)
        with pytest.raises(ShapeError, match="reference record"):
            forward(net, init_weights(net, 0), Tensor.zeros(net.input_shape), reference=record)


def block_cases():
    """(input shape, conv) of each conv of tiny and of banded_nets(), and a
    conv whose whole map leaves its last output alone in a partial
    16-column group, which the whole conv's last call pads."""
    cases = [pytest.param((4, 50, 50), LayerSpec.conv(4, 8, 3, stride=2, pad=1), id="tail")]
    for name, net in {"tiny": REUSE_NETS["tiny"], **banded_nets()}.items():
        shapes = [net.input_shape] + net.layer_shapes()
        cases += [pytest.param(shapes[i], layer, id=f"{name}-{i}")
                  for i, layer in enumerate(net.layers) if layer.kind == "conv"]
    return cases


@pytest.mark.parametrize("shape,layer", block_cases())
def test_blocks_have_the_whole_convs_bits(shape, layer):
    # Any rectangles, each one _conv2d_rows block of exactly its rows and
    # columns, with the bits of the whole conv, read only from the input
    # the blocks see.
    rng = np.random.default_rng(sum(shape))
    k, s, p = layer.kernel_size, layer.stride, layer.pad
    x = rng.normal(size=(1,) + shape).astype(np.float32)
    kernel = rng.normal(size=layer.kernel_shape).astype(np.float32)
    bias = rng.normal(size=layer.out_channels).astype(np.float32)
    whole, _ = _conv2d_batch(x, kernel, bias, s, p)
    ho, wo = whole.shape[2:]
    edge = max(wo - 3, 0)
    cases = [[(0, 1, 0, 1)], [(ho // 2, ho, 0, min(5, wo))],  # from column 0
             [(1, min(ho, 9), edge, wo)],  # to the right edge
             [(0, ho, 0, wo)], [(ho - 1, ho, 0, wo)],  # the whole width
             [(0, ho, min(1, wo - 1), wo)],  # all rows but column 0: several calls
             [(max(ho - 2, 0), ho, edge, wo)]]  # the last outputs
    for _ in range(30):
        rects, top = [], 0
        while top < ho and len(rects) < 3:
            r0 = int(rng.integers(top, ho))
            r1, c0 = int(rng.integers(r0 + 1, ho + 1)), int(rng.integers(wo))
            rects.append((r0, r1, c0, int(rng.integers(c0 + 1, wo + 1))))
            top = r1 + 1
        cases.append(rects)
    for rects in cases:
        seen = np.zeros(shape[1:], bool)
        for r0, r1, c0, c1 in rects:
            seen[max(r0 * s - p, 0):max((r1 - 1) * s - p + k, 0),
                 max(c0 * s - p, 0):max((c1 - 1) * s - p + k, 0)] = True
        masked = np.where(seen, x, np.float32(np.nan))
        for r0, r1, c0, c1 in rects:
            block, _ = _conv2d_rows(masked, kernel, bias, s, p, r0, r1, c0, c1)
            assert block.flags.c_contiguous and block.shape == (1, layer.out_channels,
                                                                r1 - r0, c1 - c0)
            assert TestReferenceReuse.same_bits(block, whole[:, :, r0:r1, c0:c1])


def openblas_picks_its_kernel():
    """Whether numpy's BLAS is a DYNAMIC_ARCH OpenBLAS, which takes its
    kernel from ``OPENBLAS_CORETYPE``."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its config
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def cpu_flags():
    try:
        return next((line.split() for line in Path("/proc/cpuinfo").read_text().splitlines()
                     if line.startswith("flags")), [])
    except OSError:
        return []


# Each OpenBLAS kernel without AVX-512 on which the bit rule was measured to
# hold, with the instruction set it needs as /proc/cpuinfo names it (SSE3 is
# "pni"). Prescott runs the Katmai kernel.
RULE_KERNELS = {"Sandybridge": "avx", "Nehalem": "sse4_2", "Prescott": "pni"}


@pytest.mark.skipif(not openblas_picks_its_kernel(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("coretype", list(RULE_KERNELS))
def test_blocks_have_the_whole_convs_bits_on_kernel(coretype):
    # The bit rule on another OpenBLAS kernel, in a fresh process that
    # loads it.
    if RULE_KERNELS[coretype] not in cpu_flags():
        pytest.skip(f"the CPU has no {RULE_KERNELS[coretype]} for the {coretype} kernel")
    src = str(Path(network.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           f"{__file__}::test_blocks_have_the_whole_convs_bits"],
                          cwd=Path(__file__).parents[1], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert f"{len(block_cases())} passed" in proc.stdout


def mini_tiny():
    """``tiny``'s input and layer count with other layer shapes."""
    tiny = zoo.load_bundled("tiny")
    layers = list(tiny.layers)
    layers[0] = LayerSpec.conv(3, 4, 3, pad=1, activation="leaky", alpha=0.1)
    layers[2] = LayerSpec.conv(4, 16, 3, pad=1, activation="leaky", alpha=0.1)
    return NetworkDescriptor("mini-tiny", tiny.input_shape, tuple(layers))


HEADLESS = NetworkDescriptor("headless", (1, 4, 4), (LayerSpec.conv(1, 1, 1),))


def train_config(**settings):
    return lambda: TrainConfig(**{"learning_rate": 0.1, "epochs": 1, **settings})


CHECKS = [
    pytest.param(train_config(learning_rate=0.0), ValueError,
                 "learning rate must be positive and finite", id="lr"),
    pytest.param(train_config(epochs=-1), ValueError,
                 "epochs must be non-negative", id="epochs"),
    pytest.param(train_config(batch_size=0), ValueError,
                 "batch size must be positive", id="batch"),
    pytest.param(train_config(seed=-1), ValueError, "seed must fit in 64 bits", id="seed-low"),
    pytest.param(train_config(seed=2 ** 64), ValueError, "seed must fit in 64 bits",
                 id="seed-high"),
    pytest.param(train_config(loss="hinge"), ValueError, "loss must be one of", id="loss"),
    pytest.param(lambda: forward(gradcheck_net(), init_weights(gradcheck_net(), 0),
                                 Tensor.zeros((2, 8, 6))),
                 ShapeError, "input shape (2, 8, 6) does not match network input (2, 8, 8)",
                 id="forward-input"),
    pytest.param(lambda: evaluate_loss(gradcheck_net(), init_weights(gradcheck_net(), 0), [],
                                       "squared-error"),
                 ValueError, "dataset must be non-empty", id="empty-dataset"),
    pytest.param(lambda: evaluate_loss(gradcheck_net(), init_weights(gradcheck_net(), 0),
                                       [(Tensor.zeros((2, 8, 6)), Tensor.zeros((12, 2, 2)))],
                                       "squared-error"),
                 ShapeError, "dataset item 0: input shape (2, 8, 6) != network input (2, 8, 8)",
                 id="input-shape"),
    pytest.param(lambda: evaluate_loss(gradcheck_net(), init_weights(gradcheck_net(), 0),
                                       [(Tensor.zeros((2, 8, 8)), Tensor.zeros((12, 2, 1)))],
                                       "squared-error"),
                 ShapeError, "dataset item 0: target shape (12, 2, 1) != network output",
                 id="target-shape"),
    pytest.param(lambda: evaluate_loss(HEADLESS, init_weights(HEADLESS, 0),
                                       [(Tensor.zeros((1, 4, 4)), Tensor.zeros((1, 4, 4)))],
                                       "detector-composite"),
                 ValueError, "detector-composite loss requires a detect-head layer",
                 id="composite-head"),
]


@pytest.mark.parametrize("make,error,prefix", CHECKS)
def test_checks_raise_their_documented_errors(make, error, prefix):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value).startswith(prefix)
