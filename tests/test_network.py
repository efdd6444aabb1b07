import math
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipdet import network, zoo
from skipdet.detector import OBJECTNESS_BIAS_INIT
from skipdet.netdef import LayerSpec, LayerWeights, NetworkDescriptor, WeightStore
from skipdet.network import (TrainConfig, TrainingDivergence, _backward_batch, _forward_batch,
                             evaluate_loss, forward, init_weights, loss_gradients, train_sgd)
from skipdet.tensor import POINTWISE_FNS, ShapeError, Tensor, band_rows

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
    """The cache-free forward writes activations in place on its own buffers."""

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
        inferred = _forward_batch(net, weights, xb)
        trained = _forward_batch(net, weights, xb, [])
        assert inferred.shape == (batch,) + net.output_shape
        assert np.array_equal(inferred.view(np.uint32), trained.view(np.uint32))
        assert np.array_equal(xb.view(np.uint32), before.view(np.uint32))

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
        assert np.array_equal(_forward_batch(net, weights, xb).view(np.uint32),
                              oracles.tagged_forward_batch(net, weights, xb).view(np.uint32))
        assert_same_grads(_backward_batch(net, weights, records, grad_out),
                          oracles.tagged_backward_batch(net, weights, tagged, grad_out))
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

    def test_divergence_skips_the_backward_pass(self, monkeypatch):
        # The diverging batch's gradients would be thrown away unread.
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
        assert calls[-1] == "forward"
        assert calls.count("forward") == calls.count("backward") + 1 > 1

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
    """Nets whose convs span several matmul bands: kernels 1, 2, 3 and 5,
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


REUSE_NETS = {"tiny": zoo.load_bundled("tiny"), **oracle_nets(), **banded_nets()}
TINY_STORE = init_weights(REUSE_NETS["tiny"], 5)


def first_band_edge(net):
    """An input row seen by both sides of the first conv's first band edge
    (row 0 when its output is one band)."""
    conv = next(layer for layer in net.layers if layer.kind == "conv")
    rows = band_rows(net.layer_shapes()[net.layers.index(conv)][2])
    return min(max(rows * conv.stride - conv.pad, 0), net.input_shape[1] - 1)


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
        kept = [r.tobytes() for r in reference]
        out = forward(net, store, Tensor(after), record=got, reference=reference)
        full = forward(net, store, Tensor(after), record=want)
        assert self.same_bits(out.data, full.data)
        assert len(got) == len(net.layers) + 1
        assert all(self.same_bits(g, w) for g, w in zip(got, want))
        assert all(not r.flags.writeable for r in got)
        assert [r.tobytes() for r in reference] == kept
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
        assert network._changed_rows(after[None], before[None]) == [(3, 4)]
        self.check(net, store, before, after)

    def test_rows_seen(self):
        conv = LayerSpec.conv(1, 1, 3, pad=1)
        # rows 49-51 see row 50; the matmul bands they share are not counted
        assert network._rows_seen(conv, [(50, 51)], (1, 1, 96, 96)) == [(49, 52)]
        assert network._rows_seen(conv, [(0, 1), (5, 6)], (1, 1, 96, 96)) == [(0, 2), (4, 7)]
        assert network._rows_seen(conv, [(0, 1), (3, 4)], (1, 1, 96, 96)) == [(0, 5)]
        assert network._rows_seen(conv, [(95, 96)], (1, 1, 96, 96)) == [(94, 96)]
        # a pool before the conv halves each run, and halved runs that meet merge
        point = LayerSpec.conv(1, 1, 1)
        assert network._rows_seen(point, [(3, 4), (5, 9)], (1, 1, 6, 6), pools=1) == [(1, 5)]
        assert network._rows_seen(point, [(3, 4), (6, 10)], (1, 1, 3, 3), pools=2) == [(0, 3)]
        assert network._rows_seen(conv, [(8, 9)], (1, 1, 12, 12), pools=3) == [(0, 3)]
        # output row r of a 1x1 conv at stride 2, pad 1 sees input row 2r - 1 only
        skip = LayerSpec.conv(1, 1, 1, stride=2, pad=1)
        assert network._rows_seen(skip, [(4, 5)], (1, 1, 5, 5)) == []
        assert network._rows_seen(skip, [(5, 6)], (1, 1, 5, 5)) == [(3, 4)]
        assert network._rows_seen(skip, [(10, 12)], (1, 1, 5, 5), pools=1) == [(3, 4)]

    def test_plan_runs_whole_maps_on_the_plain_kernel(self):
        # tiny with input rows 10-19 changed: each conv computes the bands
        # its window rows touch, except the 6x6 1x1 conv, whose one band
        # is its map; pools and the head always run their plain kernel.
        net = REUSE_NETS["tiny"]
        reference = []
        forward(net, TINY_STORE, Tensor.zeros(net.input_shape), record=reference)
        assert network._reuse_plan(net, [(10, 20)], reference) == [
            [(9, 21)], None, [(3, 12)], None, [(0, 8)], None, [(0, 8)], None, None, None]
        # rows 40-49 reach rows 3-8 of the 12x12 conv, whose 4-row bands
        # then cover it
        assert network._reuse_plan(net, [(40, 50)], reference)[4:7] == [[(8, 16)], None, None]
        assert network._reuse_plan(net, [], reference) == [[]] * 10
        assert network._reuse_plan(net, [(0, 96)], reference) == [None] * 10

    def test_reference_of_another_network_is_rejected(self):
        net, other = REUSE_NETS["tiny"], mini_tiny()
        record = []
        forward(other, init_weights(other, 0), Tensor.zeros(other.input_shape), record=record)
        with pytest.raises(ShapeError, match="reference record"):
            forward(net, init_weights(net, 0), Tensor.zeros(net.input_shape), reference=record)


def mini_tiny():
    """``tiny``'s input and layer count with other layer shapes."""
    tiny = zoo.load_bundled("tiny")
    layers = list(tiny.layers)
    layers[0] = LayerSpec.conv(3, 4, 3, pad=1, activation="leaky", alpha=0.1)
    layers[2] = LayerSpec.conv(4, 16, 3, pad=1, activation="leaky", alpha=0.1)
    return NetworkDescriptor("mini-tiny", tiny.input_shape, tuple(layers))
