import numpy as np
import pytest

from skipdet.netdef import LayerSpec, LayerWeights, NetworkDescriptor, WeightStore
from skipdet.network import (TrainConfig, TrainingDivergence, evaluate_loss,
                             forward, init_weights, loss_gradients, train_sgd)
from skipdet.tensor import ShapeError, Tensor

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


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0, epochs=1)
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
