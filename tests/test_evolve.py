import numpy as np
import pytest

from skipdet.detector import AnchorPrior, build_target_map
from skipdet.evolve import (EnvironmentalFactor, Lineage, LineageEntry, SynapticGenome,
                            encode_genome, evolve_generations, load_lineage, save_lineage,
                            synthesize_offspring, _dead_unit_closure, _drop_weakest)
from skipdet.netdef import (LayerSpec, LayerWeights, NetworkDescriptor,
                            WeightStore, count_params, save_network)
from skipdet.network import TrainConfig, init_weights
from skipdet.tensor import Tensor

import oracles


def single_layer_net(synapses_shape=(8, 8, 3, 3)):
    f, c, k, _ = synapses_shape
    return NetworkDescriptor("toy", (c, 8, 8), (LayerSpec.conv(c, f, k, pad=k // 2),))


def store_with_kernel(net, kernel, mask=None):
    kernel = np.asarray(kernel, np.float32)
    return WeightStore({0: LayerWeights(Tensor(kernel),
                                        Tensor.zeros((kernel.shape[0],)), mask)})


class TestEncodeGenome:
    def test_equal_magnitudes_give_probability_one(self):
        net = single_layer_net()
        rng = np.random.default_rng(0)
        kernel = 0.7 * np.sign(rng.random((8, 8, 3, 3)) - 0.5)
        genome = encode_genome(net, store_with_kernel(net, kernel))
        assert np.all(genome.probabilities[0].data == 1.0)

    def test_zero_weight_gets_zero_probability(self):
        net = single_layer_net((1, 1, 2, 2))
        kernel = np.array([[[[0.0, 0.5], [0.25, -0.5]]]], np.float32)
        genome = encode_genome(net, store_with_kernel(net, kernel))
        np.testing.assert_array_equal(genome.probabilities[0].data.ravel(),
                                      np.float32([0.0, 1.0, 0.5, 1.0]))

    def test_magnitude_over_max(self):
        net = single_layer_net((1, 3, 1, 1))
        kernel = np.array([0.1, -0.2, 0.4], np.float32).reshape(1, 3, 1, 1)
        genome = encode_genome(net, store_with_kernel(net, kernel))
        np.testing.assert_allclose(genome.probabilities[0].data.ravel(),
                                   [0.25, 0.5, 1.0], rtol=1e-6)

    def test_all_zero_layer_rejected(self):
        net = single_layer_net((1, 1, 2, 2))
        with pytest.raises(ValueError, match="all weights are zero"):
            encode_genome(net, store_with_kernel(net, np.zeros((1, 1, 2, 2))))

    def test_masked_synapses_get_zero_probability(self):
        net = single_layer_net((2, 2, 2, 2))
        rng = np.random.default_rng(1)
        mask = (rng.random((2, 2, 2, 2)) < 0.5).astype(np.uint8)
        kernel = rng.normal(size=(2, 2, 2, 2)).astype(np.float32) * mask
        genome = encode_genome(net, store_with_kernel(net, kernel, mask))
        assert np.all(genome.probabilities[0].data[mask == 0] == 0.0)

    def test_ancestor_name_recorded(self):
        net = single_layer_net()
        genome = encode_genome(net, init_weights(net, 0))
        assert genome.ancestor == "toy"


def uniform_genome(p, shape=(10, 10, 10, 10)):
    return SynapticGenome({0: Tensor(np.full(shape, p, np.float32))}, "test")


class TestSynthesizeOffspring:
    def test_certainty_case(self):
        genome = uniform_genome(1.0, (4, 4, 2, 2))
        masks, expected = synthesize_offspring(genome, EnvironmentalFactor(1.0), seed=0)
        assert np.all(masks[0] == 1)
        assert expected == 4 * 4 * 2 * 2 + 4

    def test_gamma_to_zero_limit(self):
        genome = uniform_genome(0.5)
        _, expected = synthesize_offspring(genome, EnvironmentalFactor(1e-12), seed=0)
        assert expected == pytest.approx(10.0, abs=1e-4)  # bias count only

    def test_binomial_statistics(self):
        genome = uniform_genome(0.5)
        expected_keep = 10000 * 0.8 * 0.5
        sigma = np.sqrt(10000 * 0.4 * 0.6)
        masks, expected = synthesize_offspring(genome, EnvironmentalFactor(0.8), seed=5)
        assert expected == pytest.approx(expected_keep + 10)
        assert abs(int(masks[0].sum()) - expected_keep) <= 3 * sigma

    def test_deterministic_per_seed(self):
        genome = uniform_genome(0.4)
        a, _ = synthesize_offspring(genome, EnvironmentalFactor(0.9), seed=7)
        b, _ = synthesize_offspring(genome, EnvironmentalFactor(0.9), seed=7)
        c, _ = synthesize_offspring(genome, EnvironmentalFactor(0.9), seed=8)
        assert np.array_equal(a[0], b[0])
        assert not np.array_equal(a[0], c[0])

    def test_expected_count_linear_in_gamma(self):
        genome = uniform_genome(0.6)
        _, e_full = synthesize_offspring(genome, EnvironmentalFactor(0.8), seed=0)
        _, e_half = synthesize_offspring(genome, EnvironmentalFactor(0.4), seed=0)
        bias = 10
        assert e_full - bias == pytest.approx(2 * (e_half - bias), rel=1e-9)


class TestDeadUnitClosure:
    def test_outgoing_synapses_of_dead_unit_zeroed(self):
        masks = {
            0: np.array([[[[0]]], [[[1]]]], np.uint8),          # unit 0 dead
            1: np.ones((3, 2, 1, 1), np.uint8),
        }
        closed = _dead_unit_closure(masks)
        assert np.all(closed[1][:, 0] == 0)
        assert np.all(closed[1][:, 1] == 1)

    def test_cascade_to_fixed_point(self):
        # killing layer-0 unit 0 starves layer-1 unit 0, which then starves
        # the corresponding inputs of layer 2
        masks = {
            0: np.array([[[[0]]], [[[1]]]], np.uint8),
            1: np.array([[[[1]], [[0]]], [[[0]], [[1]]]], np.uint8),  # unit0 reads only ch0
            2: np.ones((1, 2, 1, 1), np.uint8),
        }
        closed = _dead_unit_closure(masks)
        assert np.all(closed[1][0] == 0)      # starved unit fully dead
        assert np.all(closed[2][:, 0] == 0)   # its outgoing synapses zeroed
        assert np.all(closed[2][:, 1] == 1)

    def test_no_disconnected_unit_retains_synapses(self):
        rng = np.random.default_rng(3)
        masks = {i: (rng.random((6, 6, 3, 3)) < 0.1).astype(np.uint8) for i in range(3)}
        closed = _dead_unit_closure(masks)
        for prev, nxt in ((0, 1), (1, 2)):
            dead = closed[prev].reshape(6, -1).sum(axis=1) == 0
            assert not closed[nxt][:, dead].any()

    def test_one_pass_equals_the_looped_closure(self):
        rng = np.random.default_rng(16)
        changed = cascaded = 0
        for _ in range(1200):
            channels = rng.integers(1, 6, size=int(rng.integers(2, 6)))
            masks = {}
            for idx, (c_in, c_out) in enumerate(zip(channels, channels[1:])):
                k = int(rng.choice([1, 3]))
                density = rng.uniform(0.02, 0.6)
                masks[2 * idx] = (rng.random((c_out, c_in, k, k)) < density).astype(np.uint8)
            got = _dead_unit_closure(masks)
            want = oracles.looped_dead_unit_closure(masks)
            assert sorted(got) == sorted(want)
            for idx in want:
                assert got[idx].dtype == want[idx].dtype
                assert np.array_equal(got[idx], want[idx])
            changed += any(not np.array_equal(got[i], masks[i]) for i in masks)
            # a unit with live inputs that lost all of them to the closure
            cascaded += any(np.any(m.reshape(len(m), -1).any(axis=1)
                                   & ~got[i].reshape(len(m), -1).any(axis=1))
                            for i, m in masks.items())
        assert changed >= 300 and cascaded >= 50, (changed, cascaded)


def toy_dataset(net, count, seed):
    rng = np.random.default_rng(seed)
    out_shape = net.output_shape
    return [(Tensor(rng.random(net.input_shape).astype(np.float32)),
             Tensor(rng.random(out_shape).astype(np.float32)))
            for _ in range(count)]


def param_metric(net, store):
    return float(count_params(net, store))


class TestEvolveGenerations:
    def test_no_pruning_pressure_preserves_structure(self):
        net = single_layer_net((4, 4, 3, 3))
        store = init_weights(net, 0)  # equal magnitudes, p == 1 everywhere
        dataset = toy_dataset(net, 4, 0)
        retrain = TrainConfig(learning_rate=1e-7, epochs=1, batch_size=2, seed=0)
        lineage = evolve_generations(net, store, dataset, param_metric, 1,
                                     EnvironmentalFactor(1.0), retrain, seed=3)
        assert lineage.error is None
        assert lineage.entries[0].param_count == lineage.entries[1].param_count

    def test_counts_track_gamma_power_expectation(self):
        # equal-magnitude ancestor, gamma=0.7, negligible retraining:
        # kernel counts should follow N * 0.7^g within 3 sigma per step
        net = single_layer_net((8, 8, 3, 3))  # 4608 synapses
        store = init_weights(net, 1)
        dataset = toy_dataset(net, 4, 1)
        retrain = TrainConfig(learning_rate=1e-8, epochs=1, batch_size=4, seed=0)
        lineage = evolve_generations(net, store, dataset, param_metric, 3,
                                     EnvironmentalFactor(0.7), retrain, seed=9)
        assert lineage.error is None
        biases = 8
        for prev, cur in zip(lineage.entries, lineage.entries[1:]):
            kernels_before = prev.param_count - biases
            expect = 0.7 * kernels_before
            sigma = np.sqrt(kernels_before * 0.7 * 0.3)
            assert abs((cur.param_count - biases) - expect) <= 3 * sigma

    def test_strictly_decreasing_counts(self):
        net = single_layer_net((8, 8, 3, 3))
        store = init_weights(net, 2)
        dataset = toy_dataset(net, 4, 2)
        retrain = TrainConfig(learning_rate=1e-6, epochs=1, batch_size=4, seed=0)
        lineage = evolve_generations(net, store, dataset, param_metric, 4,
                                     EnvironmentalFactor(0.8), retrain, seed=17)
        counts = [e.param_count for e in lineage.entries]
        assert all(b < a for a, b in zip(counts, counts[1:]))

    def test_enforced_drop_when_sampling_removes_nothing(self):
        # gamma and probabilities high enough that the Bernoulli draw keeps
        # everything; the enforcement rule must drop the weakest synapse
        net = single_layer_net((1, 1, 2, 2))
        kernel = np.array([[[[0.5, 0.5], [0.5, 0.4999999]]]], np.float32)
        store = store_with_kernel(net, kernel)
        dataset = toy_dataset(net, 2, 3)
        retrain = TrainConfig(learning_rate=1e-9, epochs=1, batch_size=2, seed=0)
        env = EnvironmentalFactor(0.999999)
        for seed in range(6):
            lineage = evolve_generations(net, store, dataset, param_metric, 1,
                                         env, retrain, seed=seed)
            counts = [e.param_count for e in lineage.entries]
            assert counts[1] < counts[0]

    @pytest.mark.parametrize("gamma,kernel", [
        (1.0, [[[[0.5, 0.5], [0.5, 0.4999999]]]]),  # no pressure from gamma
        (0.999999, [[[[0.5, 0.5], [0.5, 0.5]]]]),  # every probability is 1
    ])
    def test_no_enforced_drop_without_pressure(self, gamma, kernel):
        # Sampling keeps everything, and the drop is enforced only when gamma
        # is below 1 and some probability is too, so the count stays.
        net = single_layer_net((1, 1, 2, 2))
        store = store_with_kernel(net, kernel)
        dataset = toy_dataset(net, 2, 3)
        retrain = TrainConfig(learning_rate=1e-9, epochs=1, batch_size=2, seed=0)
        for seed in range(6):
            lineage = evolve_generations(net, store, dataset, param_metric, 1,
                                         EnvironmentalFactor(gamma), retrain, seed=seed)
            counts = [e.param_count for e in lineage.entries]
            assert counts[1] == counts[0]

    def test_enforced_drop_that_kills_a_unit_closes_it(self):
        # Layer 0's filter 1 keeps one synapse, the genome's weakest, and
        # the Bernoulli draw keeps everything: the enforced drop empties
        # that filter, so the offspring's layer 1 must lose input channel 1.
        net = NetworkDescriptor("two-conv", (1, 4, 4), (LayerSpec.conv(1, 2, 2),
                                                        LayerSpec.conv(2, 2, 1)))
        kernel0 = np.full((2, 1, 2, 2), 0.5, np.float32)
        kernel0[1] = 0.0
        kernel0[1, 0, 1, 0] = 0.4999999
        mask0 = (kernel0 != 0).astype(np.uint8)
        store = WeightStore({0: LayerWeights(Tensor(kernel0), Tensor.zeros((2,)), mask0),
                             1: LayerWeights(Tensor.full((2, 2, 1, 1), 0.5),
                                             Tensor.zeros((2,)))})
        dataset = toy_dataset(net, 2, 4)
        retrain = TrainConfig(learning_rate=1e-9, epochs=1, batch_size=2, seed=0)
        lineage = evolve_generations(net, store, dataset, param_metric, 1,
                                     EnvironmentalFactor(0.999999), retrain, seed=0)
        offspring = lineage.entries[1].store
        assert not offspring[0].mask[1].any() and offspring[0].mask[0].all()
        assert np.array_equal(offspring[1].mask[:, :, 0, 0], [[1, 0], [1, 0]])
        assert lineage.entries[1].param_count == lineage.entries[0].param_count - 3

    def test_bit_identical_reproducibility(self):
        net = single_layer_net((6, 6, 3, 3))
        store = init_weights(net, 5)
        dataset = toy_dataset(net, 6, 5)
        retrain = TrainConfig(learning_rate=1e-4, epochs=2, batch_size=3, seed=0)
        runs = [evolve_generations(net, store, dataset, param_metric, 2,
                                   EnvironmentalFactor(0.8), retrain, seed=4)
                for _ in range(2)]
        for a, b in zip(runs[0].entries, runs[1].entries):
            assert a.param_count == b.param_count
            assert a.metric == b.metric
            assert a.store.equals(b.store)

    def test_offspring_masks_subset_of_ancestor(self):
        net = single_layer_net((6, 6, 3, 3))
        store = init_weights(net, 6)
        dataset = toy_dataset(net, 4, 6)
        retrain = TrainConfig(learning_rate=1e-5, epochs=1, batch_size=4, seed=0)
        lineage = evolve_generations(net, store, dataset, param_metric, 3,
                                     EnvironmentalFactor(0.75), retrain, seed=8)
        for prev, cur in zip(lineage.entries[1:], lineage.entries[2:]):
            pm, cm = prev.store[0].mask, cur.store[0].mask
            assert np.all(cm <= pm)

    def test_genome_support_matches_mask_after_training(self):
        net = single_layer_net((6, 6, 3, 3))
        store = init_weights(net, 7)
        dataset = toy_dataset(net, 4, 7)
        retrain = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4, seed=0)
        lineage = evolve_generations(net, store, dataset, param_metric, 1,
                                     EnvironmentalFactor(0.7), retrain, seed=2)
        trained = lineage.entries[1].store
        genome = encode_genome(net, trained)
        mask = trained[0].mask
        assert np.all(genome.probabilities[0].data[mask == 0] == 0.0)
        assert np.all(genome.probabilities[0].data[mask == 1] > 0.0)

    def test_divergence_returns_partial_lineage(self):
        net = single_layer_net((4, 4, 3, 3))
        store = init_weights(net, 8)
        dataset = toy_dataset(net, 4, 8)
        retrain = TrainConfig(learning_rate=1e9, epochs=3, batch_size=4, seed=0)
        lineage = evolve_generations(net, store, dataset, param_metric, 2,
                                     EnvironmentalFactor(0.9), retrain, seed=1)
        assert lineage.error is not None and "diverged" in lineage.error
        failed_at = int(lineage.error.split()[1].rstrip(":"))
        assert len(lineage.entries) == failed_at  # generations 0..failed_at-1

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            EnvironmentalFactor(0.0)
        with pytest.raises(ValueError):
            EnvironmentalFactor(1.5)


class TestLineagePersistence:
    def test_round_trip(self, tmp_path):
        net = single_layer_net((6, 6, 3, 3))
        store = init_weights(net, 9)
        dataset = toy_dataset(net, 4, 9)
        retrain = TrainConfig(learning_rate=1e-4, epochs=1, batch_size=4, seed=0)
        lineage = evolve_generations(net, store, dataset, param_metric, 2,
                                     EnvironmentalFactor(0.8), retrain, seed=6)
        save_lineage(lineage, tmp_path / "lin")
        assert (tmp_path / "lin" / "gen_0.fnet").exists()
        assert (tmp_path / "lin" / "gen_2.fnet").exists()
        back = load_lineage(tmp_path / "lin")
        assert back.error is None
        assert len(back.entries) == len(lineage.entries)
        for a, b in zip(lineage.entries, back.entries):
            assert a.param_count == b.param_count
            assert a.metric == b.metric
            assert a.seed == b.seed
            assert a.store.equals(b.store)


def test_drop_weakest_takes_the_lowest_retained_probability_of_any_layer():
    # layer 0 holds nothing; layer 1's retained minimum (0.2) is below
    # layer 2's (0.3), and the unretained 0.1 does not count
    genome = SynapticGenome({0: Tensor([[0.05, 0.05]]), 1: Tensor([[0.1, 0.2, 0.6]]),
                             2: Tensor([[0.3, 0.9]])}, "a")
    masks = {0: np.uint8([[0, 0]]), 1: np.uint8([[0, 1, 1]]), 2: np.uint8([[1, 1]])}
    assert _drop_weakest(masks, genome) is True
    assert [m.tolist() for m in masks.values()] == [[[0, 0]], [[0, 0, 1]], [[1, 1]]]
    empty = {i: np.zeros_like(m) for i, m in masks.items()}
    assert _drop_weakest(empty, genome) is False


def descriptor_only_lineage(tmp_path):
    net = single_layer_net((1, 1, 1, 1))
    save_lineage(Lineage([LineageEntry(0, net, store_with_kernel(net, [[[[1.0]]]]), 2, 0.5, 0)]),
                 tmp_path)
    save_network(tmp_path / "gen_0.fnet", net)
    load_lineage(tmp_path)


CHECKS = [
    pytest.param(lambda _: EnvironmentalFactor(0.0), ValueError,
                 "gamma must lie in (0, 1]", id="gamma"),
    pytest.param(lambda _: SynapticGenome({3: Tensor([0.5, 1.5])}, "a"), ValueError,
                 "layer 3: probabilities must lie in [0,1]", id="genome-high"),
    pytest.param(lambda _: SynapticGenome({3: Tensor([-0.5, 0.5])}, "a"), ValueError,
                 "layer 3: probabilities must lie in [0,1]", id="genome-low"),
    pytest.param(lambda _: evolve_generations(
        single_layer_net(), init_weights(single_layer_net(), 0), [], lambda n, s: 0.0,
        generations=0, env=EnvironmentalFactor(0.5),
        retrain=TrainConfig(learning_rate=0.1, epochs=0)),
                 ValueError, "generations must be positive, got 0", id="generations"),
    pytest.param(descriptor_only_lineage, ValueError, "gen_0.fnet holds no weights",
                 id="lineage-weights"),
]


@pytest.mark.parametrize("make,error,prefix", CHECKS)
def test_checks_raise_their_documented_errors(make, error, prefix, tmp_path):
    with pytest.raises(error) as info:
        make(tmp_path)
    assert type(info.value) is error and str(info.value).startswith(prefix)
