"""Evolutionary network compression: encode a trained network's synapses
into existence probabilities, sample a sparser offspring under an
environmental factor, retrain the survivors, and repeat across generations.

Encoding: per layer, each synapse's existence probability is its weight
magnitude over the layer's maximum magnitude, so already-pruned synapses
get probability 0 and the strongest synapse gets 1. Synthesis draws each
synapse independently as Bernoulli(gamma_layer * p); biases are never
pruned. A unit (conv output channel) left with no incoming synapses is
removed entirely by zeroing its outgoing synapses in the next conv layer,
iterated to a fixed point.

When every layer's gamma is below 1 and the genome has any probability
below 1, parameter counts are forced to strictly decrease each generation:
if a sampling round removes nothing, the retained synapse with the lowest
existence probability is dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .netdef import NetworkDescriptor, WeightStore, count_params, load_network, save_network
from .network import TrainConfig, TrainingDivergence, train_sgd
from .tensor import Tensor

__all__ = [
    "EnvironmentalFactor",
    "Lineage",
    "LineageEntry",
    "SynapticGenome",
    "encode_genome",
    "evolve_generations",
    "load_lineage",
    "save_lineage",
    "synthesize_offspring",
]


@dataclass(frozen=True)
class EnvironmentalFactor:
    """Per-layer retention multipliers in (0,1]; a scalar broadcasts."""

    gamma: Union[float, Mapping[int, float]]

    def __post_init__(self) -> None:
        values = [self.gamma] if isinstance(self.gamma, (int, float)) else list(self.gamma.values())
        if not values:
            raise ValueError("environmental factor needs at least one gamma")
        for g in values:
            if not 0.0 < g <= 1.0:
                raise ValueError(f"gamma must lie in (0, 1], got {g}")

    def resolve(self, layer_index: int) -> float:
        if isinstance(self.gamma, (int, float)):
            return float(self.gamma)
        if layer_index not in self.gamma:
            raise KeyError(f"no gamma for layer {layer_index}")
        return float(self.gamma[layer_index])

    def all_below_one(self, layer_indices: Sequence[int]) -> bool:
        return all(self.resolve(i) < 1.0 for i in layer_indices)


@dataclass(frozen=True)
class SynapticGenome:
    """Synapse existence probabilities per conv layer, plus the ancestor name."""

    probabilities: dict[int, Tensor]
    ancestor: str

    def __post_init__(self) -> None:
        for idx, p in self.probabilities.items():
            lo, hi = float(p.data.min()), float(p.data.max())
            if lo < 0.0 or hi > 1.0:
                raise ValueError(f"layer {idx}: probabilities must lie in [0,1]")

    def bias_count(self) -> int:
        return sum(p.shape[0] for p in self.probabilities.values())


def encode_genome(net: NetworkDescriptor, store: WeightStore) -> SynapticGenome:
    """Magnitude-proportional existence probabilities, per layer."""
    store.validate_for(net)
    probs: dict[int, Tensor] = {}
    for idx in net.conv_indices():
        kernel = store[idx].kernel.data
        mag = np.abs(kernel)
        peak = float(mag.max())
        if peak == 0.0:
            raise ValueError(f"layer {idx}: all weights are zero, probabilities undefined")
        probs[idx] = Tensor(mag / np.float32(peak))
    return SynapticGenome(probs, ancestor=net.name)


def _dead_unit_closure(masks: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Zero the outgoing synapses of units with no incoming ones, to a fixed point."""
    masks = {idx: mask.copy() for idx, mask in masks.items()}
    order = sorted(masks)
    changed = True
    while changed:
        changed = False
        for prev, nxt in zip(order, order[1:]):
            if masks[nxt].shape[1] != masks[prev].shape[0]:
                continue  # channel counts not adjacent; leave untouched
            dead = masks[prev].reshape(masks[prev].shape[0], -1).sum(axis=1) == 0
            if dead.any() and masks[nxt][:, dead].any():
                masks[nxt][:, dead] = 0
                changed = True
    return masks


def synthesize_offspring(genome: SynapticGenome, env: EnvironmentalFactor,
                         seed: int) -> tuple[dict[int, np.ndarray], float]:
    """Sample an offspring mask set; returns (masks, expected parameter count).

    Each synapse survives independently with probability gamma_layer * p.
    The expected count is the analytic sum of those probabilities plus the
    bias count (biases are never pruned) and does not model the dead-unit
    closure. Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    masks: dict[int, np.ndarray] = {}
    expected = float(genome.bias_count())
    for idx in sorted(genome.probabilities):
        p = genome.probabilities[idx].data.astype(np.float64)
        keep = env.resolve(idx) * p
        masks[idx] = (rng.random(p.shape) < keep).astype(np.uint8)
        expected += float(keep.sum())
    return _dead_unit_closure(masks), expected


def _drop_weakest(masks: dict[int, np.ndarray], genome: SynapticGenome) -> bool:
    """Drop the retained synapse with the lowest existence probability.

    Ties resolve to the lowest layer index, then row-major position. Returns
    False when nothing is retained anywhere.
    """
    best: Optional[tuple[float, int, int]] = None
    for idx in sorted(masks):
        mask = masks[idx]
        flat = mask.ravel()
        retained = np.flatnonzero(flat)
        if retained.size == 0:
            continue
        p = genome.probabilities[idx].data.ravel()[retained]
        pos = int(retained[int(np.argmin(p))])
        value = float(p.min())
        if best is None or value < best[0]:
            best = (value, idx, pos)
    if best is None:
        return False
    _, idx, pos = best
    masks[idx].ravel()[pos] = 0
    return True


@dataclass(frozen=True)
class LineageEntry:
    generation: int
    net: NetworkDescriptor
    store: WeightStore
    param_count: int
    metric: float
    seed: int


@dataclass
class Lineage:
    """Recorded generations, oldest first; ``error`` marks an aborted run."""

    entries: list[LineageEntry]
    error: Optional[str] = None


MetricFn = Callable[[NetworkDescriptor, WeightStore], float]


def evolve_generations(net: NetworkDescriptor, store: WeightStore,
                       dataset: Sequence[tuple[Tensor, Tensor]],
                       metric_fn: MetricFn, generations: int,
                       env: EnvironmentalFactor, retrain: TrainConfig,
                       seed: int = 0) -> Lineage:
    """Run encode -> synthesize -> retrain for the requested generations.

    Generation g uses sampling/shuffling seed ``seed + g``. On training
    divergence the lineage collected so far is returned with ``error`` set.
    """
    if generations < 1:
        raise ValueError(f"generations must be positive, got {generations}")
    entries = [LineageEntry(0, net, store, count_params(net, store),
                            metric_fn(net, store), seed)]
    conv_indices = net.conv_indices()
    current = store
    for g in range(1, generations + 1):
        gen_seed = (seed + g) % 2 ** 64
        genome = encode_genome(net, current)
        masks, _ = synthesize_offspring(genome, env, gen_seed)
        enforce = (env.all_below_one(conv_indices)
                   and any(float(p.data.min()) < 1.0 for p in genome.probabilities.values()))
        candidate = current.with_masks(masks)
        while enforce and count_params(net, candidate) >= entries[-1].param_count:
            if not _drop_weakest(masks, genome):
                break
            masks = _dead_unit_closure(masks)
            candidate = current.with_masks(masks)
        try:
            trained = train_sgd(net, candidate, dataset, replace(retrain, seed=gen_seed))
        except TrainingDivergence as exc:
            return Lineage(entries, error=f"generation {g}: {exc}")
        entries.append(LineageEntry(g, net, trained, count_params(net, trained),
                                    metric_fn(net, trained), gen_seed))
        current = trained
    return Lineage(entries)


def save_lineage(lineage: Lineage, directory) -> None:
    """Persist as gen_<k>.fnet files (with masks) plus lineage.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records = []
    for entry in lineage.entries:
        save_network(directory / f"gen_{entry.generation}.fnet", entry.net, entry.store)
        records.append({
            "generation": entry.generation,
            "param-count": entry.param_count,
            "metric": entry.metric,
            "seed": entry.seed,
        })
    doc = {"entries": records, "error": lineage.error}
    (directory / "lineage.json").write_text(json.dumps(doc, indent=2) + "\n")


def load_lineage(directory) -> Lineage:
    directory = Path(directory)
    doc = json.loads((directory / "lineage.json").read_text())
    entries = []
    for record in doc["entries"]:
        g = record["generation"]
        net, store = load_network(directory / f"gen_{g}.fnet")
        if store is None:
            raise ValueError(f"gen_{g}.fnet holds no weights")
        entries.append(LineageEntry(g, net, store, record["param-count"],
                                    record["metric"], record["seed"]))
    return Lineage(entries, error=doc.get("error"))
