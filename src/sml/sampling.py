"""Training example construction: prefix/continuation splits and negatives.

The default strategy cuts every session once per epoch at a uniformly random
point; the items immediately after the cut become positives and negatives
are drawn uniformly from the rest of the vocabulary.  Everything is driven
by per-session RNG streams keyed on (seed, epoch, session position), so an
epoch's examples do not depend on scheduling or iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoders
from .data import Dataset
from .index import top_k

STRATEGIES = ("posneg", "sliding_window")


@dataclass(frozen=True)
class SamplerConfig:
    strategy: str = "posneg"
    samples_per_session: int = 8
    window_size: int = 4               # sliding_window only
    exclude_prefix_negatives: bool = False
    knn_augment: bool = False
    knn_k: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown sampling strategy {self.strategy!r}")
        if self.samples_per_session < 1:
            raise ValueError("samples_per_session must be positive")
        if self.window_size < 1:
            raise ValueError("window_size must be positive")
        if self.knn_k < 1:
            raise ValueError("knn_k must be positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass
class TrainingExample:
    prefix: list[int]
    positives: list[int]
    negatives: list[int]

    def __post_init__(self):
        if not self.prefix:
            raise ValueError("example prefix is empty")
        if not self.positives or len(self.positives) != len(self.negatives):
            raise ValueError("positives and negatives must be non-empty and paired")
        if set(self.positives) & set(self.negatives):
            raise ValueError("negatives overlap positives")


def example_at_split(items: list[int], split: int,
                     samples_per_session: int) -> tuple[list[int], list[int]]:
    """Prefix and up to ``samples_per_session`` continuation items at a cut."""
    if not 1 <= split <= len(items) - 1:
        raise ValueError(f"split {split} outside [1, {len(items) - 1}]")
    return list(items[:split]), list(items[split:split + samples_per_session])


def split_session(items: list[int], rng: np.random.Generator,
                  samples_per_session: int) -> tuple[list[int], list[int]]:
    """Cut a session at a uniform point in [1, len-1]."""
    if len(items) < 2:
        raise ValueError("session too short to split")
    split = int(rng.integers(1, len(items)))
    return example_at_split(items, split, samples_per_session)


def sample_negatives(excluded, vocab_size: int, count: int,
                     rng: np.random.Generator) -> list[int]:
    """Uniform, without replacement, from [0, vocab_size) minus ``excluded``."""
    if count < 1:
        raise ValueError("count must be positive")
    excluded = {i for i in excluded if 0 <= i < vocab_size}
    eligible = vocab_size - len(excluded)
    if count > eligible:
        raise ValueError(
            f"cannot draw {count} negatives from {eligible} eligible items")

    # rejection sampling is uniform and fast while the eligible set is large;
    # otherwise enumerate it and let the generator pick directly
    if vocab_size <= 1024 or eligible < 2 * count:
        pool = np.array([i for i in range(vocab_size) if i not in excluded])
        picked = rng.choice(pool, size=count, replace=False)
        return [int(i) for i in picked]

    out: list[int] = []
    seen = set(excluded)
    while len(out) < count:
        for cand in rng.integers(0, vocab_size, size=2 * (count - len(out))):
            cand = int(cand)
            if cand in seen:
                continue
            seen.add(cand)
            out.append(cand)
            if len(out) == count:
                break
    return out


def sliding_window_examples(items: list[int], window_size: int,
                            samples_per_session: int) -> list[tuple[list[int], list[int]]]:
    """One (window, positives) pair per cut point.

    The prefix is capped at the last ``window_size`` events before the cut;
    cuts near the session start simply yield shorter windows.
    """
    pairs = []
    for split in range(1, len(items)):
        window = list(items[max(0, split - window_size):split])
        positives = list(items[split:split + samples_per_session])
        pairs.append((window, positives))
    return pairs


def knn_augment_positives(prefix, positives, item_matrix: np.ndarray, k: int,
                          needed: int) -> list[int]:
    """Items nearest to the current positives, to top the list up to ``needed``.

    Candidates are the k nearest items of each positive in the rows of
    ``item_matrix`` (the current item embeddings), ranked by their closest
    positive, ties to the lower index; prefix items and existing positives
    are never suggested.
    """
    missing = needed - len(positives)
    if missing <= 0:
        return []
    banned = list(set(prefix) | set(positives))
    k = min(k, len(item_matrix) - len(banned))
    best = np.full(len(item_matrix), np.inf, dtype=item_matrix.dtype)
    for p in set(positives):
        dists = 1.0 - item_matrix @ item_matrix[p]
        dists[banned] = np.inf
        near = top_k(-dists, k)
        best[near] = np.minimum(best[near], dists[near])
    found = np.flatnonzero(best < np.inf)
    return found[top_k(-best[found], missing)].tolist()


def build_epoch(train: Dataset, cfg: SamplerConfig, epoch: int,
                model: encoders.Model | None = None) -> list[TrainingExample]:
    """All training examples for one epoch, shuffled, fully reproducible."""
    if cfg.knn_augment and model is None:
        raise ValueError("knn_augment needs the current model")
    vocab_size = len(train.vocab)
    item_matrix = (encoders.item_embedding_matrix(model)
                   if cfg.knn_augment else None)

    examples: list[TrainingExample] = []
    for position, session in enumerate(train.sessions):
        rng = np.random.default_rng([cfg.rng_seed, epoch, position])
        if cfg.strategy == "posneg":
            pairs = [split_session(session.items, rng, cfg.samples_per_session)]
        else:
            pairs = sliding_window_examples(session.items, cfg.window_size,
                                            cfg.samples_per_session)
        for prefix, positives in pairs:
            if cfg.knn_augment and len(positives) < cfg.samples_per_session:
                positives = positives + knn_augment_positives(
                    prefix, positives, item_matrix, cfg.knn_k,
                    cfg.samples_per_session)
            banned = set(prefix) if cfg.exclude_prefix_negatives else set()
            excluded = banned | set(positives)
            # a vocabulary too small to give every positive its own negative
            # keeps the positives nearest the cut
            while len(positives) > max(1, vocab_size - len(excluded)):
                positives = positives[:-1]
                excluded = banned | set(positives)
            negatives = sample_negatives(excluded, vocab_size, len(positives), rng)
            examples.append(TrainingExample(prefix, positives, negatives))

    shuffle_rng = np.random.default_rng([cfg.rng_seed, epoch])
    order = shuffle_rng.permutation(len(examples))
    return [examples[i] for i in order]
